"""Group-weighted BCE-difference statistics and the stopping tests.

The tested quantity is always a per-sample difference of binary
cross-entropies ``d_i`` evaluated on the validation split. Its mean is
weighted equally across the G = 4 (y_mt, y_sp) groups,

    d_bar_w = (1/G) sum_g mean(d | group g),

with estimated variance ``(1/G^2) sum_g s_g^2 / n_g`` (``s_g^2`` the unbiased
within-group variance). The unweighted ablation is the same estimator with
the whole sample as its one group (G = 1). The statistic
``t = (d_bar_w - Delta) / sqrt(var)`` is compared against the one-sided
standard-normal critical value ``critical_value(alpha)``, the standard
library's ``NormalDist.inv_cdf`` (Wichura's Algorithm AS 241) evaluated at
alpha itself.

This module is the one place that computes a statistic and picks a test's
side: ``weighted_diff`` gives the (mean, variance of the mean) pair, and
``_report`` turns it into every test's statistic and decision. The tests
take the models' predicted probabilities on the validation split, not the
models. Four test kinds are used by the subspace-estimation loop, and the
first by INLP's stopping rule (``baselines.inlp_fit``):

* ``sp_vs_random`` / ``mt_vs_random``: a candidate direction beats the
  intercept-only classifier on its own label (one-sided, H1: mean < 0);
* ``sp_vs_mt_on_vsp``: on a spurious candidate, the spurious label is easier
  than the main-task label (H1: mean < Delta);
* ``sp_vs_mt_on_vmt``: on a main-task candidate, the opposite
  (H1: mean > Delta).

A report's side (``less`` or ``greater``) follows from its kind (``SIDES``).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import GROUPS, LabeledEmbeddings
from .sgd import bce

T_SENTINEL = 1e12  # stand-in for +/- infinity when the variance estimate is zero

# each kind's alternative: statistic < -threshold (less) or > threshold (greater)
SIDES = {"sp_vs_random": "less", "mt_vs_random": "less", "sp_vs_mt_on_vsp": "less",
         "sp_vs_mt_on_vmt": "greater"}


def critical_value(alpha: float) -> float:
    """Upper-alpha standard-normal quantile, taken from alpha's own tail so that
    ``1 - alpha`` is never rounded (``+ 0.0`` turns a -0.0 into 0.0)."""
    return -NormalDist().inv_cdf(alpha) + 0.0


@dataclass(frozen=True)
class TestReport:
    __test__ = False  # keep pytest collection away from the name

    kind: str
    statistic: float
    threshold: float
    alpha: float
    delta: float
    decision: bool

    def __post_init__(self) -> None:
        if self.kind not in SIDES:
            raise ValueError(f"unknown test kind {self.kind!r}; expected one of "
                             f"{', '.join(SIDES)}")

    def csv_row(self) -> str:
        return (
            f"{self.kind},{self.statistic!r},{self.threshold!r},"
            f"{self.alpha!r},{self.delta!r},{self.decision}"
        )


# the fewest samples a group (or, unweighted, the whole sample) may have: its
# variance is estimated with ddof=1
MIN_GROUP_SIZE = 2


def weighted_diff(d: np.ndarray, group: np.ndarray | None = None) -> tuple[float, float]:
    """Mean of the differences d and the estimated variance of that mean over
    G parts: the four groups when ``group`` is given, else the whole sample
    (the weighting ablation). Each part's mean weighs 1/G and its variance
    of the mean 1/G^2, so G = 1 is the plain mean and ``var(ddof=1) / n``."""
    d = np.asarray(d, dtype=np.float64)
    if group is not None and np.shape(group) != d.shape:
        raise ValueError("d and group must have equal length")
    # every part is a copy: the loop subtracts in place
    parts = ([d.copy()] if group is None
             else [d[np.asarray(group) == g] for g, _ in enumerate(GROUPS, 1)])
    means, var_of_means = np.empty(len(parts)), np.empty(len(parts))
    for i, dg in enumerate(parts):
        m = len(dg)
        if m < MIN_GROUP_SIZE:
            raise ValueError(f"group {i + 1} has {m} samples; the statistics need at least "
                             f"{MIN_GROUP_SIZE} in every group")
        # dg.mean() and dg.var(ddof=1) without their wrappers, in numpy's own
        # operation order: the sum over the count, then the squared
        # deviations from that mean summed over count - 1; that over m again
        # is the variance of the mean
        mean = np.add.reduce(dg) / m
        dev = np.subtract(dg, mean, out=dg)
        means[i] = mean
        var_of_means[i] = np.add.reduce(np.multiply(dev, dev, out=dev)) / (m - 1) / m
    return float(means.mean()), float(np.sum(var_of_means) / len(parts) ** 2)


def _report(kind: str, d: np.ndarray, val: LabeledEmbeddings, group_weighted: bool,
            delta: float, alpha: float, scale: str = "se") -> TestReport:
    """Decide test ``kind`` on the differences d: t = (mean - delta) over the
    standard error (``scale='se'``) or over the variance of the mean."""
    mean, var = weighted_diff(d, val.group if group_weighted else None)
    centered = mean - delta
    if var <= 0.0:
        t = 0.0 if centered == 0.0 else (T_SENTINEL if centered > 0 else -T_SENTINEL)
    else:
        t = centered / (float(np.sqrt(var)) if scale == "se" else var)
    threshold = critical_value(alpha)
    decision = t < -threshold if SIDES[kind] == "less" else t > threshold
    return TestReport(kind, t, threshold, alpha, delta, bool(decision))


def t_vs_random(
    p: np.ndarray,
    p_random: np.ndarray,
    val: LabeledEmbeddings,
    target: str,
    alpha: float = 0.05,
    group_weighted: bool = True,
) -> TestReport:
    """Is a model with validation predictions ``p`` (a 1-d model along a
    direction, or INLP's round classifier) more informative about its label
    than the intercept-only classifier, which predicts ``p_random``?
    H1: the weighted mean BCE difference is < 0."""
    y = val.labels(target)
    kind = "sp_vs_random" if target == "sp" else "mt_vs_random"
    return _report(kind, bce(p, y) - bce(p_random, y), val, group_weighted, 0.0, alpha)


def t_relative(
    p_sp: np.ndarray,
    p_mt: np.ndarray,
    val: LabeledEmbeddings,
    on: str,
    delta: float = 0.0,
    alpha: float = 0.05,
    group_weighted: bool = True,
    scale: str = "se",
) -> TestReport:
    """Is a candidate direction more predictive of one concept than the other?

    ``p_sp`` and ``p_mt`` are the validation predictions of the two 1-d
    models trained on the same candidate vector; ``d_i = BCE(sp) - BCE(mt)``.
    For ``on='v_sp'`` the alternative is mean < Delta, for ``on='v_mt'``
    mean > Delta.

    ``scale`` picks the statistic's denominator: 'se' (the asymptotically
    standard-normal form) or 'variance' (divides by the variance estimate
    itself, which turns the test into a near-sign decision on the centered
    mean; the subspace-estimation loop defaults to this form because the
    reference benchmark results are only reproduced by it).
    """
    if on not in ("v_sp", "v_mt"):
        raise ValueError(f"on must be 'v_sp' or 'v_mt', got {on!r}")
    if scale not in ("se", "variance"):
        raise ValueError(f"scale must be 'se' or 'variance', got {scale!r}")
    d = bce(p_sp, val.y_sp) - bce(p_mt, val.y_mt)
    kind = "sp_vs_mt_on_vsp" if on == "v_sp" else "sp_vs_mt_on_vmt"
    return _report(kind, d, val, group_weighted, delta, alpha, scale)


def delta_heuristic(
    p_sp: np.ndarray,
    p_mt: np.ndarray,
    val: LabeledEmbeddings,
    group_weighted: bool = True,
) -> float:
    """Null offset compensating for unequal label difficulty: the weighted mean
    of BCE(sp model on its own direction) - BCE(mt model on its own direction),
    from those models' validation predictions ``p_sp`` and ``p_mt``."""
    d = bce(p_sp, val.y_sp) - bce(p_mt, val.y_mt)
    return weighted_diff(d, val.group if group_weighted else None)[0]
