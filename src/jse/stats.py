"""Group-weighted BCE-difference statistics and the stopping tests.

The tested quantity is always a per-sample difference of binary
cross-entropies ``d_i`` evaluated on the validation split. Its mean is
weighted equally across the four (y_mt, y_sp) groups,

    d_bar_w = (1/4) sum_g mean(d | group g),

with estimated variance ``(1/16) sum_g s_g^2 / n_g`` (``s_g^2`` the unbiased
within-group variance). The statistic ``t = (d_bar_w - Delta) / sqrt(var)``
is compared against standard-normal critical values, taken from
``scipy.special.ndtri``: the same bits as ``scipy.stats.norm.ppf``, whose
import would cost more CPU than everything else a cold start of the package
does.

This module is the one place that computes a statistic and picks a test's
side. Four test kinds are used by the subspace-estimation loop, and the
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

import numpy as np
from scipy.special import ndtri

from .data import Direction, LabeledEmbeddings
from .sgd import LinearModel, bce

T_SENTINEL = 1e12  # stand-in for +/- infinity when the variance estimate is zero

# each kind's alternative: statistic < -threshold (less) or > threshold (greater)
SIDES = {"sp_vs_random": "less", "mt_vs_random": "less", "sp_vs_mt_on_vsp": "less",
         "sp_vs_mt_on_vmt": "greater"}


def critical_value(alpha: float) -> float:
    """Upper-alpha standard-normal quantile: ``norm.ppf(1 - alpha)`` bit for bit
    for every non-NaN alpha (``+ 0.0`` turns a -0.0 into 0.0, as ppf's
    ``* scale + loc`` does)."""
    return float(ndtri(1.0 - alpha)) + 0.0


class EmptyGroupError(ValueError):
    """A group required by the weighted statistics has fewer than 2 samples."""


@dataclass(frozen=True)
class WeightedDiff:
    d_bar_w: float
    var_hat: float
    group_means: np.ndarray
    group_vars: np.ndarray
    group_counts: np.ndarray


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

    @property
    def side(self) -> str:
        return SIDES[self.kind]

    def csv_row(self) -> str:
        return (
            f"{self.kind},{self.statistic!r},{self.threshold!r},"
            f"{self.alpha!r},{self.delta!r},{self.decision}"
        )


def weighted_diff(d: np.ndarray, group: np.ndarray) -> WeightedDiff:
    """Equally group-weighted mean and variance estimate of the differences d."""
    d = np.asarray(d, dtype=np.float64)
    group = np.asarray(group)
    if d.shape != group.shape:
        raise ValueError("d and group must have equal length")
    means = np.empty(4)
    variances = np.empty(4)
    counts = np.empty(4, dtype=np.int64)
    for g in range(1, 5):
        dg = d[group == g]
        if len(dg) < 2:
            raise EmptyGroupError(
                f"group {g} has {len(dg)} samples; the weighted statistics need every "
                "group to have at least 2"
            )
        means[g - 1] = dg.mean()
        variances[g - 1] = dg.var(ddof=1)
        counts[g - 1] = len(dg)
    d_bar_w = float(means.mean())
    var_hat = float(np.sum(variances / counts) / 16.0)
    return WeightedDiff(d_bar_w, var_hat, means, variances, counts)


def simple_diff(d: np.ndarray) -> WeightedDiff:
    """Unweighted counterpart of :func:`weighted_diff` (the weighting ablation)."""
    d = np.asarray(d, dtype=np.float64)
    if len(d) < 2:
        raise EmptyGroupError("need at least 2 samples")
    fill = np.full(4, np.nan)
    return WeightedDiff(
        float(d.mean()),
        float(d.var(ddof=1) / len(d)),
        fill,
        fill,
        np.array([len(d), 0, 0, 0]),
    )


def _t_statistic(wd: WeightedDiff, delta: float, scale: str) -> float:
    centered = wd.d_bar_w - delta
    if wd.var_hat <= 0.0:
        if centered == 0.0:
            return 0.0
        return T_SENTINEL if centered > 0 else -T_SENTINEL
    denom = float(np.sqrt(wd.var_hat)) if scale == "se" else wd.var_hat
    return centered / denom


def _report(
    kind: str, wd: WeightedDiff, delta: float, alpha: float, scale: str = "se"
) -> TestReport:
    if scale not in ("se", "variance"):
        raise ValueError(f"scale must be 'se' or 'variance', got {scale!r}")
    t = _t_statistic(wd, delta, scale)
    threshold = critical_value(alpha)
    decision = t < -threshold if SIDES[kind] == "less" else t > threshold
    return TestReport(kind, t, threshold, alpha, delta, bool(decision))


def t_vs_random(
    v: Direction | LinearModel,
    val: LabeledEmbeddings,
    target: str,
    random_model: LinearModel,
    alpha: float = 0.05,
    group_weighted: bool = True,
) -> TestReport:
    """Is the model v (a 1-d model along a direction, or INLP's round
    classifier) more informative about its label than the intercept-only
    classifier? H1: the weighted mean BCE difference is < 0."""
    y = val.labels(target)
    d = bce(v.predict(val.Z), y) - bce(random_model.predict(val.Z), y)
    wd = weighted_diff(d, val.group) if group_weighted else simple_diff(d)
    kind = "sp_vs_random" if target == "sp" else "mt_vs_random"
    return _report(kind, wd, 0.0, alpha)


def t_relative(
    sp_fit: Direction,
    mt_fit: Direction,
    val: LabeledEmbeddings,
    on: str,
    delta: float = 0.0,
    alpha: float = 0.05,
    group_weighted: bool = True,
    scale: str = "se",
) -> TestReport:
    """Is a candidate direction more predictive of one concept than the other?

    ``sp_fit`` and ``mt_fit`` are the two 1-d models trained on the same
    candidate vector; ``d_i = BCE(sp) - BCE(mt)``. For ``on='v_sp'`` the
    alternative is mean < Delta, for ``on='v_mt'`` mean > Delta.

    ``scale`` picks the statistic's denominator: 'se' (the asymptotically
    standard-normal form) or 'variance' (divides by the variance estimate
    itself, which turns the test into a near-sign decision on the centered
    mean; the subspace-estimation loop defaults to this form because the
    reference benchmark results are only reproduced by it).
    """
    if on not in ("v_sp", "v_mt"):
        raise ValueError(f"on must be 'v_sp' or 'v_mt', got {on!r}")
    d = bce(sp_fit.predict(val.Z), val.y_sp) - bce(mt_fit.predict(val.Z), val.y_mt)
    wd = weighted_diff(d, val.group) if group_weighted else simple_diff(d)
    kind = "sp_vs_mt_on_vsp" if on == "v_sp" else "sp_vs_mt_on_vmt"
    return _report(kind, wd, delta, alpha, scale)


def delta_heuristic(
    vhat_sp: Direction,
    vhat_mt: Direction,
    val: LabeledEmbeddings,
    group_weighted: bool = True,
) -> float:
    """Null offset compensating for unequal label difficulty: the weighted mean
    of BCE(sp model on its own direction) - BCE(mt model on its own direction)."""
    d = bce(vhat_sp.predict(val.Z), val.y_sp) - bce(vhat_mt.predict(val.Z), val.y_mt)
    wd = weighted_diff(d, val.group) if group_weighted else simple_diff(d)
    return wd.d_bar_w
