"""Group-weighted BCE-difference statistics and the stopping tests.

The tested quantity is always a per-sample difference of binary
cross-entropies ``d_i`` evaluated on the validation split. Its mean is
weighted equally across the four (y_mt, y_sp) groups,

    d_bar_w = (1/4) sum_g mean(d | group g),

with estimated variance ``(1/16) sum_g s_g^2 / n_g`` (``s_g^2`` the unbiased
within-group variance). The statistic ``t = (d_bar_w - Delta) / sqrt(var)``
is compared against standard-normal critical values from ``_ndtri``, a
pure-Python port of the Cephes inverse normal CDF: the same bits as
``scipy.stats.norm.ppf``, without the cost of importing scipy on every cold
start of the package.

This module is the one place that computes a statistic and picks a test's
side: ``weighted_diff`` gives the (mean, variance of the mean) pair, group
weighted or plain (the weighting ablation), and ``_report`` turns it into
every test's statistic and decision. The tests take the models' predicted
probabilities on the validation split, not the models. Four test kinds are
used by the subspace-estimation loop, and the first by INLP's stopping rule
(``baselines.inlp_fit``):

* ``sp_vs_random`` / ``mt_vs_random``: a candidate direction beats the
  intercept-only classifier on its own label (one-sided, H1: mean < 0);
* ``sp_vs_mt_on_vsp``: on a spurious candidate, the spurious label is easier
  than the main-task label (H1: mean < Delta);
* ``sp_vs_mt_on_vmt``: on a main-task candidate, the opposite
  (H1: mean > Delta).

A report's side (``less`` or ``greater``) follows from its kind (``SIDES``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledEmbeddings
from .sgd import bce

T_SENTINEL = 1e12  # stand-in for +/- infinity when the variance estimate is zero

# each kind's alternative: statistic < -threshold (less) or > threshold (greater)
SIDES = {"sp_vs_random": "less", "mt_vs_random": "less", "sp_vs_mt_on_vsp": "less",
         "sp_vs_mt_on_vmt": "greater"}


# Cephes ndtri's rational approximations, highest power first: P0/Q0 for
# exp(-2) < y < 1 - exp(-2), else P1/Q1 for z = sqrt(-2 log y) in [2, 8) and
# P2/Q2 for z >= 8 (y the smaller tail). Each Q leads with Cephes' implicit 1.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, as Cephes' polevl (and its p1evl: 1.0 * x + c is x + c)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Standard-normal quantile, the same IEEE operations as Cephes ``ndtri``
    (and so the same bits as ``scipy.special.ndtri``)."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    y, negate = y0, True
    if y > 1.0 - _EXP_M2:
        y, negate = 1.0 - y, False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))  # NaN falls through to here and stays NaN
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def critical_value(alpha: float) -> float:
    """Upper-alpha standard-normal quantile: ``norm.ppf(1 - alpha)`` bit for bit
    for every non-NaN alpha (``+ 0.0`` turns a -0.0 into 0.0, as ppf's
    ``* scale + loc`` does)."""
    return _ndtri(1.0 - float(alpha)) + 0.0


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


def weighted_diff(d: np.ndarray, group: np.ndarray | None = None) -> tuple[float, float]:
    """Mean of the differences d and the estimated variance of that mean:
    equally weighted over the four groups when ``group`` is given, else the
    plain sample mean (the weighting ablation)."""
    d = np.asarray(d, dtype=np.float64)
    if group is None:
        if len(d) < 2:
            raise ValueError("need at least 2 samples")
        return float(d.mean()), float(d.var(ddof=1) / len(d))
    group = np.asarray(group)
    if d.shape != group.shape:
        raise ValueError("d and group must have equal length")
    means = np.empty(4)
    variances = np.empty(4)
    counts = np.empty(4, dtype=np.int64)
    for g in range(1, 5):
        dg = d[group == g]
        if len(dg) < 2:
            raise ValueError(
                f"group {g} has {len(dg)} samples; the weighted statistics need every "
                "group to have at least 2"
            )
        means[g - 1] = dg.mean()
        variances[g - 1] = dg.var(ddof=1)
        counts[g - 1] = len(dg)
    return float(means.mean()), float(np.sum(variances / counts) / 16.0)


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
