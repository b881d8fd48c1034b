import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

import jse
from jse.data import LabeledEmbeddings
from jse.sgd import bce, fit_1d_logreg, fit_intercept_only, predict_1d
from jse.stats import (
    T_SENTINEL,
    critical_value,
    delta_heuristic,
    t_relative,
    t_vs_random,
    weighted_diff,
)
from jse.toy import ToyConfig, gen_toy


def groups(*sizes):
    return np.concatenate([np.full(n, g + 1) for g, n in enumerate(sizes)])


def test_weighted_diff_constant():
    d = np.full(40, 3.25)
    mean, var = weighted_diff(d, groups(10, 10, 10, 10))
    assert mean == 3.25
    assert var == 0.0


# the evenly spaced case (seed None), then drawn group sizes and value scales
# with normal noise; the result must equal numpy's per-group mean() and
# var(ddof=1) bit for bit, and without groups (the whole sample as one group)
# numpy's mean() and var(ddof=1) / n, leaving d as it was
@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(2, 60)] * 4), st.floats(1e-3, 1e3),
       st.integers(0, 2**32 - 1))
@example((5, 9, 3, 7), 0.5, None)
def test_weighted_diff_group_means(sizes, scale, seed):
    # unequal groups: each group's mean weighs 1/4 and its variance of the
    # mean 1/16, whatever its size
    g = groups(*sizes)
    if seed is None:
        d = np.concatenate([k + 1.0 + scale * np.arange(m) for k, m in enumerate(sizes)])
    else:
        d = scale * (g + np.random.default_rng(seed).standard_normal(len(g)))
    mean, var = weighted_diff(d, g)
    means = [d[g == k].mean() for k in range(1, 5)]
    var_of_means = [d[g == k].var(ddof=1) / m for k, m in zip(range(1, 5), sizes)]
    assert mean == np.mean(means)
    assert var == sum(var_of_means) / 16.0
    if len(set(sizes)) > 1:
        assert mean != d.mean()
    before = d.copy()
    assert weighted_diff(d) == (d.mean(), d.var(ddof=1) / len(d))
    assert np.array_equal(d, before)


def test_weighted_diff_brute_force_oracle():
    rng = np.random.default_rng(4)
    m = 25
    d = rng.standard_normal(4 * m)
    g = groups(m, m, m, m)
    mean, var = weighted_diff(d, g)
    # independent re-aggregation
    means = [d[g == k].mean() for k in range(1, 5)]
    variances = [d[g == k].var(ddof=1) for k in range(1, 5)]
    np.testing.assert_allclose(mean, np.mean(means), rtol=1e-12)
    np.testing.assert_allclose(var, sum(v / m for v in variances) / 16.0, rtol=1e-12)


def test_weighted_diff_empty_group():
    with pytest.raises(ValueError, match="group 3"):
        weighted_diff(np.zeros(30), groups(10, 10, 0, 10))
    with pytest.raises(ValueError):
        weighted_diff(np.zeros(31), groups(10, 10, 1, 10))


def test_weighted_collapses_to_simple():
    # four equal-size groups with identical per-group statistics
    rng = np.random.default_rng(5)
    block = rng.standard_normal(50)
    d = np.tile(block, 4)
    g = groups(50, 50, 50, 50)
    mean, var = weighted_diff(d, g)
    np.testing.assert_allclose(mean, d.mean(), rtol=1e-12)
    np.testing.assert_allclose(var, block.var(ddof=1) / len(d), rtol=1e-12)


def test_scale_property():
    rng = np.random.default_rng(6)
    d = rng.standard_normal(200) + 0.3
    g = groups(50, 50, 50, 50)
    mean1, var1 = weighted_diff(d, g)
    c = 3.7
    mean2, var2 = weighted_diff(c * d, g)
    np.testing.assert_allclose(mean2, c * mean1, rtol=1e-12)
    np.testing.assert_allclose(var2, c**2 * var1, rtol=1e-12)
    t1 = mean1 / np.sqrt(var1)
    t2 = mean2 / np.sqrt(var2)
    assert abs(t1 - t2) < 1e-9


def _val_set(rng, n, d=4):
    return LabeledEmbeddings(
        rng.standard_normal((n, d)), rng.integers(0, 2, n), rng.integers(0, 2, n)
    )


def test_t_arithmetic_minus_five():
    # group values chosen so the mean is -0.1 and its variance 4e-4 exactly
    a = 0.04
    d = np.concatenate([[-0.1 - a, -0.1 + a]] * 4)
    g = groups(2, 2, 2, 2)
    mean, var = weighted_diff(d, g)
    np.testing.assert_allclose(mean, -0.1)
    np.testing.assert_allclose(var, 4e-4)
    t = mean / np.sqrt(var)
    np.testing.assert_allclose(t, -5.0)


def test_t_vs_random_perfect_separation():
    rng = np.random.default_rng(7)
    n = 400
    Z = rng.standard_normal((n, 3))
    y_sp = (Z[:, 0] > 0).astype(int)
    y_mt = rng.integers(0, 2, n)
    val = LabeledEmbeddings(Z, y_mt, y_sp)
    p = predict_1d(Z, np.array([1.0, 0, 0]), 8.0, 0.0)
    rand = LabeledEmbeddings(Z, y_mt, y_sp)
    p_random = fit_intercept_only(rand, "sp").predict(Z)
    rep = t_vs_random(p, p_random, val, "sp")
    assert rep.decision and rep.statistic < -5
    # hand check: the weighted mean difference really is negative
    d = bce(p, y_sp) - bce(p_random, y_sp)
    assert weighted_diff(d, val.group)[0] < 0


def test_t_vs_random_null_calibration():
    """Monte-Carlo: uninformative direction, random labels; rejection rate
    must sit near alpha."""
    rng = np.random.default_rng(8)
    n_train, n_val = 4000, 1000
    rejections = 0
    reps = 1000
    v = np.array([1.0, 0.0, 0.0])
    for _ in range(reps):
        y_tr = rng.integers(0, 2, n_train)
        s_tr = rng.standard_normal((n_train, 3))
        y_val = rng.integers(0, 2, n_val)
        y_val2 = rng.integers(0, 2, n_val)
        Z_val = rng.standard_normal((n_val, 3))
        fit = fit_1d_logreg(s_tr, v, y_tr)
        val = LabeledEmbeddings(Z_val, y_val2, y_val)
        random_model = fit_intercept_only(
            LabeledEmbeddings(s_tr, y_tr, y_tr), "sp"
        )
        rep = t_vs_random(predict_1d(Z_val, v, *fit), random_model.predict(Z_val), val, "sp",
                          alpha=0.05)
        rejections += rep.decision
    rate = rejections / reps
    assert 0.03 <= rate <= 0.07, f"null rejection rate {rate}"


def test_t_weighted_ks_calibration():
    """t over iid N(0,1) differences in 4 groups of 250 is standard normal."""
    rng = np.random.default_rng(9)
    g = groups(250, 250, 250, 250)
    ts = []
    for _ in range(2000):
        mean, var = weighted_diff(rng.standard_normal(1000), g)
        ts.append(mean / np.sqrt(var))
    assert kstest(ts, "norm").pvalue > 0.01


def test_zero_variance_sentinel():
    d = np.full(8, -0.5)
    g = groups(2, 2, 2, 2)
    _, var = weighted_diff(d, g)
    assert var == 0.0
    # placeholder fits; we test the stat path
    p = predict_1d(np.zeros((8, 2)), np.array([1.0, 0]), 0.0, -10.0)
    rep_kind = t_relative(
        p,
        p,
        LabeledEmbeddings(np.zeros((8, 2)), (g > 2).astype(int), (g % 2 == 0).astype(int)),
        on="v_sp",
    )
    # identical fits and labels-independent predictions give d == 0 exactly
    assert rep_kind.statistic in (0.0, T_SENTINEL, -T_SENTINEL)


def test_t_relative_identical_labels():
    rng = np.random.default_rng(10)
    n = 200
    Z = rng.standard_normal((n, 3))
    y = np.tile([0, 1], n // 2)
    val = LabeledEmbeddings(Z, y, y)  # y_sp identical to y_mt: only groups 1 and 4
    p = predict_1d(Z, np.array([1.0, 0, 0]), 1.3, 0.2)
    for on in ("v_sp", "v_mt"):
        rep = t_relative(p, p, val, on, delta=0.0, group_weighted=False)
        assert rep.statistic == 0.0
        assert not rep.decision
    with pytest.raises(ValueError):
        t_relative(p, p, val, "v_sp")


def test_t_relative_sp_side_on_toy(toy_rho08):
    _, train, val, _ = toy_rho08
    v = np.zeros(train.d)
    v[0] = 1.0
    p_sp = predict_1d(val.Z, v, *fit_1d_logreg(train.Z, v, train.y_sp))
    p_mt = predict_1d(val.Z, v, *fit_1d_logreg(train.Z, v, train.y_mt))
    rep = t_relative(p_sp, p_mt, val, "v_sp", scale="variance")
    assert rep.decision
    d = bce(p_sp, val.y_sp) - bce(p_mt, val.y_mt)
    assert weighted_diff(d, val.group)[0] < 0


def test_t_relative_centering():
    rng = np.random.default_rng(11)
    d = rng.standard_normal(400) * 0.01 + 0.05
    g = groups(100, 100, 100, 100)
    mean, var = weighted_diff(d, g)
    t = (mean - mean) / np.sqrt(var)
    assert t == 0.0  # delta equal to the mean centers the statistic exactly


def test_delta_heuristic_symmetric_generator():
    deltas = []
    for seed in range(20):
        cfg = ToyConfig(n=2000, rho=0.5, seed=seed)
        train, val = gen_toy(cfg)
        v_sp = np.zeros(cfg.d)
        v_sp[0] = 1.0
        v_mt = np.zeros(cfg.d)
        v_mt[1] = 1.0
        p_sp = predict_1d(val.Z, v_sp, *fit_1d_logreg(train.Z, v_sp, train.y_sp))
        p_mt = predict_1d(val.Z, v_mt, *fit_1d_logreg(train.Z, v_mt, train.y_mt))
        deltas.append(delta_heuristic(p_sp, p_mt, val))
    assert abs(np.mean(deltas)) <= 0.05


def test_delta_heuristic_unequal_separability():
    deltas = []
    for seed in range(10):
        cfg = ToyConfig(n=2000, rho=0.5, gamma_sp=6.0, gamma_mt=2.0, seed=seed)
        train, val = gen_toy(cfg)
        v_sp = np.zeros(cfg.d)
        v_sp[0] = 1.0
        v_mt = np.zeros(cfg.d)
        v_mt[1] = 1.0
        p_sp = predict_1d(val.Z, v_sp, *fit_1d_logreg(train.Z, v_sp, train.y_sp))
        p_mt = predict_1d(val.Z, v_mt, *fit_1d_logreg(train.Z, v_mt, train.y_mt))
        deltas.append(delta_heuristic(p_sp, p_mt, val))
    assert np.mean(deltas) < -0.1  # spurious label strictly easier


def test_delta_heuristic_antisymmetry():
    rng = np.random.default_rng(12)
    n = 400
    Z = rng.standard_normal((n, 4))
    val = LabeledEmbeddings(Z, rng.integers(0, 2, n), rng.integers(0, 2, n))
    swapped = LabeledEmbeddings(Z, val.y_sp, val.y_mt)
    a = predict_1d(Z, np.eye(4)[0], 1.5, 0.1)
    b = predict_1d(Z, np.eye(4)[1], 0.7, -0.2)
    assert abs(delta_heuristic(a, b, val) + delta_heuristic(b, a, swapped)) < 1e-6


def test_simple_diff_matches_numpy():
    rng = np.random.default_rng(13)
    d = rng.standard_normal(100)
    mean, var = weighted_diff(d)
    np.testing.assert_allclose(mean, d.mean())
    np.testing.assert_allclose(var, d.var(ddof=1) / 100)


def test_report_csv_row():
    rng = np.random.default_rng(14)
    val = _val_set(rng, 200)
    p = predict_1d(val.Z, np.eye(4)[0], 0.5, 0.0)
    rep = t_vs_random(p, fit_intercept_only(val, "mt").predict(val.Z), val, "mt")
    row = rep.csv_row()
    parts = row.split(",")
    assert parts[0] == "mt_vs_random"
    assert parts[-1] in ("True", "False")
    assert float(parts[1]) == rep.statistic


def test_threshold_is_normal_quantile():
    rng = np.random.default_rng(15)
    val = _val_set(rng, 200)
    p = predict_1d(val.Z, np.eye(4)[0], 0.5, 0.0)
    rep = t_vs_random(p, fit_intercept_only(val, "sp").predict(val.Z), val, "sp", alpha=0.1)
    np.testing.assert_allclose(rep.threshold, norm.ppf(0.9), rtol=1e-12)


# upper-alpha standard-normal quantiles, -ndtri(alpha), to 17 digits: mpmath
# at 360 digits, at the double nearest each alpha
NORMAL_QUANTILES = [
    (1e-300, 37.047096299361199), (1e-12, 7.0344838253011319), (1e-6, 4.7534243088228990),
    (1e-3, 3.0902323061678135), (0.01, 2.3263478740408411), (0.025, 1.9599639845400542),
    (0.05, 1.6448536269514727), (0.1, 1.2815515655446004), (0.9, -1.2815515655446006),
]


def test_critical_value_matches_reference_quantiles():
    """critical_value is within 4 ulp of each reference, and finite where
    1 - alpha rounds to 1."""
    for alpha, want in NORMAL_QUANTILES:
        assert abs(critical_value(alpha) - want) <= 4 * np.spacing(abs(want)), alpha


# the correctly rounded upper-alpha quantile (mpmath at 360 digits, rounded to
# the nearest double) at the default level and in the tails, where AS 241
# rounds correctly; scipy's norm.ppf(1 - alpha) is 2 ulp low at 0.05 and
# inf at 1e-300
CORRECTLY_ROUNDED = [(1e-300, 37.0470962993612), (1e-12, 7.034483825301132),
                     (1e-6, 4.753424308822899), (0.05, 1.6448536269514726)]


def test_critical_value_is_norm_ppf_bit_for_bit():
    for alpha, want in CORRECTLY_ROUNDED:
        assert critical_value(alpha) == want, alpha
    zero = critical_value(0.5)
    assert zero == 0.0 and not np.signbit(zero)


def test_reported_thresholds_are_norm_ppf_bit_for_bit():
    """Every t_vs_random / t_relative threshold is critical_value(alpha), and
    at the default level the correctly rounded quantile."""
    rng = np.random.default_rng(16)
    val = _val_set(rng, 200)
    a = predict_1d(val.Z, np.eye(4)[0], 0.5, 0.0)
    b = predict_1d(val.Z, np.eye(4)[1], 0.7, -0.2)
    p_random = fit_intercept_only(val, "sp").predict(val.Z)
    for alpha in [0.5, *(alpha for alpha, _ in NORMAL_QUANTILES)]:
        want = critical_value(alpha)
        assert t_vs_random(a, p_random, val, "sp", alpha=alpha).threshold == want
        for on in ("v_sp", "v_mt"):
            assert t_relative(a, b, val, on, alpha=alpha).threshold == want
    assert t_vs_random(a, p_random, val, "sp").threshold == 1.6448536269514726
    for on in ("v_sp", "v_mt"):
        assert t_relative(a, b, val, on).threshold == 1.6448536269514726


def _fresh_import_modules() -> list[str]:
    """Module names in sys.modules after ``import jse, jse.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(jse.__file__).parents[1]))
    code = "import sys, jse, jse.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def _loaded_in_fresh_interpreter(module: str) -> bool:
    return module in _fresh_import_modules()


def test_import_loads_no_scipy():
    """jse and INLP need only numpy; RLACE imports scipy.linalg at its first fit."""
    assert [m for m in _fresh_import_modules() if m.split(".")[0] == "scipy"] == []


def test_import_does_not_load_scipy_stats():
    """scipy.stats costs more CPU to import than the rest of a cold start."""
    assert not _loaded_in_fresh_interpreter("scipy.stats")


def test_import_does_not_load_scipy_optimize():
    """The joint fit's L-BFGS is written out in jse.sgd: scipy.optimize would
    add ~0.2 s of CPU to every cold start."""
    assert not _loaded_in_fresh_interpreter("scipy.optimize")
