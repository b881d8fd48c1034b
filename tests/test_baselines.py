import numpy as np
import pytest

from jse.baselines import (
    InlpConfig,
    RlaceConfig,
    erm_fit,
    gw_erm_fit,
    inlp_fit,
    rlace_fit,
)
from jse.data import LabeledEmbeddings
from jse.evaluate import evaluate
from jse.sgd import OptimizerConfig
from jse.toy import ToyConfig, gen_toy, gen_toy_test

from conftest import rlace_probe_accuracy


def test_inlp_vectors_orthonormal(toy_rho08):
    _, train, val, _ = toy_rho08
    basis = inlp_fit(train, val, InlpConfig(), 1)
    assert basis.k >= 1
    gram = basis.V.T @ basis.V
    assert np.max(np.abs(gram - np.eye(basis.k))) < 1e-6


def test_inlp_rounds_reduce_spurious_accuracy(toy_rho08):
    """Each accepted round strictly lowers the spurious probe accuracy until
    the stop test fires."""
    from jse.baselines import _newton_logreg
    from jse.data import project_out
    from jse.sgd import sigmoid

    _, train, val, _ = toy_rho08
    basis = inlp_fit(train, val, InlpConfig(), 2)
    accs = []
    for k in range(basis.k + 1):
        V = basis.V[:, :k]
        Ztr, Zval = project_out(train.Z, V), project_out(val.Z, V)
        w, b = _newton_logreg(Ztr, train.y_sp.astype(float))
        accs.append(np.mean((sigmoid(Zval @ w + b) >= 0.5) == val.y_sp))
    assert all(a2 < a1 + 0.01 for a1, a2 in zip(accs, accs[1:]))
    assert accs[-1] < accs[0]


def test_inlp_null_calibration():
    hits = []
    for seed in range(40):
        cfg = ToyConfig(n=1500, rho=0.0, gamma_sp=0.0, gamma_mt=0.0, seed=500 + seed)
        train, val = gen_toy(cfg)
        basis = inlp_fit(train, val, InlpConfig(), seed)
        hits.append(basis.k)
    assert all(k <= 1 for k in hits)  # two consecutive false rejections are ~alpha^2
    assert np.mean([k >= 1 for k in hits]) <= 0.15  # consistent with alpha=0.05


def test_rlace_projection_properties(toy_rho08):
    _, train, val, _ = toy_rho08
    res = rlace_fit(train, val, RlaceConfig(), 3)
    V = res.removed.V
    P = np.eye(train.d) - V @ V.T
    np.testing.assert_allclose(P @ P, P, atol=1e-6)
    np.testing.assert_allclose(P, P.T, atol=1e-6)
    assert np.linalg.matrix_rank(np.eye(train.d) - P) == 1
    assert res.converged
    assert rlace_probe_accuracy(train, val, V) < 0.51  # the stopping contract


def test_rlace_removes_the_unpredictability_direction(toy_rho08):
    """The rank-1 removal that makes the spurious label linearly unpredictable
    is u = (1, rho, 0, ...) / sqrt(1 + rho^2); the fit finds it."""
    cfg, train, val, _ = toy_rho08
    res = rlace_fit(train, val, RlaceConfig(), 4)
    u = res.removed.V[:, 0]
    expected = np.zeros(cfg.d)
    expected[0] = 1.0
    expected[1] = cfg.rho
    expected /= np.linalg.norm(expected)
    assert abs(u @ expected) > 0.95


def test_erm_separable():
    rng = np.random.default_rng(5)
    n = 600
    y = rng.integers(0, 2, n)
    Z = rng.normal(0, 0.3, (n, 4))
    Z[:, 2] += 2.5 * (2 * y - 1)
    train = LabeledEmbeddings(Z[:400], y[:400], rng.integers(0, 2, 400))
    val = LabeledEmbeddings(Z[400:], y[400:], rng.integers(0, 2, 200))
    m = erm_fit(train, val, OptimizerConfig(balance_sampling="class-balanced"), 6)
    assert np.mean((m.predict(val.Z) >= 0.5) == val.y_mt) >= 0.98


def test_gw_erm_matches_erm_without_correlation():
    """At rho=0 the group weights degenerate to uniform in expectation."""
    diffs = []
    for seed in range(8):
        cfg = ToyConfig(n=2000, rho=0.0, seed=700 + seed)
        train, val = gen_toy(cfg)
        test = gen_toy_test(cfg)
        erm_cfg = OptimizerConfig(balance_sampling="class-balanced")  # the benchmark's ERM
        a = evaluate(erm_fit(train, val, erm_cfg, seed), test).average
        b = evaluate(gw_erm_fit(train, val, OptimizerConfig(), seed), test).average
        diffs.append(a - b)
    assert abs(np.mean(diffs)) <= 0.5


def test_gw_erm_requires_all_groups():
    rng = np.random.default_rng(8)
    y = rng.integers(0, 2, 100)
    data = LabeledEmbeddings(rng.standard_normal((100, 3)), y, y)  # groups 2,3 missing
    with pytest.raises(ValueError, match="four groups"):
        gw_erm_fit(data, data, OptimizerConfig(), 0)


def test_rlace_config_validation():
    with pytest.raises(ValueError):
        RlaceConfig(rank=0)


def test_rlace_nonconvergence_flag(toy_rho08):
    _, train, val, _ = toy_rho08
    res = rlace_fit(train, val, RlaceConfig(max_iters=40, eval_every=20), 9)
    assert not res.converged
    assert res.iters == 40
