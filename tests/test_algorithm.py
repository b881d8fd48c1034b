import hashlib

import numpy as np
import pytest
from dataclasses import replace

from jse.algorithm import JseConfig, jse_fit
from jse.data import LabeledEmbeddings, project_out
from jse.evaluate import Artifact, ExperimentConfig, fit_and_evaluate, fit_method
from jse.sgd import OptimizerConfig, fit_1d_logreg, fit_logreg, predict_1d
from jse.toy import ToyConfig, gen_toy, gen_toy_test


def _pipeline(train, val, test, jse_cfg, seed):
    """jse on the raw splits, then the class-balanced downstream classifier."""
    cfg = ExperimentConfig("jse", jse=jse_cfg, demean=False)
    return fit_and_evaluate(cfg, train, val, test, seed)


def test_single_spurious_vector_at_rho08(toy_rho08):
    _, train, val, _ = toy_rho08
    res = jse_fit(train, val, JseConfig(), 1)
    assert res.d_sp == 1  # the procedure terminates after one projection
    assert res.termination == "test-rejected"
    v = res.sp_basis.V[:, 0]
    assert abs(v[0]) > 0.95  # aligned with the generating spurious axis


def test_bases_orthonormal_and_mutually_orthogonal(toy_rho08):
    _, train, val, _ = toy_rho08
    res = jse_fit(train, val, JseConfig(), 2)
    for basis in (res.sp_basis, res.mt_basis):
        if basis.k:
            gram = basis.V.T @ basis.V
            assert np.max(np.abs(gram - np.eye(basis.k))) < 1e-6
    if res.d_sp and res.d_mt:
        assert np.max(np.abs(res.sp_basis.V.T @ res.mt_basis.V)) < 1e-6


def test_null_labels_rarely_accept_anything():
    accepted = 0
    runs = 60
    for seed in range(runs):
        cfg = ToyConfig(n=2000, rho=0.0, gamma_sp=0.0, gamma_mt=0.0, seed=1000 + seed)
        train, val = gen_toy(cfg)
        res = jse_fit(train, val, JseConfig(), seed)
        accepted += (res.d_sp + res.d_mt) > 0
    assert accepted / runs <= 0.10


def test_transform_modes(toy_rho08):
    _, train, val, test = toy_rho08
    art = fit_method(ExperimentConfig("jse", demean=False), train, val, 3)
    removed = art.transform(test.Z, "remove-sp")
    # idempotence
    np.testing.assert_allclose(art.transform(removed, "remove-sp"), removed, atol=1e-10)
    # removed rows orthogonal to the spurious basis
    assert np.max(np.abs(removed @ art.sp_basis)) < 1e-6
    kept = art.transform(test.Z, "keep-mt")
    if art.mt_basis.shape[1]:
        np.testing.assert_allclose(kept @ art.sp_basis, 0.0, atol=1e-8)
    with pytest.raises(ValueError, match="mode"):
        art.transform(test.Z, "bogus")


def test_transform_degenerate_bases():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((5, 4))
    art = Artifact("jse", 4, np.zeros((4, 0)), np.eye(4), [], None, "test-rejected", 0.0)
    np.testing.assert_array_equal(art.transform(Z, "remove-sp"), Z)
    np.testing.assert_allclose(art.transform(Z, "keep-mt"), Z, atol=1e-12)
    with pytest.raises(ValueError, match="data has 3 columns, the artifact expects 4"):
        art.transform(Z[:, :3])


def test_removal_oracle(toy_rho08):
    """After remove-sp, the estimated spurious direction carries no usable
    signal: a 1-d fit on it scores at the majority rate."""
    _, train, val, _ = toy_rho08
    res = jse_fit(train, val, JseConfig(), 4)
    Ztr = project_out(train.Z, res.sp_basis.V)
    Zval = project_out(val.Z, res.sp_basis.V)
    v = res.sp_basis.V[:, 0]
    fit = fit_1d_logreg(Ztr, v, train.y_sp)
    acc = np.mean((predict_1d(Zval, v, *fit) >= 0.5) == val.y_sp)
    majority = max(np.mean(val.y_sp), 1 - np.mean(val.y_sp))
    assert abs(acc - majority) <= 0.02


def test_monotone_safety():
    """Removing the spurious subspace never costs more than 2 points of
    main-task validation accuracy at moderate correlation."""
    for rho in (0.0, 0.3, 0.5):
        drops = []
        for seed in range(5):
            cfg = ToyConfig(n=2000, rho=rho, seed=3000 + seed)
            train, val = gen_toy(cfg)
            opt = OptimizerConfig(balance_sampling="class-balanced")
            before = fit_logreg(train, "mt", val, opt, seed)
            acc_before = np.mean((before.predict(val.Z) >= 0.5) == val.y_mt)
            res = jse_fit(train, val, JseConfig(), seed)
            tr = train.with_Z(project_out(train.Z, res.sp_basis.V))
            va = val.with_Z(project_out(val.Z, res.sp_basis.V))
            after = fit_logreg(tr, "mt", va, opt, seed)
            acc_after = np.mean((after.predict(va.Z) >= 0.5) == va.y_mt)
            drops.append(100 * (acc_before - acc_after))
        assert max(drops) <= 2.0, f"rho={rho}: drops {drops}"


def test_max_dim_cap():
    cfg = ToyConfig(n=2000, rho=0.8, seed=11)
    train, val = gen_toy(cfg)
    res = jse_fit(train, val, JseConfig(max_dim=1), 11)
    assert res.d_sp <= 1
    if res.d_sp == 1:
        assert res.termination == "max-iterations"


def test_delta_auto_recorded():
    cfg = ToyConfig(n=2000, rho=0.5, gamma_sp=6.0, gamma_mt=2.0, seed=12)
    train, val = gen_toy(cfg)
    res = jse_fit(train, val, JseConfig(delta="auto"), 12)
    assert res.delta < -0.05  # the spurious labels are easier, so the offset is negative
    res0 = jse_fit(train, val, JseConfig(delta=0.25), 12)
    assert res0.delta == 0.25


def test_group_weighting_ablation_flag(toy_rho08):
    """The unweighted-test variant runs end to end and records plain-mean
    statistics (group fields empty)."""
    _, train, val, _ = toy_rho08
    res = jse_fit(train, val, JseConfig(group_weighted_tests=False), 17)
    assert res.d_sp >= 1
    rep = res.sp_tests[0][0]
    assert rep.decision  # the informative direction still clears the unweighted gate


def test_pipeline_shapes(toy_rho08):
    _, train, val, test = toy_rho08
    art, model, summary = _pipeline(train, val, test, JseConfig(), 14)
    assert model.w.shape == (train.d,)
    assert summary.average > 75.0
    assert art.sp_basis.shape[1] >= 1


def test_empty_val_group_raises():
    rng = np.random.default_rng(15)
    Z = rng.standard_normal((100, 4))
    y = rng.integers(0, 2, 100)
    train = LabeledEmbeddings(Z, y, rng.integers(0, 2, 100))
    val = LabeledEmbeddings(Z[:40], np.zeros(40, int), np.zeros(40, int))
    # validation split missing three groups cannot feed the weighted tests
    with pytest.raises(ValueError, match="group 2 has 0 samples"):
        jse_fit(train, val, JseConfig(), 16)


def test_config_validation():
    with pytest.raises(ValueError):
        JseConfig(alpha=0.0)
    with pytest.raises(ValueError):
        JseConfig(delta="sometimes")
    with pytest.raises(ValueError):
        JseConfig(transform_mode="remove-everything")
    with pytest.raises(ValueError):
        JseConfig(relative_test_scale="cube")


# sha256 of every [tests] row, delta and termination that fit_method's jse
# writes for the four test options at rho 0.0 and 0.9, fit seeds 0 and 1: a
# statistic that moves by one ulp changes it, where the golden runs pin only
# decisions and accuracies
TESTS_ROWS_SHA256 = "2f6017eb847e7f58db171b41bc2ee77b9115af1a8b38b4b2c9001a2a6851a8fc"


def test_jse_tests_rows_bit_for_bit():
    lines = []
    for over in ({}, {"group_weighted_tests": False}, {"relative_test_scale": "se"},
                 {"delta": 0.0}):
        cfg = ExperimentConfig("jse", jse=JseConfig(**over))
        for rho in (0.0, 0.9):
            for seed in (0, 1):
                train, val = gen_toy(ToyConfig(n=800, rho=rho, seed=100 + seed))
                art = fit_method(cfg, train, val, seed)
                lines += [r.csv_row() for r in art.tests] + [repr(art.delta), art.termination]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TESTS_ROWS_SHA256
