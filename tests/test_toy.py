import numpy as np
import pytest

from jse.sgd import sigmoid
from jse.toy import ToyConfig, gen_toy, gen_toy_test


def _full_draw(cfg):
    train, val = gen_toy(cfg)
    return np.vstack([train.Z, val.Z]), np.concatenate([train.y_sp, val.y_sp])


def test_independent_features_at_rho0():
    Z, _ = _full_draw(ToyConfig(n=100000, rho=0.0, seed=1))
    assert abs(np.corrcoef(Z[:, 0], Z[:, 1])[0, 1]) < 0.01


def test_correlation_matches_rho():
    Z, _ = _full_draw(ToyConfig(n=100000, rho=0.8, seed=2))
    assert abs(np.corrcoef(Z[:, 0], Z[:, 1])[0, 1] - 0.8) < 0.01


def test_class_balance_at_zero_intercept():
    cfg = ToyConfig(n=100000, rho=0.3, seed=3)
    train, val = gen_toy(cfg)
    for y in (train.y_sp, train.y_mt):
        assert abs(np.mean(y) - 0.5) < 0.011


def test_covariance_entrywise():
    cfg = ToyConfig(n=100000, d=6, rho=0.6, seed=4)
    Z, _ = _full_draw(cfg)
    sigma = np.eye(6)
    sigma[0, 1] = sigma[1, 0] = 0.6
    sample = np.cov(Z.T)
    assert np.max(np.abs(sample - sigma)) < 0.02


def test_label_model_decile_bins():
    cfg = ToyConfig(n=100000, rho=0.0, seed=5)
    Z, y_sp = _full_draw(cfg)
    z1 = Z[:, 0]
    edges = np.quantile(z1, np.linspace(0, 1, 11))
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (z1 >= lo) & (z1 <= hi)
        expected = np.mean(sigmoid(cfg.gamma_sp * z1[mask]))
        assert abs(np.mean(y_sp[mask]) - expected) < 0.03


def test_seed_determinism():
    cfg = ToyConfig(n=500, rho=0.4, seed=6)
    t1, v1 = gen_toy(cfg)
    t2, v2 = gen_toy(cfg)
    assert np.array_equal(t1.Z, t2.Z)
    assert np.array_equal(t1.y_mt, t2.y_mt)
    assert np.array_equal(v1.y_sp, v2.y_sp)
    assert np.array_equal(gen_toy_test(cfg).Z, gen_toy_test(cfg).Z)


def test_split_sizes():
    train, val = gen_toy(ToyConfig(n=2000, seed=0))
    assert train.n == 1600 and val.n == 400


def test_angle_construction():
    cfg = ToyConfig(angle_deg=75.0, seed=0)
    w_sp, w_mt = cfg.directions()
    cos = (w_sp @ w_mt) / (np.linalg.norm(w_sp) * np.linalg.norm(w_mt))
    angle = np.rad2deg(np.arccos(cos))
    assert abs(angle - 75.0) < 1e-6


def test_orthogonal_directions_default():
    w_sp, w_mt = ToyConfig().directions()
    assert w_sp @ w_mt == 0.0
    assert w_sp[0] == 3.0 and w_mt[1] == 3.0


def test_test_set_inherits_config():
    cfg = ToyConfig(n=2000, rho=0.9, angle_deg=75.0, gamma_sp=5.0, seed=7)
    test = gen_toy_test(cfg)
    assert test.n == 2000  # same size as the training draw by default
    # rho forced to zero regardless of the training configuration
    assert abs(np.corrcoef(test.Z[:, 0], test.Z[:, 1])[0, 1]) < 0.08
    # all four groups populated with overwhelming probability at n=2000
    assert np.bincount(test.group, minlength=5)[1:].min() > 0
    assert gen_toy_test(cfg, 500).n == 500


def test_test_set_differs_from_train_draw():
    cfg = ToyConfig(n=2000, rho=0.0, seed=8)
    train, _ = gen_toy(cfg)
    test = gen_toy_test(cfg)
    assert not np.array_equal(train.Z, test.Z[: train.n])


def test_config_validation():
    with pytest.raises(ValueError):
        ToyConfig(rho=1.0)
    with pytest.raises(ValueError):
        ToyConfig(d=1)
    with pytest.raises(ValueError):
        ToyConfig(split_fraction=1.0)
    with pytest.raises(ValueError):
        ToyConfig(angle_deg=0.0)

    # a non-finite scale or offset would draw all-0 or all-1 labels, and
    # SeedSequence takes no negative seed
    for key, value in (("gamma_sp", np.nan), ("gamma_mt", np.inf), ("b_sp", -np.inf),
                       ("b_mt", np.nan)):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
            ToyConfig(**{key: value})
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        ToyConfig(seed=-1)
