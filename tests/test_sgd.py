import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jse.data import LabeledEmbeddings
from jse.sgd import (
    BCE_EPS,
    PROJ_EPS,
    LinearModel,
    OptimizerConfig,
    _EarlyStopper,
    _sampling_probs,
    bce,
    fit_1d_logreg,
    fit_intercept_only,
    fit_joint_orthogonal,
    fit_logreg,
    joint_loss_and_grad,
    sigmoid,
)
from jse.toy import ToyConfig, gen_toy


def test_bce_symmetric_point():
    p = np.full(10, 0.5)
    y = np.arange(10) % 2
    np.testing.assert_allclose(bce(p, y), np.log(2.0))


def test_bce_analytic():
    np.testing.assert_allclose(bce(np.array([0.9]), np.array([1])), 0.105361, atol=1e-6)


def test_bce_clipping():
    # p = 1.0 with y = 0 hits the clipped value -ln(eps)
    loss = bce(np.array([1.0]), np.array([0]))[0]
    np.testing.assert_allclose(loss, -np.log(BCE_EPS), rtol=1e-9)
    assert 16.1 < loss < 16.2


def test_bce_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        bce(np.array([0.5, 0.5]), np.array([1]))


def test_intercept_only_balanced():
    data = LabeledEmbeddings(np.zeros((4, 2)), np.array([0, 1, 0, 1]), np.zeros(4, int))
    m = fit_intercept_only(data, "mt")
    assert m.b == 0.0
    np.testing.assert_allclose(m.predict(data.Z), 0.5)


def test_intercept_only_skewed():
    y = np.array([1] * 9 + [0])
    data = LabeledEmbeddings(np.zeros((10, 2)), y, np.zeros(10, int))
    np.testing.assert_allclose(fit_intercept_only(data, "mt").predict(data.Z), 0.9)


def test_intercept_only_degenerate():
    data = LabeledEmbeddings(np.zeros((5, 2)), np.ones(5, int), np.zeros(5, int))
    np.testing.assert_allclose(fit_intercept_only(data, "mt").predict(data.Z), 1 - BCE_EPS)


def _two_cluster(n=400, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    Z = rng.normal(0, 0.3, (n, 2))
    Z[:, 0] += 3.0 * (2 * y - 1)
    return LabeledEmbeddings(Z, y, np.zeros(n, int))


def test_fit_logreg_separable():
    train = _two_cluster(seed=0)
    val = _two_cluster(seed=1)
    m = fit_logreg(train, "mt", val, OptimizerConfig(seed=7))
    acc = np.mean((m.predict(train.Z) >= 0.5) == train.y_mt)
    assert acc >= 0.99
    # the closed-form separating hyperplane is the first axis; the fit agrees
    assert abs(m.w[0]) / np.linalg.norm(m.w) > 0.95


def test_fit_logreg_no_signal():
    rng = np.random.default_rng(5)
    train = LabeledEmbeddings(
        rng.standard_normal((4000, 5)), rng.integers(0, 2, 4000), rng.integers(0, 2, 4000)
    )
    val = LabeledEmbeddings(
        rng.standard_normal((2000, 5)), rng.integers(0, 2, 2000), rng.integers(0, 2, 2000)
    )
    m = fit_logreg(train, "mt", val, OptimizerConfig(seed=3))
    val_bce = float(np.mean(bce(m.predict(val.Z), val.y_mt)))
    assert abs(val_bce - np.log(2.0)) < 0.02


def test_fit_logreg_recovers_generating_direction(toy_rho0):
    _, train, val, _ = toy_rho0
    m = fit_logreg(train, "sp", val, OptimizerConfig(seed=11))
    cos = abs(m.w[0]) / np.linalg.norm(m.w)
    assert cos >= 0.9


def test_fit_logreg_single_class_warning():
    data = LabeledEmbeddings(np.random.default_rng(0).standard_normal((20, 3)),
                             np.ones(20, int), np.zeros(20, int))
    m = fit_logreg(data, "mt", data, OptimizerConfig(seed=0))
    assert m.warn is not None
    np.testing.assert_array_equal(m.w, 0.0)


def test_fit_logreg_dimension_mismatch():
    train = _two_cluster(seed=0)
    val = LabeledEmbeddings(np.zeros((4, 3)), np.array([0, 1, 0, 1]), np.zeros(4, int))
    with pytest.raises(ValueError, match="share d"):
        fit_logreg(train, "mt", val, OptimizerConfig())


def test_fit_1d_threshold_oracle():
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((800, 3))
    Z[:, 1] *= 4.0
    v = np.array([0.0, 1.0, 0.0])
    y = (Z @ v > 0).astype(int)
    fit = fit_1d_logreg(Z, v, y, OptimizerConfig(seed=1))
    acc = np.mean((fit.predict(Z) >= 0.5) == y)
    assert acc >= 0.99


def test_fit_1d_no_signal():
    rng = np.random.default_rng(9)
    Z = rng.standard_normal((4000, 3))
    y = rng.integers(0, 2, 4000)
    v = np.array([1.0, 0.0, 0.0])
    fit = fit_1d_logreg(Z, v, y, OptimizerConfig(seed=2))
    base = float(np.mean(bce(np.full(len(y), y.mean()), y)))
    got = float(np.mean(bce(fit.predict(Z), y)))
    assert abs(got - base) < 0.02


def test_fit_1d_informative_axis(toy_rho0):
    _, train, val, _ = toy_rho0
    v = np.zeros(train.d)
    v[0] = 1.0
    fit = fit_1d_logreg(train.Z, v, train.y_sp, OptimizerConfig(seed=3), val.Z, val.y_sp)
    rand = fit_intercept_only(train, "sp")
    got = float(np.mean(bce(fit.predict(val.Z), val.y_sp)))
    base = float(np.mean(bce(rand.predict(val.Z), val.y_sp)))
    assert got < base


def test_fit_1d_constant_feature():
    Z = np.zeros((10, 2))
    v = np.array([1.0, 0.0])
    fit = fit_1d_logreg(Z, v, np.arange(10) % 2, OptimizerConfig(seed=0))
    assert fit.gamma == 0.0 and fit.warn is not None


def test_fit_1d_newton_matches_sgd_direction():
    rng = np.random.default_rng(12)
    Z = rng.standard_normal((2000, 2))
    v = np.array([1.0, 0.0])
    y = (rng.random(2000) < sigmoid(2.0 * Z[:, 0])).astype(int)
    newton = fit_1d_logreg(Z, v, y, OptimizerConfig(), solver="newton")
    assert abs(newton.gamma - 2.0) < 0.3


def test_joint_orthogonality_guarantee(toy_rho08):
    _, train, val, _ = toy_rho08
    sp, mt = fit_joint_orthogonal(train, OptimizerConfig(learning_rate=0.01, seed=21,
                                                         early_stop_metric="bce"), val)
    v_sp = sp.w / np.linalg.norm(sp.w)
    v_mt = mt.w / np.linalg.norm(mt.w)
    assert abs(v_sp @ v_mt) < 1e-6


def test_joint_recovers_generating_directions(toy_rho08):
    _, train, val, _ = toy_rho08
    sp, mt = fit_joint_orthogonal(train, OptimizerConfig(learning_rate=0.01, seed=22,
                                                         early_stop_metric="bce"), val)
    assert abs(sp.w[0]) / np.linalg.norm(sp.w) >= 0.95
    assert abs(mt.w[1]) / np.linalg.norm(mt.w) >= 0.95


def test_joint_identical_labels_single_axis():
    rng = np.random.default_rng(31)
    n, d = 2000, 6
    Z = rng.standard_normal((n, d))
    y = (rng.random(n) < sigmoid(3.0 * Z[:, 0])).astype(int)
    data = LabeledEmbeddings(Z, y, y)
    sp, mt = fit_joint_orthogonal(data, OptimizerConfig(learning_rate=0.01, seed=5,
                                                        early_stop_metric="bce"))
    v_sp = sp.w / np.linalg.norm(sp.w)
    v_mt = mt.w / np.linalg.norm(mt.w)
    assert abs(v_sp @ v_mt) < 1e-6
    # one of the two directions captures the informative axis; by construction the
    # unconstrained head wins it and attains the lower BCE
    cos_sp, cos_mt = abs(v_sp[0]), abs(v_mt[0])
    assert max(cos_sp, cos_mt) > 0.9
    l_sp = float(np.mean(bce(sigmoid(Z @ sp.w + sp.b), y)))
    l_mt = float(np.mean(bce(sigmoid(Z @ mt.w + mt.b), y)))
    assert (l_sp < l_mt) == (cos_sp > cos_mt)


def test_joint_single_class_error():
    data = LabeledEmbeddings(np.random.default_rng(0).standard_normal((20, 3)),
                             np.ones(20, int), np.arange(20) % 2)
    with pytest.raises(ValueError, match="single class"):
        fit_joint_orthogonal(data, OptimizerConfig())


def test_gradient_check_against_finite_differences():
    """Analytic joint gradient vs central differences through the projection."""
    rng = np.random.default_rng(77)
    n, d = 64, 7
    X = rng.standard_normal((n, d))
    y_sp = rng.integers(0, 2, n).astype(float)
    y_mt = rng.integers(0, 2, n).astype(float)
    h = 1e-5
    for trial in range(20):
        params = rng.normal(0, 1.0, 2 * d + 2)
        _, grad = joint_loss_and_grad(params, X, y_sp, y_mt)
        num = np.empty_like(params)
        for i in range(len(params)):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            num[i] = (joint_loss_and_grad(up, X, y_sp, y_mt)[0]
                      - joint_loss_and_grad(down, X, y_sp, y_mt)[0]) / (2 * h)
        rel = np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12)
        assert rel <= 1e-4, f"trial {trial}: relative error {rel}"


def test_determinism_bitwise(toy_rho08):
    _, train, val, _ = toy_rho08
    cfg = OptimizerConfig(seed=13)
    m1 = fit_logreg(train, "mt", val, cfg)
    m2 = fit_logreg(train, "mt", val, cfg)
    assert np.array_equal(m1.w, m2.w) and m1.b == m2.b
    j1 = fit_joint_orthogonal(train, cfg, val)
    j2 = fit_joint_orthogonal(train, cfg, val)
    assert np.array_equal(j1[0].w, j2[0].w) and np.array_equal(j1[1].w, j2[1].w)


def test_unconstrained_fits_nearly_orthogonal_at_rho0():
    """With no correlation the two separately fitted directions come out
    orthogonal; sanity baseline for the constrained fit."""
    cfg = ToyConfig(n=60000, rho=0.0, seed=99)
    train, val = gen_toy(cfg)
    # full epoch budget at a small rate: the claim is about the converged
    # estimates, not the stationary SGD jitter
    opt = OptimizerConfig(learning_rate=0.01, seed=17, early_stop_metric="bce",
                          early_stop_patience=50)
    m_sp = fit_logreg(train, "sp", val, opt)
    m_mt = fit_logreg(train, "mt", val, opt)
    cos = abs(m_sp.w @ m_mt.w) / (np.linalg.norm(m_sp.w) * np.linalg.norm(m_mt.w))
    assert cos < 1e-2


def test_early_stopper_semantics():
    stop = _EarlyStopper(patience=2, trainer="trainer_x")
    assert not stop.update(1.0, (1.0,))
    assert not stop.update(0.9, (2.0,))
    assert not stop.update(0.9, (3.0,))  # tie: no improvement, keeps earliest
    assert stop.update(0.95, (4.0,))  # second epoch without improvement
    assert stop.best_state == (2.0,)
    assert stop.best_loss == 0.9


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(early_stop_patience=100, max_epochs=50)
    with pytest.raises(ValueError):
        OptimizerConfig(balance_sampling="bogus")
    with pytest.raises(ValueError):
        OptimizerConfig(early_stop_metric="loss")


def test_linear_model_finite():
    with pytest.raises(ValueError, match="finite"):
        LinearModel(np.array([np.inf]), 0.0)


# --- bit-identity oracle -----------------------------------------------------
# The trainers gather each epoch's rows once, evaluate the two joint heads with
# one stacked sigmoid and update packed parameters in place. The reference
# below is the plain formulation they must match bit for bit: index batches,
# gathers per step, the masked sigmoid and fresh arrays on every update.


def _masked_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _oracle_batches(rng, n, batch_size, probs):
    n_batches = (n + batch_size - 1) // batch_size
    if probs is None:
        idx = rng.permutation(n)
    else:
        idx = rng.choice(n, size=n_batches * batch_size, replace=True, p=probs)
    return [idx[i * batch_size : (i + 1) * batch_size] for i in range(n_batches)]


def _oracle_sgd(cfg, rng, n, probs, params, grad_fn, score_fn):
    """Momentum SGD with early stopping; returns the best post-epoch params."""
    vel = [np.zeros_like(p) for p in params]
    best, best_score, since = None, np.inf, 0
    for _ in range(cfg.max_epochs):
        for idx in _oracle_batches(rng, n, cfg.batch_size, probs):
            grads = grad_fn(params, idx)
            vel = [cfg.momentum * v + g for v, g in zip(vel, grads)]
            params = [p - cfg.learning_rate * v for p, v in zip(params, vel)]
        score = score_fn(params)
        if score < best_score:
            best, best_score, since = params, score, 0
        else:
            since += 1
        if since >= cfg.early_stop_patience:
            break
    return best


def _oracle_score(metric, p, y):
    if metric == "accuracy":
        return -float(np.mean((p >= 0.5) == y))
    return float(np.mean(bce(p, y)))


def _oracle_logreg(train, val, cfg):
    X, y = train.Z, train.y_mt.astype(np.float64)
    wd = cfg.weight_decay

    def grad(params, idx):
        w, b = params
        Xb, yb = X[idx], y[idx]
        r = _masked_sigmoid(Xb @ w + b) - yb
        gw = Xb.T @ r / len(idx)
        return [gw + wd * w if wd else gw, np.float64(np.mean(r))]

    def score(params):
        w, b = params
        return _oracle_score(cfg.early_stop_metric, _masked_sigmoid(val.Z @ w + b),
                             val.y_mt.astype(np.float64))

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    probs = _sampling_probs(train, "mt", cfg.balance_sampling)
    return _oracle_sgd(cfg, rng, train.n, probs, [np.zeros(train.d), np.float64(0.0)], grad, score)


def _oracle_1d(s, y, s_val, y_val, cfg):
    wd = cfg.weight_decay

    def grad(params, idx):
        gamma, b = params
        sb, yb = s[idx], y[idx]
        r = _masked_sigmoid(gamma * sb + b) - yb
        gg = sb @ r / len(idx)
        return [gg + wd * gamma if wd else gg, np.float64(np.mean(r))]

    def score(params):
        gamma, b = params
        return _oracle_score(cfg.early_stop_metric, _masked_sigmoid(gamma * s_val + b), y_val)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return _oracle_sgd(cfg, rng, len(s), None, [np.float64(0.0)] * 2, grad, score)


def _oracle_joint_heads(X, w_sp, w_mt, b_sp, b_mt):
    u = X @ w_sp
    s = float(w_sp @ w_sp) + PROJ_EPS
    c = float(w_sp @ w_mt)
    p_sp = _masked_sigmoid(u + b_sp)
    p_mt = _masked_sigmoid(X @ w_mt - u * (c / s) + b_mt)
    return u, s, c, p_sp, p_mt


def _oracle_joint(train, val, cfg):
    X = train.Z
    y_sp, y_mt = train.y_sp.astype(np.float64), train.y_mt.astype(np.float64)
    wd = cfg.weight_decay

    def grad(params, idx):
        w_sp, w_mt, b_sp, b_mt = params
        Xb, nb = X[idx], len(idx)
        u, s, c, p_sp, p_mt = _oracle_joint_heads(Xb, w_sp, w_mt, b_sp, b_mt)
        r_sp = (p_sp - y_sp[idx]) / nb
        r_mt = (p_mt - y_mt[idx]) / nb
        Xr_mt = Xb.T @ r_mt
        ru = float(r_mt @ u)
        g_wsp = Xb.T @ r_sp - (c / s) * Xr_mt - (ru / s) * w_mt + (2.0 * c * ru / s**2) * w_sp
        g_wmt = Xr_mt - (ru / s) * w_sp
        if wd:
            g_wsp, g_wmt = g_wsp + wd * w_sp, g_wmt + wd * w_mt
        return [g_wsp, g_wmt, np.float64(np.sum(r_sp)), np.float64(np.sum(r_mt))]

    def score(params):
        _, _, _, p_sp, p_mt = _oracle_joint_heads(val.Z, *params)
        return (_oracle_score(cfg.early_stop_metric, p_sp, val.y_sp.astype(np.float64))
                + _oracle_score(cfg.early_stop_metric, p_mt, val.y_mt.astype(np.float64)))

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    probs = _sampling_probs(train, "mt", cfg.balance_sampling)
    d = train.d
    init = [rng.normal(0.0, 0.1 / np.sqrt(d), size=d), rng.normal(0.0, 0.1 / np.sqrt(d), size=d),
            np.float64(0.0), np.float64(0.0)]
    w_sp, w_mt, b_sp, b_mt = _oracle_sgd(cfg, rng, train.n, probs, init, grad, score)
    s = float(w_sp @ w_sp) + PROJ_EPS
    return w_sp, b_sp, w_mt - (float(w_sp @ w_mt) / s) * w_sp, b_mt


@pytest.fixture(scope="module")
def ragged_toy():
    # 601 training rows leave a ragged last batch at sizes 128 and 50; d = 7 puts the
    # packed joint parameters at offsets that are not multiples of 16 bytes
    cfg = ToyConfig(n=751, d=7, rho=0.7, seed=3)
    train, val = gen_toy(cfg)
    assert train.n % 128 and train.n % 50
    return train, val


ORACLE_CASES = [
    pytest.param(mode, wd, metric, id=f"{mode}-wd{wd}-{metric}")
    for mode in ("none", "class-balanced", "group-balanced")
    for wd in (0.0, 1e-3)
    for metric in ("accuracy", "bce")
]


@pytest.mark.parametrize("mode,wd,metric", ORACLE_CASES)
def test_fit_logreg_bit_identical_to_oracle(ragged_toy, mode, wd, metric):
    train, val = ragged_toy
    cfg = OptimizerConfig(seed=4, balance_sampling=mode, weight_decay=wd, early_stop_metric=metric)
    m = fit_logreg(train, "mt", val, cfg)
    w, b = _oracle_logreg(train, val, cfg)
    assert np.array_equal(m.w, w) and m.b == b


@pytest.mark.parametrize("mode,wd,metric", ORACLE_CASES)
def test_fit_joint_bit_identical_to_oracle(ragged_toy, mode, wd, metric):
    train, val = ragged_toy
    cfg = OptimizerConfig(learning_rate=0.05, seed=5, balance_sampling=mode, weight_decay=wd,
                          early_stop_metric=metric)
    sp, mt = fit_joint_orthogonal(train, cfg, val)
    w_sp, b_sp, w_mt, b_mt = _oracle_joint(train, val, cfg)
    assert np.array_equal(sp.w, w_sp) and sp.b == b_sp
    assert np.array_equal(mt.w, w_mt) and mt.b == b_mt


@pytest.mark.parametrize("wd", [0.0, 1e-3])
@pytest.mark.parametrize("metric", ["accuracy", "bce"])
@pytest.mark.parametrize("with_val", [True, False])
def test_fit_1d_bit_identical_to_oracle(ragged_toy, wd, metric, with_val):
    train, val = ragged_toy
    v = np.zeros(train.d)
    v[:2] = (0.6, 0.8)
    cfg = OptimizerConfig(batch_size=50, seed=6, weight_decay=wd, early_stop_metric=metric)
    s, y = train.Z @ v, train.y_sp.astype(np.float64)
    if with_val:
        fit = fit_1d_logreg(train.Z, v, train.y_sp, cfg, val.Z, val.y_sp)
        gamma, b = _oracle_1d(s, y, val.Z @ v, val.y_sp.astype(np.float64), cfg)
    else:
        fit = fit_1d_logreg(train.Z, v, train.y_sp, cfg)
        gamma, b = _oracle_1d(s, y, s, y, cfg)
    assert fit.gamma == gamma and fit.b == b


# --- sigmoid ------------------------------------------------------------------

_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 700.0, -700.0, 710.0, -745.5, 1e300]),
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=9),
                  elements=_FLOATS))
def test_sigmoid_bitwise_equals_masked_formula(x):
    got = sigmoid(x)
    want = _masked_sigmoid(x)
    assert np.shape(got) == x.shape
    assert np.asarray(got).dtype == np.float64
    assert np.asarray(got).tobytes() == want.tobytes()


def test_sigmoid_propagates_nan_and_keeps_shape():
    x = np.array([[np.nan, 0.0, -3.0], [2.0, np.nan, -np.inf]])
    got = sigmoid(x)
    assert got.shape == x.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(x))
    assert np.isnan(sigmoid(np.array(np.nan)))
    assert np.shape(sigmoid(np.array(-0.0))) == ()
    assert sigmoid(np.array(-0.0)) == 0.5
    assert sigmoid(np.zeros(0)).shape == (0,)


# --- non-finite training data ----------------------------------------------


def _with_one_nan(data):
    Z = data.Z.copy()
    Z[3, 1] = np.nan
    return data.with_Z(Z)


@pytest.mark.parametrize("metric", ["accuracy", "bce"])
def test_trainers_raise_floating_point_error_on_nan(ragged_toy, metric):
    train, val = ragged_toy
    bad = _with_one_nan(train)
    cfg = OptimizerConfig(seed=1, early_stop_metric=metric, max_epochs=8, early_stop_patience=3)
    with pytest.raises(FloatingPointError, match="fit_logreg"):
        fit_logreg(bad, "mt", val, cfg)
    with pytest.raises(FloatingPointError, match="fit_joint_orthogonal"):
        fit_joint_orthogonal(bad, cfg, val)
    v = np.zeros(train.d)
    v[1] = 1.0
    with pytest.raises(FloatingPointError, match="fit_1d_logreg"):
        fit_1d_logreg(bad.Z, v, bad.y_sp, cfg, val.Z, val.y_sp)


def test_early_stopper_best_rejects_missing_or_non_finite_state():
    stop = _EarlyStopper(patience=1, trainer="trainer_x")
    stop.update(np.nan, (np.zeros(2), 0.0))
    with pytest.raises(FloatingPointError, match="trainer_x: no finite validation score"):
        stop.best()
    with pytest.raises(FloatingPointError, match="trainer_x: non-finite parameters after epoch 2"):
        stop.update(0.5, (np.array([1.0, np.nan]), 0.0))
    with pytest.raises(FloatingPointError, match="non-finite parameters after epoch 3"):
        stop.update(0.4, (np.ones(2), np.inf))
    stop.update(0.1, (np.ones(2), 0.0))
    assert stop.best()[1] == 0.0
