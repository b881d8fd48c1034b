import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jse import sgd
from jse.data import LabeledEmbeddings, normalize_against, project_out
from jse.sgd import (
    ARMIJO_C,
    BCE_EPS,
    JOINT_RIDGE,
    LBFGS_GTOL,
    LBFGS_MAX_ITER,
    LBFGS_MEMORY,
    PROJ_EPS,
    LinearModel,
    OptimizerConfig,
    _newton_logreg,
    _sampling_probs,
    bce,
    fit_1d_logreg,
    fit_intercept_only,
    fit_joint_orthogonal,
    fit_logreg,
    joint_objective,
    lbfgs,
    predict_1d,
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
    m = fit_logreg(train, "mt", val, OptimizerConfig(), 7)
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
    m = fit_logreg(train, "mt", val, OptimizerConfig(), 3)
    val_bce = float(np.mean(bce(m.predict(val.Z), val.y_mt)))
    assert abs(val_bce - np.log(2.0)) < 0.02


def test_fit_logreg_recovers_generating_direction(toy_rho0):
    _, train, val, _ = toy_rho0
    m = fit_logreg(train, "sp", val, OptimizerConfig(), 11)
    cos = abs(m.w[0]) / np.linalg.norm(m.w)
    assert cos >= 0.9


def test_fit_logreg_single_class_warning():
    data = LabeledEmbeddings(np.random.default_rng(0).standard_normal((20, 3)),
                             np.ones(20, int), np.zeros(20, int))
    m = fit_logreg(data, "mt", data, OptimizerConfig(), 0)
    assert m.b == fit_intercept_only(data, "mt").b
    np.testing.assert_array_equal(m.w, 0.0)


def test_fit_logreg_dimension_mismatch():
    train = _two_cluster(seed=0)
    val = LabeledEmbeddings(np.zeros((4, 3)), np.array([0, 1, 0, 1]), np.zeros(4, int))
    with pytest.raises(ValueError, match="share d"):
        fit_logreg(train, "mt", val, OptimizerConfig(), 0)


def test_fit_1d_threshold_oracle():
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((800, 3))
    Z[:, 1] *= 4.0
    v = np.array([0.0, 1.0, 0.0])
    y = (Z @ v > 0).astype(int)
    fit = fit_1d_logreg(Z, v, y)
    acc = np.mean((predict_1d(Z, v, *fit) >= 0.5) == y)
    assert acc >= 0.99


def test_fit_1d_no_signal():
    rng = np.random.default_rng(9)
    Z = rng.standard_normal((4000, 3))
    y = rng.integers(0, 2, 4000)
    v = np.array([1.0, 0.0, 0.0])
    fit = fit_1d_logreg(Z, v, y)
    base = float(np.mean(bce(np.full(len(y), y.mean()), y)))
    got = float(np.mean(bce(predict_1d(Z, v, *fit), y)))
    assert abs(got - base) < 0.02


def test_fit_1d_informative_axis(toy_rho0):
    _, train, val, _ = toy_rho0
    v = np.zeros(train.d)
    v[0] = 1.0
    fit = fit_1d_logreg(train.Z, v, train.y_sp)
    rand = fit_intercept_only(train, "sp")
    got = float(np.mean(bce(predict_1d(val.Z, v, *fit), val.y_sp)))
    base = float(np.mean(bce(rand.predict(val.Z), val.y_sp)))
    assert got < base


def test_fit_1d_logreg_rejects_non_unit_v():
    Z = np.random.default_rng(0).standard_normal((10, 2))
    y = np.arange(10) % 2
    with pytest.raises(ValueError, match="unit-norm"):
        fit_1d_logreg(Z, np.array([1.0, 1.0]), y)
    fit_1d_logreg(Z, np.array([0.6, 0.8]), y)


def test_fit_1d_constant_feature():
    Z = np.zeros((10, 2))
    v = np.array([1.0, 0.0])
    gamma, _ = fit_1d_logreg(Z, v, np.arange(10) % 2)
    assert gamma == 0.0


def test_fit_1d_newton_matches_sgd_direction():
    rng = np.random.default_rng(12)
    Z = rng.standard_normal((2000, 2))
    v = np.array([1.0, 0.0])
    y = (rng.random(2000) < sigmoid(2.0 * Z[:, 0])).astype(int)
    gamma, _ = fit_1d_logreg(Z, v, y)
    assert abs(gamma - 2.0) < 0.3


def test_joint_orthogonality_guarantee(toy_rho08):
    _, train, _, _ = toy_rho08
    sp, mt = fit_joint_orthogonal(train, 21)
    v_sp = sp.w / np.linalg.norm(sp.w)
    v_mt = mt.w / np.linalg.norm(mt.w)
    assert abs(v_sp @ v_mt) < 1e-6


def test_joint_recovers_generating_directions(toy_rho08):
    _, train, _, _ = toy_rho08
    sp, mt = fit_joint_orthogonal(train, 22)
    assert abs(sp.w[0]) / np.linalg.norm(sp.w) >= 0.95
    assert abs(mt.w[1]) / np.linalg.norm(mt.w) >= 0.95


def test_joint_identical_labels_single_axis():
    rng = np.random.default_rng(31)
    n, d = 2000, 6
    Z = rng.standard_normal((n, d))
    y = (rng.random(n) < sigmoid(3.0 * Z[:, 0])).astype(int)
    data = LabeledEmbeddings(Z, y, y)
    sp, mt = fit_joint_orthogonal(data, 5)
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
    """check_two_classes names the split's source when it has one."""
    for source, prefix in (("", ""), ("train.csv", "train.csv: ")):
        data = LabeledEmbeddings(np.random.default_rng(0).standard_normal((20, 3)),
                                 np.ones(20, int), np.arange(20) % 2, source)
        for check in (lambda: fit_joint_orthogonal(data, 0),
                      lambda: sgd.check_two_classes(data, ("sp", "mt"))):
            with pytest.raises(ValueError) as exc:
                check()
            assert str(exc.value) == prefix + "target 'mt' has a single class in the training data"


def test_gradient_check_against_finite_differences():
    """Analytic joint gradient vs central differences through the projection."""
    rng = np.random.default_rng(77)
    n, d = 64, 7
    X = rng.standard_normal((n, d))
    y_sp = rng.integers(0, 2, n).astype(float)
    y_mt = rng.integers(0, 2, n).astype(float)
    h = 1e-5
    fun = joint_objective(X, y_sp, y_mt, 0.0)
    for trial in range(20):
        params = rng.normal(0, 1.0, 2 * d + 2)
        _, grad = fun(params)
        num = np.empty_like(params)
        for i in range(len(params)):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            num[i] = (fun(up)[0] - fun(down)[0]) / (2 * h)
        rel = np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12)
        assert rel <= 1e-4, f"trial {trial}: relative error {rel}"


# --- full-batch solvers ------------------------------------------------------


def test_lbfgs_reaches_quadratic_minimizer():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((8, 8))
    H = A @ A.T + 0.5 * np.eye(8)
    c = rng.standard_normal(8)

    def fun(x):
        return 0.5 * x @ H @ x - c @ x, H @ x - c

    x = lbfgs(fun, np.zeros(8), "quadratic")
    assert np.max(np.abs(fun(x)[1])) < LBFGS_GTOL
    np.testing.assert_allclose(x, np.linalg.solve(H, c), atol=1e-4)


def test_lbfgs_matches_irls_on_ridge_logistic():
    rng = np.random.default_rng(42)
    n, d, ridge = 500, 5, 1e-2
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < sigmoid(X @ np.array([1.5, -1.0, 0.5, 0.0, 0.0]) + 0.3)).astype(float)

    def fun(theta):
        w = theta[:d]
        p = sigmoid(X @ w + theta[d])
        r = p - y
        loss = float(np.mean(bce(p, y))) + 0.5 * ridge * float(w @ w)
        return loss, np.append(X.T @ r / n + ridge * w, np.mean(r))

    theta = lbfgs(fun, np.zeros(d + 1), "logistic")
    w, b = _newton_logreg(X, y, ridge=ridge)
    np.testing.assert_allclose(theta, np.append(w, b), atol=1e-4)


def test_joint_fit_ends_at_stationary_point(toy_rho08):
    _, train, _, _ = toy_rho08
    sp, mt = fit_joint_orthogonal(train, 23)
    assert abs(sp.w @ mt.w) <= 1e-12 * np.linalg.norm(sp.w) * np.linalg.norm(mt.w)
    # the stored main-task weights are the projected ones: the same BCE, the
    # smallest ridge term, so the regularized objective is stationary there too
    theta = np.concatenate([sp.w, mt.w, [sp.b, mt.b]])
    _, grad = joint_objective(train.Z, train.y_sp.astype(float), train.y_mt.astype(float),
                              JOINT_RIDGE)(theta)
    assert np.max(np.abs(grad)) < LBFGS_GTOL


def test_fit_1d_is_irls_on_the_projected_feature(toy_rho08):
    _, train, _, _ = toy_rho08
    v = np.zeros(train.d)
    v[:2] = (0.6, 0.8)
    gamma, b_fit = fit_1d_logreg(train.Z, v, train.y_sp)
    w, b = _newton_logreg((train.Z @ v)[:, None], train.y_sp.astype(float))
    assert gamma == w[0] and b_fit == b


def test_determinism_bitwise(toy_rho08):
    _, train, val, _ = toy_rho08
    cfg = OptimizerConfig()
    m1 = fit_logreg(train, "mt", val, cfg, 13)
    m2 = fit_logreg(train, "mt", val, cfg, 13)
    assert np.array_equal(m1.w, m2.w) and m1.b == m2.b
    j1 = fit_joint_orthogonal(train, 13)
    j2 = fit_joint_orthogonal(train, 13)
    assert np.array_equal(j1[0].w, j2[0].w) and np.array_equal(j1[1].w, j2[1].w)
    assert j1[0].b == j2[0].b and j1[1].b == j2[1].b


def test_unconstrained_fits_nearly_orthogonal_at_rho0():
    """With no correlation the two separately fitted directions come out
    orthogonal; sanity baseline for the constrained fit."""
    cfg = ToyConfig(n=60000, rho=0.0, seed=99)
    train, val = gen_toy(cfg)
    # full epoch budget at a small rate: the claim is about the converged
    # estimates, not the stationary SGD jitter
    opt = OptimizerConfig(learning_rate=0.01, early_stop_patience=50)
    m_sp = fit_logreg(train, "sp", val, opt, 17)
    m_mt = fit_logreg(train, "mt", val, opt, 17)
    cos = abs(m_sp.w @ m_mt.w) / (np.linalg.norm(m_sp.w) * np.linalg.norm(m_mt.w))
    assert cos < 1e-2


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(early_stop_patience=100, max_epochs=50)
    for patience in (0, -3):  # since >= patience would hold after epoch 1
        with pytest.raises(ValueError, match="^early_stop_patience must be >= 1$"):
            OptimizerConfig(early_stop_patience=patience)
    with pytest.raises(ValueError):
        OptimizerConfig(balance_sampling="bogus")


def test_linear_model_finite():
    with pytest.raises(ValueError, match="finite"):
        LinearModel(np.array([np.inf]), 0.0)


# --- bit-identity oracle -----------------------------------------------------
# fit_logreg gathers each epoch's rows once and updates its parameters in
# place; fit_joint_orthogonal evaluates its heads on packed parameters and
# keeps its curvature pairs in a ring. The references below are the plain
# formulations they must match bit for bit: index batches, gathers per step,
# separate head weights, the masked sigmoid and fresh arrays on every update.


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
            vel = [0.9 * v + g for v, g in zip(vel, grads)]
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


def _oracle_logreg(train, val, cfg, seed):
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
        return _oracle_score("accuracy", _masked_sigmoid(val.Z @ w + b),
                             val.y_mt.astype(np.float64))

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    probs = _sampling_probs(train, "mt", cfg.balance_sampling)
    return _oracle_sgd(cfg, rng, train.n, probs, [np.zeros(train.d), np.float64(0.0)], grad, score)


@pytest.fixture(scope="module")
def ragged_toy():
    # 601 training rows leave a ragged last batch at the default batch size 128
    cfg = ToyConfig(n=751, d=7, rho=0.7, seed=3)
    train, val = gen_toy(cfg)
    assert train.n % 128
    return train, val


ORACLE_CASES = [
    pytest.param(mode, wd, metric, id=f"{mode}-wd{wd}-{metric}")
    for mode in ("none", "class-balanced", "group-balanced")
    for wd in (0.0, 1e-3)
    for metric in ("accuracy", "bce")
]


# fit_logreg early-stops on validation accuracy, so its cases have no bce variant
@pytest.mark.parametrize("mode,wd", [
    pytest.param(mode, wd, id=f"{mode}-wd{wd}-accuracy")
    for mode in ("none", "class-balanced", "group-balanced")
    for wd in (0.0, 1e-3)
])
def test_fit_logreg_bit_identical_to_oracle(ragged_toy, mode, wd):
    train, val = ragged_toy
    cfg = OptimizerConfig(balance_sampling=mode, weight_decay=wd)
    m = fit_logreg(train, "mt", val, cfg, 4)
    w, b = _oracle_logreg(train, val, cfg, 4)
    assert np.array_equal(m.w, w) and m.b == b


def test_fit_logreg_early_stopping_keeps_earliest_best_epoch(ragged_toy, monkeypatch):
    """A tie is no improvement, and the fit stops after ``early_stop_patience``
    epochs without one, returning the earliest best snapshot."""
    train, val = ragged_toy
    scores = [-0.5, -0.6, -0.6, -0.55, -0.9, -0.9]  # by epoch: best at 2, tied at 3
    monkeypatch.setattr(sgd, "_val_score", lambda p, y: scores.pop(0) if scores else 0.0)
    m = fit_logreg(train, "mt", val, OptimizerConfig(early_stop_patience=2), 4)
    assert scores == [-0.9, -0.9]  # stopped after epoch 4
    scores[:] = [-0.5, -0.6]
    best = fit_logreg(train, "mt", val, OptimizerConfig(max_epochs=2, early_stop_patience=2), 4)
    assert np.array_equal(m.w, best.w) and m.b == best.b


def _skewed_split():
    # 250 rows, 26 in the last batch of 32; about one row in five has y_mt = 1
    rng = np.random.default_rng(11)
    data = LabeledEmbeddings(rng.standard_normal((250, 4)), rng.random(250) < 0.2,
                             rng.random(250) < 0.6)
    return data, data


@pytest.mark.parametrize("mode", ["class-balanced", "group-balanced"])
@pytest.mark.parametrize("split,batch_size", [("ragged_toy", 128), ("skewed", 32)])
@pytest.mark.parametrize("seed", [0, 4, 2023])
def test_balanced_epoch_order_equals_generator_choice(request, monkeypatch, mode, split,
                                                      batch_size, seed):
    """fit_logreg inverts a CDF it builds once per fit; every epoch's order must
    be what ``Generator.choice`` draws from the same generator with the
    sampling probabilities, bit for bit, epoch after epoch. A numpy release
    whose ``choice`` draws differently fails here.

    A CDF that differs from choice's by an ulp would change a draw only once
    in ~1e14, so the CDF is also checked: it is the one choice builds
    (``cdf = p.cumsum(); cdf /= cdf[-1]``), which ends at exactly 1.0 and so
    maps every uniform draw in [0, 1) to a row."""
    train, val = request.getfixturevalue("ragged_toy") if split == "ragged_toy" else _skewed_split()
    assert train.n % batch_size
    orders, cdfs = [], []
    epoch_order = sgd._epoch_order

    def spy(rng, n, bs, index):
        cdfs.append(index.padded)  # the CDF, then +inf
        orders.append(epoch_order(rng, n, bs, index))
        return orders[-1]

    monkeypatch.setattr(sgd, "_epoch_order", spy)
    monkeypatch.setattr(sgd, "_val_score", lambda p, y: 0.0)  # never improves: no early stop
    cfg = OptimizerConfig(batch_size=batch_size, max_epochs=24, early_stop_patience=24,
                          balance_sampling=mode)
    fit_logreg(train, "mt", val, cfg, seed)
    assert len(orders) == 24

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    probs = _sampling_probs(train, "mt", mode)
    assert len(np.unique(probs)) > 1  # the probabilities are not uniform
    want_cdf = probs.cumsum()
    want_cdf /= want_cdf[-1]
    assert all(cdf is cdfs[0] for cdf in cdfs)  # built once per fit
    cdf = cdfs[0][:-1]
    assert cdf[-1] == 1.0 and np.array_equal(cdf, want_cdf)
    size = -(-train.n // batch_size) * batch_size
    for order in orders:
        want = rng.choice(train.n, size=size, replace=True, p=probs)
        assert order.dtype == want.dtype and np.array_equal(order, want)


class _FixedUniforms:
    """Stands in for the generator: ``random(size)`` returns the given draws."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


def _one_against_999():
    rng = np.random.default_rng(5)
    y_mt = np.zeros(1000, dtype=int)
    y_mt[rng.integers(1000)] = 1
    return LabeledEmbeddings(rng.standard_normal((1000, 3)), y_mt, rng.integers(0, 2, 1000))


@pytest.mark.parametrize("mode", ["class-balanced", "group-balanced"])
@pytest.mark.parametrize("split", ["ragged_toy", "skewed", "1-vs-999", "n1", "n2"])
def test_indexed_draw_equals_searchsorted(request, mode, split):
    """The indexed search returns ``cdf.searchsorted(u, side="right")`` as int64
    on the uniforms where an off-by-one would show: 0, every CDF value, the
    double just below each, and the largest double below 1."""
    if split == "ragged_toy":
        data = request.getfixturevalue("ragged_toy")[0]
    elif split == "skewed":
        data = _skewed_split()[0]
    elif split == "1-vs-999":
        data = _one_against_999()
    else:
        n = int(split[1:])
        data = LabeledEmbeddings(np.ones((n, 2)), np.arange(n) % 2, np.zeros(n, dtype=int))
    index = sgd._cdf_index(_sampling_probs(data, "mt", mode))
    cdf = index.padded[:-1]
    assert index.steps <= (3 if mode == "class-balanced" else 5)
    u = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), [np.nextafter(1.0, 0.0)]])
    order = sgd._epoch_order(_FixedUniforms(u), data.n, len(u), index)
    want = cdf.searchsorted(u, side="right")
    assert order.dtype == np.int64 and np.array_equal(order, want)


def _oracle_joint_heads(X, w_sp, w_mt, b_sp, b_mt):
    u = X @ w_sp
    s = float(w_sp @ w_sp) + PROJ_EPS
    c = float(w_sp @ w_mt)
    p_sp = _masked_sigmoid(u + b_sp)
    p_mt = _masked_sigmoid(X @ w_mt - u * (c / s) + b_mt)
    return u, s, c, p_sp, p_mt


def _oracle_lbfgs(fun, x, stats=None):
    """L-BFGS with the pairs in a plain list and every update a fresh array;
    ``stats``, when given, receives the iteration count."""
    stats = {} if stats is None else stats
    stats["iters"] = 0
    f, g = fun(x)
    pairs = []
    for _ in range(LBFGS_MAX_ITER):
        if np.max(np.abs(g)) < LBFGS_GTOL:
            break
        stats["iters"] += 1
        q, alphas = g, []
        for s, y in reversed(pairs):
            alphas.append((1.0 / float(s @ y)) * (s @ q))
            q = q - alphas[-1] * y
        if pairs:
            s, y = pairs[-1]
            q = q / ((1.0 / float(s @ y)) * (y @ y))
        else:
            q = q / max(1.0, float(np.linalg.norm(q)))
        for (s, y), a in zip(pairs, reversed(alphas)):
            q = q + (a - (1.0 / float(s @ y)) * (y @ q)) * s
        slope = -float(g @ q)
        if slope >= 0.0:
            break
        t = 1.0
        x_new = x - t * q
        f_new, g_new = fun(x_new)
        while f_new > f + ARMIJO_C * t * slope:
            t *= 0.5
            if t < 1e-10:
                return x
            x_new = x - t * q
            f_new, g_new = fun(x_new)
        if float((x_new - x) @ (g_new - g)) > 1e-12:
            pairs = (pairs + [(x_new - x, g_new - g)])[-LBFGS_MEMORY:]
        x, f, g = x_new, f_new, g_new
    return x


def _oracle_joint_fun(X, y_sp, y_mt, ridge):
    """The joint objective with each head evaluated on its own arrays."""
    n, d = X.shape

    def fun(theta):
        w_sp, w_mt, b_sp, b_mt = theta[:d], theta[d : 2 * d], theta[2 * d], theta[2 * d + 1]
        u, s, c, p_sp, p_mt = _oracle_joint_heads(X, w_sp, w_mt, b_sp, b_mt)
        r_sp = (p_sp - y_sp) / n
        r_mt = (p_mt - y_mt) / n
        Xr_mt = X.T @ r_mt
        ru = float(r_mt @ u)
        g_wsp = X.T @ r_sp - (c / s) * Xr_mt - (ru / s) * w_mt + (2.0 * c * ru / s**2) * w_sp
        g_wmt = Xr_mt - (ru / s) * w_sp
        w = theta[: 2 * d]
        loss = float(np.mean(bce(p_sp, y_sp)) + np.mean(bce(p_mt, y_mt)))
        grad = np.concatenate([g_wsp + ridge * w_sp, g_wmt + ridge * w_mt,
                               [float(np.sum(r_sp)), float(np.sum(r_mt))]])
        return loss + 0.5 * ridge * float(w @ w), grad

    return fun


def _oracle_joint(train, seed, ridge, stats=None):
    """The joint fit by the oracle; ``stats``, when given, receives the
    objective evaluations and L-BFGS iterations."""
    d = train.d
    fun = _oracle_joint_fun(train.Z, train.y_sp.astype(np.float64),
                            train.y_mt.astype(np.float64), ridge)
    evals = [0]

    def counted(theta):
        evals[0] += 1
        return fun(theta)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    init = np.concatenate([rng.normal(0.0, 0.1 / np.sqrt(d), size=d),
                           rng.normal(0.0, 0.1 / np.sqrt(d), size=d), [0.0, 0.0]])
    theta = _oracle_lbfgs(counted, init, stats)
    if stats is not None:
        stats["evals"] = evals[0]
    w_sp, w_mt, b_sp, b_mt = theta[:d], theta[d : 2 * d], theta[2 * d], theta[2 * d + 1]
    s = float(w_sp @ w_sp) + PROJ_EPS
    return w_sp, b_sp, w_mt - (float(w_sp @ w_mt) / s) * w_sp, b_mt


def _resampled(data, mode, seed):
    """The rows one balanced-sampling epoch would draw; all rows in order for 'none'."""
    probs = _sampling_probs(data, "mt", mode)
    if probs is None:
        return data
    idx = np.random.default_rng(seed).choice(data.n, size=data.n, replace=True, p=probs)
    return LabeledEmbeddings(data.Z[idx], data.y_mt[idx], data.y_sp[idx])


@pytest.mark.parametrize("mode,wd,metric", ORACLE_CASES)
def test_fit_joint_bit_identical_to_oracle(ragged_toy, monkeypatch, mode, wd, metric):
    # mode picks the training rows (the full split or a class-/group-balanced
    # resample with duplicates), wd the ridge, and metric the validation score
    # on which the fitted heads must beat the intercept-only classifier
    train, val = ragged_toy
    train = _resampled(train, mode, 5)
    monkeypatch.setattr(sgd, "JOINT_RIDGE", wd)
    sp, mt = fit_joint_orthogonal(train, 5)
    w_sp, b_sp, w_mt, b_mt = _oracle_joint(train, 5, wd)
    assert np.array_equal(sp.w, w_sp) and sp.b == b_sp
    assert np.array_equal(mt.w, w_mt) and mt.b == b_mt
    for target, head in (("sp", sp), ("mt", mt)):
        y = val.labels(target).astype(np.float64)
        p = head.predict(val.Z)
        if metric == "accuracy":  # the early-stopping score of fit_logreg
            assert sgd._val_score(p, y) == _oracle_score(metric, p, y)
        chance = fit_intercept_only(train, target).predict(val.Z)
        assert _oracle_score(metric, p, y) < _oracle_score(metric, chance, y)


# odd n, n below the 2d + 2 parameters, and theta scales from nearly zero to
# saturated heads (clipped BCE)
@pytest.mark.parametrize("n,d", [(37, 6), (13, 6), (601, 7), (999, 13), (1600, 20)])
@pytest.mark.parametrize("ridge", [0.0, JOINT_RIDGE])
def test_joint_objective_bit_identical_to_oracle(n, d, ridge):
    rng = np.random.default_rng(n * d)
    X = rng.standard_normal((n, d))
    y_sp = rng.integers(0, 2, n).astype(np.float64)
    y_mt = rng.integers(0, 2, n).astype(np.float64)
    fun = joint_objective(X, y_sp, y_mt, ridge)
    want = _oracle_joint_fun(X, y_sp, y_mt, ridge)
    prev = None
    for scale in (0.01, 0.1, 1.0, 3.0, 30.0):
        for _ in range(6):
            theta = rng.normal(0.0, scale, 2 * d + 2)
            f, g = fun(theta)
            f0, g0 = want(theta)
            assert f == f0 and g.dtype == g0.dtype and g.tobytes() == g0.tobytes()
            # lbfgs keeps a returned gradient across its line search
            if prev is not None:
                assert prev[0].tobytes() == prev[1]
            prev = (g, g0.tobytes())


@pytest.fixture(scope="module")
def projected_rho0():
    """The data of jse's second outer step: a rho = 0 split with the unit
    direction of a first joint fit projected out (rank d - 1), and that
    direction. Fits here take far more evaluations than on the full split."""
    train, _ = gen_toy(ToyConfig(n=1001, d=20, rho=0.0, seed=2))
    w_sp = _oracle_joint(train, 1, JOINT_RIDGE)[0]
    removed = w_sp / np.linalg.norm(w_sp)
    data = train.with_Z(project_out(train.Z, removed[:, None]))
    assert np.linalg.matrix_rank(data.Z) == data.d - 1
    return data, removed


# seed 7 converges after 45 iterations (54 evaluations); seed 1 stops at the
# iteration budget (it does not converge within 200 iterations either)
@pytest.mark.parametrize("seed,capped", [(7, False), (1, True)])
def test_fit_joint_bit_identical_on_rank_deficient_data(projected_rho0, seed, capped):
    data, _ = projected_rho0
    stats = {}
    sp, mt = fit_joint_orthogonal(data, seed)
    w_sp, b_sp, w_mt, b_mt = _oracle_joint(data, seed, JOINT_RIDGE, stats)
    assert np.array_equal(sp.w, w_sp) and sp.b == b_sp
    assert np.array_equal(mt.w, w_mt) and mt.b == b_mt
    assert stats["evals"] > stats["iters"] + 1  # the line search backtracked
    assert (stats["iters"] == LBFGS_MAX_ITER) == capped


# seeds whose fits stop at the budget here and run 76-200 iterations without
# it; the main-task candidate turned by 0.02-0.72 degrees
@pytest.mark.parametrize("seed", [0, 1, 3, 4])
def test_budgeted_joint_fit_keeps_the_main_task_candidate(projected_rho0, monkeypatch, seed):
    data, removed = projected_rho0
    budgeted = fit_joint_orthogonal(data, seed)
    monkeypatch.setattr(sgd, "LBFGS_MAX_ITER", 200)
    longer = fit_joint_orthogonal(data, seed)
    assert not np.array_equal(budgeted[1].w, longer[1].w)
    # the candidates jse proposes: each head cleaned of the removed direction.
    # The spurious head is not compared: with the spurious signal projected
    # out its cleaned norm is ~0.13 and its direction is noise, which turned
    # by up to 23 degrees (seed 1) between the two fits
    a, _ = normalize_against(budgeted[1].w, [removed])
    b, _ = normalize_against(longer[1].w, [removed])
    assert np.degrees(np.arccos(min(1.0, float(a @ b)))) < 1.0


def _oracle_newton_logreg(X, y, ridge=1e-6, max_iter=50):
    """IRLS with fresh arrays for every intermediate, numpy's mean and the
    masked sigmoid."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(max_iter):
        p = _masked_sigmoid(X @ w + b)
        r = p - y
        g = np.concatenate([X.T @ r / n + ridge * w, [float(np.mean(r))]])
        s = np.maximum(p * (1 - p), 1e-12)
        Xs = X * s[:, None]
        H = np.empty((d + 1, d + 1))
        H[:d, :d] = X.T @ Xs / n + ridge * np.eye(d)
        H[:d, d] = H[d, :d] = Xs.mean(axis=0)
        H[d, d] = float(np.mean(s))
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        nrm = float(np.max(np.abs(step)))
        if nrm > 10.0:
            step *= 10.0 / nrm
        w -= step[:d]
        b -= float(step[d])
        if nrm < 1e-9:
            break
    return w, b


# d = 1 is a 1-d fit on a projected feature (the separable one takes steps
# cut back to length 10), d = 3 stops at its iteration cap, d = 20 is RLACE's
# probe after removing a rank-2 subspace
@pytest.mark.parametrize("case", ["1d", "1d-separable", "3d", "probe-20d"])
def test_newton_logreg_bit_identical_to_oracle(toy_rho08, case):
    _, train, _, _ = toy_rho08
    X, y = train.Z, train.y_sp.astype(np.float64)
    kwargs = {}
    if case == "1d":
        v = np.full(train.d, 1.0 / np.sqrt(train.d))
        X = (X @ v)[:, None]
    elif case == "1d-separable":
        X = X[:, :1]
        y = (X[:, 0] > 0).astype(np.float64)
    elif case == "3d":
        X, kwargs = X[:, 1:4], {"ridge": 1e-2, "max_iter": 7}
    else:
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal((train.d, 2)))[0]
        X = X @ (np.eye(train.d) - Q @ Q.T)
    w, b = _newton_logreg(X, y, **kwargs)
    w0, b0 = _oracle_newton_logreg(X, y, **kwargs)
    assert w.tobytes() == w0.tobytes() and b == b0


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


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=9),
                  elements=st.floats(width=32, allow_nan=False)))
def test_sigmoid_float32_input_gives_float64_of_the_cast(x):
    """Narrower input is computed and returned in float64: the result is the
    float64 formula on ``x.astype(float64)``."""
    got = np.asarray(sigmoid(x))
    assert got.dtype == np.float64 and got.shape == x.shape
    assert got.tobytes() == _masked_sigmoid(x.astype(np.float64)).tobytes()


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


def test_trainers_raise_floating_point_error_on_nan(ragged_toy):
    train, val = ragged_toy
    bad = _with_one_nan(train)
    cfg = OptimizerConfig(max_epochs=8, early_stop_patience=3)
    with pytest.raises(FloatingPointError,
                       match="fit_logreg: non-finite parameters after epoch 1"):
        fit_logreg(bad, "mt", val, cfg, 1)
    with pytest.raises(FloatingPointError, match="fit_joint_orthogonal"):
        fit_joint_orthogonal(bad, 1)
    v = np.zeros(train.d)
    v[1] = 1.0
    with pytest.raises(FloatingPointError, match="fit_1d_logreg"):
        fit_1d_logreg(bad.Z, v, bad.y_sp)
