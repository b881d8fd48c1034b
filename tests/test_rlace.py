"""RLACE: golden fits and the adversary's span solve."""

import numpy as np
import pytest

from jse import baselines
from jse.baselines import RlaceConfig, _span_solver, _top_k_projection, rlace_fit
from jse.sgd import _newton_logreg
from jse.toy import ToyConfig, gen_toy

from conftest import random_labeled, random_orthonormal, rlace_probe_accuracy

# (rho, fit seed, rank, max_iters, iters, converged, the stopping probe's
# val_accuracy on U, removed basis U);
# pinned before the adversary step moved to the span solve. The last case hits
# max_iters and returns the best probe snapshot.
GOLDEN = [
    (0.8, 2, 1, 50000, 1250, True, 0.505, [
        [-0.7711720222340791],
        [-0.621524371208465],
        [-0.0393038756809604],
        [0.01580733571931024],
        [-0.02372890383273604],
        [0.031092209938472705],
        [-0.019930541371049045],
        [0.0013705622390718284],
        [0.03153160608327603],
        [0.043118062442220655],
        [-0.04440063400395566],
        [-0.0705913434809994],
        [-0.017628002466980586],
        [-0.025727180829268594],
        [0.0012876581952916532],
        [0.023725947594718733],
        [-0.017724188838614294],
        [0.05445553413260944],
        [-0.016289041641096156],
        [-0.019686259857549713],
    ]),
    (0.8, 1, 2, 50000, 1500, True, 0.5075, [
        [-0.7716853247086236, 0.11385186696886195],
        [-0.6242948847188243, -0.18143706794509804],
        [-0.02175140900360684, -0.22271232754968812],
        [0.0019587848131851727, 0.07305757562972173],
        [-0.033899827395668526, 0.3432046685063509],
        [0.034748205876152675, 0.23887045790241418],
        [-0.011273465528530556, 0.0022671307304358845],
        [-0.01964568780799029, -0.21969396753782125],
        [0.020960983415093205, -0.1848365996107801],
        [0.028625551301438634, -0.31429250002773707],
        [-0.01287887621946798, 0.025402367431413872],
        [-0.06599502155669106, -0.04320366597470866],
        [-0.03503488427640314, 0.44774815152407427],
        [-0.05083136521846549, 0.27609340785613085],
        [0.0002500909254090206, 0.2948503550937312],
        [0.01695677728981165, -0.04141908103106691],
        [-0.009444153986048245, -0.18780456328455988],
        [0.025046794460887634, 0.35887533714380876],
        [-0.0197713988191344, 0.10179547034869484],
        [-0.02060860441276305, -0.028674438110404446],
    ]),
    (0.0, 4, 1, 50000, 1250, True, 0.485, [
        [-0.9836596757769659],
        [0.028116524321039782],
        [0.0630681423628202],
        [0.022766912912250196],
        [0.08430465002856509],
        [-0.043743369117087504],
        [0.01639945228688449],
        [-0.03070352510792734],
        [0.04641782784617839],
        [0.04524155367572043],
        [-0.03460312648719199],
        [-0.07073760850605501],
        [-0.02170383005546623],
        [-0.016865138022475277],
        [0.004509100226754755],
        [-0.022659212164669127],
        [-0.03186483584564338],
        [-0.006684417049916246],
        [-0.044501976360516],
        [0.04650205288335276],
    ]),
    (0.8, 0, 1, 1500, 1500, False, 0.54, [
        [-0.7680637693117491],
        [-0.6277324465902917],
        [-0.02686905400996664],
        [-0.013572676716743134],
        [0.005734483386050654],
        [0.02080923023979286],
        [-0.02432493556555786],
        [-0.04002783835691083],
        [0.04799890471354487],
        [0.016768226984946868],
        [0.015198913150259773],
        [-0.021012540427742362],
        [-0.00869886253865019],
        [-0.055857832341343054],
        [0.024021697765780288],
        [0.019854809677920596],
        [0.03930021781416992],
        [0.027463641135013605],
        [-0.01483582868977816],
        [-0.05020491765948718],
    ]),
]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"rho{c[0]}-seed{c[1]}-rank{c[2]}-cap{c[3]}")
def test_rlace_golden_fits(toy_rho08, toy_rho0, case):
    rho, seed, rank, max_iters, iters, converged, val_accuracy, U = case
    _, train, val, _ = toy_rho08 if rho == 0.8 else toy_rho0
    res = rlace_fit(train, val, RlaceConfig(rank=rank, max_iters=max_iters), seed)
    assert (res.iters, res.converged) == (iters, converged)
    assert rlace_probe_accuracy(train, val, res.removed.V) == val_accuracy
    U = np.array(U)
    V = res.removed.V
    np.testing.assert_allclose(np.eye(train.d) - V @ V.T, np.eye(train.d) - U @ U.T,
                               rtol=0, atol=1e-10)


# --- bit-identity oracle -----------------------------------------------------
# rlace_fit written one step at a time: one integers draw per batch, [U g w]
# built by np.column_stack, -|x| by np.abs, and a fresh array on every update.
# rlace_fit draws a probe interval's batches at once and updates in place; both
# must give the same bits.


def _abs_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _per_step_rlace(train, val, cfg, seed):
    from scipy.linalg import lapack

    d, k, lr = train.d, cfg.rank, cfg.subspace_lr
    X, y = train.Z, train.y_sp.astype(np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    U = _top_k_projection(0.1 * rng.standard_normal((d, d)), k)
    m = k + 2
    C = np.eye(m)
    C[k:, k:] = [[0.0, -0.5 * lr], [-0.5 * lr, 0.0]]
    upper = np.triu(np.ones((m, m)))

    def top_k(U, g, w):
        if len(g) >= m:
            qr, tau, _, _ = lapack.dgeqrf(np.column_stack((U, g, w)))
            vals, vecs, info = lapack.dsyevd((qr[:m] * upper) @ C @ (qr[:m] * upper).T, lower=1)
            if info == 0 and vals[2] > 0:
                return lapack.dorgqr(qr, tau)[0] @ vecs[:, :1:-1]
        G = np.outer(g, w)
        return _top_k_projection(U @ U.T - lr * 0.5 * (G + G.T), k)

    def probe_accuracy(U):
        P = np.eye(d) - U @ U.T
        wp, bp = _newton_logreg(X @ P, y)
        return float(np.mean((_abs_sigmoid((val.Z @ P) @ wp + bp) >= 0.5) == val.y_sp))

    w, b, vw, vb = np.zeros(d), 0.0, np.zeros(d), 0.0
    best, converged, it = None, False, 0
    while it < cfg.max_iters:
        it += 1
        idx = rng.integers(0, train.n, size=cfg.batch_size)
        Xb, yb = X[idx], y[idx]
        Xp = Xb - np.dot(Xb @ U, U.T)
        r = _abs_sigmoid(Xp @ w + b) - yb
        gw = Xp.T @ r / len(idx)
        if cfg.weight_decay:
            gw = gw + cfg.weight_decay * w
        vw = cfg.momentum * vw + gw
        vb = cfg.momentum * vb + float(r.sum() / len(idx))
        w = w - cfg.learning_rate * vw
        b = b - cfg.learning_rate * vb
        r = (_abs_sigmoid(Xp @ w + b) - yb) / len(idx)
        U = top_k(U, Xb.T @ r, w)
        if it % cfg.eval_every == 0:
            acc = probe_accuracy(U)
            if best is None or acc < best[0]:
                best = (acc, U.copy())
            if acc < cfg.stop_accuracy:
                converged = True
                break
    if not converged and best is not None:
        U = best[1]
    return U, it, converged


# (d, rank, max_iters, eval_every, weight_decay, stop_accuracy[, batch_size]):
# the fits that stop at 0.51 converge at a probe, the ones that stop at 0.01
# never reach it and run to max_iters. The batch size is 128 unless given; a
# size that is not a power of two rounds differently when the residual is
# divided by it before the product, so it pins the classifier step's order
ORACLE_CASES = [
    (8, 1, 2000, 250, 0.0, 0.51),
    (8, 2, 1000, 250, 0.0, 0.01),
    (8, 1, 1300, 250, 0.0, 0.01),  # the last 50 steps run after the last probe
    (8, 2, 1300, 250, 0.01, 0.01),
    (8, 1, 2000, 100, 0.01, 0.51),
    (20, 2, 1300, 250, 0.0, 0.01),
    (3, 2, 1300, 250, 0.0, 0.01),  # d < k + 2: every step takes the d x d solve
    (3, 2, 2000, 200, 0.01, 0.51),
    (8, 1, 1300, 250, 0.01, 0.01, 100),
]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: (
    "d{}-rank{}-cap{}-every{}-wd{}-stop{}".format(*c) + (f"-bs{c[6]}" if len(c) > 6 else "")))
def test_rlace_bit_identical_to_per_step_oracle(case):
    d, rank, max_iters, eval_every, wd, stop, bs = (*case, 128)[:7]
    train, val = gen_toy(ToyConfig(n=800, d=d, rho=0.5, seed=d))
    cfg = RlaceConfig(rank=rank, max_iters=max_iters, eval_every=eval_every, weight_decay=wd,
                      stop_accuracy=stop, batch_size=bs)
    U, iters, converged = _per_step_rlace(train, val, cfg, 2)
    res = rlace_fit(train, val, cfg, 2)
    assert (res.iters, res.converged) == (iters, converged)
    np.testing.assert_array_equal(res.removed.V, U)
    assert converged == (stop == 0.51) and (converged or iters == max_iters)


# --- the adversary's span solve ------------------------------------------------


def _explicit_top_k(U, g, w, lr):
    """The d x d solve on the explicitly formed step matrix."""
    G = np.outer(g, w)
    return _top_k_projection(U @ U.T - lr * 0.5 * (G + G.T), U.shape[1])


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the span solve's calls into the d x d eigendecomposition."""
    calls = []

    def counted(M, k):
        calls.append(k)
        return _top_k_projection(M, k)

    monkeypatch.setattr(baselines, "_top_k_projection", counted)
    return calls


def _assert_same_projector(U_span, U_ref):
    k = U_ref.shape[1]
    assert U_span.shape == U_ref.shape
    np.testing.assert_allclose(U_span.T @ U_span, np.eye(k), rtol=0, atol=1e-12)
    np.testing.assert_allclose(U_span @ U_span.T, U_ref @ U_ref.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lr", [0.01, 0.3])
@pytest.mark.parametrize("seed", range(5))
def test_span_solve_matches_explicit_eigh(fallbacks, k, lr, seed):
    rng = np.random.default_rng(seed)
    d = 20
    U = random_orthonormal(rng, d, k)
    g, w = rng.standard_normal(d), rng.standard_normal(d)
    U_span = _span_solver(d, k, lr)(U, g, w)
    assert fallbacks == []
    _assert_same_projector(U_span, _explicit_top_k(U, g, w, lr))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("span", ["w = 0", "g in span(U)", "g parallel to w"])
def test_span_solve_degenerate_spans(fallbacks, k, span):
    rng = np.random.default_rng(k)
    d, lr = 12, 0.3
    U = random_orthonormal(rng, d, k)
    g, w = rng.standard_normal(d), rng.standard_normal(d)
    if span == "w = 0":
        w = np.zeros(d)
    elif span == "g in span(U)":
        g = U @ rng.standard_normal(k)
    else:
        g = -2.5 * w
    U_span = _span_solver(d, k, lr)(U, g, w)
    assert fallbacks == []
    _assert_same_projector(U_span, _explicit_top_k(U, g, w, lr))


@pytest.mark.parametrize("k", [1, 2])
def test_span_solve_falls_back_when_top_k_reach_the_null_space(fallbacks, k):
    """g = w = U[:, 0] with a step of 4 turns that direction's eigenvalue to -3;
    fewer than k eigenvalues stay positive, so the top k include null vectors of
    M, which only the d x d solve picks the way it always has."""
    d, lr = 8, 4.0
    U = np.eye(d)[:, :k]
    g = w = U[:, 0].copy()
    U_span = _span_solver(d, k, lr)(U, g, w)
    assert fallbacks == [k]
    np.testing.assert_array_equal(U_span, _explicit_top_k(U, g, w, lr))


@pytest.mark.parametrize("k", [1, 2])
def test_span_solve_below_k_plus_2_dimensions_uses_the_explicit_solve(fallbacks, k):
    rng = np.random.default_rng(k)
    d = k + 1
    U = random_orthonormal(rng, d, k)
    g, w = rng.standard_normal(d), rng.standard_normal(d)
    U_span = _span_solver(d, k, 0.3)(U, g, w)
    assert fallbacks == [k]
    np.testing.assert_array_equal(U_span, _explicit_top_k(U, g, w, 0.3))


def test_span_solve_nan_raises_like_the_explicit_solve():
    U = np.eye(6)[:, :1]
    g = np.full(6, np.nan)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        _span_solver(6, 1, 0.01)(U, g, np.ones(6))


def test_rlace_rank_must_be_below_d():
    data = random_labeled(np.random.default_rng(0), n=60, d=6)
    for rank in (6, 7):
        with pytest.raises(ValueError, match=rf"rank {rank} .*d = 6"):
            rlace_fit(data, data, RlaceConfig(rank=rank), 0)
