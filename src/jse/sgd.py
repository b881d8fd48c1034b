"""Logistic-regression trainers: full, intercept-only, 1-d, and jointly-orthogonal.

``fit_logreg`` (ERM, gw-ERM, INLP and the downstream classifier) is
minibatch SGD with momentum, early-stopped on validation accuracy. Its step,
``sgd_step``, is also RLACE's classifier step, so every minibatch fit takes
the same one. The jse inner fits are full-batch solves to the optimum:
``fit_1d_logreg`` by IRLS (``_newton_logreg``, also RLACE's probe),
``fit_joint_orthogonal`` by ``lbfgs`` on ``joint_objective``, whose
main-task head predicts through ``(I - P_{w_sp}) w_mt`` so the two heads are
orthogonal by construction.

Rules for any rewrite; every output is checked bit for bit:

* Keep the same RNG calls. A balanced epoch inverts the sampling CDF
  (``cdf.searchsorted(rng.random(size), side="right")``, the CDF built once
  per fit as ``Generator.choice`` builds it), which is ``choice``'s own step
  on the same uniform draws.
* Keep the same floating-point operations in the same order. Never fuse two
  matrix-vector products into one matrix-matrix product: a gemm sums in a
  different order than two gemvs. ``sgd_step`` divides the gradient by the
  batch size after the product; dividing the residual before it gives the
  same bits only when the batch size is a power of two.
* The hot loops run on small arrays, where numpy's call wrappers cost more
  than the arithmetic. They gather rows with ``take`` (``X[idx]`` costs
  about three times as much on a 128-row batch) and multiply with
  ``np.dot``, whose wrapper is cheaper than ``@``'s on the same BLAS routine.

The oracles are in ``tests/test_sgd.py`` (``fit_logreg`` and its epoch
order, the joint objective and fit, ``_newton_logreg``, ``sigmoid``) and
``tests/test_rlace.py`` (RLACE).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import LabeledEmbeddings

BCE_EPS = 1e-7
PROJ_EPS = 1e-12

# the joint fit's full-batch solve, chosen on the acceptance cells
JOINT_RIDGE = 1e-3  # L2 penalty 0.5 * JOINT_RIDGE * (|w_sp|^2 + |w_mt|^2)
LBFGS_MEMORY = 10  # curvature pairs kept
# The budget: over 1211 joint fits in 300 jse runs on the default toy (rho 0,
# 0.5, 0.9) the fits took 29 iterations at the median, 45 at p90 and 138 at
# p99. All 77 fits past 60 ran on data with a removed direction, where the
# spurious head has almost nothing left to fit and only the ridge curves the
# valley the solver crawls along (3 of them did not meet LBFGS_GTOL within 200
# either). Stopping them at 60 changed no group accuracy of the 1300 jse runs
# of the acceptance cells.
LBFGS_MAX_ITER = 60
LBFGS_GTOL = 1e-5  # stop once max |gradient| falls below this
ARMIJO_C = 1e-4  # sufficient-decrease constant of the backtracking line search


def child_seed(seed: int, *entropy: int) -> int:
    """A seed that is a deterministic function of (seed, *entropy)."""
    return int(np.random.SeedSequence([seed, *entropy]).generate_state(1)[0])


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.1
    weight_decay: float = 0.0
    momentum: float = 0.9
    batch_size: int = 128
    max_epochs: int = 50
    early_stop_patience: int = 5
    balance_sampling: str = "none"  # none | class-balanced | group-balanced

    def __post_init__(self) -> None:
        check_sgd(self.learning_rate, self.momentum, self.batch_size, self.weight_decay)
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if self.early_stop_patience > self.max_epochs:
            raise ValueError("early_stop_patience must be <= max_epochs")
        if self.balance_sampling not in ("none", "class-balanced", "group-balanced"):
            raise ValueError(f"unknown balance_sampling {self.balance_sampling!r}")


def check_sgd(learning_rate: float, momentum: float, batch_size: int, weight_decay: float) -> None:
    """Range checks shared by every config that sets a momentum-SGD step."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if weight_decay < 0:
        raise ValueError("weight_decay must be >= 0")


@dataclass(frozen=True)
class LinearModel:
    """Coefficients of one logistic regression: sigmoid(Z @ w + b)."""

    w: np.ndarray
    b: float

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        if not np.all(np.isfinite(w)) or not np.isfinite(self.b):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))

    def predict(self, Z: np.ndarray) -> np.ndarray:
        return sigmoid(np.asarray(Z) @ self.w + self.b)


# 0-d float64 operands: numpy converts a Python scalar operand on every call,
# and a 0-d array also fixes the result dtype at float64 for narrower input
_ZERO, _ONE, _NEG_ONE = np.array(0.0), np.array(1.0), np.array(-1.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below.

    Both branches share ``e = exp(-|x|)``, so it is computed once for all
    elements and the branch only picks the numerator; ``copysign(x, -1)`` is
    ``-|x|`` bit for bit in one ufunc call. The result is float64 for bool,
    integer and float input up to double precision, and equals the float64
    formula applied to ``x`` cast to float64.
    """
    e = np.exp(np.copysign(x, _NEG_ONE))
    return np.where(x >= _ZERO, _ONE, e) / (_ONE + e)


def bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample binary cross-entropy with probabilities clipped to [eps, 1-eps]."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: p has shape {p.shape}, y has shape {y.shape}")
    # the same bits as np.clip, without its dispatch overhead
    p = np.minimum(np.maximum(p, BCE_EPS), 1.0 - BCE_EPS)
    return -(y * np.log(p) + (1 - y) * np.log1p(-p))


def _logit(q: float) -> float:
    q = min(max(q, BCE_EPS), 1.0 - BCE_EPS)
    return float(np.log(q / (1.0 - q)))


def fit_intercept_only(train: LabeledEmbeddings, target: str) -> LinearModel:
    """The 'random classifier': w = 0, b = logit of the class-1 frequency."""
    y = train.labels(target)
    return LinearModel(np.zeros(train.d), _logit(float(np.mean(y))))


def _epoch_order(
    rng: np.random.Generator, n: int, batch_size: int, cdf: np.ndarray | None
) -> np.ndarray:
    """Row order of one epoch; batch i is ``order[i * batch_size : (i + 1) * batch_size]``.

    Uniform mode (``cdf`` None) shuffles without replacement; balanced modes
    draw every batch with replacement by inverting the sampling CDF, as
    ``Generator.choice`` does (see the module docstring).
    """
    if cdf is None:
        return rng.permutation(n)
    n_batches = (n + batch_size - 1) // batch_size
    return cdf.searchsorted(rng.random(n_batches * batch_size), side="right")


def _sampling_probs(data: LabeledEmbeddings, target: str, mode: str) -> np.ndarray | None:
    """Per-sample probabilities realizing class- or group-balanced batches."""
    if mode == "none":
        return None
    if mode == "class-balanced":
        codes = data.labels(target)
    else:
        codes = data.group
    _, inverse, counts = np.unique(codes, return_inverse=True, return_counts=True)
    w = 1.0 / counts[inverse]
    return w / w.sum()


def _val_score(p: np.ndarray, y: np.ndarray) -> float:
    """Early-stopping score, lower is better: the negative 0.5-threshold
    accuracy (coarse, so training halts once the decision boundary stops moving)."""
    return -(int(np.count_nonzero((p >= 0.5) == y)) / len(y))


def sgd_step(Xb: np.ndarray, yb: np.ndarray, w: np.ndarray, vw: np.ndarray, b: float,
             vb: float, lr: float, mom: float, wd: float) -> tuple[float, float]:
    """One momentum-SGD step of logistic regression on the batch ``(Xb, yb)``:
    updates ``w`` and its velocity ``vw`` in place and returns the new ``(b, vb)``."""
    nb = len(yb)
    r = sigmoid(np.dot(Xb, w) + b) - yb
    gw = np.dot(Xb.T, r) / nb
    if wd:
        gw += wd * w
    vw *= mom
    vw += gw
    vb = mom * vb + float(np.add.reduce(r) / nb)
    w -= lr * vw
    return b - lr * vb, vb


def fit_logreg(train: LabeledEmbeddings, target: str, val: LabeledEmbeddings,
               cfg: OptimizerConfig, seed: int) -> LinearModel:
    """SGD-with-momentum logistic regression for one label, early-stopped on
    validation accuracy; ``seed`` draws the batch order."""
    if train.d != val.d:
        raise ValueError("train and val must share d")
    y = train.labels(target).astype(np.float64)
    if y.min() == y.max():
        return fit_intercept_only(train, target)

    X, Xval = train.Z, val.Z
    yval = val.labels(target).astype(np.float64)
    probs = _sampling_probs(train, target, cfg.balance_sampling)
    cdf = None
    if probs is not None:  # built as Generator.choice builds it
        cdf = probs.cumsum()
        cdf /= cdf[-1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    w = np.zeros(train.d)
    b = 0.0
    vw = np.zeros(train.d)
    vb = 0.0
    bs, lr, mom, wd = cfg.batch_size, cfg.learning_rate, cfg.momentum, cfg.weight_decay
    # every epoch's order has the same length (n, or whole batches when
    # balanced), so its rows are gathered into one buffer reused across epochs;
    # mode="clip" skips take's bounds-check copy, and the order is always in range
    rows = train.n if probs is None else (train.n + bs - 1) // bs * bs
    Xo, yo = np.empty((rows, train.d)), np.empty(rows)
    # the best post-epoch snapshot, ties keeping the earliest epoch
    best, best_score, since = None, np.inf, 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = _epoch_order(rng, train.n, bs, cdf)
        np.take(X, order, axis=0, out=Xo, mode="clip")
        np.take(y, order, out=yo, mode="clip")
        for i in range(0, rows, bs):
            b, vb = sgd_step(Xo[i : i + bs], yo[i : i + bs], w, vw, b, vb, lr, mom, wd)
        # a finite earlier snapshot must not hide a divergence
        if not (np.isfinite(w).all() and np.isfinite(b)):
            raise FloatingPointError(f"fit_logreg: non-finite parameters after epoch {epoch}")
        score = _val_score(sigmoid(Xval @ w + b), yval)
        if score < best_score:
            best, best_score, since = (w.copy(), b), score, 0
        else:
            since += 1
        if since >= cfg.early_stop_patience:
            break
    return LinearModel(*best)


def fit_1d_logreg(Z: np.ndarray, v: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Fit scale gamma and intercept b on the projected feature s = Z @ v, v held fixed,
    by IRLS to the optimum; gamma is 0 when s is constant."""
    v = np.asarray(v, dtype=np.float64)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("v must be unit-norm")
    s = np.asarray(Z, dtype=np.float64) @ v
    y = np.asarray(y, dtype=np.float64)
    if s.std() < 1e-12:
        return 0.0, _logit(float(np.mean(y)))
    w, b = _newton_logreg(s[:, None], y)
    if not (np.isfinite(w[0]) and np.isfinite(b)):
        raise FloatingPointError("fit_1d_logreg: non-finite solution")
    return float(w[0]), b


def predict_1d(Z: np.ndarray, v: np.ndarray, gamma: float, b: float) -> np.ndarray:
    """The 1-d model's probabilities ``sigmoid(gamma * (Z @ v) + b)``, in that
    operation order: ``Z @ (gamma * v)`` rounds differently."""
    return sigmoid(gamma * (Z @ v) + b)


def _newton_logreg(X: np.ndarray, y: np.ndarray, ridge: float = 1e-6, max_iter: int = 50):
    """Converged logistic regression by IRLS: the 1-d fits' solver and RLACE's probe.

    Unlike the SGD protocol this has no validation-snapshot selection, so its
    held-out accuracy is an unbiased read on what a classifier can recover.
    """
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    ridge_eye = ridge * np.eye(d)
    # workspace: every entry of g and H is rewritten on each iteration
    z, r, s = np.empty(n), np.empty(n), np.empty(n)
    Xs = np.empty((n, d))
    XtXs = np.empty((d, d))
    g = np.empty(d + 1)
    H = np.empty((d + 1, d + 1))
    for _ in range(max_iter):
        np.matmul(X, w, out=z)
        z += b
        p = sigmoid(z)
        np.subtract(p, y, out=r)
        np.matmul(X.T, r, out=g[:d])
        g[:d] /= n
        g[:d] += ridge * w
        g[d] = np.add.reduce(r) / n
        np.subtract(1.0, p, out=s)
        s *= p
        np.maximum(s, 1e-12, out=s)
        np.multiply(X, s[:, None], out=Xs)
        np.matmul(X.T, Xs, out=XtXs)
        XtXs /= n
        np.add(XtXs, ridge_eye, out=H[:d, :d])
        H[:d, d] = H[d, :d] = np.add.reduce(Xs, axis=0) / n
        H[d, d] = np.add.reduce(s) / n
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


def lbfgs(fun, x: np.ndarray, trainer: str) -> np.ndarray:
    """Minimize ``fun(x) -> (value, gradient)`` from ``x`` by L-BFGS.

    The search direction comes from the two-loop recursion over the last
    ``LBFGS_MEMORY`` curvature pairs (the first one is cut to unit length at most)
    and is cut back by Armijo backtracking from step 1. Stops once
    ``max |gradient| < LBFGS_GTOL``, after ``LBFGS_MAX_ITER`` iterations, or
    when the line search can no longer decrease the value. A non-finite value
    or gradient raises ``FloatingPointError`` naming ``trainer``.

    The gradient at the current point is kept across the line search, so
    ``fun`` must return a new gradient array on every call.
    """

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        f, g = fun(x)
        if not (np.isfinite(f) and np.isfinite(g).all()):
            raise FloatingPointError(f"{trainer}: non-finite loss or gradient")
        return f, g

    f, g = evaluate(x)
    pairs: deque = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / s.y), oldest first
    # the search direction and a product buffer, rewritten on every iteration
    q, tmp = np.empty_like(x), np.empty_like(x)
    for _ in range(LBFGS_MAX_ITER):
        if np.abs(g, out=tmp).max() < LBFGS_GTOL:
            break
        np.copyto(q, g)
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ q))
            q -= np.multiply(y, alphas[-1], out=tmp)
        if pairs:  # initial inverse Hessian s.y / y.y from the newest pair
            _, y, rho = pairs[-1]
            q /= rho * float(y @ y)
        else:
            q /= max(1.0, float(np.linalg.norm(q)))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += np.multiply(s, a - rho * float(y @ q), out=tmp)
        slope = -float(g @ q)
        if slope >= 0.0:
            break
        t = 1.0
        while True:
            x_new = x - np.multiply(q, t, out=tmp)
            f_new, g_new = evaluate(x_new)
            if f_new <= f + ARMIJO_C * t * slope:
                break
            t *= 0.5
            if t < 1e-10:
                return x
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            pairs.append((s, y, 1.0 / sy))
        x, f, g = x_new, f_new, g_new
    return x


def joint_objective(X: np.ndarray, y_sp: np.ndarray, y_mt: np.ndarray, ridge: float):
    """The joint fit's objective on one training set: ``fun(theta) -> (value, grad)``.

    ``theta`` packs ``[w_sp (d), w_mt (d), b_sp, b_mt]``. The value is the sum
    of the two per-task mean BCEs, the main-task head predicting through
    ``(I - P_{w_sp}) w_mt``, plus ``0.5 * ridge * (|w_sp|^2 + |w_mt|^2)``.

    Both heads' logits share one (2, n) array, so ``sigmoid``, ``bce`` and the
    residual run once for both. The fixed-size buffers are allocated here,
    once per fit; each call returns a new gradient array.
    """
    n, d = X.shape
    Xt = X.T
    Y = np.stack([y_sp, y_mt]).astype(np.float64)
    u = np.empty(n)  # X @ w_sp, shared by both heads' logits and the gradient
    logits = np.empty((2, n))
    tmp_n, tmp_d, tmp_2d = np.empty(n), np.empty(d), np.empty(2 * d)

    def fun(theta: np.ndarray) -> tuple[float, np.ndarray]:
        w_sp, w_mt, w = theta[:d], theta[d : 2 * d], theta[: 2 * d]
        s = float(w_sp @ w_sp) + PROJ_EPS
        c = float(w_sp @ w_mt)
        np.matmul(X, w_sp, out=u)
        np.add(u, theta[2 * d], out=logits[0])
        np.matmul(X, w_mt, out=logits[1])
        logits[1] -= np.multiply(u, c / s, out=tmp_n)
        logits[1] += theta[2 * d + 1]
        P = sigmoid(logits)
        # np.add.reduce(.) / n is np.mean without its wrapper
        head_loss = np.add.reduce(bce(P, Y), axis=1) / n
        loss = float(head_loss[0] + head_loss[1]) + 0.5 * ridge * float(w @ w)

        R = np.subtract(P, Y, out=P)  # per-head residuals (p - y) / n, in place
        R /= n
        r_sp, r_mt = R
        ru = float(r_mt @ u)
        grad = np.empty(2 * d + 2)
        g_wsp, g_wmt = grad[:d], grad[d : 2 * d]
        # two matrix-vector products, not one matrix-matrix product: see the module docstring
        np.matmul(Xt, r_mt, out=g_wmt)
        np.matmul(Xt, r_sp, out=g_wsp)
        g_wsp -= np.multiply(g_wmt, c / s, out=tmp_d)
        g_wsp -= np.multiply(w_mt, ru / s, out=tmp_d)
        g_wsp += np.multiply(w_sp, 2.0 * c * ru / s**2, out=tmp_d)
        g_wmt -= np.multiply(w_sp, ru / s, out=tmp_d)
        grad[: 2 * d] += np.multiply(w, ridge, out=tmp_2d)
        np.add.reduce(R, axis=1, out=grad[2 * d :])
        return loss, grad

    return fun


def fit_joint_orthogonal(train: LabeledEmbeddings, seed: int) -> tuple[LinearModel, LinearModel]:
    """Jointly fit the spurious and main-task logistic regressions with
    orthogonal coefficient vectors.

    Minimizes ``joint_objective`` with the ``JOINT_RIDGE`` penalty on the full
    training set with ``lbfgs``. Returns ``(sp_model, mt_model)`` where the
    main-task model stores the already-projected effective weights, so
    ``sp.w`` is orthogonal to ``mt.w``.
    """
    for target in ("sp", "mt"):
        y = train.labels(target)
        if y.min() == y.max():
            raise ValueError(f"target {target!r} has a single class in the training data")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = train.d
    # packed [w_sp (d), w_mt (d), b_sp, b_mt], as in joint_objective; the
    # small random init matters: when the two labels correlate strongly the
    # heads race for the same directions, and the systematic label-feature
    # asymmetry (not init noise) should decide near-ties
    theta = np.zeros(2 * d + 2)
    theta[:d] = rng.normal(0.0, 0.1 / np.sqrt(d), size=d)
    theta[d : 2 * d] = rng.normal(0.0, 0.1 / np.sqrt(d), size=d)
    fun = joint_objective(train.Z, train.y_sp, train.y_mt, JOINT_RIDGE)
    theta = lbfgs(fun, theta, "fit_joint_orthogonal")
    w_sp, w_mt, (b_sp, b_mt) = theta[:d], theta[d : 2 * d], theta[2 * d :]
    s = float(w_sp @ w_sp) + PROJ_EPS
    w_mt_eff = w_mt - (float(w_sp @ w_mt) / s) * w_sp
    return LinearModel(w_sp, b_sp), LinearModel(w_mt_eff, b_mt)
