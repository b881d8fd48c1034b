"""Logistic-regression trainers: full, intercept-only, 1-d, and jointly-orthogonal.

They run one of two protocols:

* ``fit_logreg`` (ERM, gw-ERM, INLP and the downstream classifier) runs the
  benchmark protocol: minibatch SGD with momentum and optional weight
  decay, validation accuracy evaluated after every epoch, and early stopping
  that returns the snapshot with the highest validation accuracy (earliest
  epoch on ties), stopping after ``early_stop_patience`` epochs without
  improvement. Its settings are an ``OptimizerConfig``; the seed of its batch
  order is an argument, so one config serves every run. RLACE's classifier
  step takes its own momentum-SGD keys from ``RlaceConfig``, range-checked
  by the same ``check_sgd``.
* The jse inner fits are solved on the full batch to their optimum.
  ``fit_1d_logreg`` runs IRLS (``_newton_logreg``, RLACE's probe solver)
  on the projected feature. ``fit_joint_orthogonal`` minimizes
  ``joint_loss_and_grad`` plus a ``JOINT_RIDGE`` penalty on both weight
  vectors with ``lbfgs``, from a seeded random init. Neither has a
  validation split or a configuration: the solver constants are module
  constants.

The joint objective handles the orthogonality constraint through an
unconstrained reparameterization: the main-task head predicts with
``(I - P) w_mt`` where ``P = w_sp w_sp^T / (w_sp^T w_sp)``, so the two
effective coefficient vectors are orthogonal by construction.

SGD batches: each epoch draws its row order with one RNG call (a permutation
in uniform mode; ``ceil(n / batch_size) * batch_size`` indices drawn with
replacement under the sampling probabilities in the balanced modes), gathers
the training rows in that order once, and slices consecutive batches from
the gathered copy. The last uniform batch is ragged when ``batch_size`` does
not divide ``n``.

The SGD step loop is written for few numpy calls per step, but its output is
bit-identical to the plain per-batch formulation (index batches, a masked
sigmoid, one allocation per update): any rewrite must keep the same RNG calls
and the same floating-point operations in the same order. In particular a
pair of matrix-vector products must not be fused into one matrix-matrix
product. ``tests/test_sgd.py`` holds that formulation as an oracle and
checks equality with ``np.array_equal``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import Direction, LabeledEmbeddings

BCE_EPS = 1e-7
PROJ_EPS = 1e-12

# the joint fit's full-batch solve, chosen on the acceptance cells
JOINT_RIDGE = 1e-3  # L2 penalty 0.5 * JOINT_RIDGE * (|w_sp|^2 + |w_mt|^2)
LBFGS_MEMORY = 10  # curvature pairs kept
LBFGS_MAX_ITER = 200
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
    warn: str | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        if not np.all(np.isfinite(w)) or not np.isfinite(self.b):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))

    def predict(self, Z: np.ndarray) -> np.ndarray:
        return sigmoid(np.asarray(Z) @ self.w + self.b)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below.

    Both branches share ``e = exp(-|x|)``, so it is computed once for all
    elements and the branch only picks the numerator.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    rng: np.random.Generator, n: int, batch_size: int, probs: np.ndarray | None
) -> np.ndarray:
    """Row order of one epoch; batch i is ``order[i * batch_size : (i + 1) * batch_size]``.

    Uniform mode shuffles without replacement; balanced modes draw every batch
    with replacement under the given sampling probabilities.
    """
    if probs is None:
        return rng.permutation(n)
    n_batches = (n + batch_size - 1) // batch_size
    return rng.choice(n, size=n_batches * batch_size, replace=True, p=probs)


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


class _EarlyStopper:
    """Track the best post-epoch snapshot; ties keep the earliest epoch.

    Every recorded state must be finite: the first epoch that ends with
    non-finite parameters raises ``FloatingPointError`` naming the trainer, so
    a finite earlier snapshot cannot hide a divergence.
    """

    def __init__(self, patience: int, trainer: str):
        self.patience = patience
        self.trainer = trainer
        self.best_loss = np.inf
        self.best_state: tuple | None = None
        self.since = 0
        self.epoch = 0

    def update(self, loss: float, state: tuple) -> bool:
        """Record one epoch; returns True when training should stop."""
        self.epoch += 1
        if not all(np.isfinite(part).all() for part in state):
            raise FloatingPointError(
                f"{self.trainer}: non-finite parameters after epoch {self.epoch}"
            )
        if loss < self.best_loss:
            self.best_loss = loss
            self.best_state = state
            self.since = 0
        else:
            self.since += 1
        return self.since >= self.patience

    def best(self) -> tuple:
        """The kept snapshot; FloatingPointError if no epoch scored finite."""
        if self.best_state is None:
            raise FloatingPointError(f"{self.trainer}: no finite validation score in any epoch")
        return self.best_state


def _val_score(p: np.ndarray, y: np.ndarray) -> float:
    """Early-stopping score, lower is better: the negative 0.5-threshold
    accuracy (coarse, so training halts once the decision boundary stops moving)."""
    return -(int(np.count_nonzero((p >= 0.5) == y)) / len(y))


def fit_logreg(train: LabeledEmbeddings, target: str, val: LabeledEmbeddings,
               cfg: OptimizerConfig, seed: int) -> LinearModel:
    """SGD-with-momentum logistic regression for one label, early-stopped on
    validation accuracy; ``seed`` draws the batch order."""
    if train.n == 0:
        raise ValueError("empty training set")
    if train.d != val.d:
        raise ValueError("train and val must share d")
    y = train.labels(target).astype(np.float64)
    if y.min() == y.max():
        m = fit_intercept_only(train, target)
        return LinearModel(m.w, m.b, warn="single-class target; intercept-only fit")

    X, Xval = train.Z, val.Z
    yval = val.labels(target).astype(np.float64)
    probs = _sampling_probs(train, target, cfg.balance_sampling)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    w = np.zeros(train.d)
    b = 0.0
    vw = np.zeros(train.d)
    vb = 0.0
    bs = cfg.batch_size
    stopper = _EarlyStopper(cfg.early_stop_patience, "fit_logreg")
    for _ in range(cfg.max_epochs):
        order = _epoch_order(rng, train.n, bs, probs)
        Xo, yo = X[order], y[order]
        for i in range(0, len(order), bs):
            Xb, yb = Xo[i : i + bs], yo[i : i + bs]
            nb = len(yb)
            r = sigmoid(Xb @ w + b) - yb
            gw = Xb.T @ r / nb
            if cfg.weight_decay:
                gw += cfg.weight_decay * w
            vw *= cfg.momentum
            vw += gw
            vb = cfg.momentum * vb + float(r.sum() / nb)
            w -= cfg.learning_rate * vw
            b -= cfg.learning_rate * vb
        score = _val_score(sigmoid(Xval @ w + b), yval)
        if stopper.update(score, (w.copy(), b)):
            break
    w, b = stopper.best()
    return LinearModel(w, b)


def fit_1d_logreg(Z: np.ndarray, v: np.ndarray, y: np.ndarray) -> Direction:
    """Fit scale gamma and intercept b on the projected feature s = Z @ v, v held fixed,
    by IRLS to the optimum."""
    v = np.asarray(v, dtype=np.float64)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("v must be unit-norm")
    s = np.asarray(Z, dtype=np.float64) @ v
    y = np.asarray(y, dtype=np.float64)
    if s.std() < 1e-12:
        b = _logit(float(np.mean(y)))
        return Direction(v, 0.0, b, warn="constant projected feature; gamma undefined")
    w, b = _newton_logreg(s[:, None], y)
    if not (np.isfinite(w[0]) and np.isfinite(b)):
        raise FloatingPointError("fit_1d_logreg: non-finite solution")
    return Direction(v, w[0], b)


def _newton_logreg(X: np.ndarray, y: np.ndarray, ridge: float = 1e-6, max_iter: int = 50):
    """Converged logistic regression by IRLS: the 1-d fits' solver and RLACE's probe.

    Unlike the SGD protocol this has no validation-snapshot selection, so its
    held-out accuracy is an unbiased read on what a classifier can recover.
    """
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(max_iter):
        p = sigmoid(X @ w + b)
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


def lbfgs(fun, x: np.ndarray, trainer: str) -> np.ndarray:
    """Minimize ``fun(x) -> (value, gradient)`` from ``x`` by L-BFGS.

    The search direction comes from the two-loop recursion over the last
    ``LBFGS_MEMORY`` curvature pairs (the first one is cut to unit length at most)
    and is cut back by Armijo backtracking from step 1. Stops once
    ``max |gradient| < LBFGS_GTOL``, after ``LBFGS_MAX_ITER`` iterations, or
    when the line search can no longer decrease the value. A non-finite value
    or gradient raises ``FloatingPointError`` naming ``trainer``.
    """

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        f, g = fun(x)
        if not (np.isfinite(f) and np.isfinite(g).all()):
            raise FloatingPointError(f"{trainer}: non-finite loss or gradient")
        return f, g

    f, g = evaluate(x)
    pairs: deque = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / s.y), oldest first
    for _ in range(LBFGS_MAX_ITER):
        if np.max(np.abs(g)) < LBFGS_GTOL:
            break
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        if pairs:  # initial inverse Hessian s.y / y.y from the newest pair
            _, y, rho = pairs[-1]
            q /= rho * (y @ y)
        else:
            q /= max(1.0, float(np.linalg.norm(q)))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        slope = -float(g @ q)
        if slope >= 0.0:
            break
        t = 1.0
        while True:
            x_new = x - t * q
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


def joint_loss_and_grad(
    params: np.ndarray,
    X: np.ndarray,
    y_sp: np.ndarray,
    y_mt: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Value and gradient of the joint objective at packed params.

    Packing is ``[w_sp (d), w_mt (d), b_sp, b_mt]``. The objective is the sum
    of the two per-task mean BCEs, the main-task head predicting through
    ``(I - P_{w_sp}) w_mt``.
    """
    d = X.shape[1]
    w_sp, w_mt = params[:d], params[d : 2 * d]
    b_sp, b_mt = params[2 * d], params[2 * d + 1]
    n = X.shape[0]

    u = X @ w_sp
    p_sp = sigmoid(u + b_sp)
    s = float(w_sp @ w_sp) + PROJ_EPS
    c = float(w_sp @ w_mt)
    logit_mt = X @ w_mt - u * (c / s) + b_mt
    p_mt = sigmoid(logit_mt)

    loss = float(np.mean(bce(p_sp, y_sp)) + np.mean(bce(p_mt, y_mt)))

    r_sp = (p_sp - y_sp) / n
    r_mt = (p_mt - y_mt) / n
    Xr_mt = X.T @ r_mt
    ru = float(r_mt @ u)
    g_wsp = X.T @ r_sp - (c / s) * Xr_mt - (ru / s) * w_mt + (2.0 * c * ru / s**2) * w_sp
    g_wmt = Xr_mt - (ru / s) * w_sp
    grad = np.concatenate([g_wsp, g_wmt, [float(np.sum(r_sp)), float(np.sum(r_mt))]])
    return loss, grad


def fit_joint_orthogonal(train: LabeledEmbeddings, seed: int) -> tuple[LinearModel, LinearModel]:
    """Jointly fit the spurious and main-task logistic regressions with
    orthogonal coefficient vectors.

    Minimizes ``joint_loss_and_grad`` plus ``0.5 * JOINT_RIDGE * (|w_sp|^2 +
    |w_mt|^2)`` on the full training set with ``lbfgs``. Returns ``(sp_model,
    mt_model)`` where the main-task model stores the already-projected
    effective weights, so ``sp.w`` is orthogonal to ``mt.w``.
    """
    for target in ("sp", "mt"):
        y = train.labels(target)
        if y.min() == y.max():
            raise ValueError(f"target {target!r} has a single class in the training data")
    X = train.Z
    y_sp = train.y_sp.astype(np.float64)
    y_mt = train.y_mt.astype(np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = train.d
    # packed [w_sp (d), w_mt (d), b_sp, b_mt], as in joint_loss_and_grad; the
    # small random init matters: when the two labels correlate strongly the
    # heads race for the same directions, and the systematic label-feature
    # asymmetry (not init noise) should decide near-ties
    theta = np.zeros(2 * d + 2)
    theta[:d] = rng.normal(0.0, 0.1 / np.sqrt(d), size=d)
    theta[d : 2 * d] = rng.normal(0.0, 0.1 / np.sqrt(d), size=d)

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad = joint_loss_and_grad(theta, X, y_sp, y_mt)
        w = theta[: 2 * d]
        grad[: 2 * d] += JOINT_RIDGE * w
        return loss + 0.5 * JOINT_RIDGE * float(w @ w), grad

    theta = lbfgs(objective, theta, "fit_joint_orthogonal")
    w_sp, w_mt, (b_sp, b_mt) = theta[:d], theta[d : 2 * d], theta[2 * d :]
    s = float(w_sp @ w_sp) + PROJ_EPS
    w_mt_eff = w_mt - (float(w_sp @ w_mt) / s) * w_sp
    return LinearModel(w_sp, b_sp), LinearModel(w_mt_eff, b_mt)
