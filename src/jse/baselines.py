"""Baseline removal and training methods: INLP, RLACE, ERM, group-weighted ERM.

INLP repeatedly fits a spurious-concept classifier, projects its coefficient
direction out of the embeddings, and stops once the classifier is no longer
significantly better (validation BCE, one-sided t-test) than the
intercept-only classifier.

RLACE plays an alternating minimax game: a linear classifier minimizes the
spurious-concept BCE on projected embeddings while a rank-k removal subspace
takes gradient steps to maximize it, re-orthonormalized after every step by
eigendecomposition truncation. It stops when a freshly trained probe's
validation accuracy drops below the target (51% by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import norm

from .data import LabeledEmbeddings, SubspaceBasis, project_out
from .sgd import LinearModel, OptimizerConfig, bce, fit_intercept_only, fit_logreg, sigmoid


@dataclass(frozen=True)
class InlpConfig:
    alpha: float = 0.05
    max_rounds: int | None = None  # defaults to d
    group_weighted_test: bool = False
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


@dataclass(frozen=True)
class RlaceConfig:
    rank: int = 1
    max_iters: int = 50000
    stop_accuracy: float = 0.51
    eval_every: int = 250
    subspace_lr: float = 0.01
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass(frozen=True)
class RlaceResult:
    P: np.ndarray  # d x d orthogonal projection removing the rank-k subspace
    removed: SubspaceBasis  # the rank-k basis that P annihilates
    converged: bool
    iters: int
    val_accuracy: float


def inlp_fit(
    train: LabeledEmbeddings,
    val: LabeledEmbeddings,
    cfg: InlpConfig,
) -> SubspaceBasis:
    """Iterative nullspace projection for the spurious concept."""
    d = train.d
    max_rounds = d if cfg.max_rounds is None else min(cfg.max_rounds, d)
    threshold = float(norm.ppf(1.0 - cfg.alpha))
    random_model = fit_intercept_only(train, "sp")
    Ztr, Zval = train.Z, val.Z
    accepted: list[np.ndarray] = []

    for r in range(max_rounds):
        opt = cfg.optimizer.reseeded(r)
        model = fit_logreg(train.with_Z(Ztr), "sp", val.with_Z(Zval), opt)
        d_i = bce(model.predict(Zval), val.y_sp) - bce(random_model.predict(Zval), val.y_sp)
        if cfg.group_weighted_test:
            from .stats import weighted_diff

            wd = weighted_diff(d_i, val.group)
            mean, var = wd.d_bar_w, wd.var_hat
        else:
            mean = float(np.mean(d_i))
            var = float(np.var(d_i, ddof=1) / len(d_i))
        t = mean / np.sqrt(var) if var > 0 else (0.0 if mean == 0 else np.sign(mean) * 1e12)
        if not t < -threshold:
            break  # no longer significantly better than the intercept-only classifier
        w = model.w.copy()
        for u in accepted:
            w -= (u @ w) * u
        nrm = float(np.linalg.norm(w))
        if nrm < 1e-10:
            break
        u = w / nrm
        accepted.append(u)
        V = u[:, None]
        Ztr = project_out(Ztr, V)
        Zval = project_out(Zval, V)

    V = np.column_stack(accepted) if accepted else np.zeros((d, 0))
    return SubspaceBasis(V, "spurious")


def _top_k_projection(M: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the top-k eigenspace of the symmetric matrix M."""
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    return vecs[:, np.argsort(vals)[::-1][:k]]


def _newton_logreg(X: np.ndarray, y: np.ndarray, ridge: float = 1e-6, max_iter: int = 50):
    """Converged logistic regression by IRLS; the probe for the removal test.

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


def rlace_fit(
    train: LabeledEmbeddings,
    val: LabeledEmbeddings,
    cfg: RlaceConfig,
) -> RlaceResult:
    """Adversarial rank-k concept removal for the spurious label."""
    d = train.d
    X, y = train.Z, train.y_sp.astype(np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.optimizer.seed, 7]))

    M = 0.1 * rng.standard_normal((d, d))
    U = _top_k_projection(M, cfg.rank)  # removed-subspace basis
    w = np.zeros(d)
    b = 0.0
    vw = np.zeros(d)
    vb = 0.0
    opt = cfg.optimizer
    best: tuple[float, np.ndarray] | None = None
    converged = False
    acc = 1.0
    it = 0

    def probe_accuracy(Ucur: np.ndarray) -> float:
        """Accuracy on val of a freshly converged spurious classifier on projected data."""
        P = np.eye(d) - Ucur @ Ucur.T
        wp, bp = _newton_logreg(X @ P, y)
        return float(np.mean((sigmoid((val.Z @ P) @ wp + bp) >= 0.5) == val.y_sp))

    while it < cfg.max_iters:
        it += 1
        idx = rng.integers(0, train.n, size=opt.batch_size)
        Xb, yb = X[idx], y[idx]
        Xp = Xb - (Xb @ U) @ U.T

        # classifier step: descend the BCE
        r = (sigmoid(Xp @ w + b) - yb) / len(idx)
        gw = Xp.T @ r
        if opt.weight_decay:
            gw = gw + opt.weight_decay * w
        vw = opt.momentum * vw + gw
        vb = opt.momentum * vb + float(np.sum(r))
        w = w - opt.learning_rate * vw
        b = b - opt.learning_rate * vb

        # adversary step on the symmetric removal matrix, then truncate back to a
        # hard rank-k projection; the BCE gradient w.r.t. M = U U^T is
        # -(G + G^T)/2 with G = (X^T r) w^T, and the adversary ascends the loss;
        # U has not moved since the classifier step, so Xp is still current
        r = (sigmoid(Xp @ w + b) - yb) / len(idx)
        G = np.outer(Xb.T @ r, w)
        M = U @ U.T - cfg.subspace_lr * 0.5 * (G + G.T)
        U = _top_k_projection(M, cfg.rank)

        if it % cfg.eval_every == 0:
            acc = probe_accuracy(U)
            if best is None or acc < best[0]:
                best = (acc, U.copy())
            if acc < cfg.stop_accuracy:
                converged = True
                break

    if not converged and best is not None:
        acc, U = best
    P = np.eye(d) - U @ U.T
    return RlaceResult(P, SubspaceBasis(U, "spurious"), converged, it, acc)


def erm_fit(
    train: LabeledEmbeddings,
    val: LabeledEmbeddings,
    cfg: OptimizerConfig,
) -> LinearModel:
    """Plain main-task logistic regression with class-balanced batches."""
    if cfg.balance_sampling == "none":
        cfg = replace(cfg, balance_sampling="class-balanced")
    return fit_logreg(train, "mt", val, cfg)


def gw_erm_fit(
    train: LabeledEmbeddings,
    val: LabeledEmbeddings,
    cfg: OptimizerConfig,
) -> LinearModel:
    """Group-weighted ERM: batches sampled so the four groups are equally likely."""
    counts = np.bincount(train.group, minlength=5)[1:]
    if (counts == 0).any():
        raise ValueError("group-weighted ERM needs all four groups in the training data")
    return fit_logreg(train, "mt", val, replace(cfg, balance_sampling="group-balanced"))


def group_weights(data: LabeledEmbeddings) -> np.ndarray:
    """Per-sample inverse group-frequency weights, normalized to mean 1."""
    counts = np.bincount(data.group, minlength=5)[1:]
    if (counts == 0).any():
        raise ValueError("all four groups must be present")
    return data.n / (4.0 * counts[data.group - 1])
