"""Baseline removal and training methods: INLP, RLACE, ERM, group-weighted ERM.

INLP repeatedly fits a spurious-concept classifier, projects its coefficient
direction out of the embeddings, and stops once the classifier is no longer
significantly better than the intercept-only classifier: the one-sided
``sp_vs_random`` test on validation BCE, the same ``stats.t_vs_random`` call
jse's candidates go through (its side follows from the kind).

RLACE plays an alternating minimax game: a linear classifier minimizes the
spurious-concept BCE on projected embeddings, one ``sgd.sgd_step`` per
iteration (the step of ``fit_logreg``), while a rank-k removal subspace
takes gradient steps to maximize it, re-orthonormalized after every step by
eigendecomposition truncation. It stops when a freshly trained probe's
validation accuracy drops below the target (51% by default).

The adversary's step matrix ``M = U U^T - (lr/2)(g w^T + w g^T)`` lies on
span[U, g, w], so its top-k eigenspace is solved there (``_span_solver``),
falling back to the d x d solve only when the top k reach M's null space.

Rules for any rewrite of the step; ``tests/test_rlace.py`` checks the fit
bit for bit against a one-draw-per-step loop:

* Keep the same RNG calls. The batch indices of all steps up to the next
  probe come from one ``rng.integers(0, n, size=(steps, batch_size))`` call,
  whose row i equals a separate ``integers(0, n, size=batch_size)`` call at
  step i only while nothing else draws from that generator inside the loop.
  A new random draw there needs a generator of its own.
* Keep the same floating-point operations in the same order; fuse no two
  matrix-vector products into a matrix-matrix product (see ``sgd``). The
  adversary divides its residual by the batch size before the product, the
  classifier's ``sgd_step`` divides after it: the two orders round alike
  only for a power-of-two batch size.
* Gather batches with ``X.take(idx, axis=0)`` and multiply with ``np.dot``,
  not ``X[idx]`` and ``@``: the step's arrays are small, so their wrappers
  cost more than the arithmetic, and ``np.dot`` reaches the same BLAS routine
  (for k = 1 ``@`` also takes a slow non-BLAS path).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import LabeledEmbeddings, SubspaceBasis, normalize_against, project_out
from .sgd import (
    LinearModel,
    OptimizerConfig,
    _newton_logreg,
    check_sgd,
    child_seed,
    fit_intercept_only,
    fit_logreg,
    sgd_step,
    sigmoid,
)
from .stats import t_vs_random


@dataclass(frozen=True)
class InlpConfig:
    alpha: float = 0.05
    max_rounds: int | None = None  # defaults to d
    group_weighted_test: bool = False
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1 or none")


@dataclass(frozen=True)
class RlaceConfig:
    rank: int = 1
    max_iters: int = 50000
    stop_accuracy: float = 0.51
    eval_every: int = 250
    subspace_lr: float = 0.01
    # the classifier step's momentum SGD on one random batch per iteration
    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 128
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        check_sgd(self.learning_rate, self.momentum, self.batch_size, self.weight_decay)
        if self.subspace_lr <= 0:
            raise ValueError("subspace_lr must be positive")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not (0.0 < self.stop_accuracy <= 1.0):
            raise ValueError("stop_accuracy must be in (0, 1]")


@dataclass(frozen=True)
class RlaceResult:
    removed: SubspaceBasis  # the rank-k removed subspace; apply with data.project_out
    converged: bool
    iters: int


def inlp_fit(train: LabeledEmbeddings, val: LabeledEmbeddings, cfg: InlpConfig,
             seed: int) -> SubspaceBasis:
    """Iterative nullspace projection for the spurious concept; round r's
    classifier is seeded with ``child_seed(seed, r)``."""
    d = train.d
    max_rounds = d if cfg.max_rounds is None else min(cfg.max_rounds, d)
    random_model = fit_intercept_only(train, "sp")
    Ztr, Zval = train.Z, val.Z
    accepted: list[np.ndarray] = []

    for r in range(max_rounds):
        val_r = val.with_Z(Zval)
        model = fit_logreg(train.with_Z(Ztr), "sp", val_r, cfg.optimizer, child_seed(seed, r))
        if not t_vs_random(model.predict(val_r.Z), random_model.predict(val_r.Z), val_r, "sp",
                           cfg.alpha, cfg.group_weighted_test).decision:
            break  # no longer significantly better than the intercept-only classifier
        unit = normalize_against(model.w, accepted)
        if unit is None:
            break
        accepted.append(unit[0])
        V = unit[0][:, None]
        Ztr = project_out(Ztr, V)
        Zval = project_out(Zval, V)

    V = np.column_stack(accepted) if accepted else np.zeros((d, 0))
    return SubspaceBasis(V)


def _top_k_projection(M: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the top-k eigenspace of the symmetric matrix M."""
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    return vecs[:, np.argsort(vals)[::-1][:k]]


def _span_solver(d: int, k: int, lr: float):
    """The adversary's truncation, solved on span[U, g, w].

    Returns ``top_k(U, g, w)``: an orthonormal basis of the top-k eigenspace of
    ``M = U U^T - (lr/2)(g w^T + w g^T)`` for d-dimensional ``U``, ``g``, ``w``.
    With ``A = [U g w] = Q R`` and ``C = blockdiag(I_k, [[0, -lr/2], [-lr/2,
    0]])``, ``M = Q (R C R^T) Q^T``: the eigenpairs of the (k+2)-square
    ``R C R^T`` lift to M through Q, and M is zero on the complement of
    span(A). If the k-th eigenvalue is not positive (or the small solve
    fails), the top k reach that null space, so M is formed and handed to the
    d x d solve. That solve also raises numpy's error on non-finite input. M
    is also formed when d < k + 2, where ``[U g w]`` would be wide. ``A`` is
    written into one Fortran-order buffer that the QR factors in place. The
    QR and the small eigh call LAPACK directly (``dgeqrf``/``dorgqr``,
    ``dsyevd``): numpy's wrappers cost several times the factorizations at
    these sizes. ``scipy.linalg`` is imported here, on the first RLACE fit, so
    that ``import jse`` loads no scipy.
    """
    from scipy.linalg import lapack

    m = k + 2
    C = np.eye(m)
    C[k:, k:] = [[0.0, -0.5 * lr], [-0.5 * lr, 0.0]]
    upper = np.triu(np.ones((m, m)))
    A = np.empty((d, m), order="F")

    def top_k(U: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
        if d >= m:  # below that, [U g w] is wide and M is the smaller problem
            A[:, :k] = U
            A[:, k] = g
            A[:, k + 1] = w
            qr, tau, _, _ = lapack.dgeqrf(A, overwrite_a=1)
            R = qr[:m] * upper  # dgeqrf keeps its Householder vectors below R's diagonal
            vals, vecs, info = lapack.dsyevd(R @ C @ R.T, lower=1)
            if info == 0 and vals[2] > 0:  # ascending, so vals[2] is the k-th largest
                # columns m-1 down to 2: the top k, largest first
                return lapack.dorgqr(qr, tau, overwrite_a=1)[0] @ vecs[:, : 1 : -1]
        G = np.outer(g, w)
        return _top_k_projection(U @ U.T - lr * 0.5 * (G + G.T), k)

    return top_k


def rlace_fit(train: LabeledEmbeddings, val: LabeledEmbeddings, cfg: RlaceConfig,
              seed: int) -> RlaceResult:
    """Adversarial rank-k concept removal for the spurious label."""
    d = train.d
    if cfg.rank >= d:
        raise ValueError(f"rlace rank {cfg.rank} must be below the embedding dimension d = {d}")
    X, y = train.Z, train.y_sp.astype(np.float64)
    n, bs = train.n, cfg.batch_size
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))

    M = 0.1 * rng.standard_normal((d, d))
    U = _top_k_projection(M, cfg.rank)  # removed-subspace basis
    adversary_top_k = _span_solver(d, cfg.rank, cfg.subspace_lr)
    w = np.zeros(d)
    b = 0.0
    vw = np.zeros(d)
    vb = 0.0
    best: tuple[float, np.ndarray] | None = None
    converged = False
    it = 0

    def probe_accuracy(Ucur: np.ndarray) -> float:
        """Accuracy on val of a freshly converged spurious classifier on projected data."""
        wp, bp = _newton_logreg(project_out(X, Ucur), y)
        return float(np.mean((sigmoid(project_out(val.Z, Ucur) @ wp + bp) >= 0.5) == val.y_sp))

    lr, mom, wd = cfg.learning_rate, cfg.momentum, cfg.weight_decay
    while it < cfg.max_iters:
        # one draw for the batches of every step up to the next probe; nothing
        # else draws from rng in this loop (see the module docstring)
        chunk = min(cfg.eval_every, cfg.max_iters - it)
        batches = rng.integers(0, n, size=(chunk, bs))
        y_batches = y[batches]
        for idx, yb in zip(batches, y_batches):
            Xb = X.take(idx, axis=0)  # take and np.dot: see the module docstring
            Xp = Xb - np.dot(np.dot(Xb, U), U.T)

            # classifier step: descend the BCE
            b, vb = sgd_step(Xp, yb, w, vw, b, vb, lr, mom, wd)

            # adversary step on the symmetric removal matrix, then truncate back to
            # a hard rank-k projection; the BCE gradient w.r.t. M = U U^T is
            # -(g w^T + w g^T)/2 with g = X^T r, and the adversary ascends the loss.
            # The stepped matrix lies on span[U, g, w], so its top k come from a
            # (k+2)-square eigenproblem (d x d only if they reach its null space);
            # U has not moved since the classifier step, so Xp is still current
            r = (sigmoid(np.dot(Xp, w) + b) - yb) / bs
            U = adversary_top_k(U, np.dot(Xb.T, r), w)
        it += chunk

        if it % cfg.eval_every == 0:
            acc = probe_accuracy(U)
            if best is None or acc < best[0]:
                best = (acc, U.copy())
            if acc < cfg.stop_accuracy:
                converged = True
                break

    if not converged and best is not None:
        U = best[1]
    return RlaceResult(SubspaceBasis(U), converged, it)


def erm_fit(train: LabeledEmbeddings, val: LabeledEmbeddings, cfg: OptimizerConfig,
            seed: int) -> LinearModel:
    """Plain main-task logistic regression; batches as ``cfg.balance_sampling``
    says (the downstream config's default is class-balanced)."""
    return fit_logreg(train, "mt", val, cfg, seed)


def gw_erm_fit(train: LabeledEmbeddings, val: LabeledEmbeddings, cfg: OptimizerConfig,
               seed: int) -> LinearModel:
    """Group-weighted ERM: batches sampled so the four groups are equally likely."""
    counts = np.bincount(train.group, minlength=5)[1:]
    if (counts == 0).any():
        raise ValueError("group-weighted ERM needs all four groups in the training data")
    return fit_logreg(train, "mt", val, replace(cfg, balance_sampling="group-balanced"), seed)
