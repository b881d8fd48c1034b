"""Joint subspace estimation: the nested-loop procedure.

The outer loop proposes spurious directions, the inner loop proposes
main-task directions. Each proposal comes from a fresh joint orthogonal fit
on the currently projected training embeddings. A proposed direction is
accepted only if two validation-split tests both pass: it beats the
intercept-only classifier on its own label, and it is more predictive of its
own concept than of the other one (offset by delta). Accepted main-task
directions are projected out of the inner working copy; accepted spurious
directions are projected out of everything, and the inner loop restarts.
Validation embeddings mirror every training projection.

``loop_order='sp-inner'`` swaps the roles of the two concepts. The fitted
bases are applied by ``evaluate.Artifact.transform``, which either removes the
spurious subspace (``transform_mode = remove-sp``, the default) or keeps only
the main-task subspace (``keep-mt``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Direction, LabeledEmbeddings, SubspaceBasis, project_out
from .sgd import child_seed, fit_1d_logreg, fit_intercept_only, fit_joint_orthogonal
from .stats import TestReport, delta_heuristic, t_relative, t_vs_random

DELTA_AUTO = "auto"


@dataclass(frozen=True)
class JseConfig:
    alpha: float = 0.05
    # null offset of the relative tests: a number, or "auto" to measure it per
    # run from the first joint solve. The heuristic also centers away the
    # validation split's own draw bias, which keeps one unlucky draw from both
    # rejecting a direction as main-task and accepting it as spurious.
    delta: float | str = DELTA_AUTO
    max_dim: int | None = None  # defaults to d
    loop_order: str = "mt-inner"  # mt-inner | sp-inner
    transform_mode: str = "remove-sp"  # remove-sp | keep-mt
    group_weighted_tests: bool = True
    estimate_mt_basis: bool = True
    # denominator of the relative-test statistic; 'variance' reproduces the
    # reference benchmark behavior, 'se' is the asymptotically N(0,1) form
    relative_test_scale: str = "variance"
    seed: int = 0  # seeds the joint fits' random inits

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if isinstance(self.delta, str) and self.delta != DELTA_AUTO:
            raise ValueError(f"delta must be a number or {DELTA_AUTO!r}")
        if self.max_dim is not None and self.max_dim < 1:
            raise ValueError("max_dim must be >= 1 or none")
        if self.loop_order not in ("mt-inner", "sp-inner"):
            raise ValueError(f"unknown loop_order {self.loop_order!r}")
        if self.transform_mode not in ("remove-sp", "keep-mt"):
            raise ValueError(f"unknown transform_mode {self.transform_mode!r}")
        if self.relative_test_scale not in ("se", "variance"):
            raise ValueError(f"unknown relative_test_scale {self.relative_test_scale!r}")


@dataclass(frozen=True)
class SubspaceResult:
    sp_basis: SubspaceBasis
    mt_basis: SubspaceBasis
    sp_tests: list[tuple[TestReport, TestReport]]
    mt_tests: list[tuple[TestReport, TestReport]]
    termination: str  # test-rejected | dimension-exhausted | max-iterations
    delta: float

    def __post_init__(self) -> None:
        if self.sp_basis.k and self.mt_basis.k:
            cross = np.abs(self.sp_basis.V.T @ self.mt_basis.V).max()
            if cross > 1e-6:
                raise ValueError(f"sp and mt bases are not mutually orthogonal: {cross}")

    @property
    def d_sp(self) -> int:
        return self.sp_basis.k

    @property
    def d_mt(self) -> int:
        return self.mt_basis.k


def _normalize_against(
    w: np.ndarray, accepted: list[np.ndarray]
) -> tuple[np.ndarray, float] | None:
    """Clean w of components along already-removed directions and normalize.

    The joint fit's iterate can retain a stray initialization component in
    directions the data no longer spans; predictions on the projected data are
    invariant to it but the basis must not inherit it. Returns the unit vector and the
    cleaned norm (the scale of the 1-d model actually realized on the
    projected data), or None for a numerically vanished vector.
    """
    w = w.astype(np.float64, copy=True)
    for u in accepted:
        w -= (u @ w) * u
    nrm = float(np.linalg.norm(w))
    if nrm < 1e-10:
        return None
    return w / nrm, nrm


def jse_fit(
    train: LabeledEmbeddings,
    val: LabeledEmbeddings,
    cfg: JseConfig,
) -> SubspaceResult:
    """Estimate orthonormal spurious and main-task bases.

    Requires all four (y_mt, y_sp) groups in the validation split when the
    group-weighted tests are enabled.
    """
    if train.d != val.d:
        raise ValueError("train and val must share d")
    d = train.d
    max_dim = d if cfg.max_dim is None else min(cfg.max_dim, d)

    inner_is_mt = cfg.loop_order == "mt-inner"
    outer_t, inner_t = ("sp", "mt") if inner_is_mt else ("mt", "sp")

    random_models = {t: fit_intercept_only(train, t) for t in ("sp", "mt")}
    gw = cfg.group_weighted_tests

    outer_vecs: list[np.ndarray] = []  # accepted outer-concept directions
    inner_vecs: list[np.ndarray] = []  # inner-concept directions from the latest inner pass
    outer_tests: list[tuple[TestReport, TestReport]] = []
    inner_tests: list[tuple[TestReport, TestReport]] = []

    Ztr_outer = train.Z  # outer-accepted directions projected out
    Zval_outer = val.Z
    delta = 0.0 if cfg.delta == DELTA_AUTO else float(cfg.delta)
    delta_fixed = cfg.delta != DELTA_AUTO
    termination = "max-iterations"

    for i in range(1, max_dim + 1):
        Ztr_in, Zval_in = Ztr_outer, Zval_outer
        inner_vecs = []
        outer_candidate: tuple[np.ndarray, float, float] | None = None

        for j in range(1, max_dim + 1):
            sp_m, mt_m = fit_joint_orthogonal(train.with_Z(Ztr_in), child_seed(cfg.seed, i, j))
            val_in = val.with_Z(Zval_in)
            models = {"sp": sp_m, "mt": mt_m}
            out_m, in_m = models[outer_t], models[inner_t]

            removed = outer_vecs + inner_vecs
            cand_out = _normalize_against(out_m.w, removed)
            cand_in = _normalize_against(in_m.w, removed)
            if cand_out is not None:
                outer_candidate = (cand_out[0], cand_out[1], out_m.b)

            if not delta_fixed:
                # heuristic from the very first joint solve, held fixed afterwards
                own = {
                    t: Direction(
                        _unit_or_e1(models[t].w, d), float(np.linalg.norm(models[t].w)), models[t].b
                    )
                    for t in ("sp", "mt")
                }
                delta = delta_heuristic(own["sp"], own["mt"], val_in, gw)
                delta_fixed = True

            if cand_in is None:
                break
            v_in = cand_in[0]
            in_dir = Direction(v_in, cand_in[1], in_m.b)
            cross = fit_1d_logreg(Ztr_in, v_in, train.labels(outer_t))
            rep_rnd = t_vs_random(in_dir, val_in, inner_t, random_models[inner_t], cfg.alpha, gw)
            sp_fit, mt_fit = (cross, in_dir) if inner_is_mt else (in_dir, cross)
            rep_rel = t_relative(
                sp_fit, mt_fit, val_in, "v_mt" if inner_is_mt else "v_sp",
                delta, cfg.alpha, gw, cfg.relative_test_scale,
            )
            inner_tests.append((rep_rnd, rep_rel))
            if not (rep_rnd.decision and rep_rel.decision):
                break
            inner_vecs.append(v_in)
            V_in = np.column_stack(inner_vecs)
            Ztr_in = project_out(Ztr_outer, V_in)
            Zval_in = project_out(Zval_outer, V_in)

        if outer_candidate is None:
            termination = "test-rejected"
            break
        v_out, gamma_out, b_out = outer_candidate
        out_dir = Direction(v_out, gamma_out, b_out)
        cross = fit_1d_logreg(Ztr_outer, v_out, train.labels(inner_t))
        val_out = val.with_Z(Zval_outer)
        rep_rnd = t_vs_random(out_dir, val_out, outer_t, random_models[outer_t], cfg.alpha, gw)
        sp_fit, mt_fit = (out_dir, cross) if inner_is_mt else (cross, out_dir)
        rep_rel = t_relative(
            sp_fit, mt_fit, val_out, "v_sp" if inner_is_mt else "v_mt",
            delta, cfg.alpha, gw, cfg.relative_test_scale,
        )
        outer_tests.append((rep_rnd, rep_rel))
        if not (rep_rnd.decision and rep_rel.decision):
            termination = "test-rejected"
            break
        outer_vecs.append(v_out)
        V_out = np.column_stack(outer_vecs)
        Ztr_outer = project_out(train.Z, V_out)
        Zval_outer = project_out(val.Z, V_out)
        if i == max_dim:
            termination = "dimension-exhausted" if max_dim == d else "max-iterations"

    def basis(vectors: list[np.ndarray], kind: str) -> SubspaceBasis:
        V = np.column_stack(vectors) if vectors else np.zeros((d, 0))
        return SubspaceBasis(V, kind)

    sp_vecs, mt_vecs = (outer_vecs, inner_vecs) if inner_is_mt else (inner_vecs, outer_vecs)
    sp_tests, mt_tests = (outer_tests, inner_tests) if inner_is_mt else (inner_tests, outer_tests)
    if not cfg.estimate_mt_basis and inner_is_mt:
        mt_vecs = []
    return SubspaceResult(
        basis(sp_vecs, "spurious"),
        basis(mt_vecs, "main-task"),
        sp_tests,
        mt_tests,
        termination,
        delta,
    )


def _unit_or_e1(w: np.ndarray, d: int) -> np.ndarray:
    nrm = float(np.linalg.norm(w))
    if nrm < 1e-10:
        e1 = np.zeros(d)
        e1[0] = 1.0
        return e1
    return w / nrm
