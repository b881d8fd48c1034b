"""Joint subspace estimation: the nested-loop procedure.

The outer loop proposes spurious directions, the inner loop proposes
main-task directions. Each proposal comes from a fresh joint orthogonal fit
on the currently projected training embeddings: every inner step's fit tests
its main-task direction at once, and when the inner loop stops, the outer
step tests the spurious direction of its latest fit that left one. A proposed
direction is accepted only if two validation-split tests both pass: it beats
the intercept-only classifier on its own label (``stats.t_vs_random``, the
test INLP's rounds stop on), and it is more predictive of its own concept
than of the other one, offset by delta (``stats.t_relative``). Both loops run
the two tests from one step, so either concept's candidates are tested alike;
each report's side follows from its kind (``stats.SIDES``). Accepted
main-task directions are projected out of the inner working copy; accepted
spurious directions are projected out of everything, and the inner loop
restarts. Validation embeddings mirror every training projection.

The fitted bases are applied by ``evaluate.Artifact.transform``, which either
removes the spurious subspace (``transform_mode = remove-sp``, the default)
or keeps only the main-task subspace (``keep-mt``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledEmbeddings, SubspaceBasis, normalize_against, project_out
from .sgd import child_seed, fit_1d_logreg, fit_intercept_only, fit_joint_orthogonal, predict_1d
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
    transform_mode: str = "remove-sp"  # remove-sp | keep-mt
    group_weighted_tests: bool = True
    # denominator of the relative-test statistic; 'variance' reproduces the
    # reference benchmark behavior, 'se' is the asymptotically N(0,1) form
    relative_test_scale: str = "variance"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if isinstance(self.delta, str) and self.delta != DELTA_AUTO:
            raise ValueError(f"delta must be a number or {DELTA_AUTO!r}")
        if not isinstance(self.delta, str) and not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        if self.max_dim is not None and self.max_dim < 1:
            raise ValueError("max_dim must be >= 1 or none")
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


def jse_fit(train: LabeledEmbeddings, val: LabeledEmbeddings, cfg: JseConfig,
            seed: int) -> SubspaceResult:
    """Estimate orthonormal spurious and main-task bases. The joint fit of
    outer step i, inner step j starts from a random init seeded with
    ``child_seed(seed, i, j)``.

    Requires all four (y_mt, y_sp) groups in the validation split when the
    group-weighted tests are enabled.
    """
    if train.d != val.d:
        raise ValueError("train and val must share d")
    d = train.d
    max_dim = d if cfg.max_dim is None else min(cfg.max_dim, d)

    random_models = {t: fit_intercept_only(train, t) for t in ("sp", "mt")}
    gw = cfg.group_weighted_tests
    # None until the first joint solve measures it (delta = "auto")
    delta = None if cfg.delta == DELTA_AUTO else float(cfg.delta)
    sp_vecs: list[np.ndarray] = []  # accepted spurious directions
    mt_vecs: list[np.ndarray] = []  # main-task directions of the latest inner pass
    reports: dict[str, list[tuple[TestReport, TestReport]]] = {"sp": [], "mt": []}

    def tests(target: str, v: np.ndarray, gamma: float, b: float, Ztr: np.ndarray,
              val_cur: LabeledEmbeddings) -> bool:
        """Run and record a target-concept candidate's two tests: against the
        intercept-only classifier, then against the other concept's 1-d fit on
        v. True when both accept the candidate."""
        other = "mt" if target == "sp" else "sp"
        p_own = predict_1d(val_cur.Z, v, gamma, b)
        p_cross = predict_1d(val_cur.Z, v, *fit_1d_logreg(Ztr, v, train.labels(other)))
        rep_rnd = t_vs_random(p_own, random_models[target].predict(val_cur.Z), val_cur, target,
                              cfg.alpha, gw)
        p_sp, p_mt = (p_own, p_cross) if target == "sp" else (p_cross, p_own)
        rep_rel = t_relative(p_sp, p_mt, val_cur, "v_" + target, delta, cfg.alpha, gw,
                             cfg.relative_test_scale)
        reports[target].append((rep_rnd, rep_rel))
        return rep_rnd.decision and rep_rel.decision

    Ztr_sp = train.Z  # accepted spurious directions projected out
    Zval_sp = val.Z
    termination = "max-iterations"

    for i in range(1, max_dim + 1):
        Ztr_in, Zval_in = Ztr_sp, Zval_sp
        mt_vecs = []
        sp_candidate: tuple[np.ndarray, float, float] | None = None

        for j in range(1, max_dim + 1):
            sp_m, mt_m = fit_joint_orthogonal(train.with_Z(Ztr_in), child_seed(seed, i, j))
            val_in = val.with_Z(Zval_in)

            removed = sp_vecs + mt_vecs
            cand_sp = normalize_against(sp_m.w, removed)
            cand_mt = normalize_against(mt_m.w, removed)
            if cand_sp is not None:
                sp_candidate = (*cand_sp, sp_m.b)

            if delta is None:
                # heuristic from the very first joint solve, where nothing is removed
                # yet, held fixed afterwards; a vanished w keeps its norm as the scale
                # along e1
                own = [
                    predict_1d(val_in.Z, *(cand or (np.eye(d)[0], np.linalg.norm(m.w))), m.b)
                    for cand, m in ((cand_sp, sp_m), (cand_mt, mt_m))
                ]
                delta = delta_heuristic(*own, val_in, gw)

            if cand_mt is None or not tests("mt", *cand_mt, mt_m.b, Ztr_in, val_in):
                break
            mt_vecs.append(cand_mt[0])
            V_mt = np.column_stack(mt_vecs)
            Ztr_in = project_out(Ztr_sp, V_mt)
            Zval_in = project_out(Zval_sp, V_mt)

        if sp_candidate is None or not tests("sp", *sp_candidate, Ztr_sp, val.with_Z(Zval_sp)):
            termination = "test-rejected"
            break
        sp_vecs.append(sp_candidate[0])
        V_sp = np.column_stack(sp_vecs)
        Ztr_sp = project_out(train.Z, V_sp)
        Zval_sp = project_out(val.Z, V_sp)
        if i == max_dim:
            termination = "dimension-exhausted" if max_dim == d else "max-iterations"

    def basis(vectors: list[np.ndarray]) -> SubspaceBasis:
        V = np.column_stack(vectors) if vectors else np.zeros((d, 0))
        return SubspaceBasis(V)

    return SubspaceResult(
        basis(sp_vecs),
        basis(mt_vecs),
        reports["sp"],
        reports["mt"],
        termination,
        delta,
    )

