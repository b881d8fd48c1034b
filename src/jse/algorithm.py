"""Joint subspace estimation: the nested-loop procedure.

The outer loop proposes spurious directions, the inner loop proposes
main-task directions. Each proposal comes from a fresh joint orthogonal fit
on the currently projected training embeddings. A proposed direction is
accepted only if two validation-split tests both pass: it beats the
intercept-only classifier on its own label (``stats.t_vs_random``, the test
INLP's rounds stop on), and it is more predictive of its own concept than of
the other one, offset by delta (``stats.t_relative``). Both loops run the two
tests from one step, so either concept's candidates are tested alike; each
report's side follows from its kind (``stats.SIDES``). Accepted main-task
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
    loop_order: str = "mt-inner"  # mt-inner | sp-inner
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

    outer_t, inner_t = ("sp", "mt") if cfg.loop_order == "mt-inner" else ("mt", "sp")
    random_models = {t: fit_intercept_only(train, t) for t in ("sp", "mt")}
    gw = cfg.group_weighted_tests
    # None until the first joint solve measures it (delta = "auto")
    delta = None if cfg.delta == DELTA_AUTO else float(cfg.delta)
    # per concept: the outer concept's accepted directions, the inner concept's
    # from the latest inner pass; and the test reports of every proposal
    vecs: dict[str, list[np.ndarray]] = {"sp": [], "mt": []}
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

    Ztr_outer = train.Z  # outer-accepted directions projected out
    Zval_outer = val.Z
    termination = "max-iterations"

    for i in range(1, max_dim + 1):
        Ztr_in, Zval_in = Ztr_outer, Zval_outer
        vecs[inner_t] = []
        outer_candidate: tuple[np.ndarray, float, float] | None = None

        for j in range(1, max_dim + 1):
            sp_m, mt_m = fit_joint_orthogonal(train.with_Z(Ztr_in), child_seed(seed, i, j))
            val_in = val.with_Z(Zval_in)
            out_m, in_m = (sp_m, mt_m) if outer_t == "sp" else (mt_m, sp_m)

            removed = vecs[outer_t] + vecs[inner_t]
            cand_out = normalize_against(out_m.w, removed)
            cand_in = normalize_against(in_m.w, removed)
            if cand_out is not None:
                outer_candidate = (*cand_out, out_m.b)

            if delta is None:
                # heuristic from the very first joint solve, held fixed afterwards; a
                # vanished w keeps its norm as the scale along e1
                own = [
                    predict_1d(val_in.Z, *(normalize_against(m.w, [])
                                           or (np.eye(d)[0], np.linalg.norm(m.w))), m.b)
                    for m in (sp_m, mt_m)
                ]
                delta = delta_heuristic(*own, val_in, gw)

            if cand_in is None or not tests(inner_t, *cand_in, in_m.b, Ztr_in, val_in):
                break
            vecs[inner_t].append(cand_in[0])
            V_in = np.column_stack(vecs[inner_t])
            Ztr_in = project_out(Ztr_outer, V_in)
            Zval_in = project_out(Zval_outer, V_in)

        if outer_candidate is None or not tests(outer_t, *outer_candidate, Ztr_outer,
                                                val.with_Z(Zval_outer)):
            termination = "test-rejected"
            break
        vecs[outer_t].append(outer_candidate[0])
        V_out = np.column_stack(vecs[outer_t])
        Ztr_outer = project_out(train.Z, V_out)
        Zval_outer = project_out(val.Z, V_out)
        if i == max_dim:
            termination = "dimension-exhausted" if max_dim == d else "max-iterations"

    def basis(vectors: list[np.ndarray]) -> SubspaceBasis:
        V = np.column_stack(vectors) if vectors else np.zeros((d, 0))
        return SubspaceBasis(V)

    return SubspaceResult(
        basis(vecs["sp"]),
        basis(vecs["mt"]),
        reports["sp"],
        reports["mt"],
        termination,
        delta,
    )

