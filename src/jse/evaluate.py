"""Method fitting, accuracy evaluation, single experiments, and seed sweeps.

``fit_method`` is the one place a method is chosen and the one place its
preprocessing is fitted; it returns the ``Artifact`` (preprocessing, removal
bases and/or a linear model) that ``run_single`` and the CLI apply through
``Artifact.preprocess``/``Artifact.transform``.

A sweep runs a Cartesian grid of (method, x-value) cells. Every cell draws
its own data: the per-run seeds are derived from (base seed, method, x value,
seed index) through a SeedSequence, so no two cells share a draw and reruns
are reproducible down to the byte.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .algorithm import JseConfig, jse_fit
from .baselines import InlpConfig, RlaceConfig, erm_fit, gw_erm_fit, inlp_fit, rlace_fit
from .data import LabeledEmbeddings, project_onto, project_out
from .pca import pca_apply, pca_fit
from .sgd import LinearModel, OptimizerConfig, fit_logreg
from .stats import TestReport
from .toy import ToyConfig, gen_toy, gen_toy_test

METHODS = ("jse", "erm", "gw-erm", "inlp", "rlace")
# a run's accuracies, in results.csv order
ACCURACIES = ("acc_g1", "acc_g2", "acc_g3", "acc_g4", "worst_group", "average", "macro_average")


@dataclass(frozen=True)
class EvalSummary:
    group_acc: np.ndarray  # 4 accuracies in percent, groups 1..4
    worst_group: float
    average: float
    macro_average: float
    n_per_group: np.ndarray

    def as_dict(self) -> dict:
        return {
            "group_acc": [float(a) for a in self.group_acc],
            "worst_group": float(self.worst_group),
            "average": float(self.average),
            "macro_average": float(self.macro_average),
            "n_per_group": [int(n) for n in self.n_per_group],
        }

    def accuracies(self) -> list[float]:
        """The ``ACCURACIES`` values, in that order."""
        return [*map(float, self.group_acc), self.worst_group, self.average, self.macro_average]


def evaluate(model: LinearModel, test: LabeledEmbeddings) -> EvalSummary:
    """Main-task accuracy at threshold 0.5, per group and overall, in percent."""
    pred = (model.predict(test.Z) >= 0.5).astype(np.int64)
    correct = pred == test.y_mt
    group_acc = np.empty(4)
    n_per_group = np.empty(4, dtype=np.int64)
    for g in range(1, 5):
        mask = test.group == g
        n_per_group[g - 1] = int(mask.sum())
        if n_per_group[g - 1] == 0:
            raise ValueError(f"empty group {g} in the test data")
        group_acc[g - 1] = 100.0 * float(np.mean(correct[mask]))
    return EvalSummary(
        group_acc,
        float(group_acc.min()),
        100.0 * float(np.mean(correct)),
        float(group_acc.mean()),
        n_per_group,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one (method, generator) cell over seeds."""

    method: str
    toy: ToyConfig = field(default_factory=ToyConfig)
    seeds: int = 100
    base_seed: int = 0
    test_n: int | None = 2000
    demean: bool = True
    jse: JseConfig = field(default_factory=JseConfig)
    inlp: InlpConfig = field(default_factory=InlpConfig)
    rlace: RlaceConfig = field(default_factory=RlaceConfig)
    downstream: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(balance_sampling="class-balanced")
    )

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.test_n is not None and self.test_n < 1:
            raise ValueError(f"test_n must be >= 1 or none, got {self.test_n}")


@dataclass(frozen=True)
class Artifact:
    """Outcome of a fit: preprocessing, removal bases and/or a linear model."""

    method: str
    d: int
    sp_basis: np.ndarray  # (d, k); k may be 0
    mt_basis: np.ndarray
    tests: list[TestReport]
    model: LinearModel | None
    termination: str = ""
    delta: float = 0.0
    pre_mean: np.ndarray | None = None  # training mean subtracted before everything else
    pre_components: np.ndarray | None = None  # PCA projection applied after demeaning

    def preprocess(self, Z: np.ndarray) -> np.ndarray:
        """The fitted preprocessing: PCA (demeaning included), else the mean subtracted."""
        Z = np.asarray(Z, dtype=np.float64)
        width = self.d if self.pre_mean is None else len(self.pre_mean)
        if Z.shape[1] != width:
            raise ValueError(f"data has {Z.shape[1]} columns, the artifact expects {width}")
        if self.pre_components is not None:
            return pca_apply(Z, self.pre_mean, self.pre_components)
        if self.pre_mean is not None:
            return Z - self.pre_mean
        return Z

    def transform(self, Z: np.ndarray, mode: str = "remove-sp") -> np.ndarray:
        """Preprocess, then remove-sp -> Z (I - Vsp Vsp^T), keep-mt -> Z Vmt Vmt^T."""
        Z = self.preprocess(Z)
        if mode == "remove-sp":
            return project_out(Z, self.sp_basis)
        if mode == "keep-mt":
            return project_onto(Z, self.mt_basis)
        raise ValueError(f"unknown transform mode {mode!r}")


def fit_method(cfg: ExperimentConfig, train: LabeledEmbeddings, val: LabeledEmbeddings,
               seed: int, *, pca: int | None = None) -> Artifact:
    """Fit ``cfg.method``, seeded with ``seed``, on train/val after the
    preprocessing fitted on train: ``pca`` PCA components (demeaning
    included) if set, else the training mean if ``cfg.demean``. The artifact
    applies that preprocessing; removal methods return bases, erm and gw-erm
    a model."""
    pre_mean = pre_components = None
    if pca is not None:
        pre_mean, pre_components = pca_fit(train.Z, pca)
    elif cfg.demean:
        pre_mean = train.Z.mean(axis=0)
    d = train.d if pca is None else pca
    empty = np.zeros((d, 0))
    art = Artifact(cfg.method, d, empty, empty, [], None,
                   pre_mean=pre_mean, pre_components=pre_components)
    if pre_mean is not None:
        train, val = (s.with_Z(art.preprocess(s.Z)) for s in (train, val))
    if cfg.method == "jse":
        res = jse_fit(train, val, cfg.jse, seed)
        tests = [r for pair in res.sp_tests + res.mt_tests for r in pair]
        return replace(art, sp_basis=res.sp_basis.V, mt_basis=res.mt_basis.V, tests=tests,
                       termination=res.termination, delta=res.delta)
    if cfg.method == "inlp":
        return replace(art, sp_basis=inlp_fit(train, val, cfg.inlp, seed).V)
    if cfg.method == "rlace":
        res = rlace_fit(train, val, cfg.rlace, seed)
        return replace(art, sp_basis=res.removed.V,
                       termination="converged" if res.converged else "max-iterations")
    fit = erm_fit if cfg.method == "erm" else gw_erm_fit
    return replace(art, model=fit(train, val, cfg.downstream, seed))


@dataclass(frozen=True)
class RunRecord:
    method: str
    x_name: str
    x_value: float
    seed: int
    summary: EvalSummary | None
    d_sp_hat: int
    d_mt_hat: int
    runtime_ms: float
    error: str = ""


def derive_seed(base_seed: int, method: str, x_value: float, seed_index: int) -> int:
    """Deterministic per-run entropy; distinct across methods, x values, seeds."""
    tag = zlib.crc32(method.encode())
    ss = np.random.SeedSequence([base_seed, tag, int(round(x_value * 10**6)), seed_index])
    return int(ss.generate_state(1)[0])


def fit_and_evaluate(cfg: ExperimentConfig, train: LabeledEmbeddings, val: LabeledEmbeddings,
                     test: LabeledEmbeddings, seed: int
                     ) -> tuple[Artifact, LinearModel, EvalSummary]:
    """Fit ``cfg.method`` on the raw splits and evaluate its main-task
    classifier on test: the fitted model of erm/gw-erm on the preprocessed
    test split, else one trained on the transformed splits (jse by its
    ``transform_mode``, the baselines by removal). The method and the
    downstream classifier are both seeded with ``seed``."""
    art = fit_method(cfg, train, val, seed)
    if art.model is not None:
        return art, art.model, evaluate(art.model, test.with_Z(art.preprocess(test.Z)))
    mode = cfg.jse.transform_mode if cfg.method == "jse" else "remove-sp"
    tr, va, te = (s.with_Z(art.transform(s.Z, mode)) for s in (train, val, test))
    model = fit_logreg(tr, "mt", va, cfg.downstream, seed)
    return art, model, evaluate(model, te)


def run_single(cfg: ExperimentConfig, x_name: str, x_value: float, seed_index: int) -> RunRecord:
    """One seeded end-to-end run: generate, fit, transform, train downstream,
    evaluate. The data draw and every fit use the run's derived seed."""
    toy = replace(cfg.toy, **{x_name: x_value})
    run_seed = derive_seed(cfg.base_seed, cfg.method, x_value, seed_index)
    toy = replace(toy, seed=run_seed, n=int(toy.n))

    t0 = time.perf_counter()
    try:
        train, val = gen_toy(toy)
        test = gen_toy_test(toy, cfg.test_n)
        art, _, summary = fit_and_evaluate(cfg, train, val, test, run_seed)
    except Exception as exc:  # noqa: BLE001 - per-seed failures are recorded, not fatal
        ms = 1000.0 * (time.perf_counter() - t0)
        return RunRecord(cfg.method, x_name, x_value, seed_index, None, 0, 0, ms, repr(exc))
    ms = 1000.0 * (time.perf_counter() - t0)
    return RunRecord(cfg.method, x_name, x_value, seed_index, summary,
                     art.sp_basis.shape[1], art.mt_basis.shape[1], ms)


@dataclass(frozen=True)
class CellAggregate:
    method: str
    x_value: float
    mean: dict  # accuracy -> mean over successful seeds
    se: dict  # accuracy -> standard error (None with a single run)


@dataclass(frozen=True)
class SweepResult:
    records: list[RunRecord]
    cells: list[CellAggregate]


def mean_se(values) -> tuple[float, float | None]:
    """Mean and standard error (ddof=1) of a cell's values; the SE is None for one value."""
    vals = np.asarray(values, dtype=np.float64)
    se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else None
    return float(vals.mean()), se


def aggregate_cell(
    method: str, x_name: str, x_value: float, records: list[RunRecord]
) -> CellAggregate:
    ok = [r for r in records if r.summary is not None]
    n_failed = len(records) - len(ok)
    if len(records) and len(ok) / len(records) < 0.9:
        raise RuntimeError(
            f"cell ({method}, {x_name}={x_value}) had {n_failed}/{len(records)} failures; "
            "at least 90% of seeds must succeed for aggregation"
        )
    # one (mean, se) per ACCURACIES column, over the successful seeds
    mean, se = zip(*(mean_se(col) for col in zip(*(r.summary.accuracies() for r in ok))))
    return CellAggregate(method, x_value, dict(zip(ACCURACIES, mean)), dict(zip(ACCURACIES, se)))


def run_sweep(
    base: ExperimentConfig,
    methods: list[str],
    x_name: str,
    x_values: list[float],
    workers: int = 1,
) -> SweepResult:
    """Cartesian sweep over methods and x values with per-cell derived seeds."""
    if not methods:
        raise ValueError("empty method list")
    tasks = [
        (replace(base, method=m), x_name, x, s)
        for m in methods
        for x in x_values
        for s in range(base.seeds)
    ]
    records = _run_many(tasks, workers)
    by_cell: dict[tuple[str, float], list[RunRecord]] = {}
    for r in records:
        by_cell.setdefault((r.method, r.x_value), []).append(r)
    cells = [
        aggregate_cell(m, x_name, x, by_cell[(m, x)])
        for m in methods
        for x in x_values
        if (m, x) in by_cell
    ]
    return SweepResult(records, cells)


def _run_one(task) -> RunRecord:
    return run_single(*task)


def _run_many(tasks, workers: int) -> list[RunRecord]:
    if workers <= 1:
        records = [run_single(*t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # off the cold-start path

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, tasks, chunksize=4))
    records.sort(key=lambda r: (r.method, r.x_value, r.seed))
    return records
