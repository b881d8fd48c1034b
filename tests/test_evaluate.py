import sys
from dataclasses import replace

import numpy as np
import pytest

from jse.baselines import RlaceConfig
from jse.data import LabeledEmbeddings
from jse.evaluate import (
    ExperimentConfig,
    aggregate_cell,
    derive_seed,
    evaluate,
    run_single,
    run_sweep,
)
from jse.io_files import write_plot_tsv
from jse.sgd import LinearModel
from jse.toy import ToyConfig


def _test_set(seed=0, n=400):
    rng = np.random.default_rng(seed)
    return LabeledEmbeddings(
        rng.standard_normal((n, 3)), rng.integers(0, 2, n), rng.integers(0, 2, n)
    )


def test_jse_evaluate_is_the_module():
    """The package exports no name that shadows its evaluate submodule."""
    import jse.evaluate as ev

    assert ev is sys.modules["jse.evaluate"]
    assert ev.evaluate is evaluate


def test_oracle_predictor_scores_100():
    test = _test_set()
    # predict from a feature equal to a huge margin times the label
    Z = np.column_stack([test.y_mt * 2.0 - 1.0, test.Z])
    test2 = LabeledEmbeddings(Z, test.y_mt, test.y_sp)
    model = LinearModel(np.array([50.0, 0, 0, 0]), 0.0)
    s = evaluate(model, test2)
    assert s.average == 100.0
    assert s.worst_group == 100.0
    np.testing.assert_array_equal(s.group_acc, 100.0)


def test_constant_class1_predictor():
    test = _test_set(1)
    model = LinearModel(np.zeros(3), 5.0)
    s = evaluate(model, test)
    np.testing.assert_array_equal(s.group_acc[:2], 0.0)
    np.testing.assert_array_equal(s.group_acc[2:], 100.0)
    assert s.worst_group == 0.0
    np.testing.assert_allclose(s.average, 100.0 * np.mean(test.y_mt))
    np.testing.assert_allclose(s.macro_average, 50.0)


def test_summary_invariants():
    test = _test_set(2)
    rng = np.random.default_rng(3)
    model = LinearModel(rng.standard_normal(3), 0.1)
    s = evaluate(model, test)
    assert s.worst_group == min(s.group_acc)
    assert s.worst_group <= s.average <= max(s.group_acc)
    np.testing.assert_allclose(s.macro_average, np.mean(s.group_acc))
    assert int(s.n_per_group.sum()) == test.n


def test_empty_group_raises():
    rng = np.random.default_rng(4)
    y = rng.integers(0, 2, 50)
    test = LabeledEmbeddings(rng.standard_normal((50, 2)), y, y)
    with pytest.raises(ValueError, match="empty group"):
        evaluate(LinearModel(np.zeros(2), 0.0), test)


def test_group_accuracies_match_per_mask_means():
    """Ragged groups, down to one sample: each group's accuracy is
    100 * np.mean(correct[mask]) bit for bit, the counts are the mask sizes."""
    sizes = (1, 2, 37, 1000)
    rng = np.random.default_rng(6)
    group = rng.permutation(np.repeat(np.arange(4), sizes))
    test = LabeledEmbeddings(rng.standard_normal((len(group), 3)), group // 2, group % 2)
    model = LinearModel(rng.standard_normal(3), 0.2)
    s = evaluate(model, test)
    correct = (model.predict(test.Z) >= 0.5).astype(np.int64) == test.y_mt
    masks = [test.group == g for g in range(1, 5)]
    assert [int(n) for n in s.n_per_group] == [int(m.sum()) for m in masks] == list(sizes)
    assert [float(a) for a in s.group_acc] == [100.0 * float(np.mean(correct[m])) for m in masks]


def test_transform_argument():
    test = _test_set(5)
    model = LinearModel(np.array([3.0, 0.0, 0.0]), 0.0)
    P = np.zeros((3, 3))  # projecting everything away leaves the intercept
    s = evaluate(model, test.with_Z(test.Z @ P))
    np.testing.assert_allclose(s.average, 100.0 * np.mean(test.y_mt))


def _plot_band(tmp_path, cell) -> tuple[str, str]:
    """ci_low and ci_high of the cell's average row in plot.tsv."""
    path = tmp_path / "plot.tsv"
    write_plot_tsv(str(path), [cell])
    (row,) = [ln.split("\t") for ln in path.read_text().splitlines() if ln.endswith("\taverage")]
    return row[3], row[4]


def test_aggregation_two_pass_oracle(tmp_path):
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=6)
    result = run_sweep(cfg, [cfg.method], "rho", [0.5])
    records, (cell,) = result.records, result.cells
    vals = [r.summary.average for r in records]
    # independent two-pass mean / standard error
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    se = (var / len(vals)) ** 0.5
    assert abs(cell.mean["average"] - mean) < 1e-9
    assert abs(cell.se["average"] - se) < 1e-9
    lo, hi = _plot_band(tmp_path, cell)
    np.testing.assert_allclose(cell.mean["average"] - float(lo), 1.96 * se, rtol=1e-12)
    np.testing.assert_allclose(float(hi) - cell.mean["average"], 1.96 * se, rtol=1e-12)


def test_single_seed_has_no_se(tmp_path):
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=1)
    (cell,) = run_sweep(cfg, [cfg.method], "rho", [0.0]).cells
    assert cell.se["average"] is None
    assert _plot_band(tmp_path, cell) == ("", "")


def test_determinism_of_runs():
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=3)
    r1 = run_sweep(cfg, [cfg.method], "rho", [0.3]).records
    r2 = run_sweep(cfg, [cfg.method], "rho", [0.3]).records
    for a, b in zip(r1, r2):
        assert a.summary.average == b.summary.average
        np.testing.assert_array_equal(a.summary.group_acc, b.summary.group_acc)


def test_cell_seeds_distinct():
    # x = 4295.0 needs two 32-bit words, which a fifth entropy entry for a
    # negative x (-0.032704) would reproduce
    seen = set()
    xs = (-0.9, -0.5, -0.032704, 0.0, 0.5, 0.9, 4295.0)
    for method in ("jse", "erm", "inlp"):
        for x in xs:
            for s in range(3):
                seen.add(derive_seed(7, method, x, s))
    assert len(seen) == 3 * len(xs) * 3


# seeds of x >= 0 as they were before negative x values were admitted
@pytest.mark.parametrize("args,seed", [
    ((0, "jse", 0.0, 0), 3621888797), ((0, "erm", 0.9, 3), 28261348),
    ((7, "inlp", 0.5, 1), 1039031198), ((12345, "rlace", 200.0, 99), 4089422953),
])
def test_derive_seed_pinned(args, seed):
    assert derive_seed(*args) == seed


def test_failures_recorded_not_fatal():
    # n=40 leaves validation groups empty often enough to error inside jse
    cfg = ExperimentConfig(method="jse", toy=ToyConfig(n=12), seeds=3)
    records = [run_single(cfg, "rho", 0.9, s) for s in range(3)]
    assert all((r.summary is None) == bool(r.error) for r in records)


def test_aggregate_gate_at_90_percent():
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=4)
    records = run_sweep(cfg, [cfg.method], "rho", [0.0]).records
    bad = [r for r in records]
    from dataclasses import replace as drep

    bad = [drep(r, summary=None, error="boom") for r in records[:2]] + list(records[2:])
    with pytest.raises(RuntimeError, match="90%"):
        aggregate_cell("erm", "rho", 0.0, bad)


def test_run_sweep_empty_methods():
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=1)
    with pytest.raises(ValueError, match="empty"):
        run_sweep(cfg, [], "rho", [0.0])


@pytest.mark.parametrize("methods,x_values,msg", [
    (["erm", "erm"], [0.5], "method 'erm' repeats 'erm'"),
    (["erm"], [], "empty x value list"),
    (["erm"], [0.5, 0.5], "x value 0.5 repeats 0.5 (equal to 1e-6)"),
    (["erm"], [0.0, -0.0], "x value -0.0 repeats 0.0 (equal to 1e-6)"),
    (["erm"], [0.1, 0.2, 0.1000001], "x value 0.1000001 repeats 0.1 (equal to 1e-6)"),
], ids=["method", "no-x", "x", "signed-zero", "same-micro-unit"])
def test_run_sweep_rejects_repeated_cells(methods, x_values, msg):
    """Each (method, x value) cell runs once: a repeated method, or two x
    values derive_seed reads as one, would run or draw a cell twice."""
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=1)
    with pytest.raises(ValueError) as err:
        run_sweep(cfg, methods, "rho", x_values)
    assert str(err.value) == msg


class _InProcessPool:
    """A stand-in for ProcessPoolExecutor that records its size and maps in
    this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize("seeds,workers,sizes", [(3, 500, [3]), (2, 2, [2]), (1, 500, [])])
def test_workers_capped_at_the_task_count(monkeypatch, seeds, workers, sizes):
    """The pool starts no more workers than there are runs (it forks them all
    at once), and a single run stays in this process."""
    import concurrent.futures

    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=200, d=4), seeds=seeds)
    result = run_sweep(cfg, ["erm"], "rho", [0.5], workers=workers)
    assert _InProcessPool.sizes == sizes
    assert [r.seed for r in result.records] == list(range(seeds))


def test_run_sweep_small_grid():
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=2)
    result = run_sweep(cfg, ["erm", "gw-erm"], "rho", [0.0, 0.5])
    assert len(result.records) == 8
    assert len(result.cells) == 4
    methods = {c.method for c in result.cells}
    assert methods == {"erm", "gw-erm"}


def test_worker_pool_matches_serial_sweep():
    """The process-pool branch gives the serial sweep's records, apart from
    runtime_ms, and the same cells."""
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=400, d=6), seeds=2)

    def runs(result):
        return [(r.method, r.x_name, r.x_value, r.seed, r.summary and r.summary.as_dict(),
                 r.d_sp_hat, r.d_mt_hat, r.error) for r in result.records]

    serial, pooled = (run_sweep(cfg, ["erm", "inlp"], "rho", [0.0, 0.9], workers=w)
                      for w in (1, 2))
    assert len(serial.records) == 8 and not any(r.error for r in serial.records)
    assert runs(pooled) == runs(serial)
    assert pooled.cells == serial.cells


def test_method_validation():
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentConfig(method="boosting")


@pytest.mark.parametrize("key,value,msg", [
    ("seeds", 0, "seeds must be >= 1, got 0"),
    ("base_seed", -1, "base_seed must be >= 0, got -1"),
])
def test_seed_range_checked_in_the_library(key, value, msg):
    """A sweep of no seeds would return no records and no error, and a
    negative base seed would raise from derive_seed before the run's own
    error handling."""
    from jse.config import SweepSpec

    with pytest.raises(ValueError) as err:
        ExperimentConfig(method="erm", **{key: value})
    assert str(err.value) == msg
    with pytest.raises(ValueError) as err:
        SweepSpec(methods=["erm"], **{key: value})
    assert str(err.value) == msg


# run_single records pinned before the five methods shared one dispatch
# (fit_method): (method, overrides of that method's config, rho, seed index,
# group accuracies, d_sp_hat, d_mt_hat) at n = 600, d = 6, test_n = 600, rlace
# max_iters = 500. An override key that names an ExperimentConfig field
# (demean) applies to the experiment instead. The jse rows were pinned again
# when its inner fits became full-batch solves (L-BFGS joint fit, IRLS 1-d
# fits); the other methods' rows are unchanged. The rows after keep-mt, one
# per test option, were pinned before jse and INLP ran their candidate tests
# through the same stats calls; the demean rows before fit_method became the
# one place that fits the preprocessing. The keep-mt row at rho 0.0, seed 1
# was pinned again when the joint fit got its 60-iteration L-BFGS budget: its
# inner basis comes from a fit that stops at the budget.
GOLDEN_RUNS = [
    ('jse', {}, 0.0, 0, [83.89261744966443, 81.04575163398692, 84.27672955974843, 77.6978417266187], 1, 1),
    ('jse', {}, 0.0, 1, [84.89208633093526, 83.21678321678321, 83.4319526627219, 79.19463087248322], 1, 1),
    ('jse', {}, 0.9, 0, [83.63636363636363, 78.87323943661971, 85.41666666666666, 84.56375838926175], 1, 0),
    ('jse', {}, 0.9, 1, [76.0233918128655, 78.343949044586, 84.21052631578947, 88.48920863309353], 1, 0),
    ('erm', {}, 0.0, 0, [84.24657534246576, 77.30061349693251, 87.41258741258741, 84.45945945945947], 0, 0),
    ('erm', {}, 0.0, 1, [79.22077922077922, 84.66666666666667, 82.78145695364239, 80.6896551724138], 0, 0),
    ('erm', {}, 0.9, 0, [90.97744360902256, 62.857142857142854, 50.6578947368421, 88.0], 0, 0),
    ('erm', {}, 0.9, 1, [92.3076923076923, 67.0967741935484, 48.837209302325576, 86.7132867132867], 0, 0),
    ('gw-erm', {}, 0.0, 0, [83.76623376623377, 87.73006134969326, 87.07482993197279, 83.82352941176471], 0, 0),
    ('gw-erm', {}, 0.0, 1, [78.343949044586, 83.97435897435898, 89.47368421052632, 81.81818181818183], 0, 0),
    ('gw-erm', {}, 0.9, 0, [92.76315789473685, 61.53846153846154, 44.52054794520548, 87.67123287671232], 0, 0),
    ('gw-erm', {}, 0.9, 1, [86.875, 66.90647482014388, 64.74358974358975, 91.0344827586207], 0, 0),
    ('inlp', {}, 0.0, 0, [82.48175182481752, 83.75, 88.46153846153845, 78.91156462585033], 1, 0),
    ('inlp', {}, 0.0, 1, [85.81560283687944, 82.6086956521739, 81.45695364238411, 84.35374149659864], 1, 0),
    ('inlp', {}, 0.9, 0, [44.36619718309859, 80.0, 95.30201342281879, 64.77987421383648], 1, 0),
    ('inlp', {}, 0.9, 1, [57.55395683453237, 92.5, 88.88888888888889, 48.64864864864865], 1, 0),
    ('rlace', {}, 0.0, 0, [89.63414634146342, 69.23076923076923, 68.02721088435374, 84.93150684931507], 1, 0),
    ('rlace', {}, 0.0, 1, [80.51948051948052, 89.78102189781022, 83.6734693877551, 77.1604938271605], 1, 0),
    ('rlace', {}, 0.9, 0, [86.0, 55.24475524475524, 61.07382550335571, 93.0379746835443], 1, 0),
    ('rlace', {}, 0.9, 1, [95.8904109589041, 50.931677018633536, 53.383458646616546, 92.5], 1, 0),
    ('jse', {'transform_mode': 'keep-mt'}, 0.0, 0, [83.89261744966443, 82.35294117647058, 84.27672955974843, 76.97841726618705], 1, 1),
    ('jse', {'transform_mode': 'keep-mt'}, 0.0, 1, [84.89208633093526, 82.51748251748252, 85.79881656804734, 81.87919463087249], 1, 1),
    ('jse', {'transform_mode': 'keep-mt'}, 0.9, 0, [0.0, 0.0, 100.0, 100.0], 1, 0),
    ('jse', {'transform_mode': 'keep-mt'}, 0.9, 1, [0.0, 0.0, 100.0, 100.0], 1, 0),
    ('jse', {'group_weighted_tests': False}, 0.0, 0, [83.89261744966443, 81.04575163398692, 84.27672955974843, 77.6978417266187], 1, 1),
    ('jse', {'group_weighted_tests': False}, 0.0, 1, [84.89208633093526, 83.21678321678321, 83.4319526627219, 79.19463087248322], 1, 1),
    ('jse', {'group_weighted_tests': False}, 0.9, 0, [83.63636363636363, 78.87323943661971, 85.41666666666666, 84.56375838926175], 1, 1),
    ('jse', {'group_weighted_tests': False}, 0.9, 1, [76.0233918128655, 78.343949044586, 84.21052631578947, 88.48920863309353], 1, 1),
    ('jse', {'relative_test_scale': 'se'}, 0.0, 0, [83.89261744966443, 81.04575163398692, 84.27672955974843, 77.6978417266187], 1, 1),
    ('jse', {'relative_test_scale': 'se'}, 0.0, 1, [84.89208633093526, 83.21678321678321, 83.4319526627219, 79.19463087248322], 1, 1),
    ('jse', {'relative_test_scale': 'se'}, 0.9, 0, [92.72727272727272, 47.183098591549296, 62.5, 91.2751677852349], 0, 0),
    ('jse', {'relative_test_scale': 'se'}, 0.9, 1, [89.47368421052632, 49.681528662420384, 53.383458646616546, 94.24460431654677], 0, 0),
    ('jse', {'delta': 0.0}, 0.0, 0, [83.89261744966443, 81.04575163398692, 84.27672955974843, 77.6978417266187], 1, 1),
    ('jse', {'delta': 0.0}, 0.0, 1, [84.89208633093526, 83.21678321678321, 83.4319526627219, 79.19463087248322], 1, 1),
    ('jse', {'delta': 0.0}, 0.9, 0, [83.63636363636363, 78.87323943661971, 85.41666666666666, 84.56375838926175], 1, 0),
    ('jse', {'delta': 0.0}, 0.9, 1, [33.91812865497076, 40.12738853503185, 60.150375939849624, 60.431654676258994], 2, 0),
    ('inlp', {'group_weighted_test': True}, 0.0, 0, [82.48175182481752, 83.75, 88.46153846153845, 78.91156462585033], 1, 0),
    ('inlp', {'group_weighted_test': True}, 0.0, 1, [85.81560283687944, 82.6086956521739, 81.45695364238411, 84.35374149659864], 1, 0),
    ('inlp', {'group_weighted_test': True}, 0.9, 0, [44.36619718309859, 80.0, 95.30201342281879, 64.77987421383648], 1, 0),
    ('inlp', {'group_weighted_test': True}, 0.9, 1, [57.55395683453237, 92.5, 88.88888888888889, 48.64864864864865], 1, 0),
    ('jse', {'demean': False}, 0.9, 0, [83.63636363636363, 78.87323943661971, 85.41666666666666, 84.56375838926175], 1, 0),
    ('jse', {'demean': False}, 0.9, 1, [76.60818713450293, 78.343949044586, 84.21052631578947, 88.48920863309353], 1, 0),
    ('erm', {'demean': False}, 0.9, 0, [90.22556390977444, 56.42857142857143, 53.289473684210535, 90.28571428571428], 0, 0),
    ('erm', {'demean': False}, 0.9, 1, [92.3076923076923, 72.25806451612902, 51.162790697674424, 86.7132867132867], 0, 0),
]


def _golden_id(case) -> str:
    method, over, rho, seed = case[:4]
    label = "-".join(v if isinstance(v, str) else f"{k}={v}" for k, v in over.items())
    return f"{method}-{label or None}-rho{rho}-seed{seed}"


@pytest.mark.parametrize("case", GOLDEN_RUNS, ids=_golden_id)
def test_run_single_golden(case):
    method, over, rho, seed, group_acc, d_sp_hat, d_mt_hat = case
    cfg = ExperimentConfig(method=method, toy=ToyConfig(n=600, d=6), test_n=600,
                           rlace=RlaceConfig(max_iters=500))
    experiment = {k: v for k, v in over.items() if k in ExperimentConfig.__dataclass_fields__}
    method_over = {k: v for k, v in over.items() if k not in experiment}
    cfg = replace(cfg, **experiment)
    if method_over:
        cfg = replace(cfg, **{method: replace(getattr(cfg, method), **method_over)})
    rec = run_single(cfg, "rho", rho, seed)
    assert rec.error == ""
    assert [float(a) for a in rec.summary.group_acc] == group_acc
    assert (rec.d_sp_hat, rec.d_mt_hat) == (d_sp_hat, d_mt_hat)
