import numpy as np
import pytest

from jse.data import LabeledEmbeddings
from jse.evaluate import (
    ExperimentConfig,
    aggregate_cell,
    derive_seed,
    evaluate,
    run_experiment,
    run_single,
    run_sweep,
)
from jse.sgd import LinearModel
from jse.toy import ToyConfig


def _test_set(seed=0, n=400):
    rng = np.random.default_rng(seed)
    return LabeledEmbeddings(
        rng.standard_normal((n, 3)), rng.integers(0, 2, n), rng.integers(0, 2, n)
    )


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


def test_transform_argument():
    test = _test_set(5)
    model = LinearModel(np.array([3.0, 0.0, 0.0]), 0.0)
    P = np.zeros((3, 3))  # projecting everything away leaves the intercept
    s = evaluate(model, test.with_Z(test.Z @ P))
    np.testing.assert_allclose(s.average, 100.0 * np.mean(test.y_mt))


def test_aggregation_two_pass_oracle():
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=6)
    records, cell = run_experiment(cfg, "rho", 0.5)
    vals = [r.summary.average for r in records]
    # independent two-pass mean / standard error
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    se = (var / len(vals)) ** 0.5
    assert abs(cell.mean["average"] - mean) < 1e-9
    assert abs(cell.se["average"] - se) < 1e-9
    np.testing.assert_allclose(cell.ci_halfwidth("average"), 1.96 * se, rtol=1e-12)


def test_single_seed_has_no_se():
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=1)
    _, cell = run_experiment(cfg, "rho", 0.0)
    assert cell.se["average"] is None
    assert cell.ci_halfwidth("average") is None


def test_determinism_of_runs():
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=3)
    r1, _ = run_experiment(cfg, "rho", 0.3)
    r2, _ = run_experiment(cfg, "rho", 0.3)
    for a, b in zip(r1, r2):
        assert a.summary.average == b.summary.average
        np.testing.assert_array_equal(a.summary.group_acc, b.summary.group_acc)


def test_cell_seeds_distinct():
    seen = set()
    for method in ("jse", "erm", "inlp"):
        for x in (0.0, 0.5, 0.9):
            for s in range(3):
                seen.add(derive_seed(7, method, x, s))
    assert len(seen) == 27


def test_failures_recorded_not_fatal():
    # n=40 leaves validation groups empty often enough to error inside jse
    cfg = ExperimentConfig(method="jse", toy=ToyConfig(n=12), seeds=3)
    records = [run_single(cfg, "rho", 0.9, s) for s in range(3)]
    assert all((r.summary is None) == bool(r.error) for r in records)


def test_aggregate_gate_at_90_percent():
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=4)
    records, _ = run_experiment(cfg, "rho", 0.0)
    bad = [r for r in records]
    from dataclasses import replace as drep

    bad = [drep(r, summary=None, error="boom") for r in records[:2]] + list(records[2:])
    with pytest.raises(RuntimeError, match="90%"):
        aggregate_cell("erm", "rho", 0.0, bad)


def test_run_sweep_empty_methods():
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=1)
    with pytest.raises(ValueError, match="empty"):
        run_sweep(cfg, [], "rho", [0.0])


def test_run_sweep_small_grid():
    cfg = ExperimentConfig(method="erm", toy=ToyConfig(n=600), seeds=2)
    result = run_sweep(cfg, ["erm", "gw-erm"], "rho", [0.0, 0.5])
    assert len(result.records) == 8
    assert len(result.cells) == 4
    methods = {c.method for c in result.cells}
    assert methods == {"erm", "gw-erm"}


def test_method_validation():
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentConfig(method="boosting")
