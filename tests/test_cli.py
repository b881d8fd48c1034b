import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jse
from jse import evaluate, io_files
from jse.cli import main
from jse.data import LabeledEmbeddings
from jse.io_files import Artifact, load_artifact, load_embeddings, read_results_csv, save_artifact
from jse.sgd import LinearModel


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    code = run_cli("--seed", "7", "--out", str(out), "gen-toy",
                   "--rho", "0.8", "--n", "2000")
    assert code == 0
    return out


def test_gen_toy_writes_three_files(toy_files):
    names = sorted(os.listdir(toy_files))
    assert names == ["toy_test.csv", "toy_train.csv", "toy_val.csv"]
    train = load_embeddings(str(toy_files / "toy_train.csv"))
    assert train.n == 1600 and train.d == 20
    assert load_embeddings(str(toy_files / "toy_test.csv")).n == 2000


def test_fit_jse_reports_one_spurious_dim(toy_files, tmp_path, capsys):
    art_path = tmp_path / "jse.artifact"
    code = run_cli("--seed", "5", "fit", "--method", "jse",
                   "--train", str(toy_files / "toy_train.csv"),
                   "--val", str(toy_files / "toy_val.csv"),
                   "--artifact", str(art_path))
    assert code == 0
    printed = capsys.readouterr().out
    assert "d_sp_hat=1" in printed
    art = load_artifact(str(art_path))
    assert art.sp_basis.shape == (20, 1)
    assert art.pre_mean is not None


def test_transform_removes_direction(toy_files, tmp_path):
    art_path = tmp_path / "jse.artifact"
    assert run_cli("--seed", "5", "fit", "--method", "jse",
                   "--train", str(toy_files / "toy_train.csv"),
                   "--val", str(toy_files / "toy_val.csv"),
                   "--artifact", str(art_path)) == 0
    out_file = tmp_path / "val_clean.csv"
    assert run_cli("transform", "--artifact", str(art_path),
                   "--in", str(toy_files / "toy_val.csv"),
                   "--out-file", str(out_file), "--mode", "remove-sp") == 0
    art = load_artifact(str(art_path))
    cleaned = load_embeddings(str(out_file))
    assert np.max(np.abs(cleaned.Z @ art.sp_basis)) < 1e-6


def test_fit_erm_and_eval_jsonl(toy_files, tmp_path, capsys):
    art_path = tmp_path / "erm.artifact"
    assert run_cli("--seed", "3", "fit", "--method", "erm",
                   "--train", str(toy_files / "toy_train.csv"),
                   "--val", str(toy_files / "toy_val.csv"),
                   "--artifact", str(art_path)) == 0
    capsys.readouterr()
    assert run_cli("eval", "--model", str(art_path),
                   "--test-file", str(toy_files / "toy_test.csv")) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["schema_version"] == 1
    assert 50.0 < payload["average"] <= 100.0
    assert len(payload["group_acc"]) == 4


@pytest.mark.parametrize("method,first_line,termination", [
    ("rlace", "d_sp_hat=1 d_mt_hat=0 termination=max-iterations", "max-iterations"),
    ("inlp", "d_sp_hat=2 d_mt_hat=0", ""),
    ("erm", None, ""),
])
def test_fit_stdout_is_built_from_the_artifact(toy_files, tmp_path, capsys, method, first_line,
                                               termination):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[rlace]\nmax_iters = 10\neval_every = 5\n")
    art_path = tmp_path / f"{method}.artifact"
    assert run_cli("--seed", "3", "--config", str(cfg), "fit", "--method", method,
                   "--train", str(toy_files / "toy_train.csv"),
                   "--val", str(toy_files / "toy_val.csv"), "--artifact", str(art_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ([first_line] if first_line else []) + [f"wrote {art_path}"]
    assert load_artifact(str(art_path)).termination == termination


@pytest.mark.parametrize("method", ["inlp", "rlace", "erm", "gw-erm"])
def test_keep_mt_needs_a_jse_artifact(toy_files, tmp_path, capsys, method):
    """Only jse estimates a main-task basis; keep-mt on another method's
    artifact exits 3 naming it instead of writing zeros."""
    removal = method in ("inlp", "rlace")
    art_path = tmp_path / f"{method}.artifact"
    save_artifact(str(art_path), Artifact(method, 20, np.eye(20)[:, :int(removal)],
                                          np.zeros((20, 0)), [],
                                          None if removal else LinearModel(np.ones(20), 0.0)))
    out_file = tmp_path / "kept.csv"
    assert run_cli("transform", "--artifact", str(art_path), "--in",
                   str(toy_files / "toy_val.csv"), "--out-file", str(out_file),
                   "--mode", "keep-mt") == 3
    assert capsys.readouterr().err == (f"error: {art_path}: method {method} estimates no "
                                       "main-task basis; --mode keep-mt needs a jse artifact\n")
    assert not out_file.exists()


def test_keep_mt_on_a_jse_artifact_without_a_main_task_basis_writes_zeros(toy_files, tmp_path):
    art_path = tmp_path / "jse.artifact"
    save_artifact(str(art_path), Artifact("jse", 20, np.eye(20)[:, :1], np.zeros((20, 0)), [],
                                          None, termination="test-rejected"))
    out_file = tmp_path / "kept.csv"
    assert run_cli("transform", "--artifact", str(art_path), "--in",
                   str(toy_files / "toy_val.csv"), "--out-file", str(out_file),
                   "--mode", "keep-mt") == 0
    assert not load_embeddings(str(out_file)).Z.any()


def test_fit_erm_follows_downstream_balance_sampling(toy_files, tmp_path):
    arts = {}
    for sampling in ("none", "class-balanced"):
        cfg = tmp_path / f"{sampling}.cfg"
        cfg.write_text(f"[downstream.optimizer]\nbalance_sampling = {sampling}\n")
        art_path = tmp_path / f"{sampling}.artifact"
        assert run_cli("--seed", "1", "--config", str(cfg), "fit", "--method", "erm",
                       "--train", str(toy_files / "toy_train.csv"),
                       "--val", str(toy_files / "toy_val.csv"),
                       "--artifact", str(art_path)) == 0
        arts[sampling] = art_path.read_bytes()
    assert arts["none"] != arts["class-balanced"]


def test_eval_requires_model(toy_files, tmp_path, capsys):
    art_path = tmp_path / "jse2.artifact"
    run_cli("--seed", "5", "fit", "--method", "jse",
            "--train", str(toy_files / "toy_train.csv"),
            "--val", str(toy_files / "toy_val.csv"), "--artifact", str(art_path))
    capsys.readouterr()
    code = run_cli("eval", "--model", str(art_path),
                   "--test-file", str(toy_files / "toy_test.csv"))
    assert code == 3


SWEEP_CFG = """
[toy]
n = 600
[sweep]
methods = erm, gw-erm
x_name = rho
x_values = 0.0, 0.8
seeds = 2
base_seed = 5
"""


def test_sweep_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CFG)
    out = tmp_path / "res"
    assert run_cli("--config", str(cfg_path), "--out", str(out), "sweep") == 0
    capsys.readouterr()
    rows = read_results_csv(str(out / "results.csv"))
    assert len(rows) == 8
    assert {r["method"] for r in rows} == {"erm", "gw-erm"}
    plot = (out / "plot.tsv").read_text().strip().split("\n")
    assert plot[0].split("\t") == ["x", "method", "mean", "ci_low", "ci_high", "metric"]
    assert len(plot) == 1 + 4 * 2  # 4 cells x 2 metrics
    assert run_cli("report", "--results", str(out / "results.csv")) == 0
    text = capsys.readouterr().out
    assert "Average" in text and "erm" in text


def test_pooled_sweep_writes_the_serial_files(tmp_path):
    """--workers 2 writes the serial sweep's plot.tsv and, apart from
    runtime_ms, its results.csv byte for byte."""
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CFG.replace("n = 600", "n = 200\nd = 4"))
    files = {}
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert run_cli("--workers", workers, "--config", str(cfg_path), "--out", str(out),
                       "sweep") == 0
        runtime = io_files.RESULTS_COLUMNS.index("runtime_ms")
        results = [line.split(",") for line in (out / "results.csv").read_text().splitlines()]
        files[workers] = ([f[:runtime] + f[runtime + 1:] for f in results],
                          (out / "plot.tsv").read_bytes())
    assert len(files["1"][0]) == 1 + 8
    assert files["2"] == files["1"]


def test_sweep_over_negative_rho(tmp_path):
    # |rho| < 1 admits negative values; their seeds are distinct from the
    # positive ones' (test_evaluate.py::test_cell_seeds_distinct)
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CFG.replace("x_values = 0.0, 0.8", "x_values = -0.5, 0.5"))
    out = tmp_path / "res"
    assert run_cli("--config", str(cfg_path), "--out", str(out), "sweep") == 0
    rows = read_results_csv(str(out / "results.csv"))
    assert len(rows) == 8 and not any(r["error"] for r in rows)
    by_x = {x: [r["average"] for r in rows if float(r["x_value"]) == x] for x in (-0.5, 0.5)}
    assert len(by_x[-0.5]) == len(by_x[0.5]) == 4 and by_x[-0.5] != by_x[0.5]


_RESULTS_HEADER = ",".join(io_files.RESULTS_COLUMNS)
_RESULTS_ROW = "erm,rho,0.5,0,90.0,80.0,70.0,60.0,60.0,75.0,75.0,0,0,12.5,,1"
_FAILED_ROW = "erm,rho,0.5,1,,,,,,,,0,0,3.0,\"ValueError('x, y')\",1"


@pytest.mark.parametrize("text,code,msg", [
    pytest.param(f"{_RESULTS_HEADER}\n{_RESULTS_ROW}\n{_FAILED_ROW}\n", 0, "",
                 id="good"),
    pytest.param("method,x_value,x_name\nerm,0.5,rho\n", 3,
                 ":1: missing columns seed, acc_g1, acc_g2, acc_g3, acc_g4, worst_group, "
                 "average, macro_average, d_sp_hat, d_mt_hat, runtime_ms, error, "
                 "schema_version", id="missing-columns"),
    pytest.param("", 3, ": no runs", id="empty"),
    pytest.param(f"{_RESULTS_HEADER}\n", 3, ": no runs", id="header-only"),
    pytest.param(f"{_RESULTS_HEADER}\n{_FAILED_ROW}\n", 3, ": no successful runs",
                 id="every-run-failed"),
    pytest.param(f"{_RESULTS_HEADER}\n{_RESULTS_ROW}\n"
                 + _RESULTS_ROW.replace("0.5", "abc") + "\n", 3,
                 ":3: x_value is not a number: 'abc'", id="bad-x-value"),
    pytest.param(f"{_RESULTS_HEADER}\n" + _RESULTS_ROW.replace("75.0,75.0", "nan,75.0") + "\n",
                 3, ":2: non-finite value nan in average", id="nan-accuracy"),
    pytest.param(f"{_RESULTS_HEADER}\n" + _RESULTS_ROW.replace("90.0", "") + "\n", 3,
                 ":2: acc_g1 is not a number: ''", id="empty-accuracy-without-error"),
    pytest.param(f"{_RESULTS_HEADER}\n" + _RESULTS_ROW.replace(",0,0,", ",1.5,0,") + "\n",
                 3, ":2: d_sp_hat is not an integer: '1.5'", id="fractional-dimension"),
    pytest.param(f"{_RESULTS_HEADER}\n" + _RESULTS_ROW.replace(",0.5,0,", ",0.5,0.5,") + "\n",
                 3, ":2: seed is not an integer: '0.5'", id="fractional-seed"),
    pytest.param(f"{_RESULTS_HEADER}\n" + _RESULTS_ROW.replace(",12.5,", ",inf,") + "\n",
                 3, ":2: non-finite value inf in runtime_ms", id="infinite-runtime"),
    pytest.param(f"{_RESULTS_HEADER}\n{_RESULTS_ROW},extra\n", 3,
                 ":2: expected 16 fields, got 17", id="extra-field"),
    pytest.param(f"{_RESULTS_HEADER}\n{_RESULTS_ROW}\n{_RESULTS_ROW[:-1]}99\n", 3,
                 ":3: schema_version is '99', not 1", id="other-schema-version"),
    pytest.param(f"{_RESULTS_HEADER}\n{_RESULTS_ROW}\n"
                 + _RESULTS_ROW.replace(",rho,", ",angle_deg,") + "\n", 3,
                 ":3: x_name is 'angle_deg', not 'rho'", id="two-grids"),
    pytest.param(f"{_RESULTS_HEADER}\n" + _RESULTS_ROW.replace(",,1", "," + "x" * 140_000 + ",1")
                 + "\n", 3, ":2: field larger than field limit (131072)", id="long-field"),
    pytest.param(f"{_RESULTS_HEADER}\n{_RESULTS_ROW}\n{_FAILED_ROW}\n"
                 + _RESULTS_ROW.replace(",0.5,", ",0.50,") + "\n", 3,
                 ":4: same (method, x_value, seed) as line 2", id="repeated-run"),
])
def test_report_checks_the_results_file(tmp_path, capsys, text, code, msg):
    """A results CSV is checked against RESULTS_COLUMNS and its numeric fields
    before the report: a bad file exits 3 naming file:line, an empty or
    header-only one as having no runs, and one whose every run failed as
    having no successful runs."""
    path = tmp_path / "results.csv"
    path.write_text(text)
    assert run_cli("report", "--results", str(path)) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == f"error: {path}{msg}\n" and captured.out == ""
    else:
        assert "Average" in captured.out and "75.00" in captured.out


@pytest.mark.parametrize("argv,named", [
    pytest.param(["report", "--results", "{dir}"], "dir", id="report-results-dir"),
    pytest.param(["--config", "{dir}", "sweep"], "dir", id="config-dir"),
    pytest.param(["transform", "--artifact", "{dir}", "--in", "{file}", "--out-file", "{out}"],
                 "dir", id="transform-artifact-dir"),
    pytest.param(["--out", "{file}", "gen-toy"], "file", id="out-is-a-file"),
])
def test_bad_paths_are_data_errors(tmp_path, capsys, argv, named):
    """A directory given as a file, or an existing file given as the output
    directory, exits 3 with a message naming the path."""
    paths = {"dir": tmp_path / "a_dir", "file": tmp_path / "a_file", "out": tmp_path / "out.csv"}
    paths["dir"].mkdir()
    paths["file"].write_text("x\n")
    assert run_cli(*(a.format(**paths) for a in argv)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(paths[named]) in err


# usage errors (exit 2): --workers and --pca below 1, and --seed below 0, which
# SeedSequence would reject; --pca above min(n, d) depends on the data, so it
# stays a data error (exit 3)
@pytest.mark.parametrize("flag,value,command", [
    *(pytest.param("--workers", v, "sweep", id=v) for v in ("0", "-1", "two")),
    *(pytest.param("--pca", v, "fit", id=f"pca{v}") for v in ("0", "-1")),
    *(pytest.param("--seed", "-1", c, id=f"seed-{c}") for c in ("gen-toy", "fit", "sweep")),
    pytest.param("--seed", "one", "gen-toy", id="seed-text"),
])
def test_workers_below_one_is_a_usage_error(toy_files, tmp_path, capsys, flag, value, command):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CFG)
    out = tmp_path / "res"
    argv = {"gen-toy": ["gen-toy"], "sweep": ["--config", str(cfg_path), "sweep"],
            "fit": ["fit", "--method", "erm", "--train", str(toy_files / "toy_train.csv"),
                    "--val", str(toy_files / "toy_val.csv")]}[command]
    if flag == "--pca":  # a fit option, after the subcommand
        argv = ["--out", str(out), *argv, flag, value]
    else:
        argv = [flag, value, "--out", str(out), *argv]
    assert run_cli(*argv) == 2
    minimum = 0 if flag == "--seed" else 1
    assert f"{flag}: expected an integer >= {minimum}, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


# sizes below what one run can split or test on: exit 3 naming the value, file
# or cell, before any file is written ([toy] n and [experiment] test_n are rows
# of tests/test_config.py's BAD_VALUES); {thin} is a d = 5 file with no
# (y_mt=0, y_sp=1) rows, {val} one with three rows in each group, {one_sp} and
# {one_mt} that file with y_sp or y_mt set to 0, {model} an erm artifact of width 5
@pytest.mark.parametrize("command,cfg_text,msg", [
    ("gen-toy --n 1", "", "error: n must be >= 2, got 1\n"),
    ("gen-toy --test-n 0", "", "error: test set size must be >= 1, got 0\n"),
    ("sweep", "[sweep]\nmethods = erm\nx_name = n\nx_values = 1, 200\n",
     "error: [sweep] x_values: n = 1.0: n must be >= 2, got 1.0\n"),
    ("sweep", "[toy]\nn = 2\nd = 4\n[sweep]\nmethods = erm, jse\nx_values = 0.0\nseeds = 2\n",
     "error: cell (jse, rho=0.0) had 2/2 failures; at least 90% of seeds must succeed for "
     "aggregation; the first: ValueError(\"target 'sp' has a single class in the training "
     "data\")\n"),
    ("eval --model {model} --test-file {thin}", "",
     "error: {thin}: empty group 2 in the test data\n"),
    ("fit --method gw-erm --train {thin} --val {val}", "",
     "error: {thin}: group-weighted ERM needs all four groups in the training data\n"),
    ("fit --method jse --train {one_sp} --val {val}", "",
     "error: {one_sp}: target 'sp' has a single class in the training data\n"),
    ("fit --method jse --train {one_mt} --val {val}", "",
     "error: {one_mt}: target 'mt' has a single class in the training data\n"),
    ("fit --method rlace --train {one_sp} --val {val}", "",
     "error: {one_sp}: target 'sp' has a single class in the training data\n"),
    ("fit --method erm --pca 9 --train {thin} --val {thin}", "",
     "error: --pca 9: k must be in [1, min(n, d)] = [1, 5], got 9\n"),
    # non-finite flags, which a config rejects as [toy] values
    ("gen-toy --gamma-sp nan", "", "error: gamma_sp must be finite, got nan\n"),
    ("gen-toy --gamma-mt inf", "", "error: gamma_mt must be finite, got inf\n"),
], ids=["gen-toy-n", "gen-toy-test-n", "sweep-x-values-n", "sweep-every-run-data-error",
        "eval-empty-test-group", "fit-gw-erm-missing-train-group", "fit-jse-single-sp-class",
        "fit-jse-single-mt-class", "fit-rlace-single-sp-class", "fit-pca-above-d",
        "gen-toy-gamma-sp-nan", "gen-toy-gamma-mt-inf"])
def test_size_below_minimum_exits_3_naming_it(tmp_path, capsys, command, cfg_text, msg):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(cfg_text)
    out = tmp_path / "out"
    y_mt, y_sp = np.array([0, 1, 1] * 4), np.array([0, 0, 1] * 4)  # groups 1, 3 and 4
    files = {name: str(tmp_path / f"{name}.csv") for name in ("thin", "val", "one_sp", "one_mt")}
    files["model"] = str(tmp_path / "erm.artifact")
    Z = np.random.default_rng(0).standard_normal((12, 5))
    io_files.save_embeddings(files["thin"], LabeledEmbeddings(Z, y_mt, y_sp))
    all_mt, all_sp, zeros = np.array([0, 0, 1, 1] * 3), np.array([0, 1, 0, 1] * 3), np.zeros(12, int)
    io_files.save_embeddings(files["val"], LabeledEmbeddings(Z, all_mt, all_sp))
    io_files.save_embeddings(files["one_sp"], LabeledEmbeddings(Z, all_mt, zeros))
    io_files.save_embeddings(files["one_mt"], LabeledEmbeddings(Z, zeros, all_sp))
    save_artifact(files["model"], Artifact("erm", 5, np.zeros((5, 0)), np.zeros((5, 0)), [],
                                           LinearModel(np.ones(5), 0.0)))
    config = ["--config", str(cfg_path)] if cfg_text else []  # gen-toy rejects --config
    assert run_cli(*config, "--out", str(out), *shlex.split(command.format(**files))) == 3
    assert capsys.readouterr().err == msg.format(**files)
    assert not out.exists()


_THIN_GROUP = ("validation group (y_mt=0, y_sp=1) has 1 samples; the group-weighted tests "
               "need at least 2 in every group")
_ONE_ROW = "the validation split has 1 samples; the tests need at least 2"


@pytest.mark.parametrize("method,cfg_text,seed,n,msg", [
    ("jse", "", 1, 40, _THIN_GROUP),
    ("inlp", "[inlp]\ngroup_weighted_test = true\n", 1, 40, _THIN_GROUP),
    ("inlp", "", 3, 5, _ONE_ROW),
    ("jse", "[jse]\ngroup_weighted_tests = false\n", 3, 5, _ONE_ROW),
], ids=["jse", "inlp-group-weighted", "inlp-one-row", "jse-unweighted-one-row"])
def test_thin_validation_group_exits_3_before_any_fit(tmp_path, capsys, monkeypatch,
                                                      method, cfg_text, seed, n, msg):
    """A validation split too small for the method's tests is a data error
    naming the --val file, raised before any fit: for the group-weighted
    tests a (y_mt, y_sp) group (seed 1's 8-row split at n = 40 has one
    (y_mt=0, y_sp=1) row), for the unweighted ones the whole split (seed 3's
    at n = 5 has one row)."""
    data = tmp_path / "data"
    assert run_cli("--seed", str(seed), "--out", str(data), "gen-toy", "--n", str(n),
                   "--rho", "0.9", "--test-n", "100") == 0
    capsys.readouterr()
    val = str(data / "toy_val.csv")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(cfg_text)
    fits = []
    monkeypatch.setattr(evaluate, "fit_method", lambda *a, **k: fits.append(a))
    assert run_cli("--seed", str(seed), "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "fit", "--method", method, "--train", str(data / "toy_train.csv"),
                   "--val", val) == 3
    assert capsys.readouterr().err == f"error: {val}: {msg}\n"
    assert fits == []


_FIT_TRAIN = ["fit", "--method", "erm", "--train", "{bad}", "--val", "{val}"]


@pytest.mark.parametrize("argv,source,line,eol", [
    (["--config", "{bad}", "--out", "{out}", "sweep"],
     b"[experiment]\ntest_n = 40\n# a comment\n[sweep]\nmethods = erm\n", 3, b"\n"),
    (_FIT_TRAIN, "toy_train.csv", 3, b"\n"),
    (_FIT_TRAIN, "toy_train.csv", 3, b"\r"),
    (["report", "--results", "{bad}"], f"{_RESULTS_HEADER}\n{_RESULTS_ROW}\n".encode(), 2,
     b"\n"),
    (["eval", "--model", "{bad}", "--test-file", "{val}"], "erm.artifact", 4, b"\n"),
], ids=["config", "embeddings", "embeddings-cr-line-ends", "results", "artifact"])
def test_non_utf8_input_exits_3_naming_file_and_line(tmp_path, capsys, argv, source, line, eol):
    """A byte that is not UTF-8 in a file a command reads exits 3 naming the
    file, the line and the byte, not the decoder's offset into its buffer;
    lines are counted as the reader splits them, at CR line ends too."""
    assert run_cli("--seed", "1", "--out", str(tmp_path), "gen-toy", "--n", "60",
                   "--test-n", "40") == 0
    val = tmp_path / "toy_val.csv"
    assert run_cli("--out", str(tmp_path), "fit", "--method", "erm",
                   "--train", str(tmp_path / "toy_train.csv"), "--val", str(val)) == 0
    capsys.readouterr()
    lines = (source if isinstance(source, bytes) else (tmp_path / source).read_bytes()).split(b"\n")
    lines[line - 1] += b"\xe9"  # an accented Latin-1 letter
    bad = tmp_path / "bad.input"
    bad.write_bytes(eol.join(lines))
    files = {"bad": str(bad), "val": str(val), "out": str(tmp_path / "out")}
    assert run_cli(*(arg.format(**files) for arg in argv)) == 3
    assert capsys.readouterr().err == f"error: {bad}:{line}: not UTF-8 text (byte 0xe9)\n"


def test_gen_toy_rejects_config(tmp_path, capsys):
    """gen-toy takes its settings from its flags; a --config it would not read
    is a usage error, before any file is written."""
    out = tmp_path / "out"
    assert run_cli("--config", str(tmp_path / "missing.cfg"), "--out", str(out),
                   "gen-toy", "--n", "50") == 2
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_determinism_modulo_runtime(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CFG)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli("--config", str(cfg_path), "--out", str(out), "sweep") == 0
        rows = read_results_csv(str(out / "results.csv"))
        outs.append([{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows])
    assert outs[0] == outs[1]


def test_sweep_requires_config(capsys):
    assert run_cli("sweep") == 2


def test_unknown_subcommand_exits_2():
    assert run_cli("frobnicate") == 2


def test_unknown_flag_exits_2():
    assert run_cli("gen-toy", "--frobnicate", "3") == 2


def test_missing_file_exits_3(tmp_path, capsys):
    code = run_cli("fit", "--method", "erm",
                   "--train", str(tmp_path / "nope.csv"),
                   "--val", str(tmp_path / "nope.csv"))
    assert code == 3


def test_malformed_data_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y_mt,y_sp,z_0\n0,7,1.0\n")
    code = run_cli("fit", "--method", "erm", "--train", str(bad), "--val", str(bad))
    assert code == 3


def _with_value(src: Path, dst: Path, value: str) -> Path:
    """src with z_1 of row 4 (file line 6) replaced by ``value``."""
    lines = src.read_text().splitlines()
    fields = lines[5].split(",")
    fields[3] = value
    lines[5] = ",".join(fields)
    dst.write_text("\n".join(lines) + "\n")
    return dst


@pytest.fixture(scope="module")
def nan_file(toy_files, tmp_path_factory):
    return _with_value(toy_files / "toy_train.csv",
                       tmp_path_factory.mktemp("nan") / "train_nan.csv", "nan")


@pytest.fixture
def nan_train(toy_files, nan_file, monkeypatch):
    """nan_file's path, loaded past the loader's finite check (which exits 3 on
    it). Behind that check the trainers keep their own non-finite guards (exit
    4), for values that turn non-finite inside a fit or come in through the API."""
    real = io_files.load_embeddings

    def load(path):
        if path != str(nan_file):
            return real(path)
        data = real(str(toy_files / "toy_train.csv"))
        Z = data.Z.copy()
        Z[4, 1] = np.nan
        return data.with_Z(Z)

    monkeypatch.setattr(io_files, "load_embeddings", load)
    return nan_file


@pytest.mark.parametrize("command,role,value", [
    ("fit", "train", "nan"),
    ("fit", "val", "inf"),
    ("transform", "in", "-inf"),
])
def test_non_finite_input_exits_3_naming_line(toy_files, tmp_path, capsys, command, role,
                                              value):
    src = toy_files / ("toy_val.csv" if role == "val" else "toy_train.csv")
    bad = _with_value(src, tmp_path / "bad.csv", value)
    files = {"train": toy_files / "toy_train.csv", "val": toy_files / "toy_val.csv", role: bad}
    if command == "fit":
        argv = ["fit", "--method", "erm", "--train", str(files["train"]),
                "--val", str(files["val"]), "--artifact", str(tmp_path / "m.artifact")]
    else:
        art_path = tmp_path / "inlp.artifact"
        save_artifact(str(art_path), Artifact("inlp", 20, np.eye(20)[:, :1], np.zeros((20, 0)),
                                              [], None, pre_mean=np.zeros(20)))
        argv = ["transform", "--artifact", str(art_path), "--in", str(bad),
                "--out-file", str(tmp_path / "out.csv")]
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err == f"error: {bad}:6: non-finite value {value} in z_1\n"
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "m.artifact").exists()


@pytest.mark.parametrize("method,trainer", [
    ("jse", "fit_joint_orthogonal"),  # non-finite loss at the joint fit's first evaluation
    ("gw-erm", "fit_logreg"),  # accuracy early stopping: non-finite snapshot
    ("rlace", "Eigenvalues"),  # LinAlgError from the adversary's eigh
])
def test_nan_in_train_exits_4(toy_files, nan_train, tmp_path, capsys, method, trainer):
    code = run_cli("--seed", "5", "fit", "--method", method, "--train", str(nan_train),
                   "--val", str(toy_files / "toy_val.csv"),
                   "--artifact", str(tmp_path / "m.artifact"))
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("numerical failure:") and trainer in err


@pytest.mark.parametrize("seed", [5, 6])  # seed 6 once kept a finite epoch-1 snapshot, exit 0
def test_nan_in_train_erm_without_preprocessing_exits_4(toy_files, nan_train, tmp_path, capsys,
                                                        seed):
    cfg = tmp_path / "raw.cfg"
    cfg.write_text("[experiment]\ndemean = false\n")
    code = run_cli("--seed", str(seed), "--config", str(cfg), "fit", "--method", "erm",
                   "--train", str(nan_train),
                   "--val", str(toy_files / "toy_val.csv"),
                   "--artifact", str(tmp_path / "m.artifact"))
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("numerical failure: fit_logreg: non-finite parameters")


def test_rlace_rank_not_below_d_exits_3(tmp_path, capsys):
    assert run_cli("--out", str(tmp_path), "gen-toy", "--n", "200", "--d", "6",
                   "--test-n", "50") == 0
    cfg = tmp_path / "rank7.cfg"
    cfg.write_text("[rlace]\nrank = 7\n")
    capsys.readouterr()
    code = run_cli("--config", str(cfg), "fit", "--method", "rlace",
                   "--train", str(tmp_path / "toy_train.csv"),
                   "--val", str(tmp_path / "toy_val.csv"),
                   "--artifact", str(tmp_path / "m.artifact"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "rank 7" in err and "d = 6" in err
    assert not (tmp_path / "m.artifact").exists()


def test_fit_with_pca(toy_files, tmp_path, capsys):
    art_path = tmp_path / "erm_pca.artifact"
    assert run_cli("--seed", "3", "fit", "--method", "erm",
                   "--train", str(toy_files / "toy_train.csv"),
                   "--val", str(toy_files / "toy_val.csv"),
                   "--artifact", str(art_path), "--pca", "5") == 0
    art = load_artifact(str(art_path))
    assert art.d == 5
    assert art.pre_components.shape == (20, 5)
    capsys.readouterr()
    assert run_cli("eval", "--model", str(art_path),
                   "--test-file", str(toy_files / "toy_test.csv")) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["average"] > 60.0


@pytest.mark.parametrize("cfg_text,has_mean", [
    pytest.param(None, True, id="no-config"),  # [experiment] demean defaults to true
    pytest.param("[experiment]\ndemean = true\n", True, id="demean-true"),
    pytest.param("[experiment]\ndemean = false\n", False, id="demean-false"),
])
def test_fit_demeans_per_experiment_demean(toy_files, tmp_path, cfg_text, has_mean):
    config = []
    if cfg_text is not None:
        (tmp_path / "c.cfg").write_text(cfg_text)
        config = ["--config", str(tmp_path / "c.cfg")]
    art_path = tmp_path / "inlp.artifact"
    assert run_cli("--seed", "1", *config, "fit", "--method", "inlp",
                   "--train", str(toy_files / "toy_train.csv"),
                   "--val", str(toy_files / "toy_val.csv"), "--artifact", str(art_path)) == 0
    assert ("[pre_mean]" in art_path.read_text().split("\n")) == has_mean
    art = load_artifact(str(art_path))
    assert (art.pre_mean is not None) == has_mean and art.pre_components is None


@pytest.mark.parametrize("prep", ["none", "demeaned", "pca"])
@pytest.mark.parametrize("command", ["transform", "eval"])
def test_wrong_width_against_artifact_exits_3(tmp_path, capsys, command, prep):
    """One width check, before any preprocessing arithmetic: the input width is
    the length of [pre_mean] if the artifact has one, else d."""
    d = 5 if prep == "pca" else 20
    pre = {"none": {}, "demeaned": {"pre_mean": np.zeros(20)},
           "pca": {"pre_mean": np.zeros(20), "pre_components": np.eye(20)[:, :d]}}[prep]
    art_path = tmp_path / "erm.artifact"
    save_artifact(str(art_path), Artifact("erm", d, np.zeros((d, 0)), np.zeros((d, 0)), [],
                                          LinearModel(np.ones(d), 0.0), **pre))
    assert run_cli("--out", str(tmp_path), "gen-toy", "--n", "100", "--d", "6",
                   "--test-n", "50") == 0
    narrow = str(tmp_path / "toy_test.csv")
    argv = (["transform", "--artifact", str(art_path), "--in", narrow,
             "--out-file", str(tmp_path / "out.csv")] if command == "transform" else
            ["eval", "--model", str(art_path), "--test-file", narrow])
    capsys.readouterr()
    assert run_cli(*argv) == 3
    want = f"error: {narrow}: data has 6 columns, the artifact expects 20\n"
    assert capsys.readouterr().err == want


def _doubled(line: str) -> str:
    return " ".join(repr(2.0 * float(v)) for v in line.split())


def _first_nan(line: str) -> str:
    head, sep, values = line.rpartition("= ")
    return head + sep + "nan" + values[values.index(" "):]


@pytest.mark.parametrize("target,edit,msg", [
    ("d = ", lambda line: "d = x", "invalid literal for int() with base 10: 'x'"),
    ("d = ", lambda line: "d = 0", "d must be positive, got 0"),
    ("delta = ", lambda line: "delta = x", "could not convert string to float: 'x'"),
    ("[sp_basis]", _doubled, "[sp_basis] columns are not orthonormal within 1e-06"),
    ("[mt_basis]", _doubled, "[mt_basis] columns are not orthonormal within 1e-06"),
    ("[pre_components]", _doubled, "[pre_components] columns are not orthonormal within 1e-06"),
    ("[pre_mean]", _first_nan, "non-finite value nan"),
    ("[model]", _first_nan, "non-finite value nan"),
])
@pytest.mark.parametrize("command", ["transform", "eval"])
def test_bad_artifact_exits_3_naming_line(toy_files, tmp_path, capsys, command, target, edit,
                                          msg):
    """Bad header values, non-orthonormal bases or PCA components, and non-finite
    preprocessing or model values are data errors at load time, naming file:line,
    before either command touches the data."""
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((20, 3)))
    path = tmp_path / "m.artifact"
    save_artifact(str(path), Artifact("erm", 20, q[:, :1], q[:, 1:], [],
                                      LinearModel(rng.standard_normal(20), 0.5), delta=0.25,
                                      pre_mean=np.zeros(20), pre_components=np.eye(20)))
    val = str(toy_files / "toy_val.csv")
    argv = (["transform", "--artifact", str(path), "--in", val,
             "--out-file", str(tmp_path / "out.csv")] if command == "transform" else
            ["eval", "--model", str(path), "--test-file", val])
    assert run_cli(*argv) == 0  # the artifact is good before the edit
    lines = path.read_text().split("\n")
    i = next(j for j, line in enumerate(lines) if line.startswith(target))
    if target.startswith("["):
        i += 1  # the section's first vector
    lines[i] = edit(lines[i])
    path.write_text("\n".join(lines))
    capsys.readouterr()
    assert run_cli(*argv) == 3
    assert f"error: {path}:{i + 1}: {msg}" in capsys.readouterr().err


def test_huge_basis_values_print_only_the_error(tmp_path):
    """A basis whose Gram matrix overflows is rejected with its one error line
    on stderr: no numpy warning comes before it (a fresh interpreter, so the
    warning would print as it does for a user)."""
    assert run_cli("--out", str(tmp_path), "gen-toy", "--n", "100", "--d", "4",
                   "--test-n", "50") == 0
    path = tmp_path / "inlp.artifact"
    save_artifact(str(path), Artifact("inlp", 4, np.eye(4)[:, :1], np.zeros((4, 0)), [], None))
    lines = path.read_text().split("\n")
    i = lines.index("[sp_basis]") + 1
    lines[i] = "1e300 1e300 1e300 1e300"
    path.write_text("\n".join(lines))
    argv = ["transform", "--artifact", str(path), "--in", str(tmp_path / "toy_test.csv"),
            "--out-file", str(tmp_path / "out.csv")]
    env = dict(os.environ, PYTHONPATH=str(Path(io_files.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "jse.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == (f"error: {path}:{i + 1}: [sp_basis] columns are not orthonormal "
                           "within 1e-06\n")


def test_readme_library_quick_start_runs(capsys):
    """README's library quick start runs as written, and its import line names
    everything the package exports but ``__version__``."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start (library)", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
    imported = block.splitlines()[0].removeprefix("from jse import ").split(", ")
    assert sorted(jse.__all__) == sorted([*imported, "__version__"])


def _readme_cli_lines() -> list[str]:
    """The commands of README's CLI quick start, continuation lines joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start (CLI)", 1)[1].split("```", 2)[1]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    """Every README quick-start line but the full-grid sweep and its report
    runs as written; a ``# prints X...`` comment is checked against stdout."""
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in _readme_cli_lines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "jse"
        if {"sweep", "report"} & set(argv):
            continue
        assert run_cli(*argv[1:]) == 0, line
        out = capsys.readouterr().out
        if "# prints " in line:
            assert out.startswith(line.split("# prints ", 1)[1].split("...")[0]), (line, out)
        ran += 1
    assert ran == 7
