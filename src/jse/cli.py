"""Command-line surface.

Subcommands:
  gen-toy    write train/val/test embedding CSVs for a synthetic configuration
             set by its flags (it rejects --config)
  fit        estimate a removal subspace (jse/inlp/rlace) or a classifier
             (erm/gw-erm) from embedding files and save the artifact; the
             training mean is subtracted first per [experiment] demean
             (default true), or PCA fitted with --pca
  transform  apply a fitted artifact to an embedding file
  eval       evaluate a fitted linear model on a test file (JSON-lines out)
  sweep      run a (method x grid x seeds) experiment from a config file
  report     render a results CSV as mean (SE) text tables

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import config, evaluate, io_files, toy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _int_at_least(text: str, minimum: int = 1) -> int:
    try:
        n = int(text)
    except ValueError:
        n = minimum - 1
    if n < minimum:
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="jse", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=lambda text: _int_at_least(text, 0), default=0, help="base seed")
    p.add_argument("--config", default=None, help="config file (key = value sections)")
    p.add_argument("--workers", type=_int_at_least, default=1,
                   help="parallel worker processes (at least 1)")
    p.add_argument("--out", default=".", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-toy", help="generate synthetic train/val/test CSVs")
    g.add_argument("--n", type=int, default=2000)
    g.add_argument("--d", type=int, default=20)
    g.add_argument("--rho", type=float, default=0.0)
    g.add_argument("--gamma-sp", type=float, default=3.0)
    g.add_argument("--gamma-mt", type=float, default=3.0)
    g.add_argument("--angle-deg", type=float, default=90.0)
    g.add_argument("--test-n", type=int, default=2000)
    g.set_defaults(run=_cmd_gen_toy)

    f = sub.add_parser("fit", help="fit a method on train/val embedding files")
    f.add_argument("--method", required=True, choices=evaluate.METHODS)
    f.add_argument("--train", required=True)
    f.add_argument("--val", required=True)
    f.add_argument("--artifact", default=None, help="output path (default <out>/<method>.artifact)")
    f.add_argument("--pca", type=_int_at_least, default=None, metavar="K",
                   help="reduce to K dims with train-fitted PCA (includes demeaning)")
    f.set_defaults(run=_cmd_fit)

    t = sub.add_parser("transform", help="apply a fitted artifact to embeddings")
    t.add_argument("--artifact", required=True)
    t.add_argument("--in", dest="input", required=True)
    t.add_argument("--out-file", required=True)
    t.add_argument("--mode", choices=["remove-sp", "keep-mt"], default="remove-sp")
    t.set_defaults(run=_cmd_transform)

    e = sub.add_parser("eval", help="evaluate a model artifact on a test file")
    e.add_argument("--model", required=True)
    e.add_argument("--test-file", required=True)
    e.set_defaults(run=_cmd_eval)

    sub.add_parser("sweep", help="run the experiment grid from --config").set_defaults(
        run=_cmd_sweep)

    r = sub.add_parser("report", help="format a results CSV as text tables")
    r.add_argument("--results", required=True)
    r.set_defaults(run=_cmd_report)
    return p


def _cmd_gen_toy(args) -> int:
    if args.config:
        print("gen-toy does not read --config; give its settings as flags", file=sys.stderr)
        return EXIT_USAGE
    cfg = toy.ToyConfig(n=args.n, d=args.d, rho=args.rho, gamma_sp=args.gamma_sp,
                        gamma_mt=args.gamma_mt, angle_deg=args.angle_deg, seed=args.seed)
    train, val = toy.gen_toy(cfg)
    test = toy.gen_toy_test(cfg, args.test_n)
    os.makedirs(args.out, exist_ok=True)
    for name, split in (("train", train), ("val", val), ("test", test)):
        io_files.save_embeddings(os.path.join(args.out, f"toy_{name}.csv"), split)
    print(f"wrote toy_train.csv, toy_val.csv, toy_test.csv to {args.out}")
    return EXIT_OK


def _experiment_config(args):
    base = evaluate.ExperimentConfig(method="jse", base_seed=args.seed)
    if args.config:
        return config.load_config(args.config, base)
    return config.build_experiment({}, base)


def _cmd_fit(args) -> int:
    train = io_files.load_embeddings(args.train)
    val = io_files.load_embeddings(args.val)
    cfg, _ = _experiment_config(args)
    cfg = replace(cfg, method=args.method)
    evaluate.check_val_groups(cfg, val)
    # pca_fit's check, made first to name the flag
    if args.pca is not None and args.pca > min(train.n, train.d):
        raise ValueError(f"--pca {args.pca}: k must be in [1, min(n, d)] = "
                         f"[1, {min(train.n, train.d)}], got {args.pca}")
    art = evaluate.fit_method(cfg, train, val, args.seed, pca=args.pca)
    if art.model is None:  # a removal method: report the dimensions it found
        line = f"d_sp_hat={art.sp_basis.shape[1]} d_mt_hat={art.mt_basis.shape[1]}"
        print(line + (f" termination={art.termination}" if art.termination else ""))
    os.makedirs(args.out, exist_ok=True)
    path = args.artifact or os.path.join(args.out, f"{args.method}.artifact")
    io_files.save_artifact(path, art)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    art = io_files.load_artifact(args.artifact)
    if args.mode == "keep-mt" and art.method != "jse":
        raise ValueError(f"{args.artifact}: method {art.method} estimates no main-task basis; "
                         "--mode keep-mt needs a jse artifact")
    data = io_files.load_embeddings(args.input)
    try:  # a width that does not match the artifact
        Z = art.transform(data.Z, args.mode)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    io_files.save_embeddings(args.out_file, data.with_Z(Z))
    print(f"wrote {args.out_file}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    art = io_files.load_artifact(args.model)
    if art.model is None:
        raise ValueError(f"{args.model} holds no linear model; fit erm/gw-erm or compose "
                         "transform + fit")
    test = io_files.load_embeddings(args.test_file)
    try:  # a width that does not match the artifact, or an empty group
        summary = evaluate.evaluate(art.model, test.with_Z(art.preprocess(test.Z)))
    except ValueError as exc:
        raise ValueError(f"{args.test_file}: {exc}") from None
    print(io_files.eval_summary_jsonl(summary))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not args.config:
        print("sweep requires --config", file=sys.stderr)
        return EXIT_USAGE
    cfg, sweep = _experiment_config(args)
    result = evaluate.run_sweep(cfg, sweep.methods, sweep.x_name, sweep.x_values,
                                workers=args.workers)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "results.csv")
    tsv_path = os.path.join(args.out, "plot.tsv")
    io_files.write_results_csv(csv_path, result.records)
    io_files.write_plot_tsv(tsv_path, result.cells)
    n_failed = sum(1 for r in result.records if r.error)
    print(f"wrote {csv_path} and {tsv_path} ({len(result.records)} runs, {n_failed} failed)")
    return EXIT_OK


def _cmd_report(args) -> int:
    rows = io_files.read_results_csv(args.results)
    ok = [r for r in rows if not r.get("error")]
    if not ok:
        raise io_files.DataFormatError(f"{args.results}: no successful runs")
    print(io_files.format_report(ok), end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    # LinAlgError subclasses ValueError, so the numerical clause comes first
    except (FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # OSError: a missing path, a directory given as a file, an existing file as --out;
    # ValueError: a bad value, and io_files.DataFormatError (config.ConfigError)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
