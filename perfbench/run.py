#!/usr/bin/env python3
"""Benchmark of the jse package: seeded method cells and the CLI file
pipeline, with per-layer timings from an outside-in trace.

Run from the repository root:

    python3 perfbench/run.py --workload jse-cell --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the same checkout. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``. End-to-end
times are CPU times scaled to a nominal machine speed by a reference kernel
timed beside every run (``timing.py``). The line before it holds the
details: machine facts, the tail percentile and its sample counts, and the
same times unscaled and by the wall clock. ``perfbench/README.md`` defines
every metric.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is imported, here and in every
# process started from here (they inherit the environment).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s", "runs_per_s_norm": "1/s", "run_ms_p50_norm": "ms",
    "run_ms_tail_norm": "ms", "ok_frac": "frac", "peak_rss_mb": "MB",
    "acc_average": "%", "acc_worst_group": "%",
}

# Every public function a workload may trace, as (module, attribute). Each
# gives per-layer metrics named after it; every workload reports all of
# them, zero where it does not reach the layer.
LAYERS = [
    ("jse.sgd", "fit_joint_orthogonal"),
    ("jse.sgd", "fit_1d_logreg"),
    ("jse.sgd", "fit_logreg"),
    ("jse.sgd", "sigmoid"),
    ("jse.algorithm", "jse_fit"),
    ("jse.stats", "t_vs_random"),
    ("jse.stats", "t_relative"),
    ("jse.stats", "delta_heuristic"),
    ("jse.data", "project_out"),
    ("jse.data", "LabeledEmbeddings.with_Z"),
    ("jse.toy", "gen_toy"),
    ("jse.toy", "gen_toy_test"),
    ("jse.baselines", "inlp_fit"),
    ("jse.baselines", "rlace_fit"),
    ("jse.evaluate", "evaluate"),
    ("jse.evaluate", "run_single"),
    ("jse.evaluate", "run_sweep"),
    ("jse.io_files", "save_embeddings"),
    ("jse.io_files", "load_embeddings"),
    ("jse.io_files", "save_artifact"),
    ("jse.io_files", "load_artifact"),
    ("jse.io_files", "write_results_csv"),
    ("jse.io_files", "write_plot_tsv"),
    ("jse.pca", "pca_fit"),
    ("jse.pca", "pca_apply"),
    ("jse.config", "load_config"),
]
CLI_SUBCOMMANDS = ("gen-toy", "fit", "transform", "eval", "sweep")
# layers without traced children report no self time
LEAVES = {"sgd.sigmoid", "data.project_out", "data.LabeledEmbeddings.with_Z",
          "io_files.save_embeddings", "io_files.load_embeddings",
          "io_files.save_artifact", "io_files.load_artifact", "io_files.write_results_csv",
          "io_files.write_plot_tsv", "pca.pca_fit", "pca.pca_apply", "config.load_config"}
IO_BYTES = ("io_files.save_embeddings", "io_files.load_embeddings")
RATIOS = {
    "algorithm.proposals_per_fit": ("count", "lower"),
    "algorithm.accept_ratio": ("frac", "higher"),
    "algorithm.d_sp_exact_frac": ("frac", "higher"),
    "baselines.inlp.rounds": ("count", "lower"),
    "baselines.rlace.iters": ("count", "lower"),
    "baselines.rlace.converged_frac": ("frac", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.coverage_frac": ("frac", "higher"),
}


def layer_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('jse.')}.{attr}"


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    spec: dict[str, tuple[str, str]] = {}
    names = [layer_name(m, a) for m, a in LAYERS] + [f"cli.main.{s}" for s in CLI_SUBCOMMANDS]
    for name in names:
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.ms"] = ("ms", "lower")
        if name not in LEAVES:
            spec[f"{name}.self_ms"] = ("ms", "lower")
        if name in IO_BYTES:
            spec[f"{name}.bytes"] = ("B", "lower")
            spec[f"{name}.mb_per_s"] = ("MB/s", "higher")
    for name, unit_better in RATIOS.items():
        spec[name] = unit_better
    return spec


def derive_seed(seed: int, workload: str) -> int:
    """The workload's base seed; the package only ever sees seeds derived from it."""
    import numpy as np

    ss = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    return int(ss.generate_state(1)[0] % 2**31)


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(workload: str, ref) -> list:
    """Timings of fresh interpreters that import jse and build the workload."""
    times = []
    for _ in range(SETUP_REPEATS):
        with ref.measure(cpu_s=children_cpu_s) as t:
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                            "--setup-only"], cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
        times.append(t)
    return times


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics. On this kind of shared box
    latencies switch between a fast and a slow mode every few seconds, and a
    plain sample quantile jumps between the modes; this estimate moves
    smoothly with the mix.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(samples, prob=[p])[0])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Latency at the highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Below 20 samples no
    percentile above the median qualifies, and the 90th is reported: the
    maximum of so few samples is mostly the noise of one run.
    """
    n = len(samples)
    pct = 90 if n < 20 else math.floor(100.0 * (n - 10) / n)
    return quantile(samples, pct / 100.0), float(pct), n - math.ceil(pct / 100.0 * n)


def cell_median(ops, field: str) -> float:
    """Geometric mean over the (method, rho) cells of each cell's median.

    The pooled median of a mix of fast and slow methods falls in the gap
    between them, so each cell's median is taken on its own population.
    """
    by_cell: dict[tuple, list[float]] = {}
    for op in ops:
        by_cell.setdefault(op.cell, []).append(getattr(op, field))
    return math.exp(statistics.fmean(math.log(quantile(v, 0.5)) for v in by_cell.values()))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def install_trace(tracer, workload, counts: dict) -> None:
    def jse_result(args, res):
        counts["jse_fits"] += 1
        counts["proposals"] += len(res.sp_tests) + len(res.mt_tests)
        counts["accepted"] += res.d_sp + res.d_mt

    def inlp_result(args, basis):
        counts["inlp_fits"] += 1
        counts["inlp_rounds"] += basis.k

    def rlace_result(args, res):
        counts["rlace_fits"] += 1
        counts["rlace_iters"] += res.iters
        counts["rlace_converged"] += int(res.converged)

    def file_bytes(name):
        def hook(args, _):
            counts[f"{name}.bytes"] += os.path.getsize(args[0])
        return hook

    hooks = {
        "algorithm.jse_fit": jse_result,
        "baselines.inlp_fit": inlp_result,
        "baselines.rlace_fit": rlace_result,
        **{name: file_bytes(name) for name in IO_BYTES},
    }
    for module, attr in workload.layers():
        name = layer_name(module, attr)
        tracer.patch(module, attr, name, hooks.get(name))


def layer_metrics(tracer, counts: dict, rounds, repeats) -> dict:
    spec = per_layer_spec()
    summary = tracer.summary()
    m: dict[str, float] = {name: 0.0 for name in spec}
    for name, s in summary.items():
        m[f"{name}.calls"] = float(s["calls"])
        m[f"{name}.ms"] = s["ms"]
        if f"{name}.self_ms" in spec:
            m[f"{name}.self_ms"] = s["self_ms"]
    for name in IO_BYTES:
        m[f"{name}.bytes"] = float(counts[f"{name}.bytes"])
        if m[f"{name}.ms"] > 0:
            m[f"{name}.mb_per_s"] = m[f"{name}.bytes"] / 1e6 / (m[f"{name}.ms"] / 1e3)

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    m["algorithm.proposals_per_fit"] = ratio("proposals", "jse_fits")
    m["algorithm.accept_ratio"] = ratio("accepted", "proposals")
    m["baselines.inlp.rounds"] = ratio("inlp_rounds", "inlp_fits")
    m["baselines.rlace.iters"] = ratio("rlace_iters", "rlace_fits")
    m["baselines.rlace.converged_frac"] = ratio("rlace_converged", "rlace_fits")
    k = len(repeats)
    m["trace.overhead_frac"] = (sum(op.norm_ms for r in rounds[:k] for op in r)
                                / sum(op.norm_ms for r in repeats for op in r) - 1.0)
    # share of the outermost traced calls' time that lies in named layers below them
    roots = [summary[r] for r in ("evaluate.run_single",
                                  *(f"cli.main.{s}" for s in CLI_SUBCOMMANDS)) if r in summary]
    m["trace.coverage_frac"] = 1.0 - (sum(r["self_ms"] for r in roots)
                                      / sum(r["ms"] for r in roots))
    return m


def run(args, cls) -> tuple[dict, dict]:
    import numpy as np
    from timing import Reference
    from tracer import Tracer

    ref = Reference()
    setup = measure_setup(args.workload, ref)

    tmp = HERE / "out" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    counts: dict[str, float] = {k: 0 for k in (
        "jse_fits", "proposals", "accepted", "inlp_fits", "inlp_rounds", "rlace_fits",
        "rlace_iters", "rlace_converged", *(f"{n}.bytes" for n in IO_BYTES))}
    try:
        # warm-up: lazy imports and first-call set-up finish before timing
        cls(derive_seed(args.seed + 1, args.workload), tmp / "warm", True, ref=ref).round(0)
        wl = cls(derive_seed(args.seed, args.workload), tmp, args.tiny, tracer, ref)
        if tracer is not None:
            install_trace(tracer, wl, counts)
        rounds = []
        t_start = time.perf_counter()
        deadline = t_start + args.seconds
        min_rounds = 1 if args.tiny else wl.acc_rounds
        while len(rounds) < min_rounds or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.run_id = len(rounds)
            rounds.append(wl.round(len(rounds)))
        loop_ms = 1000.0 * (time.perf_counter() - t_start)
        if tracer is not None:
            tracer.restore()
            tracer.enabled = False
        # untraced repeats: one round checks determinism; the traced run
        # repeats a quarter of its rounds to measure the tracing overhead
        n_repeat = max(1, len(rounds) // 4) if tracer is not None else 1
        repeats = [wl.round(i) for i in range(n_repeat)]
        ref.finish()
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(tmp, ignore_errors=True)

    ops = [op for r in rounds for op in r]
    rep_ops = [op for r in repeats for op in r]
    # a repeat must reproduce every output of the same input exactly; with
    # --trace 1 it also compares the traced run against an untraced one
    mismatched = sum(a.fingerprint != b.fingerprint for a, b in zip(ops, rep_ops))
    attempted = len(ops) + len(rep_ops)
    failed = sum(not op.ok for op in ops + rep_ops) + mismatched
    lat = [op.ms for op in ops]
    tail_ms, tail_pct, beyond = tail(lat)
    wall_lat = [op.wall_ms for op in ops]
    acc_ops = [op for r in rounds[:min_rounds] for op in r if op.ok]
    jse_ops = [op for op in acc_ops if op.cell[0] == "jse"]
    cpu_s = sum(op.ms for op in ops) / 1000.0
    wall_s = sum(op.wall_ms for op in ops) / 1000.0
    norm_s = sum(op.norm_ms for op in ops) / 1000.0

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": machine_facts(),
        "rounds": len(rounds), "runs": len(ops), "loop_s": loop_ms / 1000.0,
        "run_ms_tail_percentile": tail_pct, "run_ms_tail_beyond": beyond,
        "run_ms_samples": len(lat),
        "acc_runs": len(acc_ops), "repeat_mismatches": mismatched,
        "jse_runs": len(jse_ops),
        # the end-to-end times are these CPU times at the nominal speed
        **ref.summary(),
        "setup_cpu_s_samples": [t.ms / 1000.0 for t in setup],
        "runs_per_cpu_s": len(ops) / cpu_s, "run_cpu_ms_p50": cell_median(ops, "ms"),
        "run_cpu_ms_tail": tail_ms,
        # the same runs by the wall clock, which counts time the host ran others
        "setup_wall_s_samples": [t.wall_ms / 1000.0 for t in setup],
        "runs_per_wall_s": len(ops) / wall_s, "run_wall_ms_p50": cell_median(ops, "wall_ms"),
        "run_wall_ms_tail": tail(wall_lat)[0], "cpu_over_wall": cpu_s / wall_s,
        "cell_cpu_ms_mean": {f"{m}@{x}": statistics.fmean(o.ms for o in ops if o.cell == (m, x))
                             for m, x in dict.fromkeys(op.cell for op in ops)},
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, counts, rounds, repeats)
        metrics["algorithm.d_sp_exact_frac"] = (
            sum(op.d_sp_hat == 1 for op in jse_ops) / len(jse_ops) if jse_ops else 0.0)
        spans = HERE / "out" / f"spans-{args.workload}.npz"
        tracer.save(str(spans))
        details["spans_file"] = str(spans.relative_to(ROOT))
        units = {k: u for k, (u, _) in per_layer_spec().items()}
    else:
        metrics = {
            "setup_s": statistics.median(t.norm_ms for t in setup) / 1000.0,
            "runs_per_s_norm": len(ops) / norm_s,
            "run_ms_p50_norm": cell_median(ops, "norm_ms"),
            "run_ms_tail_norm": tail([op.norm_ms for op in ops])[0],
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb(),
            "acc_average": float(np.mean([op.average for op in acc_ops])) if acc_ops else 0.0,
            "acc_worst_group": (float(np.mean([op.worst_group for op in acc_ops]))
                                if acc_ops else 0.0),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return details, result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "jse" / "__init__.py").is_file():
        print(f"error: no jse package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jse

    if not Path(jse.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported jse from {jse.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    if args.setup_only:
        cls(0, HERE / "out", args.tiny)
        return 0
    details, result = run(args, cls)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
