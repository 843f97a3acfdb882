"""Benchmark of the ``rowtuples`` CLI: four workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

Every workload run is its own child process, started with BLAS and OpenMP
pinned to one thread.  Before it, ``SETUP_REPEATS`` more children only set
up (import the package from ``src/`` and generate the inputs) and exit, so
that ``setup_s`` is a median over several processes.  With ``--trace 0``
the last line of standard output is one JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run of a fixed number of ops.  See ``bench/README.md``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import collections  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402 - numpy and inputs; the package comes later

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_REPEATS = 8  # setup-only children before the measuring child
DEADLINE_S = 170.0  # one workload, its children included

LAYERS = ("cli", "sweeps", "serialize", "polynomials", "tuples", "linalg",
          "fock", "ideals", "vectors", "subspaces")
# Functions with their own per-layer metrics, and which figures of each.
FUNCTION_METRICS = (
    ("linalg.operator_norm", ("calls", "incl")),
    ("linalg.rank_and_kernel", ("calls", "incl", "max_rows", "max_cols")),
    ("linalg.orthonormalize", ("calls",)),
    ("tuples.nilpotency_index", ("calls", "incl")),
    ("ideals.annihilator", ("calls", "incl")),
    ("ideals.model_space", ("incl",)),
    ("subspaces.intertwiner_space", ("calls", "incl", "max_unknowns")),
    ("vectors.quasiaffine_witness", ("incl",)),
    ("fock.truncated_multiplier_norm", ("calls", "incl")),
    ("fock.multiplication_matrix", ("calls",)),
)
# Figure -> (metric suffix, unit).
FIGURES = {
    "calls": ("calls_per_op", "count"),
    "incl": ("incl_ms_per_op", "ms"),
    "max_rows": ("max_rows", "rows"),
    "max_cols": ("max_cols", "cols"),
    "max_unknowns": ("max_unknowns", "unknowns"),
}
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def per_layer_units():
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_ms_per_op"] = "ms"
        units[f"{layer}.calls_per_op"] = "count"
    for name, figures in FUNCTION_METRICS:
        for fig in figures:
            suffix, unit = FIGURES[fig]
            units[f"{name}.{suffix}"] = unit
    units["trace.slowdown"] = "ratio"
    return units


METRIC_UNITS = {**END_TO_END_UNITS, **per_layer_units()}


def _rank_and_kernel_shape(a, *args, **kwargs):
    rows, cols = getattr(a, "shape", (0, 0))
    return {"max_rows": rows, "max_cols": cols}


def _intertwiner_unknowns(source, target, *args, **kwargs):
    return {"max_unknowns": source.dim * target.dim}


PROBES = {
    "linalg.rank_and_kernel": _rank_and_kernel_shape,
    "subspaces.intertwiner_space": _intertwiner_unknowns,
}


# ------------------------------------------------------------------ child


def _import_package():
    """Import ``rowtuples`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "rowtuples", "cli.py")):
        sys.exit(f"bench: no package source at {SRC}/rowtuples")
    sys.path.insert(0, SRC)
    import rowtuples.cli

    where = os.path.dirname(os.path.abspath(rowtuples.cli.__file__))
    if where != os.path.join(SRC, "rowtuples"):
        sys.exit(f"bench: rowtuples imported from {where}, not from {SRC}")


def layer_metrics(summary, ops):
    """Per-op figures of a traced run from the tracer's per-function summary."""
    metrics = {}
    for layer in LAYERS:
        recs = [r for name, r in summary.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.self_ms_per_op"] = sum(r["self_s"] for r in recs) * 1e3 / ops
        metrics[f"{layer}.calls_per_op"] = sum(r["calls"] for r in recs) / ops
    for name, figures in FUNCTION_METRICS:
        rec = summary.get(name, {})
        for fig in figures:
            if fig == "calls":
                value = rec.get("calls", 0) / ops
            elif fig == "incl":
                value = rec.get("incl_s", 0.0) * 1e3 / ops
            else:
                value = rec.get(fig, 0)
            metrics[f"{name}.{FIGURES[fig][0]}"] = value
    return metrics


def child_main(args) -> int:
    _import_package()
    wl = args.workload
    rounds = workloads.make_rounds(
        wl, args.seed,
        workloads.TRACE_ROUNDS[wl] if args.trace else workloads.POOL_ROUNDS[wl],
    )
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workdir = os.path.join(BENCH_DIR, ".work")
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"input-{os.getpid()}.json")
    try:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer([f"rowtuples.{m}" for m in LAYERS], "rowtuples", PROBES)
            plain, traced = workloads.run_traced(rounds, path, tracer)
            ops = len(traced.times)
            metrics = layer_metrics(tracer.summary(), ops)
            metrics["trace.slowdown"] = traced.median_ms() / plain.median_ms()
            tallies = (plain, traced)
        else:
            tally, busy = workloads.run_timed(rounds, args.seconds, path)
            metrics = {
                "ops_per_s": len(tally.times) / busy,
                "op_p50_ms": tally.median_ms(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            tallies = (tally,)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    for msg, times in collections.Counter(m for t in tallies for m in t.messages).items():
        print(f"failed op ({times}x): {msg}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "correct": all(t.correct for t in tallies),
        "attempted": sum(len(t.times) for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------- parent


def run_child(args, workload, deadline, setup_only=False):
    """Run one child process; its result dict, or None if it failed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"bench: {workload} did not finish before the deadline", file=sys.stderr)
            return None
    if proc.returncode != 0:
        print(f"bench: {workload} child exited with code {proc.returncode}", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_workload(args, workload, deadline):
    """Setup-only children, then the measuring child; the combined result."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            res = run_child(args, workload, deadline, setup_only=True)
            if res is None:
                return None
            setups.append(res["setup_s"])
    res = run_child(args, workload, deadline)
    if res is None:
        return None
    setups.append(res.pop("setup_s"))
    if not args.trace:
        res["metrics"]["setup_s"] = statistics.median(setups)
    res["setup_runs_s"] = setups
    return res


def report(workload, args, res):
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items() if k.endswith("THREADS"))
    print(f"== {workload}  seed={args.seed} seconds={args.seconds} trace={args.trace}  {threads}")
    for name, value in sorted(res["metrics"].items()):
        print(f"  {name:46s} {value:14.6g} {METRIC_UNITS[name]}")
    print(f"  setup runs (s): {', '.join(f'{s:.4f}' for s in res['setup_runs_s'])}")
    print(f"  attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.child:
        return child_main(args)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(args, name, time.monotonic() + DEADLINE_S)
        if res is None:
            return 1
        report(name, args, res)
        results[name] = res
    # With --workload all, metric names get a "<workload>." prefix.
    prefix = len(names) > 1
    metrics = {
        (f"{w}.{k}" if prefix else k): {"value": v, "unit": METRIC_UNITS[k]}
        for w, r in results.items() for k, v in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
