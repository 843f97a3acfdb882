"""Tests of the benchmark itself: tracer arithmetic, checkers, smoke runs.

Run from the root of the checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import run

# The benchmark's children run with one BLAS thread; so do these tests.
os.environ.update(run.THREAD_ENV)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

run._import_package()


# ------------------------------------------------------------------ tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


LOW_SOURCE = '''
def leaf(clock):
    clock.advance(2.0)

def countdown(clock, n):
    clock.advance(1.0)
    if n:
        countdown(clock, n - 1)

def _private(clock):
    clock.advance(5.0)
'''

MID_SOURCE = '''
from fakepkg.low import leaf, _private

def middle(clock, rows):
    clock.advance(1.0)
    leaf(clock)
    leaf(clock)
    _private(clock)
    clock.advance(3.0)

TABLE = {"middle": middle}
'''


@pytest.fixture
def fakepkg():
    names = ["fakepkg", "fakepkg.low", "fakepkg.mid"]
    sys.modules["fakepkg"] = types.ModuleType("fakepkg")
    for name, source in (("fakepkg.low", LOW_SOURCE), ("fakepkg.mid", MID_SOURCE)):
        mod = types.ModuleType(name)
        sys.modules[name] = mod
        exec(compile(source, name, "exec"), vars(mod))
    yield sys.modules["fakepkg.low"], sys.modules["fakepkg.mid"]
    for name in names:
        sys.modules.pop(name, None)


def test_tracer_self_time_and_calls_on_nested_call(fakepkg):
    low, mid = fakepkg
    original_leaf = mid.leaf
    clock = FakeClock()
    tracer = Tracer(["fakepkg.low", "fakepkg.mid"], "fakepkg",
                    probes={"mid.middle": lambda clock, rows: {"max_rows": rows}},
                    clock=clock)
    with tracer:
        mid.TABLE["middle"](clock, 7)  # through a module-level dict
        mid.middle(clock, 3)
        low.countdown(clock, 2)
    summary = tracer.summary()

    # middle: 1 + leaf 2 + leaf 2 + _private 5 (untraced) + 3 = 13 per call.
    assert summary["mid.middle"] == {"calls": 2, "incl_s": 26.0, "self_s": 18.0, "max_rows": 7}
    # leaf is reached through the name that mid re-imported from low.
    assert summary["low.leaf"] == {"calls": 4, "incl_s": 8.0, "self_s": 8.0}
    # Recursion: three nested spans of 3, 2 and 1 seconds; the outermost is inclusive.
    assert summary["low.countdown"] == {"calls": 3, "incl_s": 3.0, "self_s": 3.0}
    assert "low._private" not in summary
    # Uninstall restores every binding.
    assert mid.leaf is original_leaf
    assert mid.TABLE["middle"] is mid.middle
    assert not hasattr(mid.middle, "__wrapped__")


def test_traced_counts_repeat_exactly(tmp_path):
    rounds = workloads.make_rounds("sweep", 2, 1)
    counts = []
    for _ in range(2):
        tracer = Tracer([f"rowtuples.{m}" for m in run.LAYERS], "rowtuples", run.PROBES)
        workloads.run_traced(rounds, str(tmp_path / "input.json"), tracer)
        counts.append({name: rec["calls"] for name, rec in tracer.summary().items()})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main"] == len(rounds[0])
    assert counts[0]["sweeps.run_suite"] == len(rounds[0])


def test_layer_metrics_per_op():
    summary = {
        "linalg.rank_and_kernel": {"calls": 4, "incl_s": 0.5, "self_s": 0.5,
                                   "max_rows": 9, "max_cols": 4},
        "ideals.annihilator": {"calls": 2, "incl_s": 1.0, "self_s": 0.5},
    }
    metrics = run.layer_metrics(summary, ops=2)
    assert set(metrics) == set(run.per_layer_units()) - {"trace.slowdown"}
    assert metrics["linalg.rank_and_kernel.calls_per_op"] == 2
    assert metrics["linalg.rank_and_kernel.incl_ms_per_op"] == 250.0
    assert metrics["linalg.rank_and_kernel.max_rows"] == 9
    assert metrics["ideals.self_ms_per_op"] == 250.0
    assert metrics["ideals.calls_per_op"] == 1
    assert metrics["fock.calls_per_op"] == 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


# ------------------------------------------------------- smoke and checkers

# One op per workload: (workload, index of the op in the first round).
SMOKE_OPS = {"sweep": 0, "commutant": 0, "ideals": 1, "fock": 0}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Run one op of each workload; keep the op and its report."""
    path = str(tmp_path_factory.mktemp("bench") / "input.json")
    out = {}
    for wl, index in SMOKE_OPS.items():
        op = workloads.make_rounds(wl, 5, 1)[0][index]
        tally = workloads.Tally()
        _, report = workloads.run_op(op, path, tally)
        out[wl] = (op, report, tally)
    return out


@pytest.mark.parametrize("workload", list(SMOKE_OPS))
def test_one_op_smoke_run(smoke, workload):
    op, report, tally = smoke[workload]
    assert tally.failed == 0 and tally.correct, tally.messages
    assert len(tally.times) == 1 and tally.times[0] > 0
    assert workloads.check(op, 0, report) == []


def _rejects(op, report):
    return workloads.check(op, 0, report) != []


def test_fock_checker_rejects_decreasing_norms(smoke):
    op, report, _ = smoke["fock"]
    bad = copy.deepcopy(report)
    norms = bad["results"]["norms"]
    norms[40], norms[41] = norms[41], norms[40] * 0.999
    assert _rejects(op, bad)


def test_commutant_checker_rejects_witness_with_zero_column(smoke):
    op, report, _ = smoke["commutant"]
    assert op.kind == "transform"
    bad = copy.deepcopy(report)
    for row in bad["results"]["witness"]:
        row[3] = [0.0, 0.0]
    assert _rejects(op, bad)


def test_sweep_checker_rejects_one_failed_instance(smoke):
    op, report, _ = smoke["sweep"]
    bad = copy.deepcopy(report)
    suite = bad["results"]["suites"][0]
    suite["passed"] -= 1
    suite["failed"] += 1
    assert _rejects(op, bad)
    # Also when the report's own summary flag still claims success.
    bad["results"]["ok"] = True
    assert _rejects(op, bad)


def test_ideals_checker_rejects_model_off_by_1e6(smoke):
    op, report, _ = smoke["ideals"]
    assert op.kind == "model"
    bad = copy.deepcopy(report)
    bad["results"]["matrices"][0][1][0][0] += 1e-6
    assert _rejects(op, bad)


def test_known_splitting_fault_fails_every_round_but_stays_correct(tmp_path):
    for seed in (0, 7):
        ops = workloads.make_rounds("sweep", seed, 2)
        faults = [op for r in ops for op in r if op.argv[:-1] == workloads.SPLITTING_FAULT]
        assert len(faults) == 2
        tally = workloads.Tally()
        _, report = workloads.run_op(faults[0], str(tmp_path / "input.json"), tally)
        assert tally.failed == 1 and tally.correct
        suite = report["results"]["suites"][0]
        assert (suite["total"], suite["passed"], suite["failed"]) == (4, 3, 1)


def test_nonzero_exit_or_malformed_report_fails_the_op():
    op = workloads.make_rounds("sweep", 0, 1)[0][0]
    assert workloads.check(op, 3, None) == ["exit code 3"]
    assert workloads.check(op, 0, None) == ["no JSON report on stdout"]
    assert workloads.check(op, 0, {"results": {"ok": True}}) == ["no suites reported"]
    assert workloads.check(op, 0, {"results": {"suites": [{}]}})[-1].startswith("malformed")


# -------------------------------------------------------------- reference


def test_model_matrices_match_the_package():
    from rowtuples.fixtures import rectangle

    mats = workloads.model_matrices(workloads.staircase("box(3,2)"))
    for ours, theirs in zip(mats, rectangle(3, 2).mats):
        np.testing.assert_allclose(ours, theirs, atol=1e-14)


def test_dense_multiplier_matches_the_package():
    from rowtuples.fock import TruncatedDA, multiplication_matrix
    from rowtuples.polynomials import parse_polynomial

    coeffs = {(2, 0): 0.5 - 0.25j, (0, 1): -1.5 + 0.0j}
    p = parse_polynomial(workloads.poly_text(coeffs), 2)
    assert p.coeffs == coeffs
    np.testing.assert_allclose(
        workloads.dense_multiplier(coeffs, 6),
        multiplication_matrix(p, TruncatedDA(2, 6)),
        atol=1e-14,
    )


# ------------------------------------------------------------ entry point


def test_run_prints_one_json_result_line():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Every whole round holds one op that fails: the known splitting fault.
    per_round = len(workloads.make_rounds("sweep", 3, 1)[0])
    assert result["correct"] is True
    assert result["attempted"] == per_round * result["failed"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END_UNITS[name] and metric["value"] > 0


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fock", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
