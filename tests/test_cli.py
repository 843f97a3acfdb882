import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rowtuples
from rowtuples.cli import main
from rowtuples.fixtures import maxcount
from rowtuples.fock import truncated_multiplier_norm
from rowtuples.linalg import ToleranceConfig
from rowtuples.polynomials import parse_polynomial
from rowtuples.serialize import (
    matrix_from_json,
    tuple_from_json,
    tuple_to_json,
    vector_from_json,
    vector_to_json,
)
from rowtuples.errors import ShapeError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


TWO_CELLS = {
    "d": 1,
    "dim": 4,
    "matrices": [[[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]],
}


class TestSerialization:
    def test_tuple_round_trip(self):
        t = maxcount()
        doc = tuple_to_json(t)
        back = tuple_from_json(json.loads(json.dumps(doc)))
        assert back.d == t.d and back.dim == t.dim
        for a, b in zip(back.mats, t.mats):
            assert np.array_equal(a, b)

    def test_vector_round_trip(self):
        v = np.array([1.0 + 2.0j, -0.25, 1e-17j])
        back = vector_from_json(vector_to_json(v), "vector")
        assert np.array_equal(back, v)

    def test_real_entries_accepted(self):
        v = vector_from_json([1, 2, 3], "vector")
        assert np.array_equal(v, np.array([1.0, 2.0, 3.0], dtype=complex))

    def test_field_named_in_errors(self):
        with pytest.raises(ShapeError, match="matrices"):
            tuple_from_json({"d": 1, "dim": 2, "matrices": [[[0, 0], [0]]]})
        with pytest.raises(ShapeError, match="'dim'"):
            tuple_from_json({"d": 1, "matrices": []})
        with pytest.raises(ShapeError, match="m\\[0\\]"):
            matrix_from_json([["oops"]], "m")

    def test_rejects_nonfinite(self):
        with pytest.raises(ShapeError, match="finite"):
            vector_from_json([[math.inf, 0.0]], "vector")


class TestCheck:
    def test_fixture(self, capsys):
        code, rep, _ = run_json(capsys, "check", "--fixture", "maxcount")
        assert code == 0
        r = rep["results"]
        assert r["commuting"] and r["row_contraction"] and r["pure"]
        assert r["nilpotent"] == 2
        assert r["defect"] == 2
        assert rep["command"] == "check"
        assert rep["warnings"] == []

    def test_tuple_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", TWO_CELLS)
        code, rep, _ = run_json(capsys, "check", "--input", path)
        assert code == 0
        assert rep["results"]["nilpotent"] == 2
        assert rep["results"]["dim"] == 4

    def test_missing_tuple_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 1
        assert "tuple" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "check", "--input", str(path))
        assert code == 1
        assert "malformed JSON" in err

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "check", "--fixture", "mystery(3)")
        assert code == 1

    def test_bad_tol(self, capsys):
        code, _, err = run(capsys, "check", "--fixture", "maxcount", "--tol", "-1")
        assert code == 1
        assert "tol" in err


class TestAnnAndModel:
    def test_ann_maxcount(self, capsys):
        code, rep, _ = run_json(capsys, "ann", "--fixture", "maxcount")
        assert code == 0
        r = rep["results"]
        assert r["delta"] == 3
        assert r["degree_bound"] == 2
        assert sorted(r["omega_e"]) == [[0, 1], [1, 0]]
        assert len(r["basis"]) == 3

    def test_model_jordan(self, capsys):
        code, rep, _ = run_json(capsys, "model", "--fixture", "jordan(2)")
        assert code == 0
        r = rep["results"]
        assert r["dim"] == 2
        mat = matrix_from_json(r["matrices"][0], "m")
        assert np.abs(mat - np.array([[0.0, 0.0], [1.0, 0.0]])).max() < 1e-12


class TestVectorCommands:
    def test_cyclic_with_vector(self, capsys, tmp_path):
        path = write_json(tmp_path, "v.json", [1, 0, 0])
        code, rep, _ = run_json(
            capsys, "cyclic", "--fixture", "jordan(3)", "--input", path
        )
        assert code == 0
        assert rep["results"]["cyclic"] is True
        assert rep["results"]["orbit_dim"] == 3
        assert rep["results"]["multiplicity"] == 1

    def test_cyclic_without_vector_reports_multiplicity(self, capsys):
        code, rep, _ = run_json(capsys, "cyclic", "--fixture", "maxcount")
        assert code == 0
        assert rep["results"]["multiplicity"] == 2
        assert "cyclic" not in rep["results"]

    def test_separating_worked_example(self, capsys, tmp_path):
        path = write_json(tmp_path, "v.json", [1, 2, 3])
        code, rep, _ = run_json(
            capsys, "separating", "--fixture", "maxcount", "--input", path
        )
        assert code == 0
        r = rep["results"]
        assert r["separating"] is False
        # witness is (3 x1 + 2 x2) up to normalization and phase
        assert "x1" in r["witness"] and "x2" in r["witness"]
        assert r["witness_operator_norm"] > 0.1

    def test_separating_greedy_mode(self, capsys):
        code, rep, _ = run_json(
            capsys, "separating", "--fixture", "maxcount", "--seed", "0"
        )
        assert code == 0
        r = rep["results"]
        assert r["size"] == 2
        assert r["kernel_trace"] == [3, 1, 0]

    def test_gram(self, capsys, tmp_path):
        path = write_json(tmp_path, "v.json", [1, 0, 0])
        code, rep, _ = run_json(
            capsys, "gram", "--fixture", "maxcount", "--input", path
        )
        assert code == 0
        r = rep["results"]
        assert abs(r["bound"] - 1.0) < 1e-12
        gram = matrix_from_json(r["gram"], "gram")
        assert np.abs(gram - np.diag([1.0, 1.0 / 3.0, 0.0])).max() < 1e-12

    def test_gram_requires_vector(self, capsys):
        code, _, err = run(capsys, "gram", "--fixture", "maxcount")
        assert code == 1
        assert "vector" in err


class TestTransform:
    def test_jordan_succeeds(self, capsys):
        code, rep, _ = run_json(capsys, "transform", "--fixture", "jordan(3)")
        assert code == 0
        r = rep["results"]
        assert r["residual"] < 1e-10
        assert r["rank"] == 3

    def test_noncyclic_is_inapplicable(self, capsys):
        code, _, err = run(capsys, "transform", "--fixture", "maxcount")
        assert code == 2
        assert "inapplicable" in err


class TestRigidityAndSplit:
    def test_consistent_pair(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "r.json",
            {
                "variant": "invariant",
                "m": [[1, 0], [0, 1], [0, 0]],
                "n": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            },
        )
        code, rep, _ = run_json(
            capsys, "rigidity", "--fixture", "maxcount", "--input", path
        )
        assert code == 0
        assert rep["results"]["verdict"] == "CONSISTENT"
        assert rep["results"]["route"] == "adjoint-cyclic"

    def test_inapplicable_pair_exits_2(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "r.json",
            {
                "variant": "invariant",
                "tuple": TWO_CELLS,
                "m": [[0], [1], [0], [0]],
                "n": [[0], [0], [0], [1]],
            },
        )
        code, rep, _ = run_json(capsys, "rigidity", "--input", path)
        assert code == 2
        assert rep["results"]["verdict"] == "INAPPLICABLE"

    def test_missing_subspace_named(self, capsys, tmp_path):
        path = write_json(tmp_path, "r.json", {"m": [[1], [0], [0]]})
        code, _, err = run(
            capsys, "rigidity", "--fixture", "maxcount", "--input", path
        )
        assert code == 1
        assert "n" in err

    def test_split_two_cells(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "s.json",
            {"tuple": TWO_CELLS, "m": [[1, 0], [0, 1], [0, 0], [0, 0]]},
        )
        code, rep, _ = run_json(capsys, "split", "--input", path)
        assert code == 0
        assert rep["results"]["n_dim"] == 2
        assert rep["warnings"] == []

    def test_split_degenerate_warns(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "s.json", {"m": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        )
        code, rep, _ = run_json(
            capsys, "split", "--fixture", "maxcount", "--input", path
        )
        assert code == 0
        assert rep["results"]["n_dim"] == 0
        assert any("degenerate" in w for w in rep["warnings"])

    def test_split_hypothesis_failure_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "s.json", {"m": [[1], [0], [0]]})
        code, _, err = run(
            capsys, "split", "--fixture", "maxcount", "--input", path
        )
        assert code == 2
        assert "invariant_subspace" in err


class TestDecompose:
    def test_indecomposable(self, capsys):
        code, rep, _ = run_json(capsys, "decompose", "--fixture", "maxcount")
        assert code == 0
        r = rep["results"]
        assert r["exists"] is False
        assert r["commutant_dim"] == 3
        assert r["idempotent"] is None

    def test_decomposable_with_pair(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", TWO_CELLS)
        code, rep, _ = run_json(capsys, "decompose", "--input", path)
        assert code == 0
        r = rep["results"]
        assert r["exists"] is True
        assert r["m_dim"] + r["n_dim"] == 4


class TestFockAndFixtures:
    def test_fock_linear_form(self, capsys):
        code, rep, _ = run_json(capsys, "fock", "--poly", "x1 + x2", "--degree", "6")
        assert code == 0
        r = rep["results"]
        assert r["nondecreasing"] is True
        assert abs(r["norms"][-1] - math.sqrt(2)) < 1e-12
        assert len(r["norms"]) == 6

    @pytest.mark.parametrize("text, d", [("0.6*x1^2 + 0.8*x2", 2), ("x1^2 - x2*x3", 3)])
    def test_fock_norms_equal_per_cap_norms(self, capsys, text, d):
        # one assembly at the top cap; each cap's norm is unchanged bit for bit
        code, rep, _ = run_json(capsys, "fock", "--poly", text, "--degree", "40")
        assert code == 0
        p = parse_polynomial(text, d)
        assert rep["results"]["norms"] == [truncated_multiplier_norm(p, n) for n in range(1, 41)]

    def test_fock_nonconvergence_exits_1(self, capsys, monkeypatch):
        # caps from 34 up take the Lanczos path, which cannot finish in 1 step
        monkeypatch.setattr("rowtuples.cli.DEFAULT_TOL", ToleranceConfig(max_iter=1))
        code, out, err = run(capsys, "fock", "--poly", "x1 + x2", "--degree", "40")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "converge" in err

    def test_fock_requires_poly(self, capsys):
        code, _, err = run(capsys, "fock")
        assert code == 1
        assert "poly" in err

    def test_fixture_listing(self, capsys):
        code, rep, _ = run_json(capsys, "fixtures")
        assert code == 0
        names = rep["results"]["fixtures"]
        for want in ("maxcount", "fromgriff", "rectangle", "jordan", "model"):
            assert want in names


class TestSweepCommand:
    def test_single_suite(self, capsys):
        code, rep, _ = run_json(
            capsys, "sweep", "--suite", "greedy", "--count", "4", "--seed", "2"
        )
        assert code == 0
        assert rep["results"]["ok"] is True
        assert rep["results"]["suites"][0]["total"] == 4

    def test_deterministic_for_fixed_seed(self, capsys):
        _, rep1, _ = run_json(
            capsys, "sweep", "--suite", "decompose", "--count", "4", "--seed", "9"
        )
        _, rep2, _ = run_json(
            capsys, "sweep", "--suite", "decompose", "--count", "4", "--seed", "9"
        )
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert rep1 == rep2

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "sweep", "--suite", "nonesuch")
        assert code == 1
        assert "suite" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "nonesuch")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_repeated_main_matches_fresh_processes(self, capsys):
        # the parser is built once per process; reuse must not leak state
        argvs = [
            ["fock", "--poly", "x1 + x2", "--degree", "3", "--json"],
            ["ann", "--fixture", "jordan(3)", "--bogus", "--json"],
            ["fock", "--poly", "x1 + x2", "--json"],
            ["check", "--fixture", "maxcount", "--tol", "1e-6", "--json"],
            ["check", "--fixture", "maxcount", "--json"],
            ["sweep", "--suite", "greedy", "--count", "2", "--seed", "1", "--json"],
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rowtuples.__file__)))

        def without_time(code, out, err):
            report = json.loads(out) if out else None
            if report:
                report.pop("wall_time_s")
            return code, report, err

        in_process = [without_time(*run(capsys, *argv)) for argv in argvs]
        assert [r[0] for r in in_process] == [0, 1, 0, 0, 0, 0]
        for argv, seen in zip(argvs, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "rowtuples", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            assert seen == without_time(fresh.returncode, fresh.stdout, fresh.stderr)

    def test_human_output_lists_results(self, capsys):
        code, out, _ = run(capsys, "check", "--fixture", "maxcount")
        assert code == 0
        assert "command: check" in out
        assert "nilpotent: 2" in out
        assert "wall_time_s:" in out
