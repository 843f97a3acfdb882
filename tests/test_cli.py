import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rowtuples
from rowtuples.cli import main
from rowtuples.fixtures import jordan, maxcount, rectangle
from rowtuples.fock import truncated_multiplier_norm
from rowtuples.polynomials import parse_polynomial
from rowtuples.serialize import (
    matrix_from_json,
    matrix_to_json,
    tuple_from_json,
    tuple_to_json,
    vector_from_json,
    vector_to_json,
)
from rowtuples.errors import ShapeError
from rowtuples.sweeps import cyclic_instance
from rowtuples.tuples import RowTuple


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


def count_annihilator_calls(monkeypatch) -> list:
    """Record every annihilator computation; memo hits compute nothing and are not counted."""
    import rowtuples.ideals as ideals

    calls = []
    original = ideals._annihilator

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ideals, "_annihilator", counting)
    return calls


TWO_CELLS = {
    "d": 1,
    "dim": 4,
    "matrices": [[[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]],
}

NON_COMMUTING = {"d": 2, "dim": 2, "matrices": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]}


def force_equal_annihilators(monkeypatch):
    """Make every annihilator comparison report a match."""
    import rowtuples.subspaces as subspaces

    monkeypatch.setattr(subspaces, "annihilators_equal", lambda *args, **kwargs: True)


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

    @pytest.mark.parametrize("command", ["check", "ann", "cyclic"])
    @pytest.mark.parametrize("entry", [1e160, 1e200])
    def test_norm_whose_square_overflows_is_refused(self, capsys, tmp_path, command, entry):
        # the commutativity test squares the largest norm before any product
        doc = {"d": 2, "dim": 2, "matrices": [[[0, entry], [0, 0]], [[0, 0], [0, 0]]]}
        code, out, err = run(capsys, command, "--input", write_json(tmp_path, "t.json", doc))
        assert code == 1
        assert out == ""
        assert err == f"error: tuple norm {entry:.3g} is too large: its products overflow\n"

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

    def test_undecodable_bytes(self, capsys, tmp_path):
        # a UTF-16 byte order mark followed by an odd number of bytes
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: input: malformed JSON in {path}: not utf-16-le text (truncated data)\n"
        )

    @pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000])
    def test_deep_nesting(self, capsys, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: input: malformed JSON in {path}: nested too deeply\n"

    def test_integer_literal_with_too_many_digits(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text("[" + "1" * 5000 + "]")
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: input: malformed JSON in {path}: Exceeds the limit")
        assert len(err.splitlines()) == 1

    def test_nesting_too_deep_for_the_c_stack_is_refused(self, tmp_path):
        # valid JSON this deep would overflow the C stack of a recursive
        # parser: the process must end in a one-line error, not a crash
        path = tmp_path / "deep.json"
        depth = 300_000
        path.write_text('{"a":' * depth + "[" * depth + "0" + "]" * depth + "}" * depth)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rowtuples.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "rowtuples", "check", "--input", str(path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 1, proc.stderr[-500:]
        assert proc.stderr == f"error: input: malformed JSON in {path}: nested too deeply\n"

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "check", "--fixture", "mystery(3)")
        assert code == 1

    def test_bad_tol(self, capsys):
        code, _, err = run(capsys, "check", "--fixture", "maxcount", "--tol", "-1")
        assert code == 1
        assert "tol" in err

    @pytest.mark.parametrize("matrix", [[[1e10, 0], [0, 0]], [[2e9, 0], [1, 0]]])
    def test_large_scale_is_not_nilpotent(self, capsys, tmp_path, matrix):
        # T^0 = I never vanishes on a nonzero space, whatever the cutoff's scale
        path = write_json(tmp_path, "t.json", {"d": 1, "dim": 2, "matrices": [matrix]})
        code, rep, _ = run_json(capsys, "check", "--input", path)
        assert code == 0
        assert rep["results"]["nilpotent"] is None
        code, _, err = run(capsys, "ann", "--input", path)
        assert code == 2
        assert err.startswith("inapplicable")

    @pytest.mark.parametrize("command", ["ann", "model", "separating"])
    def test_overflowing_orbit_norms_are_an_error(self, capsys, tmp_path, command):
        # 2^140 J_6: every orbit entry is finite (at most 2^700), but their
        # squares overflow; RuntimeWarning is an error here, so none may escape
        from rowtuples.tuples import RowTuple

        t = RowTuple([2.0**140 * m for m in jordan(6).mats])
        path = write_json(tmp_path, "t.json", tuple_to_json(t))
        code, rep, _ = run_json(capsys, "check", "--input", path)
        assert code == 0 and rep["results"]["nilpotent"] == 6
        code, out, err = run(capsys, command, "--input", path)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "overflow" in err

    @pytest.mark.parametrize(
        "command", ["check", "ann", "model", "cyclic", "separating", "transform"]
    )
    def test_overflowing_orbit_products_are_an_error(self, capsys, tmp_path, command):
        # 2^250 J_6: the degree-5 orbit entries pass 2^1024 and overflow
        from rowtuples.tuples import RowTuple

        t = RowTuple([2.0**250 * m for m in jordan(6).mats])
        path = write_json(tmp_path, "t.json", tuple_to_json(t))
        code, out, err = run(capsys, command, "--input", path)
        assert code == 1 and out == ""
        assert err.startswith("error: the orbit products overflow") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "matrices",
        [
            [(2.0**10 * jordan(6).mats[0].real).tolist()],
            [[[0, 1e9], [0, 0]], [[0, 0], [0, 0]]],
        ],
    )
    def test_standard_monomials_off_an_order_ideal_are_refused(self, capsys, tmp_path, matrices):
        # the rank cutoff outgrows the orbits of low degree, so S would lose 1
        doc = {"d": len(matrices), "dim": len(matrices[0]), "matrices": matrices}
        path = write_json(tmp_path, "t.json", doc)
        code, rep, _ = run_json(capsys, "check", "--input", path)
        assert code == 0 and rep["results"]["nilpotent"] == len(matrices[0])
        for command in ("ann", "model"):
            code, out, err = run(capsys, command, "--input", path)
            assert code == 1 and out == "" and err.startswith("error:")
            assert "the standard monomials are not an order ideal below" in err
            assert err.count("\n") == 1


class TestAnnAndModel:
    def test_ann_maxcount(self, capsys):
        code, rep, _ = run_json(capsys, "ann", "--fixture", "maxcount")
        assert code == 0
        r = rep["results"]
        assert r["delta"] == 3
        assert r["degree_bound"] == 2
        assert sorted(r["omega_e"]) == [[0, 1], [1, 0]]
        assert len(r["basis"]) == 3

    def test_ann_builds_no_polynomial(self, capsys, tmp_path, monkeypatch):
        import rowtuples.polynomials as polynomials
        from rowtuples.fixtures import rectangle
        from rowtuples.sweeps import random_similarity

        t = random_similarity(np.random.default_rng(3), rectangle(3, 3))
        path = write_json(tmp_path, "t.json", tuple_to_json(t))
        built = []
        original = polynomials.Polynomial.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(polynomials.Polynomial, "__init__", counting)
        code, rep, _ = run_json(capsys, "ann", "--input", path)
        assert code == 0
        r = rep["results"]
        assert r["delta"] == 9 and len(r["basis"]) == len(set(r["basis"])) > 0
        assert built == []

    def test_ann_fixture_prints_plain_monomials(self, capsys):
        # the monomial fixtures are exact, so no roundoff terms survive
        code, rep, _ = run_json(capsys, "ann", "--fixture", "rectangle(2,2,2)")
        assert code == 0
        basis = rep["results"]["basis"]
        assert "x1^2" in basis and len(basis) == len(set(basis)) > 0
        assert all(re.fullmatch(r"x\d(\^\d+)?(\*x\d(\^\d+)?)*", p) for p in basis)

    def test_ann_prints_the_normal_form(self, capsys, tmp_path):
        code, rep, _ = run_json(capsys, "ann", "--fixture", "maxcount")
        assert code == 0
        assert rep["results"]["basis"] == ["x1^2", "x1*x2", "x2^2"]
        # a similarity of jordan(3) keeps the ideal (x^3): one element, and the
        # orbit of x1^3 lies below the rank cutoff, so its normal form is exact
        from rowtuples.fixtures import jordan
        from rowtuples.sweeps import random_similarity

        t = random_similarity(np.random.default_rng(4), jordan(3))
        path = write_json(tmp_path, "t.json", tuple_to_json(t))
        code, rep, _ = run_json(capsys, "ann", "--input", path)
        assert code == 0
        (element,) = rep["results"]["basis"]
        assert element == "x1^3"

    @pytest.mark.parametrize("seed", [0, 3, 20, 25])
    def test_mixed_variables_fill_the_quotient(self, capsys, tmp_path, seed):
        # a staircase model with its variables mixed by I + 0.1 G, then
        # conjugated; an absolute cutoff on coefficient residuals rejected these
        from rowtuples.ideals import staircase_model
        from rowtuples.sweeps import random_similarity, random_staircase
        from rowtuples.tuples import RowTuple

        rng = np.random.default_rng(seed)
        lam = random_staircase(rng, 2, 8)
        model = staircase_model(2, lam)
        mix = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        base = RowTuple([sum(c * m for c, m in zip(row, model.mats)) for row in mix])
        path = write_json(tmp_path, "t.json", tuple_to_json(random_similarity(rng, base)))
        code, rep, _ = run_json(capsys, "ann", "--input", path)
        assert code == 0 and rep["results"]["delta"] == len(lam)
        code, rep, _ = run_json(capsys, "model", "--input", path)
        assert code == 0 and rep["results"]["dim"] == len(lam)

    def test_roundoff_size_tuple_is_the_zero_tuple(self, capsys, tmp_path):
        # every entry is below the zero-test cutoff, so T^0 ≠ 0 = T_k and ann
        # must not contain 1; each vector is its own Nakayama generator
        from rowtuples.tuples import RowTuple

        rng = np.random.default_rng(0)
        noise = RowTuple([1e-17 * rng.standard_normal((3, 3)) for _ in range(2)])
        path = write_json(tmp_path, "t.json", tuple_to_json(noise))
        zero = write_json(tmp_path, "z.json", tuple_to_json(RowTuple([np.zeros((3, 3))] * 2)))
        code, rep, _ = run_json(capsys, "ann", "--input", path)
        assert code == 0
        assert "1" not in rep["results"]["basis"]
        assert rep["results"]["basis"] == ["x1", "x2"] and rep["results"]["delta"] == 1
        for source in (path, zero):
            code, rep, _ = run_json(capsys, "cyclic", "--input", source)
            assert code == 0 and rep["results"]["multiplicity"] == 3

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
        code, rep, _ = run_json(capsys, "separating", "--fixture", "maxcount")
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

    def test_annihilator_computed_once(self, capsys, monkeypatch):
        # at most once, and in fact never: the model comes from the quotient alone
        calls = count_annihilator_calls(monkeypatch)
        code, rep, _ = run_json(capsys, "transform", "--fixture", "rectangle(3,3)")
        assert code == 0
        assert rep["results"]["model_dim"] == 9
        assert len(calls) == 0

    def test_sweep_computes_annihilator_once_per_instance(self, capsys, monkeypatch):
        # at most once per instance, and in fact never
        calls = count_annihilator_calls(monkeypatch)
        code, rep, _ = run_json(capsys, "sweep", "--suite", "transform", "--count", "3")
        assert code == 0
        assert rep["results"]["suites"][0]["passed"] == 3
        assert len(calls) == 0

    def test_noncyclic_is_inapplicable(self, capsys):
        code, _, err = run(capsys, "transform", "--fixture", "maxcount")
        assert code == 2
        assert "inapplicable" in err

    @pytest.mark.parametrize("command", ["transform", "separating"])
    def test_noncommuting_is_inapplicable(self, capsys, tmp_path, command):
        path = write_json(tmp_path, "t.json", NON_COMMUTING)
        code, out, err = run(capsys, command, "--input", path)
        assert code == 2
        assert out == ""
        assert err.startswith("inapplicable:") and "commut" in err


class TestAnnihilatorKernel:
    """The quotient, the model and the witnesses need no kernel of the orbit
    matrix; only the comparison of two ideals does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("ann", "--fixture", "rectangle(3,3)"),
            ("model", "--fixture", "rectangle(2,3,2)"),
            ("transform", "--fixture", "jordan(4)"),
            ("separating", "--fixture", "maxcount"),
            ("sweep", "--suite", "greedy", "--count", "3"),
            ("sweep", "--suite", "transform", "--count", "3"),
        ],
    )
    def test_commands_without_a_comparison_take_no_kernel(self, capsys, monkeypatch, argv):
        calls = count_annihilator_calls(monkeypatch)
        code, _, _ = run_json(capsys, *argv)
        assert code == 0
        assert calls == []

    def test_rigidity_and_split_compute_each_annihilator_once(self, capsys, tmp_path, monkeypatch):
        calls = count_annihilator_calls(monkeypatch)
        subspaces = {"m": [[1, 0], [0, 1], [0, 0]], "n": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        pair = write_json(tmp_path, "r.json", subspaces)
        code, _, _ = run_json(capsys, "rigidity", "--fixture", "maxcount", "--input", pair)
        assert code == 0
        assert len(calls) == len({id(args[0]) for args in calls}) == 2
        calls.clear()
        split = write_json(
            tmp_path, "s.json", {"tuple": TWO_CELLS, "m": [[1, 0], [0, 1], [0, 0], [0, 0]]}
        )
        code, _, _ = run_json(capsys, "split", "--input", split)
        assert code == 0
        assert len(calls) == len({id(args[0]) for args in calls}) == 2

    def test_quotient_takes_one_singular_value_svd_of_the_orbit_matrix(self, monkeypatch):
        import rowtuples.ideals as ideals
        from rowtuples.sweeps import random_similarity

        shapes = []

        def recording(a, _real=ideals.singular_values):
            shapes.append(np.shape(a))
            return _real(a)

        monkeypatch.setattr(ideals, "singular_values", recording)
        t = random_similarity(np.random.default_rng(7), rectangle(3, 2))
        assert rowtuples.quotient_of(t).dim == 6
        mu = rowtuples.nakayama_generators(t).shape[1]
        index = rowtuples.nilpotency_index(t)
        assert shapes == [(t.dim * mu, math.comb(index + t.d, t.d))]


class TestScaledTuples:
    """``ann`` on ``2^e T``: scaling by a power of two is exact, so only the
    tolerance's view of the orbits changes with ``e``."""

    BASES = {
        "jordan(6)": lambda seed: jordan(6),
        "rectangle(3,3)": lambda seed: rectangle(3, 3),
        "cyclic_instance": lambda seed: cyclic_instance(np.random.default_rng(seed)),
    }

    @given(
        e=st.integers(-40, 260),
        base=st.sampled_from(sorted(BASES)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(e=10, base="jordan(6)", seed=0)
    @example(e=250, base="jordan(6)", seed=0)
    @settings(max_examples=40, deadline=None)
    def test_ann_is_an_order_ideal_or_one_error_line(self, tmp_path_factory, e, base, seed):
        # every failure reaches the user as one line; a RuntimeWarning is an
        # error here (pyproject.toml), so none may escape main either
        from rowtuples.tuples import RowTuple

        t = RowTuple([2.0**e * m for m in self.BASES[base](seed).mats])
        path = tmp_path_factory.getbasetemp() / "scaled.json"
        path.write_text(json.dumps(tuple_to_json(t)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ann", "--input", str(path), "--json"])
        if code == 0:
            report = json.loads(out.getvalue())
            basis = {tuple(alpha) for alpha in report["results"]["monomial_basis"]}
            assert (0,) * t.d in basis
            for alpha in basis:
                for k in range(t.d):
                    assert not alpha[k] or alpha[:k] + (alpha[k] - 1,) + alpha[k + 1 :] in basis
            return
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        if code == 2 and base == "cyclic_instance":
            # a random similarity keeps roundoff orbits of size eps·2^(e·|alpha|)
            # that the cutoff, linear in 2^e, never calls zero: the index of a
            # scaled tuple is overestimated (ROADMAP, scale-dependent nilpotency)
            assert lines[0].startswith("inapplicable: no vanishing degree")
            return
        assert code == 1 and lines[0].startswith("error:")

    CONTRACT_BASES = {
        "maxcount": lambda rng: maxcount(),
        "jordan(6)": lambda rng: jordan(6),
        "rectangle(3,3)": lambda rng: rectangle(3, 3),
        "cyclic_instance": lambda rng: cyclic_instance(rng),
        "zero": lambda rng: RowTuple([np.zeros((int(rng.integers(0, 4)),) * 2)] * 2),
        "diagonal": lambda rng: RowTuple([np.diag(rng.uniform(0.1, 0.5, 3)) for _ in range(2)]),
        "non_commuting": lambda rng: RowTuple([[[0, 0.5], [0, 0]], [[0, 0], [0.5, 0]]]),
    }
    PAYLOADS = {
        "check": [None],
        "model": [None],
        "transform": [None],
        "decompose": [None],
        "cyclic": [None, "vector"],
        "separating": [None, "vector"],
        "gram": ["vector"],
        "split": ["m"],
        "rigidity": ["invariant", "coinvariant"],
    }

    @staticmethod
    def _columns(rng, t, kind):
        """Columns of a subspace: the whole space, the range of T_1, or random ones."""
        n = t.dim
        if kind == "whole":
            return np.eye(n)
        if kind == "range":
            return t.mats[0] if n else np.zeros((0, 1))
        return rng.standard_normal((n, int(rng.integers(1, n + 1)) if n else 1))

    @given(
        command=st.sampled_from(sorted(PAYLOADS)),
        base=st.sampled_from(sorted(CONTRACT_BASES)),
        e=st.sampled_from([0, 8, -8, 40, -40, 140, 200, -200, 260, -300]),
        tol=st.sampled_from([None, "1e-3"]),
        choice=st.integers(0, 1),
        subspaces=st.tuples(*[st.sampled_from(["whole", "range", "random"])] * 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        command="rigidity", base="maxcount", e=0, tol=None, choice=0, subspaces=("range", "whole"), seed=0
    )
    @settings(max_examples=200, deadline=None)
    def test_tuple_commands_keep_the_exit_contract(
        self, tmp_path_factory, command, base, e, tol, choice, subspaces, seed
    ):
        # exit 0 prints a report and nothing on stderr; rigidity's verdict
        # exits (2 INAPPLICABLE, 3 THEOREM_VIOLATION) print their report on
        # stdout only; every other exit prints one error or inapplicable line.
        # A RuntimeWarning is an error here (pyproject.toml), so none escapes.
        rng = np.random.default_rng(seed)
        t0 = self.CONTRACT_BASES[base](rng)
        t = RowTuple([2.0**e * m for m in t0.mats])
        doc = {"tuple": tuple_to_json(t)}
        payloads = self.PAYLOADS[command]
        payload = payloads[choice % len(payloads)]
        if payload == "vector":
            doc["vector"] = vector_to_json(rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim))
        elif payload == "m":
            doc["m"] = matrix_to_json(self._columns(rng, t, subspaces[0]))
        elif payload is not None:
            doc["variant"] = payload
            doc["m"], doc["n"] = (matrix_to_json(self._columns(rng, t, kind)) for kind in subspaces)
        path = tmp_path_factory.getbasetemp() / "contract.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--input", str(path), "--json"] + (["--tol", tol] if tol else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert err.getvalue() == ""
            assert json.loads(out.getvalue())["command"] == command
        elif command == "rigidity" and code in (2, 3) and not err.getvalue():
            verdict = json.loads(out.getvalue())["results"]["verdict"]
            assert verdict == {2: "INAPPLICABLE", 3: "THEOREM_VIOLATION"}[code]
        else:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("error:" if code == 1 else "inapplicable")


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

    def test_theorem_violation_exits_3(self, capsys, tmp_path, monkeypatch):
        # M = span(e1, e2) and N = C^3 differ, so matching annihilators contradict rigidity
        force_equal_annihilators(monkeypatch)
        path = write_json(
            tmp_path,
            "r.json",
            {"m": [[1, 0], [0, 1], [0, 0]], "n": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        )
        code, rep, _ = run_json(capsys, "rigidity", "--fixture", "maxcount", "--input", path)
        assert code == 3
        assert rep["results"]["verdict"] == "THEOREM_VIOLATION"
        assert rep["results"]["annihilators_match"] is True

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


class TestPayloadErrors:
    IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("rigidity", {"m": 5, "n": IDENTITY}, "m"),
            ("rigidity", {"m": [[1], [0]], "n": IDENTITY}, "m"),
            ("rigidity", {"variant": "sideways", "m": [[1], [0], [0]], "n": IDENTITY}, "variant"),
            ("split", {"m": [[1], [0]]}, "m"),
            ("cyclic", [1, 0], "vector"),
            ("cyclic", ["a", "b", "c"], "vector"),
            ("gram", "[1e400, 0, 0]", "vector"),
            ("separating", {"vector": {"x": 1}}, "vector"),
        ],
    )
    def test_malformed_field_exits_1(self, capsys, tmp_path, command, doc, field):
        path = tmp_path / "doc.json"
        # 1e400 is valid JSON that json.dumps cannot write, so it comes as text
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(capsys, command, "--fixture", "maxcount", "--input", str(path))
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and re.match(rf"error: {field}\b", lines[0]), err


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

    def test_generic_direct_sum_is_reported_the_same_twice(self, capsys, tmp_path):
        from rowtuples.fixtures import rectangle
        from rowtuples.sweeps import random_similarity

        twice = rowtuples.RowTuple([np.kron(np.eye(2), m) for m in rectangle(3, 3).mats])
        t = random_similarity(np.random.default_rng(100), twice)
        path = write_json(tmp_path, "t.json", tuple_to_json(t))
        (code, first, _), (_, second, _) = (
            run_json(capsys, "decompose", "--input", path) for _ in range(2)
        )
        assert code == 0
        assert first["results"] == second["results"]
        r = first["results"]
        assert (r["exists"], r["commutant_dim"], r["semisimple_dim"]) == (True, 36, 4)
        assert r["m_dim"] == r["n_dim"] == 9

    def test_commutant_computed_once(self, capsys, tmp_path, monkeypatch):
        import rowtuples.subspaces as subspaces
        from rowtuples.fixtures import rectangle

        a, b = rectangle(3, 3), rectangle(2, 2)
        blocks = [
            np.block([[ma, np.zeros((9, 4))], [np.zeros((4, 9)), mb]])
            for ma, mb in zip(a.mats, b.mats)
        ]
        path = write_json(tmp_path, "t.json", tuple_to_json(rowtuples.RowTuple(blocks)))
        calls = []
        original = subspaces.intertwiner_space

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(subspaces, "intertwiner_space", counting)
        code, rep, _ = run_json(capsys, "decompose", "--input", path)
        assert code == 0
        r = rep["results"]
        assert r["exists"] is True and r["commutant_dim"] == 21
        assert r["m_dim"] + r["n_dim"] == 13
        assert len(calls) == 1


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

    def test_fock_monotonicity_is_judged_relative_to_the_norms(self, capsys):
        # the Lanczos caps dip by 3.5e-9 at a norm of 1.4e6, 2.5e-15 relative
        code, rep, _ = run_json(capsys, "fock", "--poly", "1e6*x1 + 1e6*x2", "--degree", "38")
        assert code == 0
        assert rep["results"]["nondecreasing"] is True

    def test_fock_nonconvergence_exits_1(self, capsys, monkeypatch):
        # caps from 34 up take the Lanczos path, which cannot finish in 1 step
        monkeypatch.setattr("rowtuples.linalg._MAX_ITER", 1)
        code, out, err = run(capsys, "fock", "--poly", "x1 + x2", "--degree", "40")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "converge" in err

    def test_fock_requires_poly(self, capsys):
        code, _, err = run(capsys, "fock")
        assert code == 1
        assert "poly" in err

    def test_fock_non_integer_exponent_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "fock", "--poly", "x1^1.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: exponent must be a digit string")
        assert err.count("\n") == 1

    def test_fock_non_finite_literal_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "fock", "--poly", "1e999*x1")
        assert code == 1
        assert out == ""
        assert err == "error: number '1e999' overflows a float\n"

    def test_fock_overflowing_coefficient_product_is_a_usage_error(self, capsys):
        # finite literals whose product overflows are named as the term, not
        # reported later as a matrix with non-finite entries
        code, out, err = run(capsys, "fock", "--poly", "1e200*x1*1e200 + x2")
        assert code == 1
        assert out == ""
        assert err == "error: coefficient of term '1e200*x1*1e200' overflows a float\n"

    def test_fock_variable_index_zero(self, capsys):
        # the parser infers d from the largest index, so x0 is out of range
        code, out, err = run(capsys, "fock", "--poly", "x0")
        assert code == 1
        assert out == ""
        assert err == "error: variable x0 out of range for d=1\n"

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

    def test_violations_exit_3(self, capsys, monkeypatch):
        force_equal_annihilators(monkeypatch)
        code, rep, _ = run_json(
            capsys, "sweep", "--suite", "rigidity-full", "--count", "3", "--seed", "4"
        )
        assert code == 3
        assert rep["results"]["ok"] is False
        assert rep["results"]["suites"][0]["violations"] > 0

    def test_splitting_failure_message_prints_plain_booleans(self, capsys, monkeypatch):
        # a numpy boolean would print as np.False_
        monkeypatch.setattr("rowtuples.sweeps.is_invariant", lambda t, n: np.False_)
        code, rep, _ = run_json(
            capsys, "sweep", "--suite", "splitting", "--count", "2", "--seed", "800019"
        )
        suite = rep["results"]["suites"][0]
        assert code == 0 and suite["failed"] == 2
        assert suite["messages"] == [
            f"instance {i}: checks=[False, True, True, True]" for i in range(2)
        ]

    def test_greedy_analyses_each_instance_once(self, capsys, monkeypatch):
        # the sweep and separating_greedy share one quotient, and take no kernel for it
        import rowtuples.ideals as ideals

        calls = []
        for name in ("_annihilator", "_quotient"):

            def recording(*args, _real=getattr(ideals, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(ideals, name, recording)
        code, rep, _ = run_json(capsys, "sweep", "--suite", "greedy", "--count", "3")
        assert code == 0
        assert rep["results"]["suites"][0]["passed"] == 3
        assert calls == ["_quotient"] * 3


class TestNoRandomDraws:
    IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_tuple_commands_draw_no_random_numbers(self, capsys, tmp_path, monkeypatch):
        # only the sweep draws random numbers; every analysis is deterministic
        from rowtuples.cli import _TUPLE_COMMANDS

        def refuse(*args, **kwargs):
            raise AssertionError("an analysis drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        vector = write_json(tmp_path, "v.json", [1, 2, 3])
        pair = write_json(tmp_path, "r.json", {"m": [[1, 0], [0, 1], [0, 0]], "n": self.IDENTITY})
        whole = write_json(tmp_path, "s.json", {"m": self.IDENTITY})
        runs = [
            ("check",), ("ann",), ("model",), ("cyclic",), ("cyclic", "--input", vector),
            ("separating",), ("separating", "--input", vector), ("gram", "--input", vector),
            ("transform",), ("rigidity", "--input", pair), ("decompose",),
            ("split", "--input", whole),
        ]
        assert {argv[0] for argv in runs} == set(_TUPLE_COMMANDS)
        codes = [run(capsys, argv[0], "--fixture", "maxcount", *argv[1:])[0] for argv in runs]
        assert codes == [0] * 8 + [2] + [0] * 3


class TestScipyOnDemand:
    """Only the fock multiplier past the dense-SVD limit and the sparse Lanczos
    norm import scipy; only reading a document imports orjson."""

    SCRIPT = """
import contextlib, io, json, sys
from rowtuples.cli import main

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "orjson"))

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
before = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(main(["fock", "--poly", "x1 + x2", "--degree", "8", "--json"]))
print(json.dumps({"codes": codes, "before": before, "after": loaded(), "fock": out.getvalue()}))
"""

    def fresh(self, argvs):
        """Run ``argvs``, then ``fock --degree 8``, in a new interpreter."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rowtuples.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout)

    def test_tuple_commands_and_sweeps_leave_scipy_unloaded(self, capsys, tmp_path):
        from rowtuples.cli import _TUPLE_COMMANDS

        identity = TestNoRandomDraws.IDENTITY
        vector = write_json(tmp_path, "v.json", [1, 2, 3])
        pair = write_json(tmp_path, "r.json", {"m": [[1, 0], [0, 1], [0, 0]], "n": identity})
        whole = write_json(tmp_path, "s.json", {"m": identity})
        runs = [
            ("check",), ("ann",), ("model",), ("cyclic",), ("cyclic", "--input", vector),
            ("separating",), ("separating", "--input", vector), ("gram", "--input", vector),
            ("transform",), ("rigidity", "--input", pair), ("decompose",),
            ("split", "--input", whole),
        ]
        assert {argv[0] for argv in runs} == set(_TUPLE_COMMANDS)
        argvs = [[argv[0], "--fixture", "maxcount", *argv[1:], "--json"] for argv in runs]
        argvs += [
            ["model", "--fixture", "fromgriff(2)", "--json"],
            ["transform", "--fixture", "rectangle(2,3)", "--json"],
            ["decompose", "--fixture", "rectangle(2,2)", "--json"],
            ["fixtures", "--json"],
            ["sweep", "--suite", "all", "--count", "2", "--json"],
        ]
        fresh = self.fresh(argvs)
        assert fresh["codes"] == [0] * 8 + [2] + [0] * 9
        # the --input runs read documents, so orjson is loaded; scipy is not
        assert [name for name in fresh["before"] if name.startswith("scipy")] == []
        assert "orjson" in fresh["before"]
        # a cap of 45 coordinates is multiplied dense, without scipy.sparse
        assert fresh["after"] == fresh["before"]
        _, rep, _ = run_json(capsys, "fock", "--poly", "x1 + x2", "--degree", "8")
        assert json.loads(fresh["fock"])["results"]["norms"] == rep["results"]["norms"]

    def test_sweep_and_fock_load_neither_scipy_nor_orjson(self):
        argvs = [
            ["fixtures", "--json"],
            ["sweep", "--suite", "all", "--count", "2", "--json"],
            ["sweep", "--suite", "transform", "--count", "3", "--seed", "3001540", "--json"],
        ]
        fresh = self.fresh(argvs)
        assert fresh["codes"] == [0, 0, 0, 0]
        assert fresh["before"] == []
        assert fresh["after"] == []


class TestReportText:
    """Array results are written from their entries, with the bytes of the pair lists."""

    VECTOR = [1, [2, -0.5], 3]
    RUNS = [
        ("check", "--fixture", "maxcount"),
        ("check", "--fixture", "rectangle(2,3)"),
        ("model", "--fixture", "jordan(4)"),
        ("model", "--fixture", "rectangle(3,3)"),
        ("model", "--fixture", "model(x1^2;x2^2)"),
        ("separating", "--fixture", "maxcount"),
        ("separating", "--fixture", "fromgriff(2)"),
        ("gram", "--fixture", "jordan(3)", "--input", "vector"),
        ("transform", "--fixture", "rectangle(2,3)"),
        ("decompose", "--input", "two_cells"),
        ("split", "--input", "cells_and_m"),
        ("split", "--fixture", "maxcount", "--input", "whole"),
    ]

    @pytest.mark.parametrize("mode", [(), ("--json",)])
    @pytest.mark.parametrize("argv", RUNS, ids=" ".join)
    def test_matches_the_report_of_the_lists(self, capsys, tmp_path, monkeypatch, argv, mode):
        files = {
            "vector": write_json(tmp_path, "v.json", self.VECTOR),
            "two_cells": write_json(tmp_path, "t.json", TWO_CELLS),
            "cells_and_m": write_json(
                tmp_path, "s.json", {"tuple": TWO_CELLS, "m": [[1, 0], [0, 1], [0, 0], [0, 0]]}
            ),
            "whole": write_json(tmp_path, "w.json", {"m": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        }
        argv = [files.get(a, a) for a in argv] + list(mode)

        def without_time(out):
            return re.sub(r"wall_time_s\W+[0-9.e-]+", "wall_time_s", out)

        code, out, _ = run(capsys, *argv)
        monkeypatch.setattr("rowtuples.cli.pairs_text", lambda a: json.dumps(matrix_to_json(a)))
        want_code, want, _ = run(capsys, *argv)
        assert code == want_code == 0
        assert without_time(out) == without_time(want)
        assert "[[" in out


class TestCollectorState:
    """``main`` pauses the cyclic collector around input and report, and leaves its state."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def cases(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 1, "dim": 1, "matrices": [[[0]]]')
        return [
            (["model", "--input", write_json(tmp_path, "t.json", TWO_CELLS), "--json"], 0),
            (["ann", "--input", str(bad)], 1),
            (["ann", "--input", str(tmp_path / "missing.json")], 1),
            (["ann", "--input", write_json(tmp_path, "nc.json", NON_COMMUTING)], 2),
        ]

    def test_state_is_restored_on_every_exit(self, capsys, tmp_path, collector):
        for argv, want in self.cases(tmp_path):
            assert run(capsys, *argv)[0] == want, argv
            assert gc.isenabled() is collector, argv

    def test_paused_for_input_and_report_but_not_for_the_analysis(
        self, capsys, tmp_path, monkeypatch, collector
    ):
        from rowtuples import cli

        seen = {}

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                seen[name] = gc.isenabled()
                return fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapped)

        for name in ("load_document", "tuple_from_json", "model_of", "pairs_text"):
            recording(name, getattr(cli, name))
        path = write_json(tmp_path, "t.json", TWO_CELLS)
        assert run(capsys, "model", "--input", path, "--json")[0] == 0
        assert seen == {
            "load_document": False,
            "tuple_from_json": False,
            "model_of": collector,
            "pairs_text": False,
        }


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "nonesuch")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--count", "-1"],
            ["sweep", "--seed", "-1"],
        ],
    )
    def test_negative_seed_or_count_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "nonnegative" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--tol", "1e-6"],
            ["ann", "--fixture", "maxcount", "--degree", "3"],
            ["split", "--fixture", "maxcount", "--seed", "0"],
            ["fixtures", "--fixture", "maxcount"],
            ["separating", "--fixture", "maxcount", "--seed", "-1"],
            ["model", "--fixture", "maxcount", "--degree", "3"],
            ["fock", "--poly", "x1 + x2", "--tol", "1e-6"],
        ],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: unrecognized arguments")

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["model", "--fixture", "rectangle(7,7)", "--json"],  # more than a pipe buffer
            ["check", "--fixture", "maxcount"],  # a few lines, still buffered at exit
        ],
    )
    def test_a_reader_that_left_ends_quietly(self, argv):
        # stdout is a pipe whose read end is closed before the report is written
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rowtuples.__file__)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rowtuples", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, check=False,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")

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
