"""Decoding and encoding of tuple, matrix and vector documents.

The decoder reads a document with one array conversion where numpy takes
it as a plain integer or float array, and walks it entry by entry
otherwise.  The properties below pin that both paths agree bit for bit.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowtuples import serialize
from rowtuples.cli import main
from rowtuples.errors import ShapeError
from rowtuples.serialize import (
    matrix_from_json,
    matrix_to_json,
    tuple_from_json,
    vector_from_json,
    vector_to_json,
)

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**63) - 2, max_value=-(2**63) + 2),
    st.integers(min_value=2**63 - 2, max_value=2**64 + 2),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1, -1, 10**400, 5e-324]),
)
# One entry form per document, or a mix of bare numbers and pairs.
pairs = st.lists(numbers, min_size=2, max_size=2)
forms = st.sampled_from(["bare", "pairs", "mixed"])


def entries(form):
    return {"bare": numbers, "pairs": pairs, "mixed": st.one_of(numbers, pairs)}[form]


@st.composite
def matrix_docs(draw):
    form = draw(forms)
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [[draw(entries(form)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def vector_docs(draw):
    return draw(st.lists(entries(draw(forms)), min_size=1, max_size=6))


def walked(decode, obj, field):
    """Decode with the array conversion switched off: the per-entry walk."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(serialize, "_array_from_json", lambda *args: None)
        return outcome(decode, obj, field)


def outcome(decode, obj, field):
    try:
        arr = decode(obj, field)
    except ShapeError as exc:
        return "error", str(exc)
    return arr.shape, arr.dtype, arr.view(np.float64).view(np.uint64).tobytes()


class TestArrayPathMatchesEntryWalk:
    @given(doc=matrix_docs())
    @settings(max_examples=300, deadline=None)
    def test_matrices(self, doc):
        assert outcome(matrix_from_json, doc, "m") == walked(matrix_from_json, doc, "m")

    @given(doc=vector_docs())
    @settings(max_examples=300, deadline=None)
    def test_vectors(self, doc):
        assert outcome(vector_from_json, doc, "v") == walked(vector_from_json, doc, "v")

    def test_mixed_int_bool_float_entries(self):
        doc = [[True, 2, 0.5], [False, -3, -0.0]]
        assert outcome(matrix_from_json, doc, "m") == walked(matrix_from_json, doc, "m")
        assert np.array_equal(
            matrix_from_json(doc, "m"), np.array([[1, 2, 0.5], [0, -3, 0]], dtype=complex)
        )


class TestSignedZeros:
    def test_round_trip_keeps_every_zero_sign(self):
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        mat = np.array([zeros, zeros[::-1]], dtype=np.complex128)
        text = json.dumps(matrix_to_json(mat))
        back = matrix_from_json(json.loads(text), "m")
        assert back.view(np.uint64).tobytes() == mat.view(np.uint64).tobytes()
        vec = np.array(zeros, dtype=np.complex128)
        back = vector_from_json(json.loads(json.dumps(vector_to_json(vec))), "v")
        assert back.view(np.uint64).tobytes() == vec.view(np.uint64).tobytes()

    def test_pairs_are_not_summed(self):
        # re + 1j*im would turn the imaginary -0.0 into +0.0
        (z,) = vector_from_json([[1.5, -0.0]], "v")
        assert math.copysign(1.0, z.imag) == -1.0


class TestLargeIntegers:
    def test_beyond_int64_decode_like_complex(self):
        for big in (2**63, 2**63 + 12345, 2**64 + 1, -(2**63) - 1, 2**70):
            mat = matrix_from_json([[big, 0], [[big, -big], 1]], "m")
            assert mat[0, 0] == complex(big) and mat[1, 0] == complex(big, -big)
            assert vector_from_json([big], "v")[0] == complex(big)

    def test_beyond_float_range_is_not_finite(self):
        with pytest.raises(ShapeError, match=r"^m\[0\]: entries must be finite$"):
            matrix_from_json([[10**400, 0]], "m")
        with pytest.raises(ShapeError, match=r"^v: entries must be finite$"):
            vector_from_json([1, [0, -(10**400)]], "v")


def tuple_doc(matrix, dim=2):
    return {"d": 1, "dim": dim, "matrices": [matrix]}


# Malformed tuple documents, each with the exact diagnostic it draws.
MALFORMED = {
    "string entry": (tuple_doc([["a", 0], [0, 0]]),
                     "matrices[0][0]: entries must be numbers or [re, im] pairs"),
    "string in pair": (tuple_doc([[[0, "x"], 0], [0, 0]]),
                       "matrices[0][0]: entries must be numbers or [re, im] pairs"),
    "None entry": (tuple_doc([[0, None], [0, 0]]),
                   "matrices[0][0]: entries must be numbers or [re, im] pairs"),
    "ragged row": (tuple_doc([[0, 0], [0]]), "matrices[0][1]: ragged row (got 1, want 2)"),
    "entry too deep": (tuple_doc([[[[0, 0]], [0, 0]], [[0, 0], [0, 0]]]),
                       "matrices[0][0]: entries must be numbers or [re, im] pairs"),
    "row not a list": (tuple_doc([0, 0]), "matrices[0][0]: expected a list of entries"),
    "triple entry": (tuple_doc([[[0, 0, 0], 0], [0, 0]]),
                     "matrices[0][0]: entries must be numbers or [re, im] pairs"),
    "NaN": (tuple_doc([[math.nan, 0], [0, 0]]), "matrices[0]: entries must be finite"),
    "Infinity": (tuple_doc([[[0, math.inf], 0], [0, 0]]),
                 "matrices[0]: entries must be finite"),
    "int beyond float range": (tuple_doc([[10**400, 0], [0, 0]]),
                               "matrices[0][0]: entries must be finite"),
    "shape differs from dim": (tuple_doc([[0, 0], [0, 0]], dim=3),
                               "matrices[0]: shape (2, 2) does not match dim 3"),
    "empty rows": (tuple_doc([[], []]), "matrices[0]: shape (2, 0) does not match dim 2"),
    "no rows": (tuple_doc([]), "matrices[0]: expected a non-empty list of rows"),
}


class TestDiagnostics:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_tuple(self, name):
        doc, message = MALFORMED[name]
        with pytest.raises(ShapeError) as info:
            tuple_from_json(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_command_line_reports_one_line(self, name, tmp_path, capsys):
        doc, message = MALFORMED[name]
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(doc))
        code = main(["ann", "--input", str(path)])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == ""
        assert out.err == f"error: {message}\n"

    def test_all_bool_matrix_accepted(self):
        t = tuple_from_json(tuple_doc([[False, False], [True, False]]))
        assert np.array_equal(t.mats[0], np.array([[0, 0], [1, 0]], dtype=complex))


class TestOneConversion:
    @pytest.mark.parametrize(
        "matrix",
        [
            [[0, 0], [1, 0]],
            [[0.0, 0.0], [0.5, -0.0]],
            [[[0, 0], [0, 0]], [[1, -0.0], [0, 0]]],
            [[[0, 0], [0, 0.0]], [[0.5, 1], [0, 0]]],
        ],
    )
    def test_valid_documents_skip_the_entry_walk(self, monkeypatch, matrix):
        calls = []
        original = serialize._entry_from_json

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(serialize, "_entry_from_json", counting)
        t = tuple_from_json(json.loads(json.dumps(tuple_doc(matrix))))
        vector_from_json([[1, 0], [0.5, -2]], "v")
        assert t.dim == 2
        assert calls == []
