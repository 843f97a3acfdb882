"""Decoding and encoding of tuple, matrix and vector documents.

The decoder reads a document with one array conversion where numpy takes
it as a plain integer or float array, and walks it entry by entry
otherwise.  Input files are parsed by the strict C parser first and by
the stdlib decoder when it refuses them.  The properties below pin that
both pairs of paths agree bit for bit.
"""

import json
import math

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowtuples import serialize
from rowtuples.cli import main
from rowtuples.errors import ShapeError
from rowtuples.serialize import (
    load_document,
    matrix_from_json,
    matrix_to_json,
    pairs_text,
    tuple_from_json,
    tuple_to_json,
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
    "d true": ({"d": True, "dim": 1, "matrices": [[[0.5]]]}, "d: expected a positive integer"),
    "dim true": ({"d": 1, "dim": True, "matrices": [[[0.5]]]},
                 "dim: expected a nonnegative integer"),
    "matrices at dim 0": ({"d": 2, "dim": 0, "matrices": [[[1, 2]], "junk"]},
                          "matrices[0]: anything but [] does not match dim 0"),
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

    def test_dim_zero_round_trip(self):
        doc = {"d": 2, "dim": 0, "matrices": [[], []]}
        t = tuple_from_json(doc)
        assert (t.d, t.dim) == (2, 0)
        assert tuple_to_json(t) == doc

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


def stdlib_only(load, *args):
    """Load with the strict parser switched off: the stdlib decoder alone."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(serialize, "_shallow", lambda raw: False)
        return load(*args)


def tuple_outcome(path):
    try:
        t = tuple_from_json(load_document(path)[0])
    except ShapeError as exc:
        return "error", str(exc)
    return [(m.shape, m.view(np.float64).view(np.uint64).tobytes()) for m in t.mats]


def literal_outcome(raw):
    return repr(serialize._parse(raw))


@st.composite
def tuple_texts(draw):
    mats = draw(st.lists(matrix_docs(), min_size=1, max_size=2))
    doc = {"d": len(mats), "dim": len(mats[0]), "matrices": mats}
    return json.dumps(doc, ensure_ascii=draw(st.booleans()))


encodings = st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-32"])


@st.composite
def decimal_literals(draw):
    """Decimal float literals of up to 30 digits, exponents from -320 to 308."""
    digits = draw(st.text("0123456789", min_size=1, max_size=30))
    point = draw(st.integers(1, len(digits)))
    whole, frac = digits[:point].lstrip("0") or "0", digits[point:]
    sign = draw(st.sampled_from(["", "-"]))
    exp = draw(st.integers(-320, 308))
    return f"{sign}{whole}{'.' + frac if frac else ''}e{exp}"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(st.sampled_from('[]{}"\\ a\u00e9\n')),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(st.sampled_from('[]{}"\\k')), inner, max_size=3),
    max_leaves=30,
)


def nesting(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return 1 + max(map(nesting, obj), default=0)
    return 0


class TestStrictParserMatchesStdlib:
    @given(text=tuple_texts(), encoding=encodings)
    @settings(max_examples=300, deadline=None)
    def test_tuple_documents(self, tmp_path_factory, text, encoding):
        path = tmp_path_factory.mktemp("doc") / "t.json"
        path.write_bytes(text.encode(encoding))
        assert tuple_outcome(path) == stdlib_only(tuple_outcome, path)

    @given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_float_reprs(self, xs):
        for x in xs:
            raw = repr(x).encode()
            assert literal_outcome(raw) == stdlib_only(literal_outcome, raw) == repr(x)

    @given(literals=st.lists(decimal_literals(), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_decimal_literals(self, literals):
        for lit in literals:
            raw = lit.encode()
            assert literal_outcome(raw) == stdlib_only(literal_outcome, raw)

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-be", "utf-32"])
    def test_other_encodings_read_like_utf8(self, tmp_path, encoding):
        doc = json.dumps(tuple_doc([[[0.5, -0.0], 0], [1e-300, 2]]))
        plain, other = tmp_path / "plain.json", tmp_path / "other.json"
        plain.write_bytes(doc.encode())
        other.write_bytes(doc.encode(encoding))
        assert tuple_outcome(other) == tuple_outcome(plain)

    def test_integers_beyond_64_bits_become_floats(self, tmp_path):
        # The one divergence: the strict parser reads an integer literal
        # outside the 64-bit range as the nearest float, the stdlib as an int.
        big = 2**64
        assert serialize._parse(b"18446744073709551616") == 1.8446744073709552e19
        assert isinstance(serialize._parse(b"18446744073709551616"), float)
        assert stdlib_only(serialize._parse, b"18446744073709551616") == big
        assert serialize._parse(b"18446744073709551615") == big - 1  # still an int
        # Matrix entries decode to the same complex value either way ...
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tuple_doc([[big, [-(2**63) - 1, 2**70]], [0, 0]])))
        assert tuple_outcome(path) == stdlib_only(tuple_outcome, path)
        (mat,) = tuple_from_json(load_document(path)[0]).mats
        assert mat[0, 0] == complex(big) and mat[0, 1] == complex(-(2**63) - 1, 2**70)
        # ... but a d that large draws another message.
        path.write_text(json.dumps({"d": big, "dim": 1, "matrices": [[[0]]]}))
        assert tuple_outcome(path) == ("error", "d: expected a positive integer")
        assert stdlib_only(tuple_outcome, path) == (
            "error", f"matrices: expected a list of {big} matrices"
        )


class TestNestingGuard:
    @given(value=json_values, ascii_only=st.booleans(), depth=st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_measures_nesting_outside_strings(self, value, ascii_only, depth):
        raw = json.dumps(value, ensure_ascii=ascii_only).encode()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(serialize, "_STRICT_DEPTH", depth)
            assert serialize._shallow(raw) == (nesting(value) <= depth)

    def test_deep_documents_skip_the_strict_parser(self, monkeypatch):
        seen = []
        strict = orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda raw: seen.append(raw) or strict(raw))
        for depth in (serialize._STRICT_DEPTH, serialize._STRICT_DEPTH + 1):
            raw = b"[" * depth + b"]" * depth
            assert serialize._parse(raw) == json.loads(raw)
        assert seen == [b"[" * serialize._STRICT_DEPTH + b"]" * serialize._STRICT_DEPTH]


# Parts whose text is easy to get wrong: signed zeros, subnormals, the float
# extremes, and values at which repr switches between fixed and exponent form.
EDGE_PARTS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
    1.7976931348623157e308, -1.7976931348623157e308,
    1e-05, 0.0001, -1e-05, 1e16, 1e15, 9999999999999998.0, 1e22, 0.1, -2.5,
]
parts = st.one_of(st.sampled_from(EDGE_PARTS), st.floats(allow_nan=False, allow_infinity=False))
shapes = st.one_of(
    st.sampled_from([(0, 0), (3, 0), (0, 2), (0,), (), (1, 1)]),
    st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
)


@st.composite
def report_arrays(draw):
    """Complex arrays with few distinct entries or with many, sometimes not finite."""
    shape = draw(shapes)
    size = math.prod(shape)
    pool = draw(st.lists(st.tuples(parts, parts), min_size=1, max_size=8))
    if draw(st.booleans()):  # most entries from a small pool, as in a model matrix
        pairs = [draw(st.sampled_from(pool)) for _ in range(size)]
    else:
        pairs = draw(st.lists(st.tuples(parts, parts), min_size=size, max_size=size))
    if size and draw(st.integers(0, 9)) == 0:
        pairs[draw(st.integers(0, size - 1))] = draw(
            st.sampled_from([(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
        )
    arr = np.empty(size, dtype=np.complex128)
    arr.view(np.float64)[:] = np.array(pairs, dtype=np.float64).reshape(-1)
    return arr.reshape(shape)


class TestPairsText:
    """The report writer gives exactly the text of ``json.dumps`` over the pair lists."""

    @given(arr=report_arrays())
    @settings(max_examples=400, deadline=None)
    def test_equals_dumping_the_lists(self, arr):
        assert pairs_text(arr) == json.dumps(serialize._pairs_to_json(arr))

    @pytest.mark.parametrize("shape", [(0, 0), (4, 0), (0, 3), (0,), ()])
    def test_empty_and_scalar_shapes(self, shape):
        for arr in (np.zeros(shape, dtype=complex), np.full(shape, -0.0 - 1e-05j)):
            assert pairs_text(arr) == json.dumps(serialize._pairs_to_json(arr))

    def test_signed_zeros_keep_their_text(self):
        arr = np.array([[0.0, -0.0], [complex(0.0, -0.0), complex(-0.0, -0.0)]] * 3)
        assert pairs_text(arr) == json.dumps(matrix_to_json(arr))
        assert "[-0.0, -0.0]" in pairs_text(arr)

    def test_real_input_is_written_as_pairs(self):
        arr = np.array([[1, 0], [0, 0]])
        assert pairs_text(arr) == "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]"

    def test_non_finite_parts_take_the_encoder_text(self):
        arr = np.array([[complex(math.nan, 0.0), complex(0.0, math.inf)], [-math.inf, 0]] * 2)
        assert pairs_text(arr) == json.dumps(matrix_to_json(arr))
        assert "[NaN, 0.0]" in pairs_text(arr) and "[-Infinity, 0.0]" in pairs_text(arr)
