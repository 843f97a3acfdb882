"""JSON encoding and decoding for tuples, vectors, and matrices.

The on-disk tuple format is a JSON document

    {"d": 2, "dim": 3, "matrices": [[[re, im], ...], ...]}

with every matrix entry written as a two-element ``[re, im]`` pair.
Decoding is lenient — bare numbers are accepted as real entries — but
every failure carries a one-line diagnostic naming the offending field.

Both directions make one array conversion per matrix or vector.  When
numpy reads a document as an integer or float array of the expected
depth (bare numbers, or a last axis of ``[re, im]`` pairs), that array
is the result.  Anything else (booleans alone, bare numbers mixed with
pairs, strings, ``None``, ragged rows, wrong nesting, integers beyond
numpy's integer types) goes through a walk over the entries, which
decides whether the document is accepted and which diagnostic it draws.

Input files are parsed strict-first.  orjson, a C parser imported on the
first document read, reads plain RFC 8259 JSON nested at most
``_STRICT_DEPTH`` levels deep.  The stdlib decoder reads everything else:
the lenient extensions (``NaN``, ``Infinity``, numbers beyond the float
range, a byte order mark, UTF-16 or UTF-32, lone surrogates), deeper
documents, and malformed ones, whose diagnostic is the stdlib's.  The one
value that differs is an integer literal outside the 64-bit range, which
orjson returns as the nearest float.

Reports are written from arrays.  ``pairs_text`` returns exactly the text
``json.dumps`` gives for ``matrix_to_json(arr)``, but encodes each
distinct entry once instead of listing every pair, which pays off on the
model matrices, almost all exact zeros.
``collector_paused`` holds off the cyclic garbage collector while a caller
parses a document or writes a report: both build thousands of acyclic
lists, and without the pause they set off full collections that re-walk
every long-lived object.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json

import numpy as np

from .errors import ShapeError
from .tuples import RowTuple

__all__ = [
    "collector_paused",
    "digest",
    "load_document",
    "matrix_from_json",
    "matrix_to_json",
    "pairs_text",
    "tuple_from_json",
    "tuple_to_json",
    "vector_from_json",
    "vector_to_json",
]


def _entry_from_json(obj, field: str) -> complex:
    try:
        if isinstance(obj, (int, float)):
            return complex(obj)
        if (
            isinstance(obj, (list, tuple))
            and len(obj) == 2
            and all(isinstance(x, (int, float)) for x in obj)
        ):
            return complex(obj[0], obj[1])
    except OverflowError:  # an integer beyond the float range
        raise ShapeError(f"{field}: entries must be finite") from None
    raise ShapeError(f"{field}: entries must be numbers or [re, im] pairs")


def _pairs_to_json(arr: np.ndarray) -> list:
    # [re, im] pairs along a new last axis; tolist keeps signed zeros
    arr = np.asarray(arr, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def pairs_text(arr: np.ndarray) -> str:
    """``json.dumps(matrix_to_json(arr))`` for a complex array of any shape.

    The encoder writes each distinct ``(re, im)`` bit pattern once (so
    ``-0.0`` keeps its own text and a non-finite part its ``NaN`` or
    ``Infinity``), and the entries are joined from those pair texts with
    the encoder's ``", "`` separators.
    """
    arr = np.asarray(arr, dtype=np.complex128)
    flat = np.ascontiguousarray(arr).reshape(-1)
    # exact zeros, the bulk of a model matrix, skip the sort
    nonzero = flat.view(np.uint64).reshape(-1, 2).any(axis=1)
    bits, inverse = np.unique(flat[nonzero].view("V16"), return_inverse=True)
    pairs = [[0.0, 0.0]] + bits.view(np.float64).reshape(-1, 2).tolist()
    # one encoder call for all of them; no number's text holds a bracket
    texts = ["[" + t + "]" for t in json.dumps(pairs)[2:-2].split("], [")]
    index = np.zeros(flat.size, dtype=np.intp)
    index[nonzero] = inverse + 1
    nested = np.array(texts, dtype=object)[index].reshape(arr.shape).tolist()
    return nested if arr.ndim == 0 else _joined(nested, arr.ndim)


def _joined(nested: list, depth: int) -> str:
    """JSON text of ``depth`` levels of nested lists of entry texts."""
    parts = nested if depth == 1 else [_joined(x, depth - 1) for x in nested]
    return "[" + ", ".join(parts) + "]"


def _array_from_json(obj, depth: int) -> np.ndarray | None:
    """One-conversion decode of ``depth`` nested lists of entries, if it applies.

    Returns None unless numpy reads ``obj`` as an integer or float array
    of exactly ``depth`` axes (bare numbers) or ``depth + 1`` axes ending
    in a pair axis; the caller then walks the entries one by one.
    """
    try:
        arr = np.array(obj)
    except ValueError:  # ragged nesting
        return None
    if arr.dtype.kind not in "if":
        return None
    if arr.ndim == depth:
        return arr.astype(np.complex128)
    if arr.ndim == depth + 1 and arr.shape[-1] == 2:
        # viewing the pairs as complex keeps an imaginary -0.0, unlike re + 1j*im
        pairs = np.ascontiguousarray(arr, dtype=np.float64)
        return pairs.view(np.complex128).reshape(arr.shape[:-1])
    return None


def _check_finite(arr: np.ndarray, field: str) -> np.ndarray:
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ShapeError(f"{field}: entries must be finite")
    return arr


def matrix_to_json(mat: np.ndarray) -> list:
    return _pairs_to_json(mat)


def matrix_from_json(obj, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ShapeError(f"{field}: expected a non-empty list of rows")
    mat = _array_from_json(obj, 2)
    if mat is not None:
        return _check_finite(mat, field)
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ShapeError(f"{field}[{i}]: expected a list of entries")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ShapeError(f"{field}[{i}]: ragged row (got {len(row)}, want {width})")
        rows.append([_entry_from_json(z, f"{field}[{i}]") for z in row])
    return _check_finite(np.array(rows, dtype=np.complex128), field)


def vector_to_json(vec: np.ndarray) -> list:
    return _pairs_to_json(vec)


def vector_from_json(obj, field: str) -> np.ndarray:
    if isinstance(obj, dict):
        obj = obj.get("vector")
        if obj is None:
            raise ShapeError(f"{field}: document has no 'vector' field")
    if not isinstance(obj, list) or not obj:
        raise ShapeError(f"{field}: expected a non-empty list of entries")
    vec = _array_from_json(obj, 1)
    if vec is None:
        vec = np.array([_entry_from_json(z, field) for z in obj], dtype=np.complex128)
    return _check_finite(vec, field)


def tuple_to_json(t: RowTuple) -> dict:
    return {
        "d": t.d,
        "dim": t.dim,
        "matrices": [matrix_to_json(mat) for mat in t.mats],
    }


def tuple_from_json(obj) -> RowTuple:
    if not isinstance(obj, dict):
        raise ShapeError("tuple: expected a JSON object with d, dim, matrices")
    for key in ("d", "dim", "matrices"):
        if key not in obj:
            raise ShapeError(f"tuple: missing field '{key}'")
    d, dim, mats_json = obj["d"], obj["dim"], obj["matrices"]
    # bool is an int subclass, but true is not a count
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ShapeError("d: expected a positive integer")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ShapeError("dim: expected a nonnegative integer")
    if not isinstance(mats_json, list) or len(mats_json) != d:
        raise ShapeError(f"matrices: expected a list of {d} matrices")
    mats = []
    for k, mj in enumerate(mats_json):
        if dim == 0:  # tuple_to_json writes an empty matrix as []
            if mj != []:
                raise ShapeError(f"matrices[{k}]: anything but [] does not match dim 0")
            mats.append(np.zeros((0, 0), dtype=np.complex128))
            continue
        mat = matrix_from_json(mj, f"matrices[{k}]")
        if mat.shape != (dim, dim):
            raise ShapeError(
                f"matrices[{k}]: shape {mat.shape} does not match dim {dim}"
            )
        mats.append(mat)
    return RowTuple(mats)


# orjson builds nested containers by recursion on the C stack and crashes
# the process on nesting in the tens of thousands, so deeper documents go
# to the stdlib decoder, which refuses them with a RecursionError.
_STRICT_DEPTH = 64
_BRACES_TO_BRACKETS = bytes.maketrans(b"{}", b"[]")
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))


def _shallow(raw: bytes) -> bool:
    """Whether a valid JSON ``raw`` nests at most ``_STRICT_DEPTH`` deep.

    Drops the escapes that hide a quote, then the strings, then strips
    the innermost bracket pairs once per level.  On malformed input the
    answer may be wrong, but orjson rejects such input before it builds
    anything.
    """
    text = raw
    if b"\\" in text:
        text = text.replace(b"\\\\", b"").replace(b'\\"', b"")
    text = text.translate(_BRACES_TO_BRACKETS, _NOT_STRUCTURE)
    brackets = b"".join(text.split(b'"')[::2])
    for _ in range(_STRICT_DEPTH):
        brackets = brackets.replace(b"[]", b"")
    return not brackets


def _parse(raw: bytes):
    """orjson for a shallow document, the stdlib decoder for the rest.

    orjson is imported here, its one user, so a command that reads no
    document (``sweep``, ``fixtures``, ``fock``) never loads it.
    """
    import orjson

    if _shallow(raw):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    return json.loads(raw)


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    if isinstance(exc, UnicodeDecodeError):  # a BOM or null bytes named the encoding
        return f"not {exc.encoding} text ({exc.reason})"
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return str(exc)  # an integer literal with too many digits


def load_document(path: str):
    """Parse a JSON file, reporting malformed content with the path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ShapeError(f"input: cannot read {path}: {exc.strerror}") from exc
    try:
        return _parse(raw), raw
    except (ValueError, RecursionError) as exc:
        raise ShapeError(f"input: malformed JSON in {path}: {_reason(exc)}") from exc


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector over the block, then restore its state.

    Parsing a document and listing an array build thousands of acyclic
    lists, and each allocation burst sets off full collections that re-walk
    every long-lived object.  Reference counting frees such trees on its
    own; a caller that had the collector off keeps it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()
