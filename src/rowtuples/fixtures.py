"""Named example tuples used throughout the tests and the CLI.

Fixture names accepted by :func:`build`:

``maxcount``
    The 3x3 commuting nilpotent pair with entries ``±1/sqrt(3)`` whose
    quotient algebra has dimension 3 but which admits no separating
    vector — every candidate is defeated by an explicit degree-1 witness.

``fromgriff(N)``
    A (2N+1)-dimensional pair built from two weighted shifts between an
    N-dimensional layer and an (N+1)-dimensional layer; both ``2 T_k T_k*``
    are orthogonal projections and all products of two generators vanish.

``rectangle(n1,..,nd)``
    The model tuple of the monomial ideal ``(x1^n1, .., xd^nd)``: a pure
    commuting nilpotent tuple of dimension ``n1 * .. * nd``.

``jordan(m)``
    The one-variable special case ``rectangle(m)``: the nilpotent Jordan
    cell of size ``m``.

``model(g1;g2;..)``
    The model tuple of an arbitrary nilpotent monomial ideal; each ``gi``
    is a monomial such as ``x1^2*x2`` and the ideal must contain a pure
    power of every variable.

The monomial fixtures (``rectangle``, ``jordan`` and ``model``) are built in
closed form from their staircases (:func:`~rowtuples.ideals.staircase_model`):
each matrix holds the Drury-Arveson weights on the staircase and exact
zeros elsewhere.  :func:`model` builds the model of an arbitrary
annihilator slice numerically, through its model space.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .errors import DomainError
from .ideals import AnnihilatorBasis, _staircase, model_space, model_tuple, staircase_model
from .polynomials import parse_polynomial
from .tuples import RowTuple

__all__ = ["build", "maxcount", "fromgriff", "rectangle", "jordan", "model",
           "fixture_catalog"]


def maxcount() -> RowTuple:
    """The 3x3 pair with no separating vector."""
    s = 1.0 / math.sqrt(3.0)
    t1 = np.array(
        [[0, 0, 0], [s, 0, -s], [0, 0, 0]], dtype=np.complex128
    )
    t2 = np.array(
        [[0, 0, 0], [0, 0, s], [0, 0, 0]], dtype=np.complex128
    )
    return RowTuple([t1, t2])


def fromgriff(layers: int) -> RowTuple:
    """Two-layer weighted-shift pair on dimension ``2*layers + 1``.

    The basis is ``xi_1 .. xi_N`` followed by ``eta_1 .. eta_{N+1}``, with
    ``T_1 xi_n = eta_{n+1}/sqrt(2)`` and ``T_2 xi_n = eta_n/sqrt(2)``; the
    trailing layer absorbs the image of the last ``xi``.
    """
    if layers < 1:
        raise DomainError(f"fromgriff needs at least one layer, got {layers}")
    n = layers
    dim = 2 * n + 1
    s = 1.0 / math.sqrt(2.0)
    t1 = np.zeros((dim, dim), dtype=np.complex128)
    t2 = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(1, n + 1):  # xi_i sits at column i-1; eta_j at row n+j-1
        t1[n + i, i - 1] = s  # eta_{i+1}
        t2[n + i - 1, i - 1] = s  # eta_i
    return RowTuple([t1, t2])


def rectangle(*sides: int) -> RowTuple:
    """Model tuple of ``(x1^n1, .., xd^nd)``; dimension is the product."""
    if not sides:
        raise DomainError("rectangle needs at least one side length")
    if any(s < 1 for s in sides):
        raise DomainError(f"side lengths must be positive, got {sides}")
    return staircase_model(len(sides), itertools.product(*(range(s) for s in sides)))


def jordan(size: int) -> RowTuple:
    """Nilpotent Jordan cell of the given size (``rectangle(size)``)."""
    if size < 1:
        raise DomainError(f"jordan needs a positive size, got {size}")
    return rectangle(size)


def model(ann: AnnihilatorBasis) -> RowTuple:
    """Model tuple of a nilpotent ideal given by its annihilator slice."""
    return model_tuple(model_space(ann))


_FIXTURE_SPECS = {
    "maxcount": "maxcount — 3x3 pair with entries ±1/sqrt(3); no separating vector",
    "fromgriff": "fromgriff(N) — two-layer shifts, dimension 2N+1",
    "rectangle": "rectangle(n1,..,nd) — model of (x1^n1,..,xd^nd)",
    "jordan": "jordan(m) — one-variable nilpotent Jordan cell",
    "model": "model(g1;g2;..) — model of a nilpotent monomial ideal",
}


def fixture_catalog() -> dict[str, str]:
    """Names and one-line descriptions for the CLI listing."""
    return dict(_FIXTURE_SPECS)


_NAME_RE = re.compile(r"^\s*([a-z]+)\s*(?:\(([^)]*)\))?\s*$")


def build(name: str) -> RowTuple:
    """Construct a fixture from its textual name, e.g. ``rectangle(2,3)``."""
    m = _NAME_RE.match(name)
    if not m:
        raise DomainError(f"cannot parse fixture name {name!r}")
    kind, args = m.group(1), m.group(2)

    if kind == "maxcount":
        if args:
            raise DomainError("maxcount takes no parameters")
        return maxcount()
    if kind == "fromgriff":
        return fromgriff(_single_int(kind, args))
    if kind == "jordan":
        return jordan(_single_int(kind, args))
    if kind == "rectangle":
        if not args:
            raise DomainError("rectangle needs side lengths, e.g. rectangle(2,2)")
        try:
            sides = [int(part) for part in args.split(",")]
        except ValueError as exc:
            raise DomainError(f"bad rectangle sides {args!r}") from exc
        return rectangle(*sides)
    if kind == "model":
        if not args:
            raise DomainError("model needs monomial generators, e.g. model(x1^2;x2)")
        texts = [part for part in args.split(";") if part.strip()]
        polys = [parse_polynomial(text) for text in texts]
        d = max(p.d for p in polys)
        gens = []
        for p, text in zip(polys, texts):
            terms = list(parse_polynomial(text, d=d).coeffs.items())
            if len(terms) != 1 or terms[0][1] != 1:
                raise DomainError(f"model generators must be plain monomials, got {text!r}")
            gens.append(terms[0][0])
        return staircase_model(d, _staircase(d, gens))
    raise DomainError(f"unknown fixture {kind!r}; known: {', '.join(_FIXTURE_SPECS)}")


def _single_int(kind: str, args: str | None) -> int:
    if not args:
        raise DomainError(f"{kind} needs one integer parameter")
    try:
        return int(args)
    except ValueError as exc:
        raise DomainError(f"bad parameter for {kind}: {args!r}") from exc
