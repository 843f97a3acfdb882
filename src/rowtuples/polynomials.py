"""Multivariate polynomials over the complex numbers, in multi-index form.

A polynomial in variables ``x1 .. xd`` is stored as a mapping from exponent
tuples (length ``d``) to complex coefficients; exact-zero coefficients are
never stored.  Basis enumeration is graded: multi-indices are ordered by
total degree, then lexicographically with ``x1`` ranked highest, so that
degree truncation always corresponds to a leading block of the basis.
"""

from __future__ import annotations

import functools
import math
import re
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .errors import PolynomialParseError, ShapeError

__all__ = [
    "graded_indices",
    "graded_positions",
    "graded_rank",
    "indices_of_degree",
    "multinomial",
    "Polynomial",
    "parse_polynomial",
    "format_polynomial",
    "format_columns",
]


def indices_of_degree(d: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Multi-indices of the given total degree, ``x1``-major."""
    if d == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in indices_of_degree(d - 1, degree - first):
            yield (first, *rest)


def graded_indices(d: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with total degree at most ``max_degree``, graded order."""
    return list(_graded(d, max_degree))


@functools.lru_cache(maxsize=None)
def _graded(d: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """:func:`graded_indices`, enumerated once per ``(d, max_degree)``."""
    return tuple(alpha for k in range(max_degree + 1) for alpha in indices_of_degree(d, k))


@functools.lru_cache(maxsize=None)
def graded_positions(d: int, max_degree: int) -> Mapping[tuple[int, ...], int]:
    """Position of each multi-index in ``graded_indices(d, max_degree)``, read-only."""
    return MappingProxyType({alpha: i for i, alpha in enumerate(_graded(d, max_degree))})


def graded_rank(exps: np.ndarray) -> np.ndarray:
    """Positions of the rows of ``exps`` in the order of :func:`graded_indices`.

    ``exps`` is an integer array of shape ``(n, d)``, one multi-index per
    row.  The ``C(k + d - 1, d)`` monomials of degree below ``k`` come
    first.  Within a degree the order is ``x1``-major with the first
    exponent descending, so ``a_1`` is preceded by the
    ``C(k - a_1 + d - 2, d - 1)`` monomials with a larger first exponent,
    and the rest of the row ranks the same way in ``d - 1`` variables.
    """
    exps = np.asarray(exps, dtype=np.int64)
    d = exps.shape[1]
    left = exps.sum(axis=1)
    top = int(left.max(initial=0)) + d
    binom = np.array([[math.comb(n, r) for r in range(d + 1)] for n in range(top)], dtype=np.int64)
    rank = binom[left + d - 1, d]
    for k in range(d - 1):
        left = left - exps[:, k]
        rank += binom[left + d - k - 2, d - k - 1]
    return rank


def multinomial(alpha: tuple[int, ...]) -> int:
    """``|alpha|! / alpha!``: the number of words with letter counts ``alpha``."""
    out = math.factorial(sum(alpha))
    for a in alpha:
        out //= math.factorial(a)
    return out


class Polynomial:
    """Immutable complex polynomial keyed by exponent tuples."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: Mapping[tuple[int, ...], complex] | None = None):
        if d < 1:
            raise ShapeError(f"need at least one variable, got d={d}")
        self.d = d
        clean: dict[tuple[int, ...], complex] = {}
        for alpha, c in (coeffs or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != d or any(a < 0 for a in alpha):
                raise ShapeError(f"bad exponent tuple {alpha} for d={d}")
            c = complex(c)
            if c != 0:
                clean[alpha] = clean.get(alpha, 0) + c
                if clean[alpha] == 0:
                    del clean[alpha]
        self.coeffs = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "Polynomial":
        return cls(d, {})

    @classmethod
    def constant(cls, d: int, value: complex) -> "Polynomial":
        return cls(d, {(0,) * d: value})

    @classmethod
    def monomial(cls, d: int, alpha: tuple[int, ...], coeff: complex = 1.0) -> "Polynomial":
        return cls(d, {tuple(alpha): coeff})

    @classmethod
    def variable(cls, d: int, k: int) -> "Polynomial":
        """The variable ``xk`` (1-based)."""
        if not 1 <= k <= d:
            raise ShapeError(f"variable index {k} out of range for d={d}")
        alpha = [0] * d
        alpha[k - 1] = 1
        return cls(d, {tuple(alpha): 1.0})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(a) for a in self.coeffs), default=-1)

    def terms(self) -> list[tuple[tuple[int, ...], complex]]:
        """Terms in graded order."""
        return sorted(
            self.coeffs.items(), key=lambda item: (sum(item[0]), tuple(-a for a in item[0]))
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.d == other.d
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.d, frozenset(self.coeffs.items())))

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.d != other.d:
            raise ShapeError(f"variable count mismatch: {self.d} vs {other.d}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial.constant(self.d, other)
        self._check_compatible(other)
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, 0) + c
        return Polynomial(self.d, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.d, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial.constant(self.d, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Polynomial(self.d, {a: c * other for a, c in self.coeffs.items()})
        self._check_compatible(other)
        out: dict[tuple[int, ...], complex] = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0) + ca * cb
        return Polynomial(self.d, out)

    __rmul__ = __mul__

    # -- operations ------------------------------------------------------

    def evaluate(self, point) -> complex:
        """Value at a point of ``C^d``."""
        z = np.asarray(point, dtype=np.complex128)
        if z.shape != (self.d,):
            raise ShapeError(f"expected a point with {self.d} coordinates")
        total = 0j
        for alpha, c in self.coeffs.items():
            term = c
            for zi, a in zip(z, alpha):
                if a:
                    term *= zi**a
            total += term
        return complex(total)

    def coefficient_vector(self, indices: list[tuple[int, ...]]) -> np.ndarray:
        """Coefficients read off along the given multi-index list."""
        missing = set(self.coeffs) - set(indices)
        if missing:
            raise ShapeError(f"polynomial has terms outside the index list: {sorted(missing)}")
        return np.array([self.coeffs.get(a, 0j) for a in indices], dtype=np.complex128)

    @classmethod
    def from_coefficient_vector(
        cls, d: int, indices: list[tuple[int, ...]], vec
    ) -> "Polynomial":
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (len(indices),):
            raise ShapeError("coefficient vector length does not match index list")
        return cls(d, dict(zip(indices, vec)))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial(d={self.d}, {format_polynomial(self)!r})"


# -- text format ---------------------------------------------------------
#
# A polynomial is a signed sum of terms.  Each term is a '*'-separated
# product of factors, where a factor is a real number (`2`, `1.5e-3`), an
# imaginary number (`2i`, `i`), a parenthesized complex number (`(1+2i)`),
# or a power of a variable (`x1`, `x2^3`).  Example:
#
#     (1+2i)*x1^2*x2 - 3*x2^2 + 0.5i

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<var>x(?P<vidx>\d+))
      | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?P<imag>i)?)
      | (?P<bare_i>i)
      | (?P<op>[()+\-*^])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, str]]:
    """Tokens as ``(kind, value, source text)`` triples."""
    tokens: list[tuple[str, str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise PolynomialParseError(f"unexpected character at position {pos}: {text[pos:]!r}")
        pos = m.end()
        source = m.group(0).lstrip()
        if m.group("var"):
            tokens.append(("var", m.group("vidx"), source))
        elif m.group("num"):
            kind = "inum" if m.group("imag") else "num"
            value = m.group("num")[:-1] if m.group("imag") else m.group("num")
            tokens.append((kind, value, source))
        elif m.group("bare_i"):
            tokens.append(("inum", "1", source))
        else:
            tokens.append((m.group("op"), m.group("op"), source))
    return tokens


def _overflowed(poly: Polynomial) -> tuple[int, ...] | None:
    """The first exponent whose coefficient is not finite, if any."""
    for alpha, c in poly.coeffs.items():
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            return alpha
    return None


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, str]], d: int):
        self.tokens = tokens
        self.pos = 0
        self.d = d

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None) -> tuple[str, str, str]:
        if self.pos >= len(self.tokens):
            raise PolynomialParseError("unexpected end of input")
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolynomialParseError(f"expected {kind!r}, got {tok[2]!r}")
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        poly = self.parse_term(self.parse_sign())
        while self.peek() in ("+", "-"):
            sign = -1.0 if self.take()[0] == "-" else 1.0
            poly = poly + self.parse_term(sign)
        if self.pos != len(self.tokens):
            raise PolynomialParseError(f"trailing input: {self.tokens[self.pos][2]!r}")
        alpha = _overflowed(poly)
        if alpha is not None:  # finite terms can add up to inf
            name = _monomial_text(alpha) or "the constant term"
            raise PolynomialParseError(f"coefficient of {name} overflows a float")
        return poly

    def parse_sign(self) -> float:
        sign = 1.0
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        return sign

    def parse_term(self, sign: float) -> Polynomial:
        start = self.pos
        poly = Polynomial.constant(self.d, sign)
        poly = poly * self.parse_factor()
        while self.peek() == "*":
            self.take()
            poly = poly * self.parse_factor()
        # finite literals can multiply out to inf, or to nan through inf * 0
        if _overflowed(poly) is not None:
            source = "".join(tok[2] for tok in self.tokens[start:self.pos])
            raise PolynomialParseError(f"coefficient of term {source!r} overflows a float")
        return poly

    def parse_factor(self) -> Polynomial:
        kind = self.peek()
        if kind is None:
            raise PolynomialParseError("unexpected end of input")
        if kind in ("num", "inum"):
            return Polynomial.constant(self.d, self.parse_number())
        if kind == "var":
            idx = int(self.take()[1])
            if not 1 <= idx <= self.d:
                raise PolynomialParseError(f"variable x{idx} out of range for d={self.d}")
            exponent = 1
            if self.peek() == "^":
                self.take()
                exponent = self.parse_exponent()
            alpha = [0] * self.d
            alpha[idx - 1] = exponent
            return Polynomial.monomial(self.d, tuple(alpha))
        if kind == "(":
            self.take()
            value = self.parse_complex_literal()
            self.take(")")
            return Polynomial.constant(self.d, value)
        raise PolynomialParseError(f"unexpected token {self.tokens[self.pos][2]!r}")

    def parse_exponent(self) -> int:
        text = self.take("num")[1]
        if not text.isdecimal():
            raise PolynomialParseError(f"exponent must be a digit string, got {text!r}")
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            raise PolynomialParseError(f"exponent has too many digits ({len(text)})") from None

    def parse_complex_literal(self) -> complex:
        sign = self.parse_sign()
        value = self.parse_number() * sign
        while self.peek() in ("+", "-"):
            sign = -1.0 if self.take()[0] == "-" else 1.0
            value += sign * self.parse_number()
        return value

    def parse_number(self) -> complex:
        kind, value, source = self.take()
        if kind not in ("num", "inum"):
            raise PolynomialParseError(f"expected a number, got {source!r}")
        x = float(value)
        if not math.isfinite(x):
            raise PolynomialParseError(f"number {source!r} overflows a float")
        return complex(x) if kind == "num" else complex(0, x)


def parse_polynomial(text: str, d: int | None = None) -> Polynomial:
    """Parse the textual polynomial format.

    When ``d`` is omitted, the variable count is the largest index that
    appears (at least 1).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial")
    if d is None:
        d = max(1, max((int(t[1]) for t in tokens if t[0] == "var"), default=1))
    return _Parser(tokens, d).parse()


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _format_coeff(c: complex) -> str:
    """Coefficient text: real, pure-imaginary, or parenthesized complex."""
    if c.imag == 0:
        return _format_real(c.real)
    if c.real == 0:
        return ("i" if c.imag == 1 else "-i" if c.imag == -1 else _format_real(c.imag) + "i")
    real = _format_real(c.real)
    imag = "i" if c.imag == 1 else "-i" if c.imag == -1 else _format_real(c.imag) + "i"
    joiner = "" if imag.startswith("-") else "+"
    return f"({real}{joiner}{imag})"


def _monomial_text(alpha: tuple[int, ...]) -> str:
    return "*".join(
        f"x{i + 1}" + (f"^{a}" if a > 1 else "") for i, a in enumerate(alpha) if a > 0
    )


def _format_terms(terms) -> str:
    """Join ``(monomial text, nonzero coefficient)`` pairs; ``0`` when there are none."""
    pieces: list[str] = []
    for mono, c in terms:
        # pull a leading minus out of real or pure-imaginary coefficients
        sign = ""
        if c.imag == 0 and c.real < 0 or c.real == 0 and c.imag < 0:
            sign, c = "-", -c
        coeff = _format_coeff(c)
        if mono:
            body = mono if coeff == "1" else f"{coeff}*{mono}"
        else:
            body = coeff
        if not pieces:
            pieces.append(f"{sign}{body}")
        else:
            pieces.append(f"- {body}" if sign else f"+ {body}")
    return " ".join(pieces) if pieces else "0"


def format_polynomial(p: Polynomial) -> str:
    """Render in the textual format; graded term order; ``0`` for zero."""
    return _format_terms((_monomial_text(alpha), c) for alpha, c in p.terms())


def format_columns(monomials: list[tuple[int, ...]], coefficients) -> list[str]:
    """Render each column of a coefficient matrix as :func:`format_polynomial` would.

    Row ``i`` of ``coefficients`` is the coefficient of ``monomials[i]``.
    The monomials must be in graded order, which is then the term order,
    so no :class:`Polynomial` is built and nothing is sorted.
    """
    mat = np.asarray(coefficients, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != len(monomials):
        raise ShapeError("coefficient matrix rows do not match the monomial list")
    texts = [_monomial_text(alpha) for alpha in monomials]
    out = []
    for col in mat.T:
        rows = np.flatnonzero(col)
        out.append(_format_terms(zip([texts[i] for i in rows.tolist()], col[rows].tolist())))
    return out
