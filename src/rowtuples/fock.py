"""Truncated symmetric and full Fock spaces and their canonical operators.

Two finite-dimensional coordinate models are used throughout:

* ``TruncatedDA`` — polynomials of degree at most ``N`` inside the
  Drury-Arveson space ``H^2_d``, in the orthonormal basis of weighted
  monomials ``x^a / ||x^a||`` with ``||x^a||^2 = a! / |a|!``.
* ``TruncatedFock`` — the span of words of length at most ``N`` in the
  full Fock space over ``C^d``, in the orthonormal word basis.

Both use the graded orders of :mod:`rowtuples.polynomials`, so degree
truncation is always compression onto a leading block of coordinates.
Operators that raise the degree past the cap are compressed: the lost
component is simply dropped.

Positions are computed, not looked up.  A word's position is the number of
shorter words plus its base-``d`` rank, and the left creation operator is
the index map :func:`creation_targets`; :func:`creation_matrix` is its
dense form.  The multiplier norms take the dense matrix up to
``linalg._DENSE_SVD_LIMIT`` coordinates, where ``operator_norm`` runs a
full SVD anyway, and import ``scipy.sparse`` only for larger caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import _DENSE_SVD_LIMIT, DEFAULT_TOL, ToleranceConfig, as_vector, operator_norm
from .polynomials import Polynomial, graded_indices, graded_rank, graded_words, multinomial

__all__ = [
    "TruncatedDA",
    "TruncatedFock",
    "da_monomial_norm",
    "da_kernel",
    "multiplication_matrix",
    "truncated_multiplier_norm",
    "truncated_multiplier_norms",
    "creation_matrix",
    "creation_targets",
]


def _word_offset(d: int, length: int) -> int:
    """Number of words shorter than ``length``: the graded position of the first one."""
    return length if d == 1 else (d**length - 1) // (d - 1)


def _check_space_params(d: int, cap: int):
    if d < 1:
        raise ShapeError(f"need at least one variable, got d={d}")
    if cap < 0:
        raise ShapeError(f"degree cap must be nonnegative, got {cap}")


@dataclass(frozen=True)
class TruncatedDA:
    """Degree-``max_degree`` truncation of the Drury-Arveson space."""

    d: int
    max_degree: int

    def __post_init__(self):
        _check_space_params(self.d, self.max_degree)

    @property
    def dim(self) -> int:
        return math.comb(self.max_degree + self.d, self.d)

    def basis(self) -> list[tuple[int, ...]]:
        """Multi-indices in graded order."""
        return graded_indices(self.d, self.max_degree)

    def position(self, alpha: tuple[int, ...]) -> int:
        """Index of ``alpha`` in :meth:`basis`."""
        alpha = tuple(alpha)
        if len(alpha) != self.d or min(alpha) < 0 or sum(alpha) > self.max_degree:
            raise ShapeError(f"{alpha} is not a multi-index of degree at most {self.max_degree}")
        return int(graded_rank(np.array([alpha]))[0])

    def coordinates(self, p: Polynomial) -> np.ndarray:
        """Coordinates of a polynomial in the orthonormal weighted basis.

        Terms of degree beyond the cap are rejected rather than dropped.
        """
        if p.d != self.d:
            raise ShapeError(f"polynomial has d={p.d}, space has d={self.d}")
        if p.degree() > self.max_degree:
            raise ShapeError(
                f"polynomial degree {p.degree()} exceeds the cap {self.max_degree}"
            )
        vec = np.zeros(self.dim, dtype=np.complex128)
        for alpha, c in p.coeffs.items():
            vec[self.position(alpha)] = c * da_monomial_norm(alpha)
        return vec


@dataclass(frozen=True)
class TruncatedFock:
    """Words of length at most ``max_length`` in the full Fock space."""

    d: int
    max_length: int

    def __post_init__(self):
        _check_space_params(self.d, self.max_length)

    @property
    def dim(self) -> int:
        return _word_offset(self.d, self.max_length + 1)

    def basis(self) -> list[tuple[int, ...]]:
        """Words in graded order; the empty word (vacuum) comes first."""
        return graded_words(self.d, self.max_length)

    def position(self, word: tuple[int, ...]) -> int:
        """Index of ``word`` in :meth:`basis`.

        The number of shorter words plus the word's rank among those of its
        length, its letters read as base-``d`` digits.  A letter outside
        ``1..d`` or a word longer than the cap raises ``ShapeError``.
        """
        word = tuple(word)
        letters = range(1, self.d + 1)
        if len(word) > self.max_length or not all(a in letters for a in word):
            raise ShapeError(
                f"{word} is not a word over 1..{self.d} of length at most {self.max_length}"
            )
        rank = 0
        for a in word:
            rank = rank * self.d + int(a) - 1
        return _word_offset(self.d, len(word)) + rank


def da_monomial_norm(alpha: tuple[int, ...]) -> float:
    """Drury-Arveson norm of the monomial ``x^alpha``: ``sqrt(a!/|a|!)``."""
    return _da_norm(tuple(int(a) for a in alpha))


@lru_cache(maxsize=None)
def _da_norm(alpha: tuple[int, ...]) -> float:
    """:func:`da_monomial_norm`, computed once per exponent."""
    return math.sqrt(1.0 / multinomial(alpha))


def da_kernel(z, w) -> complex:
    """Reproducing kernel ``1 / (1 - <z, w>)`` on the open unit ball."""
    zv, wv = as_vector(z), as_vector(w)
    if zv.shape != wv.shape:
        raise ShapeError("kernel arguments must have the same length")
    if np.linalg.norm(zv) >= 1.0 or np.linalg.norm(wv) >= 1.0:
        raise DomainError("kernel arguments must lie in the open unit ball")
    return complex(1.0 / (1.0 - np.vdot(wv, zv)))


def multiplication_matrix(p: Polynomial, space: TruncatedDA) -> np.ndarray:
    """Compressed multiplication operator ``P_N M_p |_N`` on the truncation.

    Entry ``(beta, alpha)`` is ``c_{beta-alpha} ||x^beta|| / ||x^alpha||``;
    products of degree beyond the cap are dropped.  The entries of
    :func:`_multiplication_entries` are added into a zero array, as a CSR
    matrix's ``toarray`` adds them, so a ``-0.0`` entry reads ``+0.0``;
    each position occurs once, so nothing else is summed.
    ``truncated_multiplier_norm`` takes this form up to ``_DENSE_SVD_LIMIT``
    coordinates and the sparse one above.
    """
    rows, cols, vals = _multiplication_entries(p, space)
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    out[rows, cols] += vals
    return out


def _multiplier_operand(p: Polynomial, space: TruncatedDA):
    """The compressed multiplier in the form :func:`operator_norm` takes it best.

    Up to ``_DENSE_SVD_LIMIT`` coordinates ``operator_norm`` runs a dense
    SVD, so the matrix is written dense, with the bits a CSR ``toarray``
    gives; above it the CSR form keeps the Lanczos steps to the nonzeros.
    """
    if space.dim <= _DENSE_SVD_LIMIT:
        return multiplication_matrix(p, space)
    return _multiplication_sparse(p, space)


def _multiplication_sparse(p: Polynomial, space: TruncatedDA):
    """``multiplication_matrix`` as a ``scipy.sparse`` CSR matrix.

    Built from the same entries, laid out row-major with sorted columns, as
    a COO-to-CSR conversion gives.  The one place outside
    :func:`~rowtuples.linalg.operator_norm` that imports scipy, and only for
    a cap above ``_DENSE_SVD_LIMIT`` coordinates.
    """
    import scipy.sparse

    rows, cols, vals = _multiplication_entries(p, space)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(space.dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=space.dim), out=indptr[1:])
    return scipy.sparse.csr_matrix((vals[order], cols[order], indptr), shape=(space.dim, space.dim))


def _multiplication_entries(
    p: Polynomial, space: TruncatedDA
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value of each nonzero of ``multiplication_matrix``.

    Each term of ``p`` sends a basis monomial to a single one, so there are
    at most ``len(p.coeffs)`` nonzeros per column out of ``space.dim``, and
    no ``(row, column)`` pair occurs twice.  The entries of a term are
    formed as arrays over the basis, with the target positions from
    :func:`graded_rank`.
    """
    if p.d != space.d:
        raise ShapeError(f"polynomial has d={p.d}, space has d={space.d}")
    basis = space.basis()
    exps = np.array(basis, dtype=np.int64)
    degrees = exps.sum(axis=1)
    norms = np.array([_da_norm(alpha) for alpha in basis])
    terms = []
    for gamma, c in p.coeffs.items():
        (j,) = np.nonzero(degrees <= space.max_degree - sum(gamma))
        i = graded_rank(exps[j] + np.array(gamma, dtype=np.int64))
        terms.append((i, j, _scaled(c, norms[i], norms[j])))
    if not terms:
        none = np.zeros(0, dtype=np.int64)
        return none, none, np.zeros(0, dtype=np.complex128)
    rows, cols, vals = map(np.concatenate, zip(*terms))
    return rows, cols, vals


def _scaled(c: complex, nb: np.ndarray, na: np.ndarray) -> np.ndarray:
    """``c * nb / na`` entry by entry, rounded as Python rounds the scalar formula.

    Python multiplies ``c`` by ``complex(nb, 0.0)`` and divides by
    ``complex(na, 0.0)``; the same float operations on the parts, in the
    same order, give the same bits, the signs of underflowed zeros included.
    numpy's complex / real multiplies by a reciprocal instead.
    """
    re = c.real * nb - c.imag * 0.0
    im = c.real * 0.0 + c.imag * nb
    out = np.empty(nb.size, dtype=np.complex128)
    out.real = (re + im * 0.0) / na
    out.imag = (im - re * 0.0) / na
    return out


def truncated_multiplier_norm(
    p: Polynomial, max_degree: int, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Norm of the compressed multiplication operator at the given cap.

    Nondecreasing in the cap, with limit the multiplier norm of ``p``.  A
    cap above ``_DENSE_SVD_LIMIT`` coordinates keeps the operator sparse, so
    it costs a Lanczos solve over its nonzeros only; raises
    ``ConvergenceError`` if that solve does not converge within
    ``tol.max_iter`` iterations.
    """
    return operator_norm(_multiplier_operand(p, TruncatedDA(p.d, max_degree)), tol)


def truncated_multiplier_norms(
    p: Polynomial, max_degree: int, tol: ToleranceConfig = DEFAULT_TOL
) -> list[float]:
    """``truncated_multiplier_norm(p, n, tol)`` for every cap ``n = 1 .. max_degree``.

    The operator is assembled once, at the top cap: in the graded order the
    cap-``n`` matrix is its leading ``TruncatedDA(d, n).dim`` block, entry
    for entry, so each norm equals the one computed at its own cap.
    """
    full = _multiplier_operand(p, TruncatedDA(p.d, max_degree))
    sizes = (TruncatedDA(p.d, n).dim for n in range(1, max_degree + 1))
    return [operator_norm(full[:k, :k], tol) for k in sizes]


def creation_targets(k: int, space: TruncatedFock) -> np.ndarray:
    """Where the left creation operator ``e_w -> e_{kw}`` sends each word.

    Entry ``j`` is the position of ``(k, *w)`` for the word ``w`` at
    position ``j``.  The words below the cap fill the leading
    ``_word_offset(d, max_length)`` positions, so the result has one entry
    for each of them; the words at the cap, which the truncation sends to
    zero, come after and get none.  For ``w`` of length ``l`` the target is
    ``offset(l + 1) + (k - 1) d^l + (j - offset(l)) = j + k d^l``, with
    ``offset`` as in :meth:`TruncatedFock.position`.  ``k`` is 1-based.
    """
    if not 1 <= k <= space.d:
        raise ShapeError(f"creation index {k} out of range for d={space.d}")
    counts = space.d ** np.arange(space.max_length, dtype=np.int64)  # words of each length
    return np.arange(int(counts.sum()), dtype=np.int64) + k * np.repeat(counts, counts)


def creation_matrix(k: int, space: TruncatedFock) -> np.ndarray:
    """Left creation operator ``e_w -> e_{kw}``, compressed to the truncation.

    The dense form of :func:`creation_targets`: column ``j`` holds one 1, in
    row ``creation_targets(k, space)[j]``, and words of maximal length are
    sent to zero.  ``k`` is 1-based.
    """
    targets = creation_targets(k, space)
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    out[targets, np.arange(targets.size)] = 1.0
    return out
