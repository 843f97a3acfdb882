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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from .errors import DomainError, ShapeError
from .linalg import DEFAULT_TOL, ToleranceConfig, as_vector, operator_norm
from .polynomials import (
    Polynomial,
    abelianize,
    graded_indices,
    graded_words,
    multinomial,
)

__all__ = [
    "TruncatedDA",
    "TruncatedFock",
    "da_monomial_norm",
    "da_kernel",
    "multiplication_matrix",
    "truncated_multiplier_norm",
    "truncated_multiplier_norms",
    "creation_matrix",
    "symmetrization_map",
    "gleason_decompose",
]


@lru_cache(maxsize=None)
def _index_positions(d: int, max_degree: int) -> dict[tuple[int, ...], int]:
    return {alpha: i for i, alpha in enumerate(graded_indices(d, max_degree))}


@lru_cache(maxsize=None)
def _word_positions(d: int, max_length: int) -> dict[tuple[int, ...], int]:
    return {w: i for i, w in enumerate(graded_words(d, max_length))}


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
        return _index_positions(self.d, self.max_degree)[tuple(alpha)]

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
        if self.d == 1:
            return self.max_length + 1
        return (self.d ** (self.max_length + 1) - 1) // (self.d - 1)

    def basis(self) -> list[tuple[int, ...]]:
        """Words in graded order; the empty word (vacuum) comes first."""
        return graded_words(self.d, self.max_length)

    def position(self, word: tuple[int, ...]) -> int:
        return _word_positions(self.d, self.max_length)[tuple(word)]


def da_monomial_norm(alpha: tuple[int, ...]) -> float:
    """Drury-Arveson norm of the monomial ``x^alpha``: ``sqrt(a!/|a|!)``."""
    return math.sqrt(1.0 / multinomial(tuple(int(a) for a in alpha)))


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
    products of degree beyond the cap are dropped.  Assembled sparse and
    returned dense; ``truncated_multiplier_norm`` keeps the sparse form.
    """
    return _multiplication_sparse(p, space).toarray()


def _multiplication_sparse(p: Polynomial, space: TruncatedDA) -> scipy.sparse.csr_matrix:
    """``multiplication_matrix`` in CSR form.

    Each term of ``p`` sends a basis monomial to a single one, so there are
    at most ``len(p.coeffs)`` nonzeros per column out of ``space.dim``.
    """
    if p.d != space.d:
        raise ShapeError(f"polynomial has d={p.d}, space has d={space.d}")
    basis = space.basis()
    rows, cols, vals = [], [], []
    for gamma, c in p.coeffs.items():
        step = sum(gamma)
        for j, alpha in enumerate(basis):
            if sum(alpha) + step > space.max_degree:
                continue
            beta = tuple(a + g for a, g in zip(alpha, gamma))
            rows.append(space.position(beta))
            cols.append(j)
            vals.append(c * da_monomial_norm(beta) / da_monomial_norm(alpha))
    return scipy.sparse.csr_matrix(
        (np.asarray(vals, dtype=np.complex128), (rows, cols)),
        shape=(space.dim, space.dim),
    )


def truncated_multiplier_norm(
    p: Polynomial, max_degree: int, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Norm of the compressed multiplication operator at the given cap.

    Nondecreasing in the cap, with limit the multiplier norm of ``p``.  The
    operator is kept sparse, so large caps cost a Lanczos solve over its
    nonzeros only; raises ``ConvergenceError`` if that solve does not
    converge within ``tol.max_iter`` iterations.
    """
    return operator_norm(_multiplication_sparse(p, TruncatedDA(p.d, max_degree)), tol)


def truncated_multiplier_norms(
    p: Polynomial, max_degree: int, tol: ToleranceConfig = DEFAULT_TOL
) -> list[float]:
    """``truncated_multiplier_norm(p, n, tol)`` for every cap ``n = 1 .. max_degree``.

    The operator is assembled once, at the top cap: in the graded order the
    cap-``n`` matrix is its leading ``TruncatedDA(d, n).dim`` block, entry
    for entry, so each norm equals the one computed at its own cap.
    """
    full = _multiplication_sparse(p, TruncatedDA(p.d, max_degree))
    sizes = (TruncatedDA(p.d, n).dim for n in range(1, max_degree + 1))
    return [operator_norm(full[:k, :k], tol) for k in sizes]


def creation_matrix(k: int, space: TruncatedFock) -> np.ndarray:
    """Left creation operator ``e_w -> e_{kw}``, compressed to the truncation.

    Words of maximal length are sent to zero.  ``k`` is 1-based.
    """
    if not 1 <= k <= space.d:
        raise ShapeError(f"creation index {k} out of range for d={space.d}")
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for j, word in enumerate(space.basis()):
        if len(word) < space.max_length:
            out[space.position((k, *word)), j] = 1.0
    return out


def symmetrization_map(space: TruncatedFock) -> np.ndarray:
    """Isometry from the degree-matched Drury-Arveson truncation into Fock space.

    The normalized monomial of ``alpha`` is sent to the normalized average
    of the words abelianizing to ``alpha``.  Columns follow the graded
    multi-index order; the result has orthonormal columns.
    """
    da = TruncatedDA(space.d, space.max_length)
    out = np.zeros((space.dim, da.dim), dtype=np.complex128)
    for j, alpha in enumerate(da.basis()):
        weight = 1.0 / math.sqrt(multinomial(alpha))
        for i, word in enumerate(space.basis()):
            if abelianize(word, space.d) == alpha:
                out[i, j] = weight
    return out


def gleason_decompose(
    p: Polynomial, w, order: int
) -> tuple[Polynomial, dict[tuple[int, ...], Polynomial]]:
    """Split ``p`` into its Taylor part at ``w`` plus degree-``order`` multiples.

    Returns ``(taylor, remainders)`` with

        p = taylor + sum_{|a| = order} (x - w)^a * remainders[a],

    where ``taylor`` is the Taylor expansion of ``p`` at ``w`` of degree
    below ``order``.  The split is made canonical by dividing each shifted
    monomial by the variables in index order: ``(x1 - w1)`` is exhausted
    first, then ``(x2 - w2)``, and so on.  The remainder dict carries every
    multi-index of total degree ``order``, including zero remainders.
    """
    if order < 0:
        raise ShapeError(f"order must be nonnegative, got {order}")
    w = as_vector(w)
    if w.shape != (p.d,):
        raise ShapeError(f"expected a center with {p.d} coordinates")

    shifted = p.shift(w)  # q(y) = p(y + w)
    low: dict[tuple[int, ...], complex] = {}
    rem_shifted: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {
        alpha: {} for alpha in graded_indices(p.d, order) if sum(alpha) == order
    }
    for beta, c in shifted.coeffs.items():
        if sum(beta) < order:
            low[beta] = c
            continue
        budget = order
        alpha = []
        for b in beta:
            take = min(b, budget)
            alpha.append(take)
            budget -= take
        alpha = tuple(alpha)
        residue = tuple(b - a for b, a in zip(beta, alpha))
        bucket = rem_shifted[alpha]
        bucket[residue] = bucket.get(residue, 0) + c

    back = -w
    taylor = Polynomial(p.d, low).shift(back)
    remainders = {
        alpha: Polynomial(p.d, bucket).shift(back)
        for alpha, bucket in rem_shifted.items()
    }
    return taylor, remainders
