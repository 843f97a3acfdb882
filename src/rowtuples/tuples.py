"""Commuting matrix tuples and their row-contraction analysis.

The central object is a ``RowTuple``: a d-tuple ``T = (T_1, .., T_d)`` of
square matrices acting on the same finite-dimensional space, thought of as
the row operator ``[T_1 .. T_d]``.  This module provides validation
(commutativity, contractivity, purity, nilpotency, defect) and the
polynomial functional calculus ``p -> p(T)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotCommutingError,
    NotRowContractionError,
    ShapeError,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    norm_at_most,
    numerical_rank,
    operator_norm,
    psd_below_identity,
)
from .polynomials import Polynomial, indices_of_degree

__all__ = ["RowTuple", "TupleReport", "validate", "purity", "nilpotency_index",
           "poly_eval", "word_eval"]


class RowTuple:
    """An immutable d-tuple of square matrices on a common space.

    ``dim = 0`` is permitted so that restrictions to the zero subspace
    remain representable; such degenerate tuples evaluate every polynomial
    to the (empty) zero operator.

    Since the tuple never changes, it memoizes what it derives from its
    matrices:

    * ``_monomials`` maps ``alpha`` to ``T^alpha`` (see :meth:`monomial`);
    * ``_norms`` holds ``(||T_1||, .., ||T_d||)``, computed on first use of
      :attr:`norms` or :attr:`scale` at the default tolerance;
    * ``_vanishing`` maps ``(alpha, cutoff)`` to the verdict
      ``||T^alpha|| <= cutoff`` (see :meth:`monomial_vanishes`).
    """

    __slots__ = ("d", "dim", "mats", "_monomials", "_norms", "_vanishing")

    def __init__(self, mats):
        mats = tuple(as_matrix(m, square=True) for m in mats)
        if not mats:
            raise ShapeError("a tuple needs at least one matrix")
        dim = mats[0].shape[0]
        if any(m.shape != (dim, dim) for m in mats):
            raise ShapeError("all matrices of a tuple must have the same size")
        for m in mats:
            m.setflags(write=False)
        self.d = len(mats)
        self.dim = dim
        self.mats = mats
        self._monomials: dict[tuple[int, ...], np.ndarray] = {}
        self._norms: tuple[float, ...] | None = None
        self._vanishing: dict[tuple[tuple[int, ...], float], bool] = {}

    def __repr__(self):
        return f"RowTuple(d={self.d}, dim={self.dim})"

    def adjoint(self) -> "RowTuple":
        """The tuple of Hermitian adjoints."""
        return RowTuple([m.conj().T for m in self.mats])

    def row(self) -> np.ndarray:
        """The row operator ``[T_1 .. T_d]`` as a ``dim x (d*dim)`` matrix."""
        return np.hstack(self.mats) if self.dim else np.zeros((0, 0), dtype=np.complex128)

    def row_gram(self) -> np.ndarray:
        """``sum_k T_k T_k^*``, symmetrized against roundoff."""
        g = sum(m @ m.conj().T for m in self.mats)
        return (g + g.conj().T) / 2.0

    def monomial(self, alpha) -> np.ndarray:
        """``T^alpha`` with memoization; ``T^0`` is the identity."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.d or any(a < 0 for a in alpha):
            raise ShapeError(f"bad exponent tuple {alpha} for d={self.d}")
        cached = self._monomials.get(alpha)
        if cached is not None:
            return cached
        if sum(alpha) == 0:
            out = np.eye(self.dim, dtype=np.complex128)
        else:
            k = next(i for i, a in enumerate(alpha) if a > 0)
            prev = list(alpha)
            prev[k] -= 1
            out = self.mats[k] @ self.monomial(tuple(prev))
        out.setflags(write=False)
        self._monomials[alpha] = out
        return out

    @property
    def norms(self) -> tuple[float, ...]:
        """Operator norms ``(||T_1||, .., ||T_d||)``, computed once."""
        if self._norms is None:
            self._norms = tuple(operator_norm(m) for m in self.mats)
        return self._norms

    @property
    def scale(self) -> float:
        """``max(1, max_k ||T_k||)``, the scale of absolute zero tests."""
        return max(1.0, *self.norms)

    def monomial_vanishes(self, alpha, cutoff: float) -> bool:
        """Whether ``||T^alpha|| <= cutoff``, decided once per ``(alpha, cutoff)``."""
        key = (tuple(int(a) for a in alpha), float(cutoff))
        verdict = self._vanishing.get(key)
        if verdict is None:
            verdict = self._vanishing[key] = norm_at_most(self.monomial(key[0]), cutoff)
        return verdict


@dataclass(frozen=True)
class TupleReport:
    """Outcome of :func:`validate`.

    ``pure`` and ``nilpotent`` are ``None`` when the test did not apply
    (purity needs a row contraction and may be numerically indeterminate;
    nilpotency needs commutativity and may exceed the search cap).
    """

    commuting: bool
    row_contraction: bool
    pure: bool | None
    nilpotent: int | None
    defect: int
    defect_operator: np.ndarray


def _commuting(t: RowTuple, tol: ToleranceConfig) -> bool:
    cutoff = tol.rank_rel_tol * t.scale ** 2
    for j in range(t.d):
        for k in range(j + 1, t.d):
            if not norm_at_most(t.mats[j] @ t.mats[k] - t.mats[k] @ t.mats[j], cutoff):
                return False
    return True


def validate(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> TupleReport:
    """Full basic analysis of a tuple; never raises on mathematical grounds."""
    commuting = _commuting(t, tol)
    gram = t.row_gram()
    row_contraction = psd_below_identity(gram, tol)
    defect_operator = np.eye(t.dim, dtype=np.complex128) - gram
    defect = numerical_rank(defect_operator, tol)
    pure = purity(t, tol) if row_contraction else None
    nilpotent = nilpotency_index(t, tol=tol) if commuting else None
    return TupleReport(
        commuting=commuting,
        row_contraction=row_contraction,
        pure=pure,
        nilpotent=nilpotent,
        defect=defect,
        defect_operator=defect_operator,
    )


def purity(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> bool | None:
    """Whether ``Phi^n(I) -> 0`` for ``Phi(X) = sum_k T_k X T_k^*``.

    For a row contraction the iterates are a nonincreasing chain of PSD
    matrices, so the stopping rules are sound: norm below ``iter_tol``
    means pure; stagnation at a clearly nonzero level means not pure.
    ``None`` signals that the budget ran out before either rule fired.
    """
    if not psd_below_identity(t.row_gram(), tol):
        raise NotRowContractionError("purity is defined for row contractions only")
    x = np.eye(t.dim, dtype=np.complex128)
    norm = operator_norm(x)
    for _ in range(tol.max_iter):
        if norm < tol.iter_tol:
            return True
        nxt = sum(m @ x @ m.conj().T for m in t.mats)
        nxt = (nxt + nxt.conj().T) / 2.0
        step = operator_norm(nxt - x)
        x = nxt
        norm = operator_norm(x)
        if step <= 1e-14 * max(1.0, norm):
            return True if norm < tol.iter_tol else (False if norm >= 1e-6 else None)
    return True if norm < tol.iter_tol else None


def nilpotency_index(
    t: RowTuple, cap: int | None = None, tol: ToleranceConfig = DEFAULT_TOL
) -> int | None:
    """Least ``m`` with ``T^alpha = 0`` for every ``|alpha| = m``, if ``m <= cap``.

    The cap defaults to ``dim + 1``, which suffices for every commuting
    nilpotent tuple.  Returns ``None`` when no degree below the cap
    vanishes.  Zero-dimensional tuples report index 0.
    """
    if not _commuting(t, tol):
        raise NotCommutingError("nilpotency index is defined for commuting tuples")
    if cap is None:
        cap = t.dim + 1
    cutoff = tol.rank_rel_tol * t.scale
    for m in range(cap + 1):
        if all(t.monomial_vanishes(alpha, cutoff) for alpha in indices_of_degree(t.d, m)):
            return m
    return None


def poly_eval(p: Polynomial, t: RowTuple) -> np.ndarray:
    """Evaluate ``p(T) = sum c_alpha T^alpha``."""
    if p.d != t.d:
        raise ShapeError(f"polynomial has d={p.d}, tuple has d={t.d}")
    out = np.zeros((t.dim, t.dim), dtype=np.complex128)
    for alpha, c in p.coeffs.items():
        out += c * t.monomial(alpha)
    return out


def word_eval(word, t: RowTuple) -> np.ndarray:
    """Ordered product ``T_{w_1} T_{w_2} .. T_{w_s}``; empty word gives I."""
    word = tuple(int(w) for w in word)
    if any(not 1 <= w <= t.d for w in word):
        raise ShapeError(f"word {word} has letters outside 1..{t.d}")
    out = np.eye(t.dim, dtype=np.complex128)
    for letter in reversed(word):
        out = t.mats[letter - 1] @ out
    return out
