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
           "require_commuting", "poly_eval"]


class RowTuple:
    """An immutable d-tuple of square matrices on a common space.

    ``dim = 0`` is permitted so that restrictions to the zero subspace
    remain representable; such degenerate tuples evaluate every polynomial
    to the (empty) zero operator.

    The matrices are copied on construction and frozen, so the tuple never
    changes and may memoize what it derives from them:

    * ``_monomials`` maps ``alpha`` to ``T^alpha`` (see :meth:`monomial`);
    * ``_memo`` maps a key to a derived value (see :meth:`memo`): the
      norms, the monomial zero tests, and the analyses of other modules.
    """

    __slots__ = ("d", "dim", "mats", "_monomials", "_memo")

    def __init__(self, mats):
        # copies: the caller's arrays stay writable, and writes to them miss the memo
        mats = tuple(as_matrix(np.array(m, dtype=np.complex128), square=True) for m in mats)
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
        self._memo: dict = {}

    def __repr__(self):
        return f"RowTuple(d={self.d}, dim={self.dim})"

    def memo(self, key, compute):
        """The value stored under ``key``, from ``compute()`` on first request.

        A key names the value and carries everything it depends on besides
        the matrices, such as the :class:`ToleranceConfig`.  Stored values
        must be read-only and must not reference this tuple, which would
        make it a reference cycle.  A ``compute`` that raises stores nothing.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def adjoint(self) -> "RowTuple":
        """The tuple of Hermitian adjoints, built once."""
        return self.memo("adjoint", lambda: RowTuple([m.conj().T for m in self.mats]))

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
        return self.memo("norms", lambda: tuple(operator_norm(m) for m in self.mats))

    @property
    def scale(self) -> float:
        """``max(1, max_k ||T_k||)``, the scale of absolute zero tests."""
        return max(1.0, *self.norms)

    def monomial_vanishes(self, alpha, cutoff: float) -> bool:
        """Whether ``||T^alpha|| <= cutoff``, decided once per ``(alpha, cutoff)``."""
        alpha = tuple(int(a) for a in alpha)
        return self.memo(
            ("vanishes", alpha, float(cutoff)),
            lambda: norm_at_most(self.monomial(alpha), cutoff),
        )


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
    def compute() -> bool:
        cutoff = tol.rank_rel_tol * t.scale ** 2
        return all(
            norm_at_most(t.mats[j] @ t.mats[k] - t.mats[k] @ t.mats[j], cutoff)
            for j in range(t.d)
            for k in range(j + 1, t.d)
        )

    return t.memo(("commuting", tol), compute)


def require_commuting(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Raise :class:`NotCommutingError` unless the tuple's matrices commute."""
    if not _commuting(t, tol):
        raise NotCommutingError("tuple matrices do not commute")


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


def nilpotency_index(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> int | None:
    """Least ``m`` with ``T^alpha = 0`` for every ``|alpha| = m``, if ``m <= dim + 1``.

    The search stops at degree ``dim + 1``, which suffices for every
    commuting nilpotent tuple; ``None`` means no degree up to it
    vanishes.  Only zero-dimensional tuples report index 0: on a nonzero
    space ``T^0 = I`` never vanishes, whatever the scale of the cutoff, so
    the search starts at degree 1.
    """
    require_commuting(t, tol)

    def search() -> int | None:
        cutoff = tol.rank_rel_tol * t.scale
        for m in range(1 if t.dim else 0, t.dim + 2):
            if all(t.monomial_vanishes(alpha, cutoff) for alpha in indices_of_degree(t.d, m)):
                return m
        return None

    return t.memo(("nilpotency_index", tol), search)


def poly_eval(p: Polynomial, t: RowTuple) -> np.ndarray:
    """Evaluate ``p(T) = sum c_alpha T^alpha``."""
    if p.d != t.d:
        raise ShapeError(f"polynomial has d={p.d}, tuple has d={t.d}")
    out = np.zeros((t.dim, t.dim), dtype=np.complex128)
    for alpha, c in p.coeffs.items():
        out += c * t.monomial(alpha)
    return out
