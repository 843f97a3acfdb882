"""Commuting matrix tuples and their row-contraction analysis.

The central object is a ``RowTuple``: a d-tuple ``T = (T_1, .., T_d)`` of
square matrices acting on the same finite-dimensional space, thought of as
the row operator ``[T_1 .. T_d]``.  This module provides validation
(commutativity, contractivity, purity, nilpotency, defect) and the
polynomial functional calculus ``p -> p(T)``.

Nilpotency is read off the orbits of the Nakayama generators ``G``, an
orthonormal basis of ``(Σ_k T_k H)^⊥``.  One pass, memoized per tolerance,
builds ``G`` and the blocks ``T^alpha G`` degree by degree,
``T^alpha G = T_k (T^(alpha - e_k) G)`` with ``k`` the first nonzero
exponent, one stacked product per variable and degree.  The index ``m`` is
the first degree whose blocks all lie within the zero-test cutoff ``c``.
By graded Nakayama the blocks of lower degree span ``H`` for every
commuting nilpotent tuple, and a margin on that span proves
``||T^alpha|| <= c`` at degree ``m``.  If they miss part of ``H`` on which
``T`` is clearly onto, ``T`` has an invertible part and the index is
``None``.  Otherwise, and where the orbits outgrow the powers instead of
dying out, the ``n x n`` powers decide, the orbit of ``V = I`` in the same
step, and only there is a power formed.  The annihilator, its quotient and
``omega_e`` read the same pass (:mod:`rowtuples.ideals`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NotCommutingError,
    NotRowContractionError,
    ShapeError,
)
from .linalg import (
    _ITER_TOL,
    _MAX_ITER,
    _rank_from_singular_values,
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    cokernel_basis,
    norm_at_most,
    numerical_rank,
    operator_norm,
    psd_below_identity,
    singular_values,
    zero_cutoff,
)
from .polynomials import Polynomial, graded_positions, indices_of_degree

__all__ = ["RowTuple", "TupleReport", "validate", "purity", "nilpotency_index",
           "require_commuting", "poly_eval", "orbit_matrix"]


class RowTuple:
    """An immutable d-tuple of square matrices on a common space.

    ``dim = 0`` is permitted so that restrictions to the zero subspace
    remain representable; such degenerate tuples evaluate every polynomial
    to the (empty) zero operator.

    The matrices are copied on construction and frozen, so the tuple never
    changes and may memoize what it derives from them in ``_memo`` (see
    :meth:`memo`): the norms, the generator orbits with their zero tests,
    and the analyses of other modules.  No power ``T^alpha`` is kept; the
    orbit step (:func:`_orbit_step`) builds each one where it is needed.
    """

    __slots__ = ("d", "dim", "mats", "_memo")

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

    @property
    def norms(self) -> tuple[float, ...]:
        """Operator norms ``(||T_1||, .., ||T_d||)``, computed once."""
        return self.memo("norms", lambda: tuple(operator_norm(m) for m in self.mats))

    @property
    def scale(self) -> float:
        """``max(1, max_k ||T_k||)``, the scale of absolute zero tests."""
        return max(1.0, *self.norms)


@functools.lru_cache(maxsize=None)
def _graded_step(d: int, degree: int) -> tuple[int, tuple[tuple[int, slice, slice], ...]]:
    """Block count and plan of :func:`_orbit_step` at ``degree``, in graded order.

    In the order of :func:`~rowtuples.polynomials.indices_of_degree` the
    exponents whose first nonzero entry is ``j`` form one run, and their
    predecessors ``alpha - e_j``, the exponents with no entry before ``j``,
    are the tail of the previous degree in the same order.
    """
    before = math.comb(degree - 1 + d - 1, d - 1)
    plan, start = [], 0
    for j in range(d):
        run = math.comb(degree - 1 + d - 1 - j, d - 1 - j)
        plan.append((j, slice(start, start + run), slice(before - run, before)))
        start += run
    return start, tuple(plan)


def _orbit_step(t: RowTuple, prev: np.ndarray, degree: int) -> np.ndarray:
    """The blocks ``T^alpha V`` with ``|alpha| = degree``, from those of the degree below.

    Blocks are stacked along the middle axis in graded order, ``n x k``
    each.  ``T^alpha V = T_j (T^(alpha - e_j) V)`` for the first nonzero
    exponent ``j``, so a degree costs one product per variable.
    """
    count, plan = _graded_step(t.d, degree)
    out = np.empty((prev.shape[0], count, prev.shape[2]), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for var, slots, sources in plan:
            block = prev[:, sources]
            n, run, k = block.shape
            out[:, slots] = (t.mats[var] @ block.reshape(n, run * k)).reshape(block.shape)
    return _finite(out)


def _finite(product: np.ndarray) -> np.ndarray:
    """``product`` if finite: a product that overflowed cannot be tested for zero."""
    if not np.isfinite(product).all():
        raise DomainError("the orbit products overflow: the tuple's norm is too large")
    return product


def _columns(blocks: np.ndarray) -> np.ndarray:
    """Blocks stacked as ``(n, N, k)`` as the ``n·k x N`` matrix of flattened blocks."""
    n, count, k = blocks.shape
    return blocks.transpose(1, 0, 2).reshape(count, n * k).T


def orbit_matrix(t: RowTuple, vectors, monomials) -> np.ndarray:
    """One column ``T^alpha V`` per exponent ``alpha`` of ``monomials``.

    ``vectors`` is one vector or an ``n x k`` matrix ``V``; each column of
    the result is ``T^alpha V`` flattened row-major, so it has ``n * k``
    rows.  :func:`_orbit_step` builds every degree up to the largest in
    ``monomials``, and the wanted blocks are picked from them; no power
    ``T^alpha`` is formed.
    """
    v = np.asarray(vectors, dtype=np.complex128)
    wanted = [tuple(int(a) for a in alpha) for alpha in monomials]
    for alpha in wanted:
        if len(alpha) != t.d or any(a < 0 for a in alpha):
            raise ShapeError(f"bad exponent tuple {alpha} for d={t.d}")
    top = max(map(sum, wanted), default=0)
    levels = [v[:, None, None] if v.ndim == 1 else v[:, None, :]]
    for degree in range(1, top + 1):
        levels.append(_orbit_step(t, levels[-1], degree))
    positions = graded_positions(t.d, top)
    return _columns(np.concatenate(levels, axis=1)[:, [positions[alpha] for alpha in wanted]])


def _vanishing(level: np.ndarray, cutoff: float) -> np.ndarray:
    """Whether each block ``level[:, i]`` has spectral norm at most ``cutoff``.

    A single column's norm is its spectral norm; wider blocks go through
    :func:`~rowtuples.linalg.norm_at_most` one at a time.
    """
    if level.shape[2] != 1:
        return np.array(
            [norm_at_most(level[:, i], cutoff) for i in range(level.shape[1])], dtype=bool
        )
    with np.errstate(over="ignore"):
        return np.sqrt((level.real**2 + level.imag**2).sum(axis=(0, 2))) <= cutoff


def _power_index(t: RowTuple, start: int, cutoff: float) -> tuple[int | None, list[np.ndarray]]:
    """First degree from ``start`` to ``dim + 1`` at which every ``||T^alpha|| <= cutoff``.

    The search over the ``n x n`` powers, the orbit blocks of ``V = I``, for
    the tuples whose orbits cannot settle the index.  A degree can vanish
    only if its pure powers ``T_k^j`` do, so until they all vanish a degree
    forms only those, one product per variable, and keeps one of each.
    From the first degree ``j`` at which they do, whole degrees are built;
    for a commuting tuple every monomial of degree ``d (j - 1) + 1`` has a
    pure power of degree ``j`` as a factor, which bounds the levels kept.
    Returns the index, ``None`` past ``dim + 1``, and the levels of the
    powers of degrees ``0 .. index``.
    """
    powers = [np.eye(t.dim, dtype=np.complex128)] * t.d
    levels: list[np.ndarray] = []
    for degree in range(1, t.dim + 2):
        if not levels:
            with np.errstate(over="ignore", invalid="ignore"):
                powers = [_finite(m @ power) for m, power in zip(t.mats, powers)]  # T_k^degree
            if degree < start or not all(norm_at_most(p, cutoff) for p in powers):
                continue
            levels = [np.eye(t.dim, dtype=np.complex128)[:, None, :]]
        while len(levels) <= degree:
            levels.append(_orbit_step(t, levels[-1], len(levels)))
        if _vanishing(levels[-1], cutoff).all():
            return degree, levels
    return None, []


def _orbit_certificate(
    t: RowTuple, levels: list[np.ndarray], index: int, cutoff: float, tol: ToleranceConfig
) -> bool | None:
    """What the orbits say of a candidate index, given the blocks of degrees ``0 .. index``.

    ``B`` is the ``n x K`` matrix of the blocks of lower degree, each
    ``T^beta G`` divided by ``scale^|beta|``.  ``True``: its singular values
    all exceed ``sqrt(K) * top / c``, ``top`` the largest norm of a column
    of a degree-``index`` block; writing ``h = B z`` then bounds
    ``||T^alpha h|| <= top * ||z||_1 <= c ||h||`` for ``|alpha| = index``,
    since ``||T^beta|| <= scale^|beta|``, so every power of that degree
    vanishes.  ``False``: ``B`` has numerical rank below ``dim`` and ``T``
    has an invertible part that the orbits miss.  The orbits span an
    invariant subspace ``V``, and ``T`` acts on ``H / V`` by the quotient
    tuple ``W* T_k W``, ``W`` an orthonormal basis of ``V^⊥``.  That tuple
    is nilpotent when ``T`` is, so its row operator is not onto; here it is
    onto with every singular value above ``sqrt(c * scale)``, far from the
    cutoff at which roundoff and the zero test blur what is onto, plus the
    coupling ``max_k ||W* T_k V||`` by which ``V`` falls short of
    invariance.  ``None``: the powers must decide, because ``B`` spans
    ``H`` without the margin of a proof, or misses part of it on which
    ``T`` is not clearly onto.
    """
    below = levels[:index]
    if t.scale != 1.0:
        with np.errstate(over="ignore"):
            below = [level / np.float64(t.scale) ** j for j, level in enumerate(below)]
    below = np.concatenate(below, axis=1).reshape(t.dim, -1)
    top = levels[index] / cutoff  # columns of norm at most 1: no square overflows
    top = (top.real**2 + top.imag**2).sum(axis=0).max(initial=0.0)
    s = singular_values(below)
    if _rank_from_singular_values(s, tol, math.sqrt(top * below.shape[1])) == t.dim:
        return True
    if _rank_from_singular_values(s, tol) == t.dim:
        return None
    w = cokernel_basis(below, tol)
    rows = [w.conj().T @ m for m in t.mats]  # W* T_k
    quotient = [r @ w for r in rows]
    coupling = max(operator_norm(r - q @ w.conj().T) for r, q in zip(rows, quotient))
    floor = math.sqrt(cutoff * t.scale) + coupling
    onto = numerical_rank(np.hstack(quotient), tol, floor=floor) == w.shape[1]
    return False if onto else None


@dataclass(frozen=True)
class _NakayamaPass:
    """Outcome of :func:`_nakayama_pass`; the arrays are read-only.

    ``orbits[:, i]`` is ``T^alpha G`` flattened, for the ``i``-th exponent of
    ``graded_indices(d, index)``, and ``zero[i]`` its zero verdict; both are
    empty when ``index`` is ``None``.
    """

    generators: np.ndarray
    index: int | None
    orbits: np.ndarray
    zero: np.ndarray


def _nakayama_pass(t: RowTuple, tol: ToleranceConfig) -> _NakayamaPass:
    """The Nakayama generators, their orbits and the nilpotency index, once per tolerance.

    ``G`` is the trailing left singular vectors of the row operator, past
    the singular values above both ``rank_rel_tol * sigma_max`` and the
    zero-test cutoff ``c``, the :func:`zero_cutoff` of ``max_k ||T_k||``.
    A block ``T^alpha G`` is zero when its norm is at most ``c``.  The
    candidate index is the first degree, from 1 on a nonzero space, whose
    blocks are all zero, at most ``dim + 1``.  It stands if
    :func:`_orbit_certificate` proves it; it is ``None`` if the orbits miss
    an invertible part of ``T``; otherwise the search over the powers
    (:func:`_power_index`) continues from it.  That search also takes over
    once the blocks stored have more than ``n (n + 2)`` columns, those of
    the powers ``x_1^0 .. x_1^(n+1)`` that it forms for a tuple whose powers
    never vanish, so a tuple whose orbits do not die out stores no more
    than that, not every block up to degree ``dim + 1``.  Where the powers
    decide the index they also give the zero verdicts.
    """
    require_commuting(t, tol)

    def compute() -> _NakayamaPass:
        cutoff = zero_cutoff(max(t.norms), tol)
        gens = cokernel_basis(t.row(), tol, floor=cutoff)
        levels = [gens[:, None, :]]
        zeros = [_vanishing(levels[0], cutoff)]

        def grow() -> None:
            levels.append(_orbit_step(t, levels[-1], len(levels)))
            zeros.append(_vanishing(levels[-1], cutoff))

        index, powers = (None if t.dim else 0), []
        while t.dim and len(levels) <= t.dim + 1:
            grow()
            degree = len(levels) - 1
            if zeros[-1].all():
                index = degree
                break
            if sum(z.size for z in zeros) * gens.shape[1] > t.dim * (t.dim + 2):
                index, powers = _power_index(t, degree + 1, cutoff)
                break
        while index and len(levels) <= index:
            grow()
        if index:
            certificate = _orbit_certificate(t, levels, index, cutoff, tol)
            if certificate is None:
                index, powers = _power_index(t, index, cutoff)
            elif not certificate:
                index = None
        while index and len(levels) <= index:
            grow()
        if index is None:
            levels, zeros = [levels[0][:, :0]], [zeros[0][:0]]
        else:
            levels, zeros = levels[: index + 1], zeros[: index + 1]
        if powers and index:
            # the verdicts of the powers that decided, as T^alpha G = 0 need not mean T^alpha = 0
            zeros = [_vanishing(level, cutoff) for level in powers]
        orbits = _columns(np.concatenate(levels, axis=1))
        out = _NakayamaPass(gens, index, orbits, np.concatenate(zeros))
        for a in (out.generators, out.orbits, out.zero):
            a.setflags(write=False)
        return out

    return t.memo(("nakayama", tol), compute)


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
        square = t.scale * t.scale
        if square == math.inf:  # norms above about 1.3e154: products overflow
            raise DomainError(f"tuple norm {t.scale:.3g} is too large: its products overflow")
        cutoff = zero_cutoff(square, tol)
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
    """Full basic analysis of a tuple; only products that overflow make it raise."""
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
    matrices, so the stopping rules are sound: norm below ``_ITER_TOL``
    means pure; stagnation at a clearly nonzero level means not pure.
    ``None`` signals that the budget ran out before either rule fired.
    """
    if not psd_below_identity(t.row_gram(), tol):
        raise NotRowContractionError("purity is defined for row contractions only")
    x = np.eye(t.dim, dtype=np.complex128)
    norm = operator_norm(x)
    for _ in range(_MAX_ITER):
        if norm < _ITER_TOL:
            return True
        nxt = sum(m @ x @ m.conj().T for m in t.mats)
        nxt = (nxt + nxt.conj().T) / 2.0
        step = operator_norm(nxt - x)
        x = nxt
        norm = operator_norm(x)
        if step <= 1e-14 * max(1.0, norm):
            return True if norm < _ITER_TOL else (False if norm >= 1e-6 else None)
    return True if norm < _ITER_TOL else None


def nilpotency_index(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> int | None:
    """Least ``m`` with ``T^alpha = 0`` for every ``|alpha| = m``, if ``m <= dim + 1``.

    Decided on the orbits of the Nakayama generators ``G`` (see
    :func:`_nakayama_pass`): ``m`` is the first degree at which every
    ``T^alpha G`` lies within the zero-test cutoff ``c``.  A margin on the
    span of the orbits of lower degree proves every ``||T^alpha|| <= c`` for
    ``|alpha| = m``; where it falls short, or the orbits grow instead of
    dying out, the ``n x n`` powers decide.  So the index is the least
    degree whose powers all vanish, except that it is ``None`` when the
    orbits miss part of the space on which ``T`` is clearly onto, an
    invertible part.  ``None`` also means that no degree up to ``dim + 1``
    vanishes.  Only zero-dimensional tuples report index 0: on a nonzero
    space ``T^0 G`` spans ``G``, so the search starts at degree 1.
    """
    return _nakayama_pass(t, tol).index


def poly_eval(p: Polynomial, t: RowTuple) -> np.ndarray:
    """Evaluate ``p(T) = sum c_alpha T^alpha``, the terms summed in graded order.

    The powers of a degree are the orbit blocks of ``V = I``, stepped from
    those of the degree below (:func:`_orbit_step`); one degree is kept.
    """
    if p.d != t.d:
        raise ShapeError(f"polynomial has d={p.d}, tuple has d={t.d}")
    out = np.zeros((t.dim, t.dim), dtype=np.complex128)
    level = np.eye(t.dim, dtype=np.complex128)[:, None, :]
    for degree in range(p.degree() + 1):
        if degree:
            level = _orbit_step(t, level, degree)
        for i, alpha in enumerate(indices_of_degree(t.d, degree)):
            if alpha in p.coeffs:
                out += p.coeffs[alpha] * level[:, i]
    return out
