"""Polynomial annihilators of nilpotent tuples and their model spaces.

For a commuting nilpotent tuple ``T`` with vanishing degree ``m``, every
polynomial of degree ``>= m`` annihilates ``T`` monomial by monomial, so
the annihilator ideal is captured exactly by the finite-dimensional slice
``Ann(T) ∩ C[x]_{<=m}``.  This module computes that slice as a kernel of
the evaluation map, derives the quotient algebra ``A = C[x]/Ann(T)`` with
its monomial basis and structure constants, and realizes the quotient
concretely as a compressed multiplication tuple on the subspace

    H_J = ( Ann(T) ∩ C[x]_{<=m} )^⊥

of the truncated Drury-Arveson space; since every monomial of degree
``m`` lies in the slice, ``H_J`` is supported on degrees below ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotNilpotentError, ShapeError
from .fock import TruncatedDA, da_monomial_norm, multiplication_matrix
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    orthonormalize,
    rank_and_kernel,
    subspaces_equal,
)
from .polynomials import Polynomial, graded_indices
from .tuples import RowTuple, nilpotency_index

__all__ = [
    "AnnihilatorBasis",
    "QuotientAlgebra",
    "ModelSpace",
    "annihilator",
    "annihilators_equal",
    "monomial_annihilator",
    "generating_subset",
    "quotient_algebra",
    "omega_e",
    "model_space",
    "model_tuple",
]


@dataclass(frozen=True)
class AnnihilatorBasis:
    """Vector-space basis of ``Ann(T) ∩ C[x]_{<=degree_bound}``.

    This is deliberately not a Gröbner basis: every construction in the
    package needs only membership tests and quotient dimensions, which
    are rank computations on the coefficient matrix.
    """

    d: int
    degree_bound: int
    basis: tuple[Polynomial, ...]

    def monomials(self) -> list[tuple[int, ...]]:
        """Graded monomial list of the ambient slice ``C[x]_{<=m}``."""
        return graded_indices(self.d, self.degree_bound)

    def coefficient_matrix(self) -> np.ndarray:
        """Columns are basis coefficient vectors over :meth:`monomials`."""
        monomials = self.monomials()
        out = np.zeros((len(monomials), len(self.basis)), dtype=np.complex128)
        for j, q in enumerate(self.basis):
            out[:, j] = q.coefficient_vector(monomials)
        return out

    def ideal_slice(self, max_degree: int) -> np.ndarray:
        """Coefficient columns spanning ``Ann ∩ C[x]_{<=max_degree}``.

        Valid for ``max_degree >= degree_bound``: shifted basis elements
        ``q * x^beta`` of degree at most ``max_degree`` span the slice,
        because every monomial of degree ``>= degree_bound`` already lies
        in the span of such shifts.  Multiplying by ``x^beta`` only moves
        each coefficient from row ``alpha`` to row ``alpha + beta``, so the
        columns are built by that index map, basis element by basis
        element and ``beta`` in graded order.
        """
        if max_degree < self.degree_bound:
            raise ShapeError(
                f"slice degree {max_degree} below the degree bound {self.degree_bound}"
            )
        monomials = graded_indices(self.d, max_degree)
        positions = {alpha: i for i, alpha in enumerate(monomials)}
        source = self.monomials()
        shifts: dict[tuple[int, ...], np.ndarray] = {}

        def shift_rows(beta: tuple[int, ...]) -> np.ndarray:
            # rows of x^alpha * x^beta for the graded prefix of sources it keeps in range
            if beta not in shifts:
                room = max_degree - sum(beta)
                shifts[beta] = np.array(
                    [
                        positions[tuple(a + b for a, b in zip(alpha, beta))]
                        for alpha in source
                        if sum(alpha) <= room
                    ],
                    dtype=np.intp,
                )
            return shifts[beta]

        columns = []
        for q in self.coefficient_matrix().T:
            support = np.flatnonzero(q)
            # graded order: q lives on the leading block ending at its last term
            length = support[-1] + 1 if support.size else 0
            degree = sum(source[length - 1]) if length else 0
            for beta in graded_indices(self.d, max_degree - degree):
                column = np.zeros(len(monomials), dtype=np.complex128)
                column[shift_rows(beta)[:length]] = q[:length]
                columns.append(column)
        if not columns:
            return np.zeros((len(monomials), 0), dtype=np.complex128)
        return np.array(columns, dtype=np.complex128).T


@dataclass(frozen=True)
class QuotientAlgebra:
    """The algebra ``A = C[x]/(C[x] ∩ Ann(T))`` in a monomial basis.

    ``mult_table[i, j]`` holds the coordinates of the product class
    ``[x^a_i * x^a_j]`` over ``monomial_basis``.
    """

    monomial_basis: tuple[tuple[int, ...], ...]
    dim: int
    mult_table: np.ndarray
    _ann: AnnihilatorBasis
    _reducer: np.ndarray  # maps slice coefficients to quotient coordinates

    def reduce(self, p: Polynomial) -> np.ndarray:
        """Coordinates of ``[p]`` over ``monomial_basis``.

        Terms of degree beyond the annihilator's degree bound are dropped
        first; each such monomial already lies in the annihilator.
        """
        if p.d != self._ann.d:
            raise ShapeError(f"polynomial has d={p.d}, algebra has d={self._ann.d}")
        monomials = self._ann.monomials()
        positions = {alpha: i for i, alpha in enumerate(monomials)}
        vec = np.zeros(len(monomials), dtype=np.complex128)
        for alpha, c in p.coeffs.items():
            i = positions.get(alpha)
            if i is not None:
                vec[i] = c
        return self._reducer @ vec


@dataclass(frozen=True)
class ModelSpace:
    """The subspace ``H_J`` inside a Drury-Arveson truncation."""

    d: int
    degree_cap: int
    frame: np.ndarray

    @property
    def dim(self) -> int:
        return self.frame.shape[1]


def annihilator(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> AnnihilatorBasis:
    """Kernel of the evaluation map ``p -> p(T)`` on ``C[x]_{<=m}``.

    ``m`` is the nilpotency index of ``T``; beyond it every monomial
    evaluates to zero, so the slice determines the whole ideal.
    """
    m = nilpotency_index(t, tol=tol)
    if m is None:
        raise NotNilpotentError(
            f"no vanishing degree at or below dim+1 = {t.dim + 1}"
        )
    monomials = graded_indices(t.d, m)
    eval_map = np.zeros((t.dim * t.dim, len(monomials)), dtype=np.complex128)
    for j, alpha in enumerate(monomials):
        eval_map[:, j] = t.monomial(alpha).reshape(-1)
    _, kernel = rank_and_kernel(eval_map, tol)
    basis = tuple(
        Polynomial.from_coefficient_vector(t.d, monomials, kernel[:, j])
        for j in range(kernel.shape[1])
    )
    return AnnihilatorBasis(d=t.d, degree_bound=m, basis=basis)


def monomial_annihilator(d: int, generators) -> AnnihilatorBasis:
    """Annihilator slice of the monomial ideal with the given exponents.

    The ideal must be nilpotent, i.e. contain a pure power of every
    variable; then the standard monomials (those outside the ideal) form
    a finite staircase and the slice at ``m = 1 + max staircase degree``
    is spanned exactly by the ideal monomials of degree at most ``m``.
    """
    gens = [tuple(int(a) for a in g) for g in generators]
    if not gens:
        raise DomainError("a monomial ideal needs at least one generator")
    for g in gens:
        if len(g) != d or any(a < 0 for a in g) or sum(g) == 0:
            raise ShapeError(f"bad generator exponent {g} for d={d}")
    for i in range(d):
        if not any(g[i] > 0 and all(a == 0 for j, a in enumerate(g) if j != i) for g in gens):
            raise DomainError(
                f"ideal is not nilpotent: no pure power of x{i + 1} among the generators"
            )

    def in_ideal(alpha: tuple[int, ...]) -> bool:
        return any(all(a >= b for a, b in zip(alpha, g)) for g in gens)

    pure_cap = sum(g[i] - 1 for i, g in enumerate(
        [next(g for g in gens if g[i] > 0 and sum(g) == g[i]) for i in range(d)]
    ))
    staircase = [a for a in graded_indices(d, pure_cap) if not in_ideal(a)]
    m = 1 + max((sum(a) for a in staircase), default=-1)
    basis = tuple(
        Polynomial.monomial(d, alpha)
        for alpha in graded_indices(d, m)
        if in_ideal(alpha)
    )
    return AnnihilatorBasis(d=d, degree_bound=m, basis=basis)


def annihilators_equal(
    a: AnnihilatorBasis, b: AnnihilatorBasis, tol: float = 1e-8
) -> bool:
    """Whether two annihilator slices generate the same ideal.

    Both slices are extended to a common degree before comparison, since
    equal ideals can be presented with different degree bounds.
    """
    if a.d != b.d:
        return False
    degree = max(a.degree_bound, b.degree_bound)
    frame_a = orthonormalize(a.ideal_slice(degree))
    frame_b = orthonormalize(b.ideal_slice(degree))
    return subspaces_equal(frame_a, frame_b, tol)


def generating_subset(
    ann: AnnihilatorBasis, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Polynomial, ...]:
    """A small generating set for the ideal slice, chosen greedily.

    Basis elements are visited in order of increasing degree and kept only
    when they fall outside the ideal generated so far.  The result is not
    canonical — ties are broken by basis order — but its shifts span the
    full slice.
    """
    monomials = ann.monomials()
    ordered = sorted(ann.basis, key=lambda q: q.degree())
    chosen: list[Polynomial] = []
    frame = np.zeros((len(monomials), 0), dtype=np.complex128)
    for q in ordered:
        vec = q.coefficient_vector(monomials)
        residual = vec - frame @ (frame.conj().T @ vec)
        if np.linalg.norm(residual) <= tol.rank_rel_tol * max(1.0, np.linalg.norm(vec)):
            continue
        chosen.append(q)
        partial = AnnihilatorBasis(ann.d, ann.degree_bound, tuple(chosen))
        frame = orthonormalize(partial.ideal_slice(ann.degree_bound), tol)
    return tuple(chosen)


def quotient_algebra(
    ann: AnnihilatorBasis, tol: ToleranceConfig = DEFAULT_TOL
) -> QuotientAlgebra:
    """Monomial basis and structure constants of ``C[x]_{<=m} / span(ann)``.

    Monomials are selected greedily in graded order, keeping those whose
    class is independent of the annihilator span and the classes already
    chosen.  Products are reduced through the inverse of the resulting
    change-of-basis matrix.
    """
    monomials = ann.monomials()
    positions = {alpha: i for i, alpha in enumerate(monomials)}
    ann_frame = orthonormalize(ann.coefficient_matrix(), tol)
    frame = ann_frame
    selected: list[tuple[int, ...]] = []
    selected_cols: list[np.ndarray] = []
    for alpha in monomials:
        vec = np.zeros(len(monomials), dtype=np.complex128)
        vec[positions[alpha]] = 1.0
        residual = vec - frame @ (frame.conj().T @ vec)
        norm = np.linalg.norm(residual)
        if norm <= max(tol.rank_rel_tol, 1e-12):
            continue
        selected.append(alpha)
        selected_cols.append(vec)
        frame = np.hstack([frame, (residual / norm)[:, None]])

    delta = len(selected)
    if delta + ann_frame.shape[1] != len(monomials):
        raise DomainError(
            "annihilator span and monomial classes do not fill the slice; "
            "the basis is numerically degenerate"
        )
    class_cols = (
        np.array(selected_cols, dtype=np.complex128).T
        if selected_cols
        else np.zeros((len(monomials), 0), dtype=np.complex128)
    )
    change = np.hstack([class_cols, ann_frame])
    reducer = np.linalg.inv(change)[:delta, :]

    table = np.zeros((delta, delta, delta), dtype=np.complex128)
    for i, alpha in enumerate(selected):
        for j, beta in enumerate(selected):
            product = tuple(a + b for a, b in zip(alpha, beta))
            pos = positions.get(product)
            if pos is None:
                continue  # degree beyond the bound: the class is zero
            table[i, j, :] = reducer[:, pos]
    return QuotientAlgebra(
        monomial_basis=tuple(selected),
        dim=delta,
        mult_table=table,
        _ann=ann,
        _reducer=reducer,
    )


def omega_e(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> set[tuple[int, ...]]:
    """Extremal exponents: ``T^alpha != 0`` but ``T^alpha T_k = 0`` for all k."""
    m = nilpotency_index(t, tol=tol)
    if m is None:
        raise NotNilpotentError("omega_e is defined for nilpotent tuples")
    cutoff = tol.rank_rel_tol * t.scale
    out = set()
    for alpha in graded_indices(t.d, max(m - 1, 0)):
        if t.monomial_vanishes(alpha, cutoff):
            continue
        successors = (
            tuple(a + (1 if i == k else 0) for i, a in enumerate(alpha))
            for k in range(t.d)
        )
        if all(t.monomial_vanishes(s, cutoff) for s in successors):
            out.add(alpha)
    return out


def model_space(
    ann: AnnihilatorBasis, degree_cap: int | None = None, tol: ToleranceConfig = DEFAULT_TOL
) -> ModelSpace:
    """Compute ``H_J`` inside the degree-``degree_cap`` truncation.

    The cap defaults to the annihilator's degree bound ``m`` and must not
    fall below it.  The annihilator must contain every monomial of degree
    exactly ``m`` (the nilpotent regime), which makes the truncation
    exact: ``H_J`` is supported on degrees below ``m``.
    """
    m = ann.degree_bound
    if degree_cap is None:
        degree_cap = m
    if degree_cap < m:
        raise DomainError(f"degree cap {degree_cap} below the annihilator bound {m}")
    monomials = ann.monomials()
    positions = {alpha: i for i, alpha in enumerate(monomials)}
    ann_frame = orthonormalize(ann.coefficient_matrix(), tol)
    for alpha in monomials:
        if sum(alpha) != m:
            continue
        vec = np.zeros(len(monomials), dtype=np.complex128)
        vec[positions[alpha]] = 1.0
        if np.linalg.norm(vec - ann_frame @ (ann_frame.conj().T @ vec)) > 1e-8:
            raise DomainError(
                f"annihilator misses the degree-{m} monomial x^{alpha}; "
                "the ideal is not nilpotent at this bound"
            )

    space = TruncatedDA(ann.d, degree_cap)
    if not ann.basis:
        frame = np.eye(space.dim, dtype=np.complex128)
        return ModelSpace(d=ann.d, degree_cap=degree_cap, frame=frame)
    weights = np.array([da_monomial_norm(alpha) for alpha in space.basis()])
    slice_cols = ann.ideal_slice(degree_cap) * weights[:, None]
    slice_frame = orthonormalize(slice_cols, tol)
    _, kernel = rank_and_kernel(slice_frame.conj().T, tol)
    return ModelSpace(d=ann.d, degree_cap=degree_cap, frame=_canonical_frame(kernel))


def _canonical_frame(kernel: np.ndarray) -> np.ndarray:
    """Reorient an orthonormal frame to a graded, phase-fixed basis.

    Columns are rebuilt by Gram-Schmidt over the coordinate projections in
    graded monomial order, so for monomial ideals the frame reduces to the
    surviving coordinate vectors; each column is scaled to make its largest
    entry real positive.
    """
    rank = kernel.shape[1]
    if rank == 0:
        return kernel
    proj = kernel @ kernel.conj().T
    cols: list[np.ndarray] = []
    for j in range(proj.shape[0]):
        if len(cols) == rank:
            break
        v = proj[:, j].copy()
        for u in cols:
            v -= u * (u.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            cols.append(v / norm)
    if len(cols) != rank:  # near-degenerate projector; keep the SVD frame
        return kernel
    out = []
    for v in cols:
        lead = v[int(np.argmax(np.abs(v)))]
        out.append(v * (np.conj(lead) / np.abs(lead)))
    return np.column_stack(out)


def model_tuple(space: ModelSpace) -> RowTuple:
    """Compressions of the coordinate multipliers to the model space."""
    da = TruncatedDA(space.d, space.degree_cap)
    mats = [
        space.frame.conj().T
        @ multiplication_matrix(Polynomial.variable(space.d, k), da)
        @ space.frame
        for k in range(1, space.d + 1)
    ]
    return RowTuple(mats)
