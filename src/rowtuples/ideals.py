"""Polynomial annihilators of nilpotent tuples and their model spaces.

For a commuting nilpotent tuple ``T`` with vanishing degree ``m``, every
polynomial of degree ``>= m`` annihilates ``T`` monomial by monomial, so
the annihilator ideal is captured exactly by the finite-dimensional slice
``Ann(T) ∩ C[x]_{<=m}``, the kernel of the evaluation map ``p -> p(T)``
on the graded monomials of degree at most ``m``.  The map is evaluated
on the Nakayama generators ``G``, an orthonormal basis of
``(Σ_k T_k H)^⊥``: by graded Nakayama they generate ``H`` as a
``C[x]``-module, so for commuting ``T`` a polynomial kills ``T`` exactly
when it kills ``G``, and the evaluation map is the orbit matrix
``[T^alpha G]`` with ``n·μ`` rows (``μ`` generators), not ``n²``.  ``G``,
the orbit matrix and its zero verdicts come from the one pass that
decides the nilpotency index (:func:`~rowtuples.tuples.nilpotency_index`),
built by the degree step ``T^alpha G = T_k (T^(alpha - e_k) G)``: no power
``T^alpha`` is formed unless the orbits leave the index to the powers,
which is rare, and :func:`omega_e` reads the stored verdicts.

The orbit matrix alone gives the quotient
``A = C[x]/Ann(T)`` by the order-ideal and normal-form step of the
Buchberger-Möller algorithm (Möller & Buchberger, EUROCAM 1982; Stetter,
*Numerical Polynomial Algebra*, SIAM 2004): its monomial basis ``S``, the
normal form of every other monomial (exactly zero where the orbit column
is below the rank cutoff), the structure constants, and a realization of
the quotient as a compressed multiplication tuple on the subspace

    H_J = ( Ann(T) ∩ C[x]_{<=m} )^⊥

of the truncated Drury-Arveson space, the graph of the normal form over
the coordinates of ``S``, supported on degrees below ``m``.  The normal
form of ``x^gamma`` uses only standard monomials before ``gamma``, so the
graph column of a standard monomial vanishes on every coordinate before
it, and one orthonormalization of the columns in reverse order yields the
canonical frame of ``H_J``: graded, with fixed phases (:func:`_model_graph`).
For a monomial ideal ``H_J`` is the coordinate span of the staircase of
standard monomials, and :func:`staircase_model` writes the model down in
closed form.  The kernel itself (:func:`annihilator`) is taken only
where two ideals are compared, as rigidity and splitting do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotNilpotentError, ShapeError
from .fock import TruncatedDA, da_monomial_norm, multiplication_matrix
from .linalg import (
    _FRAME_TOL,
    _rank_from_singular_values,
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    cokernel_basis,
    in_span,
    kernel_basis,
    numerical_rank,
    orthonormalize,
    singular_values,
    zero_cutoff,
)
from .polynomials import Polynomial, graded_indices, graded_positions, graded_rank
from .tuples import RowTuple, _nakayama_pass, nilpotency_index, orbit_matrix

__all__ = [
    "AnnihilatorBasis",
    "QuotientAlgebra",
    "ModelSpace",
    "nakayama_generators",
    "orbit_matrix",
    "annihilator",
    "annihilator_normal_form",
    "annihilators_equal",
    "monomial_annihilator",
    "staircase_model",
    "quotient_algebra",
    "quotient_of",
    "omega_e",
    "model_space",
    "model_tuple",
    "model_of",
]


@dataclass(frozen=True)
class AnnihilatorBasis:
    """Vector-space basis of ``Ann(T) ∩ C[x]_{<=degree_bound}``, as a matrix.

    ``coefficients`` has one row per monomial of :meth:`monomials` and one
    column per basis element; it is copied on construction and read-only.
    This is deliberately not a Gröbner basis: comparing ideals needs only
    membership tests and quotient dimensions, rank and span decisions on
    this matrix; only :func:`annihilator` takes a kernel to build it.
    Every monomial of degree ``degree_bound`` lies in the ideal, so a slice
    at another bound is never built: :func:`annihilators_equal` cuts or
    zero-pads the rows instead.
    The ``ann`` report renders the columns of :func:`annihilator_normal_form`
    as text straight from the matrix
    (:func:`~rowtuples.polynomials.format_columns`); :attr:`basis` turns
    them into :class:`Polynomial` objects for callers that need them.
    """

    d: int
    degree_bound: int
    coefficients: np.ndarray

    def __post_init__(self):
        # adding zero copies the matrix and turns negative zeros into +0
        mat = as_matrix(self.coefficients) + 0.0
        rows = math.comb(self.degree_bound + self.d, self.d)
        if mat.shape[0] != rows:
            raise ShapeError(f"coefficient matrix has {mat.shape[0]} rows, expected {rows}")
        mat.setflags(write=False)
        object.__setattr__(self, "coefficients", mat)

    def monomials(self) -> list[tuple[int, ...]]:
        """Graded monomial list of the ambient slice ``C[x]_{<=m}``."""
        return graded_indices(self.d, self.degree_bound)

    @property
    def basis(self) -> tuple[Polynomial, ...]:
        """The basis elements as polynomials, one per column."""
        monomials = self.monomials()
        return tuple(
            Polynomial.from_coefficient_vector(self.d, monomials, col)
            for col in self.coefficients.T
        )


@dataclass(frozen=True)
class QuotientAlgebra:
    """The algebra ``A = C[x]/(C[x] ∩ Ann(T))`` in a monomial basis.

    ``_reducer`` maps each graded monomial of ``C[x]_{<=degree_bound}``, in
    ``d`` variables, to its normal form over ``monomial_basis``.
    ``mult_table[i, j]`` holds the coordinates of the product class
    ``[x^a_i * x^a_j]`` over ``monomial_basis``, built on first use; the
    arrays are read-only.
    """

    monomial_basis: tuple[tuple[int, ...], ...]
    dim: int
    d: int
    degree_bound: int
    _standard: np.ndarray  # slice positions of monomial_basis
    _reducer: np.ndarray  # maps slice coefficients to quotient coordinates

    @functools.cached_property
    def mult_table(self) -> np.ndarray:
        positions = graded_positions(self.d, self.degree_bound)
        table = np.zeros((self.dim,) * 3, dtype=np.complex128)
        for i, alpha in enumerate(self.monomial_basis):
            for j, beta in enumerate(self.monomial_basis):
                k = positions.get(tuple(a + b for a, b in zip(alpha, beta)))
                if k is not None:  # a product beyond the slice has class zero
                    table[i, j] = self._reducer[:, k]
        table.setflags(write=False)
        return table

    def reduce(self, p: Polynomial) -> np.ndarray:
        """Coordinates of ``[p]`` over ``monomial_basis``.

        Terms of degree beyond the annihilator's degree bound are dropped
        first; each such monomial already lies in the annihilator.
        """
        if p.d != self.d:
            raise ShapeError(f"polynomial has d={p.d}, algebra has d={self.d}")
        m = self.degree_bound
        low = Polynomial(p.d, {a: c for a, c in p.coeffs.items() if sum(a) <= m})
        return self._reducer @ low.coefficient_vector(graded_indices(self.d, m))


@dataclass(frozen=True)
class ModelSpace:
    """The subspace ``H_J`` inside the Drury-Arveson truncation at ``degree_cap``.

    ``degree_cap`` is the annihilator's degree bound; ``frame`` is read-only.
    """

    d: int
    degree_cap: int
    frame: np.ndarray

    @property
    def dim(self) -> int:
        return self.frame.shape[1]


def nakayama_generators(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ``(Σ_k T_k H)^⊥`` of a nilpotent tuple, read-only.

    By graded Nakayama these vectors are a minimal generating set of ``H``
    as a ``C[x]``-module when ``T`` is nilpotent; their number is the
    multiplicity.  They are the trailing left singular vectors of the row
    operator ``[T_1 .. T_d]``, past the singular values above the relative
    rank cutoff and the zero-test cutoff (``zero_cutoff(max_k ||T_k||)``); the
    pass of :func:`~rowtuples.tuples.nilpotency_index` computes them once
    per tolerance.
    """
    found = _nakayama_pass(t, tol)
    if found.index is None:
        raise NotNilpotentError("multiplicity requires a nilpotent tuple")
    return found.generators


def _generator_orbits(t: RowTuple, tol: ToleranceConfig) -> np.ndarray:
    """``E = [T^alpha G]`` over the graded monomials of degree at most ``m``, read-only."""
    found = _nakayama_pass(t, tol)
    if found.index is None:
        raise NotNilpotentError(f"no vanishing degree at or below dim+1 = {t.dim + 1}")
    return found.orbits


def annihilator(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> AnnihilatorBasis:
    """Kernel of the evaluation map ``p -> p(T)`` on ``C[x]_{<=m}``.

    ``m`` is the nilpotency index of ``T``; beyond it every monomial
    evaluates to zero, so the slice determines the whole ideal.  Since
    ``T`` commutes and the Nakayama generators ``G`` generate ``H``,
    ``p(T) = 0`` exactly when ``p(T) G = 0``, so the kernel is taken of the
    ``n·μ``-row orbit matrix ``[T^alpha G]``.  The tuple computes it once
    per tolerance; the quotient and the model do not need it.
    """
    return t.memo(("annihilator", tol), lambda: _annihilator(t, tol))


def _annihilator(t: RowTuple, tol: ToleranceConfig) -> AnnihilatorBasis:
    kernel = kernel_basis(_generator_orbits(t, tol), tol)
    return AnnihilatorBasis(t.d, nilpotency_index(t, tol=tol), kernel)


def annihilator_normal_form(
    t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL
) -> AnnihilatorBasis:
    """The annihilator slice in normal form over the quotient's monomial basis ``S``.

    One column per monomial ``x^beta`` of the slice outside ``S``, in graded
    order: ``x^beta - Σ_{alpha ∈ S} c_(alpha,beta) x^alpha``, the unique
    element of the ideal with that leading part, with ``c`` the normal form
    of :func:`quotient_of`.  The basis depends only on the ideal and ``S``,
    and the column is exactly ``x^beta`` wherever the orbit of ``x^beta``
    lies below the rank cutoff: a monomial ideal gets plain monomials.
    """
    q = quotient_of(t, tol)
    forms = np.eye(q._reducer.shape[1], dtype=np.complex128)
    forms[q._standard] -= q._reducer  # zero on the columns of S
    outside = np.setdiff1d(np.arange(forms.shape[1]), q._standard)
    return AnnihilatorBasis(t.d, q.degree_bound, forms[:, outside])


def _staircase(d: int, generators) -> list[tuple[int, ...]]:
    """Standard monomials of the monomial ideal with the given exponents.

    The ideal must be nilpotent, i.e. contain a pure power of every
    variable; then the monomials outside it form a finite staircase,
    returned in graded order.
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
    return [a for a in graded_indices(d, pure_cap) if not in_ideal(a)]


def monomial_annihilator(d: int, generators) -> AnnihilatorBasis:
    """Annihilator slice of the monomial ideal with the given exponents.

    The ideal must be nilpotent (see :func:`_staircase`); the slice at
    ``m = 1 + max staircase degree`` is spanned exactly by the ideal
    monomials of degree at most ``m``, i.e. those outside the staircase.
    """
    staircase = _staircase(d, generators)
    m = 1 + sum(staircase[-1])
    monomials = graded_indices(d, m)
    standard = set(staircase)
    rows = [i for i, alpha in enumerate(monomials) if alpha not in standard]
    return AnnihilatorBasis(
        d=d, degree_bound=m, coefficients=np.eye(len(monomials))[:, rows]
    )


def staircase_model(d: int, staircase) -> RowTuple:
    """Model tuple of the monomial ideal whose standard monomials are ``staircase``.

    For a monomial ideal ``H_J`` is the coordinate span of the staircase,
    so the model has a closed form: in the graded staircase basis,
    ``M_k e_alpha = (||x^(alpha+e_k)|| / ||x^alpha||) e_(alpha+e_k)`` when
    ``alpha + e_k`` lies in the staircase, and ``M_k e_alpha = 0`` otherwise
    (Drury-Arveson norms, see :func:`~rowtuples.fock.da_monomial_norm`).
    Each entry is the one :func:`~rowtuples.fock.multiplication_matrix`
    holds, and every other entry is an exact zero: the matrices of
    ``model_tuple(model_space(monomial_annihilator(d, gens)))`` for the
    ideal's generators, built without any SVD.

    ``staircase`` must be a finite order ideal of ``N^d``: it contains the
    origin and, with every point, each point one step below it.
    """
    points = {tuple(int(a) for a in alpha) for alpha in staircase}
    for alpha in points:
        if len(alpha) != d or any(a < 0 for a in alpha):
            raise ShapeError(f"bad staircase exponent {alpha} for d={d}")
    if (0,) * d not in points:
        raise DomainError("a staircase must contain the origin")
    _require_order_ideal(points, d, "staircase is not an order ideal")
    unordered = list(points)
    basis = [unordered[i] for i in np.argsort(graded_rank(np.array(unordered)))]
    positions = {alpha: i for i, alpha in enumerate(basis)}
    mats = np.zeros((d, len(basis), len(basis)), dtype=np.complex128)
    for j, alpha in enumerate(basis):
        for k in range(d):
            beta = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :]
            i = positions.get(beta)
            if i is not None:
                mats[k, i, j] = da_monomial_norm(beta) / da_monomial_norm(alpha)
    return RowTuple(mats)


def _require_order_ideal(points, d: int, failure: str) -> None:
    """Raise ``DomainError(failure)`` at a point one step above a point not in ``points``."""
    members = set(points)
    for alpha in points:
        for k in range(d):
            if alpha[k] and alpha[:k] + (alpha[k] - 1,) + alpha[k + 1 :] not in members:
                raise DomainError(f"{failure} below {alpha}")


def annihilators_equal(
    a: AnnihilatorBasis, b: AnnihilatorBasis, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Whether two annihilator slices generate the same ideal.

    The ideals ``I_a`` and ``I_b`` are equal when their quotients have the
    same dimension (rows minus numerical rank of each slice, the same at
    every degree bound) and ``I_a ⊆ I_b``: when the columns of ``a``, cut or
    zero-padded to the graded monomials of ``b``, lie within
    ``1e-8·max(1, ||a||_F)`` of ``span(b)`` (:func:`~rowtuples.linalg.in_span`
    at the frame tolerance).  The cut is exact, since every monomial beyond
    ``b``'s degree bound lies in ``I_b``.  The ranks are decided at ``tol``.
    """
    if a.d != b.d:
        return False
    x, rows, frame = a.coefficients, len(b.coefficients), orthonormalize(b.coefficients, tol)
    if len(x) - numerical_rank(x, tol) != rows - frame.shape[1]:
        return False
    cut = np.zeros((rows, x.shape[1]), dtype=np.complex128)
    cut[: len(x)] = x[:rows]
    return in_span(cut, frame, zero_cutoff(float(np.linalg.norm(x)), _FRAME_TOL))


def quotient_algebra(
    ann: AnnihilatorBasis, tol: ToleranceConfig = DEFAULT_TOL
) -> QuotientAlgebra:
    """Monomial basis and structure constants of ``C[x]_{<=m} / span(ann)``.

    :func:`_quotient` on ``W*``, ``W`` an orthonormal basis of the complement
    of ``span(ann)``; ``W*`` has norm 1, so the cutoff is ``rank_rel_tol``.
    """
    return _quotient(ann.d, ann.degree_bound, cokernel_basis(ann.coefficients, tol).conj().T, tol)


def quotient_of(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> QuotientAlgebra:
    """:func:`_quotient` on the orbit matrix ``[T^alpha G]``, computed once per tolerance.

    No kernel is taken: the quotient needs the matrix, its ``sigma_max`` and its rank.
    """

    def compute() -> QuotientAlgebra:
        return _quotient(t.d, nilpotency_index(t, tol=tol), _generator_orbits(t, tol), tol)

    return t.memo(("quotient", tol), compute)


def _quotient(d: int, m: int, e: np.ndarray, tol: ToleranceConfig) -> QuotientAlgebra:
    """Standard monomials ``S``, normal form and multiplication table of the quotient.

    ``e`` represents the quotient map on ``C[x]_{<=m}``: one column per graded
    monomial, kernel the annihilator slice.  In graded order, ``x^alpha``
    joins ``S`` when its column's residual against those of ``S`` (two
    Gram-Schmidt passes) exceeds ``rank_rel_tol * sigma_max(e)``, the rule of
    ``rank_and_kernel``, read with the rank of ``e`` off its singular values.
    ``S`` must have that many monomials and, as the standard set of a term
    order in exact arithmetic, be an order ideal.  A column at or below the
    cutoff has normal form exactly zero, any other solves
    ``e_S c = e[:, beta]`` in least squares.
    """
    monomials = graded_indices(d, m)
    n = len(monomials)
    with np.errstate(over="ignore", invalid="ignore"):
        lengths = np.linalg.norm(e, axis=0)
    if not np.isfinite(lengths).all():
        raise DomainError("the orbit norms overflow: the tuple's norm is too large")
    s = singular_values(e)
    cutoff = tol.rank_rel_tol * (s[0] if s.size else 0.0)
    frame = np.zeros((n, e.shape[0]), dtype=np.complex128)  # rows: the standard columns
    rows, live = [], []  # S, and the other columns above the cutoff
    for pos in np.flatnonzero(lengths > cutoff):  # no residual outgrows its column
        residual, done = e[:, pos], frame[: len(rows)]
        for _ in range(2):
            residual = residual - (done.conj() @ residual) @ done
        norm = math.sqrt(np.vdot(residual, residual).real)
        if norm > cutoff:
            frame[len(rows)] = residual / norm
        (rows if norm > cutoff else live).append(int(pos))

    delta = len(rows)
    if delta != _rank_from_singular_values(s, tol):
        raise DomainError(
            "annihilator span and monomial classes do not fill the slice; "
            "the basis is numerically degenerate"
        )
    basis = tuple(monomials[i] for i in rows)
    failure = "the cutoff outgrows the low orbits: the standard monomials are not an order ideal"
    _require_order_ideal(basis, d, failure)
    standard = np.array(rows, dtype=np.intp)
    reducer = np.zeros((delta, n), dtype=np.complex128)
    reducer[np.arange(delta), standard] = 1.0
    if live:
        reducer[:, live] = np.linalg.lstsq(e[:, standard], e[:, live], rcond=None)[0]
    standard.setflags(write=False)
    reducer.setflags(write=False)
    return QuotientAlgebra(basis, delta, d, m, standard, reducer)


def omega_e(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> set[tuple[int, ...]]:
    """Extremal exponents: ``T^alpha != 0`` but ``T^alpha T_k = 0`` for all k.

    Read off the zero verdicts of the nilpotency pass: those of the
    generator orbits, since ``T^alpha = 0`` exactly when ``T^alpha G = 0``
    for ``G`` generating ``H``, or those of the powers where the powers
    decided the index.
    """
    found = _nakayama_pass(t, tol)
    if found.index is None:
        raise NotNilpotentError("omega_e is defined for nilpotent tuples")
    zero = dict(zip(graded_indices(t.d, found.index), found.zero.tolist()))
    out = set()
    for alpha in graded_indices(t.d, max(found.index - 1, 0)):
        if zero[alpha]:
            continue
        successors = (alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :] for k in range(t.d))
        if all(zero[s] for s in successors):
            out.add(alpha)
    return out


def model_space(ann: AnnihilatorBasis, tol: ToleranceConfig = DEFAULT_TOL) -> ModelSpace:
    """``H_J`` inside the truncation at the degree bound ``m``, as :func:`_model_graph`.

    The graph of the normal form of :func:`quotient_algebra`.  Every
    monomial of degree ``m`` must lie in the annihilator (the nilpotent
    regime), so ``H_J`` is supported on degrees below ``m`` and a higher
    truncation would only pad the frame with zero rows.
    """
    return _model_graph(quotient_algebra(ann, tol))


def _model_graph(q: QuotientAlgebra) -> ModelSpace:
    """``H_J`` as the graph of the quotient's normal form ``c``, in the canonical frame.

    ``v`` is orthogonal to the slice exactly when ``v_gamma = Σ_{alpha ∈ S}
    conj(c_(alpha,gamma)) w_alpha v_alpha / w_gamma`` (``w = ||x^gamma||``).
    That graph basis ``Y`` has one column per standard monomial ``s_i``, in
    graded order, and column ``i`` is zero on every row before ``s_i``: it is
    the identity on the rows of ``S``, and the normal form of ``x^gamma``
    uses only standard monomials before ``gamma``.  So the columns from
    ``i`` on span ``H_J ∩ span{e_gamma : gamma >= s_i}``, and the canonical
    frame, whose column ``i`` is the unit vector of that space orthogonal
    to the next one, is the orthonormalization of ``Y`` that mixes each
    column only with the columns after it: the QR factor of the reversed
    columns, reversed back.  It is taken as ``Y R^-1``, ``R`` the upper
    Cholesky factor of ``Y* Y``, twice (CholeskyQR2, Fukaya et al., ScalA
    2014: one pass loses orthogonality as ``eps cond(Y)^2``), all in numpy:
    numpy has no triangular solver, so ``R^T X^T = Y^T`` goes through its
    general one.  :func:`_fix_phases` then fixes each column's phase.  A
    monomial ideal has the 0/1 graph with ``Y_S = I``, so ``R = I``, every
    step is exact and the frame is the 0/1 staircase columns.
    """
    m = q.degree_bound
    monomials = graded_indices(q.d, m)
    for i, alpha in enumerate(monomials):
        if sum(alpha) == m and q._reducer[:, i].any():  # standard, or a nonzero normal form
            raise DomainError(
                f"annihilator misses the degree-{m} monomial x^{alpha}; "
                "the ideal is not nilpotent at this bound"
            )
    weights = np.array([da_monomial_norm(alpha) for alpha in monomials])
    graph = (q._reducer.conj().T * weights[q._standard] / weights[:, None])[:, ::-1]
    for _ in range(2):
        try:
            r = np.linalg.cholesky(graph.conj().T @ graph, upper=True)
        except np.linalg.LinAlgError as exc:
            raise DomainError("the normal form is too ill-conditioned for a model") from exc
        graph = np.linalg.solve(r.T, graph.T).T
    frame = _fix_phases(graph[:, ::-1])
    frame.setflags(write=False)
    return ModelSpace(d=q.d, degree_cap=m, frame=frame)


def _fix_phases(x: np.ndarray) -> np.ndarray:
    """Each column of ``x`` turned by the unit phase that makes its lead entry real positive.

    The lead entry is the first whose modulus is at least ``(1 - 1e-12)``
    times the column's largest.  Roundoff orders entries whose moduli tie
    exactly either way; under this rule they still give the same lead, so a
    perturbation at roundoff level cannot turn the whole column.
    """
    mods = np.abs(x)
    rows = np.argmax(mods >= (1 - 1e-12) * mods.max(axis=0), axis=0)
    lead = x[rows, np.arange(x.shape[1])]
    return x * (np.conj(lead) / np.abs(lead))


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


def model_of(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[ModelSpace, RowTuple]:
    """Model space of ``Ann(T)`` and its model tuple, computed once per tolerance."""

    def compute() -> tuple[ModelSpace, RowTuple]:
        space = _model_graph(quotient_of(t, tol))
        return space, model_tuple(space)

    return t.memo(("model", tol), compute)
