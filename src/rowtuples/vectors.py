"""Cyclic and separating vector analysis for commuting tuples.

Krylov subspaces, multiplicity counts, separating-vector certificates and
a separating set walked from the Nakayama generators, the Gram operator
of a vector's word orbit, the induced intertwiner from truncated Fock
space, and the quasi-affine witness identifying a cyclic nilpotent tuple
with its model.  Every analysis here is deterministic: none draws random
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    NotCyclicError,
    ShapeError,
    WitnessSearchError,
)
from .fock import TruncatedFock
from .ideals import _fix_phases, model_of, nakayama_generators, orbit_matrix, quotient_of
from .linalg import (
    _ITER_TOL,
    _MAX_ITER,
    DEFAULT_TOL,
    ToleranceConfig,
    as_vector,
    kernel_basis,
    numerical_rank,
    operator_norm,
)
from .polynomials import Polynomial, abelianize
from .subspaces import SubspaceBasis, generated_invariant
from .tuples import RowTuple, require_commuting

__all__ = [
    "GramReport",
    "krylov",
    "is_cyclic",
    "multiplicity",
    "is_separating",
    "separating_witness",
    "separating_greedy",
    "gram_operator",
    "fock_intertwiner",
    "quasiaffine_witness",
]

def _check_vector(t: RowTuple, xi) -> np.ndarray:
    v = as_vector(xi)
    if v.shape[0] != t.dim:
        raise ShapeError(f"vector length {v.shape[0]} does not match dim {t.dim}")
    return v


def krylov(t: RowTuple, xi, tol: ToleranceConfig = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of ``span{T^α ξ}`` (the orbit of ξ)."""
    require_commuting(t, tol)
    return generated_invariant(t, [_check_vector(t, xi)], tol)


def is_cyclic(t: RowTuple, xi, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether the orbit of ξ spans the whole space."""
    return krylov(t, xi, tol).dim == t.dim


def multiplicity(t: RowTuple, *, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Least cardinality of a cyclic set for a commuting nilpotent tuple.

    Computed as ``dim(H / Σ_k T_k H)``: by graded Nakayama, the minimal
    number of module generators (:func:`~rowtuples.ideals.nakayama_generators`).
    """
    return nakayama_generators(t, tol).shape[1]


def is_separating(t: RowTuple, xi, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether ``p(T)ξ = 0`` forces ``p(T) = 0``.

    Equivalent to the orbit of ξ having the dimension of the quotient
    algebra, i.e. injectivity of ``[p] ↦ p(T)ξ``.
    """
    v = _check_vector(t, xi)
    q = quotient_of(t, tol)
    return numerical_rank(orbit_matrix(t, v, q.monomial_basis), tol) == q.dim


def separating_witness(
    t: RowTuple, xi, tol: ToleranceConfig = DEFAULT_TOL
) -> Polynomial | None:
    """A polynomial with ``p(T)ξ = 0`` but ``p(T) ≠ 0``, if one exists.

    Returns None exactly when ξ is separating.  The witness has unit
    coefficient norm over the quotient monomial basis, so ``p(T)`` is
    bounded away from zero by the smallest singular value of the
    evaluation map on basis classes.
    """
    v = _check_vector(t, xi)
    q = quotient_of(t, tol)
    ker = kernel_basis(orbit_matrix(t, v, q.monomial_basis), tol)
    if ker.shape[1] == 0:
        return None
    coeffs = ker[:, 0]
    return Polynomial(
        t.d, {alpha: coeffs[i] for i, alpha in enumerate(q.monomial_basis)}
    )


def separating_greedy(
    t: RowTuple, *, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[list[np.ndarray], list[int]]:
    """A separating set of at most ``min(μ, δ)`` vectors, taken from a cyclic set.

    For a commuting tuple a cyclic set separates: if ``p(T)g_j = 0`` for
    every generator, then ``p(T)H = Σ_j C[T] p(T)g_j = 0``.  Walks the μ
    Nakayama generators (:func:`~rowtuples.ideals.nakayama_generators`) in
    order, keeping each that strictly shrinks the joint kernel
    ``K = {[p] : p(T)ξ_j = 0 ∀j}`` in quotient coordinates, from the full
    algebra down to zero.  Returns the chosen vectors and the trace of
    kernel dimensions, from δ down to 0; raises :class:`WitnessSearchError`
    if the generators leave a kernel.
    """
    q = quotient_of(t, tol)
    kframe = np.eye(q.dim, dtype=np.complex128)
    chosen: list[np.ndarray] = []
    trace = [q.dim]
    for g in nakayama_generators(t, tol).T:
        if kframe.shape[1] == 0:
            break
        shrunk = kframe @ kernel_basis(orbit_matrix(t, g, q.monomial_basis) @ kframe, tol)
        if shrunk.shape[1] < kframe.shape[1]:
            chosen.append(g.copy())
            kframe = shrunk
            trace.append(kframe.shape[1])
    if kframe.shape[1]:
        raise WitnessSearchError(
            f"the Nakayama generators leave a joint kernel of dimension {kframe.shape[1]}"
        )
    return chosen, trace


@dataclass(frozen=True)
class GramReport:
    """Gram operator of a word orbit with its norm bound."""

    gram: np.ndarray
    bound: float
    cyclic: bool


def gram_operator(
    t: RowTuple, xi, tol: ToleranceConfig = DEFAULT_TOL
) -> GramReport:
    """``G = Σ_w (T_w ξ)(T_w ξ)ᴴ`` summed over all words.

    For commuting tuples the word sum collapses to multi-index terms with
    multinomial weights, which is exactly the iteration of the completely
    positive map ``Φ(X) = Σ T_k X T_kᴴ`` on ``ξξᴴ``; the sum is finite
    for nilpotent tuples and truncated at convergence for pure ones.
    """
    v = _check_vector(t, xi)
    require_commuting(t, tol)
    term = np.outer(v, v.conj())
    gram = np.zeros_like(term)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            gram = gram + term
            peak = float(np.abs(gram).max())
            if not np.isfinite(peak):
                raise ConvergenceError("the gram series diverges: a partial sum is not finite")
            if np.abs(term).max() <= _ITER_TOL * max(1.0, peak):
                break
            term = sum(mat @ term @ mat.conj().T for mat in t.mats)
        else:
            raise ConvergenceError("gram series did not converge within the budget")
    gram = (gram + gram.conj().T) / 2.0
    return GramReport(gram, operator_norm(gram), is_cyclic(t, v, tol))


def fock_intertwiner(
    t: RowTuple, xi, max_length: int, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Matrix of ``e_w ↦ T_w ξ`` on the truncated Fock space.

    The tuple commutes, so ``T_w ξ = T^α ξ`` for the letter counts ``α``
    of the word ``w``, and the columns come from :func:`orbit_matrix`.
    When ``max_length`` reaches the nilpotency index, the result
    intertwines the creation operators with the tuple exactly, and its
    squared norm equals the Gram bound.
    """
    v = _check_vector(t, xi)
    require_commuting(t, tol)
    words = TruncatedFock(t.d, max_length).basis()
    return orbit_matrix(t, v, [abelianize(w, t.d) for w in words])


def quasiaffine_witness(t: RowTuple, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Invertible ``X`` with ``X (M_J)_k = T_k X`` for ``J = Ann(T)``.

    Requires a cyclic nilpotent tuple.  With ξ spanning ``(Σ_k T_k H)^⊥``,
    its phase fixed by the model frame's rule (:func:`~rowtuples.ideals._fix_phases`),
    and ``1`` the model's constant,
    ``X = [T^α ξ] [M^α 1]⁻¹`` over the quotient monomial basis, scaled to
    unit norm: deterministic, ``X 1 ∥ ξ``, and the identity on a model tuple.
    """
    gens = nakayama_generators(t, tol)
    if gens.shape[1] != 1:
        raise NotCyclicError("quasi-affine witness requires a cyclic tuple")
    space, model = model_of(t, tol)
    if model.dim != t.dim:
        raise WitnessSearchError(
            f"model dimension {model.dim} does not match tuple dimension {t.dim}"
        )
    xi = _fix_phases(gens)[:, 0]
    q = quotient_of(t, tol)
    orbit = orbit_matrix(t, xi, q.monomial_basis)
    model_orbit = orbit_matrix(model, space.frame[0].conj(), q.monomial_basis)
    x = np.linalg.solve(model_orbit.T, orbit.T).T
    if numerical_rank(x, tol) != t.dim:
        raise WitnessSearchError("the orbit map of the generator is not invertible")
    return x / operator_norm(x)
