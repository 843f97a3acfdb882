"""Invariant and co-invariant subspace machinery for commuting tuples.

Restrictions, compressions, intertwiner spaces, annihilator-rigidity
verdicts, invariant decompositions from an idempotent of the commutant
(lifted from its semisimple quotient, with no search), and the splitting
construction for invariant subspaces whose restricted adjoint is cyclic
(from that adjoint's Nakayama generator, again with no search).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DomainError,
    HypothesisError,
    NotNilpotentError,
    ShapeError,
    WitnessSearchError,
)
from .ideals import annihilator, annihilators_equal, nakayama_generators, orbit_matrix, quotient_of
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    as_vector,
    cokernel_basis,
    in_span,
    kernel_basis,
    norm_at_most,
    orthonormalize,
    rank_and_kernel,
    subspaces_equal,
)
from .tuples import RowTuple, nilpotency_index

__all__ = [
    "SubspaceBasis",
    "IntertwinerSpace",
    "Verdict",
    "RigidityReport",
    "DecompositionReport",
    "is_invariant",
    "is_coinvariant",
    "generated_invariant",
    "restrict",
    "compress",
    "intertwiner_space",
    "rigidity_invariant_check",
    "rigidity_coinvariant_check",
    "decomposition_exists",
    "decomposition_find",
    "splitting_construct",
]

_FRAME_TOL = 1e-8


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of C^n stored as a matrix with orthonormal columns."""

    ambient_dim: int
    frame: np.ndarray

    def __post_init__(self):
        frame = as_matrix(self.frame)
        if frame.shape[0] != self.ambient_dim:
            raise ShapeError(
                f"frame rows {frame.shape[0]} do not match ambient dim {self.ambient_dim}"
            )
        if frame.shape[1] > self.ambient_dim:
            raise ShapeError("frame has more columns than the ambient dimension")
        gram = frame.conj().T @ frame
        if gram.size and np.abs(gram - np.eye(frame.shape[1])).max() > _FRAME_TOL:
            raise ShapeError("frame columns are not orthonormal")
        frame = frame.copy()
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @classmethod
    def from_span(cls, columns, tol: ToleranceConfig = DEFAULT_TOL) -> "SubspaceBasis":
        """Orthonormalize the given spanning columns (matrix or vector list)."""
        if isinstance(columns, (list, tuple)):
            if not columns:
                raise ShapeError("cannot infer the ambient dimension from no vectors")
            columns = np.column_stack([as_vector(v) for v in columns])
        mat = as_matrix(columns)
        return cls(mat.shape[0], orthonormalize(mat, tol))

    @classmethod
    def full(cls, n: int) -> "SubspaceBasis":
        return cls(n, np.eye(n, dtype=np.complex128))

    @classmethod
    def zero(cls, n: int) -> "SubspaceBasis":
        return cls(n, np.zeros((n, 0), dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    def complement(self, tol: ToleranceConfig = DEFAULT_TOL) -> "SubspaceBasis":
        """Orthogonal complement within the ambient space."""
        return SubspaceBasis(self.ambient_dim, kernel_basis(self.frame.conj().T, tol))


def _same_ambient(t: RowTuple, m: SubspaceBasis) -> None:
    if m.ambient_dim != t.dim:
        raise ShapeError(
            f"subspace ambient dim {m.ambient_dim} does not match tuple dim {t.dim}"
        )


def _corner_vanishes(
    t: RowTuple, m: SubspaceBasis, tol: ToleranceConfig, atol: float, *, upper: bool
) -> bool:
    """Whether ``P T_k (I−P)`` (``upper``) or ``(I−P) T_k P`` vanishes for all k.

    Their norms are those of ``(I−P) T_k* F`` and ``(I−P) T_k F``, ``F`` the
    frame, so :func:`~rowtuples.linalg.in_span` tests ``T_k* F`` or ``T_k F``.
    """
    _same_ambient(t, m)
    mats = t.adjoint().mats if upper else t.mats
    return all(
        in_span(mat @ m.frame, m.frame, atol * max(1.0, norm), tol)
        for mat, norm in zip(mats, t.norms)
    )


def is_invariant(
    t: RowTuple, m: SubspaceBasis, tol: ToleranceConfig = DEFAULT_TOL, *, atol: float = 1e-9
) -> bool:
    """Whether ``T_k M ⊆ M`` for all k, i.e. ``(I−P)T_kP`` vanishes."""
    return _corner_vanishes(t, m, tol, atol, upper=False)


def is_coinvariant(
    t: RowTuple, m: SubspaceBasis, tol: ToleranceConfig = DEFAULT_TOL, *, atol: float = 1e-9
) -> bool:
    """Whether the orthogonal complement of ``M`` is invariant."""
    return _corner_vanishes(t, m, tol, atol, upper=True)


def generated_invariant(
    t: RowTuple, seeds, tol: ToleranceConfig = DEFAULT_TOL
) -> SubspaceBasis:
    """Smallest invariant subspace containing the seed vectors.

    Computed as the Krylov closure: apply every coordinate matrix to the
    current span and re-orthonormalize until the dimension stabilizes.
    """
    cols = [as_vector(v) for v in seeds]
    for v in cols:
        if v.shape[0] != t.dim:
            raise ShapeError(f"seed length {v.shape[0]} does not match dim {t.dim}")
    if cols:
        frame = orthonormalize(np.column_stack(cols), tol)
    else:
        frame = np.zeros((t.dim, 0), dtype=np.complex128)
    while 0 < frame.shape[1] < t.dim:
        grown = orthonormalize(
            np.hstack([frame] + [mat @ frame for mat in t.mats]), tol
        )
        if grown.shape[1] == frame.shape[1]:
            frame = grown
            break
        frame = grown
    return SubspaceBasis(t.dim, frame)


def restrict(t: RowTuple, m: SubspaceBasis, tol: ToleranceConfig = DEFAULT_TOL) -> RowTuple:
    """Restriction ``T|_M`` in the coordinates of the frame.

    Requires an invariant subspace; the compression formula is exact there.
    """
    if not is_invariant(t, m, tol):
        raise DomainError("restrict requires an invariant subspace")
    return compress(t, m)


def compress(t: RowTuple, m: SubspaceBasis) -> RowTuple:
    """Compression ``P_M T|_M`` for an arbitrary subspace."""
    _same_ambient(t, m)
    f = m.frame
    return RowTuple([f.conj().T @ mat @ f for mat in t.mats])


@dataclass(frozen=True)
class IntertwinerSpace:
    """Solution space of ``X S_k = T_k X`` for all k (no injectivity filter)."""

    source: RowTuple
    target: RowTuple
    basis: tuple


def intertwiner_space(
    source: RowTuple, target: RowTuple, tol: ToleranceConfig = DEFAULT_TOL
) -> IntertwinerSpace:
    """Orthonormal (Frobenius) basis of ``{X : X source_k = target_k X}``."""
    if source.d != target.d:
        raise ShapeError(f"variable counts differ: {source.d} vs {target.d}")
    s, th = source.dim, target.dim
    if s * th == 0:
        return IntertwinerSpace(source, target, ())
    eye_s = np.eye(s)
    eye_t = np.eye(th)
    blocks = [
        np.kron(eye_t, sk.T) - np.kron(tk, eye_s)
        for sk, tk in zip(source.mats, target.mats)
    ]
    ker = kernel_basis(np.vstack(blocks), tol)
    basis = []
    for j in range(ker.shape[1]):
        x = ker[:, j].reshape(th, s)
        x.setflags(write=False)
        basis.append(x)
    return IntertwinerSpace(source, target, tuple(basis))


class Verdict(str, Enum):
    CONSISTENT = "CONSISTENT"
    THEOREM_VIOLATION = "THEOREM_VIOLATION"
    INAPPLICABLE = "INAPPLICABLE"


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of an annihilator-rigidity comparison.

    ``route`` names the hypothesis under which the comparison carries
    force; comparison fields are ``None`` when no hypothesis applies.
    """

    verdict: Verdict
    route: str | None
    annihilators_match: bool | None
    subspaces_match: bool | None
    detail: str = ""


def _check_pair(
    t: RowTuple, m: SubspaceBasis, n: SubspaceBasis, tol: ToleranceConfig, member, kind: str
) -> None:
    """Shared hypotheses: ``T`` nilpotent and both subspaces pass ``member``."""
    if nilpotency_index(t, tol=tol) is None:
        raise NotNilpotentError("tuple is not nilpotent")
    for label, sub in (("first", m), ("second", n)):
        if not member(t, sub, tol):
            raise DomainError(f"{label} subspace is not {kind}")


def _compare_pair(
    t: RowTuple, m: SubspaceBasis, n: SubspaceBasis, tol: ToleranceConfig
) -> tuple[bool, bool]:
    """Whether the compressions share an annihilator, and whether ``M = N``."""
    ann_eq = annihilators_equal(
        annihilator(compress(t, m), tol), annihilator(compress(t, n), tol)
    )
    return ann_eq, subspaces_equal(m.frame, n.frame)


def rigidity_invariant_check(
    t: RowTuple,
    m: SubspaceBasis,
    n: SubspaceBasis,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RigidityReport:
    """Compare annihilators of two restrictions against subspace equality.

    Applicable when the adjoint tuple is cyclic (any invariant pair), or
    when the tuple itself is cyclic and one of the subspaces is the whole
    space.  Under an applicable hypothesis, equal annihilators with
    distinct subspaces contradict the rigidity statement.
    """
    from .vectors import multiplicity

    _check_pair(t, m, n, tol, is_invariant, "invariant")
    if multiplicity(t.adjoint(), tol=tol) == 1:
        route = "adjoint-cyclic"
    elif multiplicity(t, tol=tol) == 1 and t.dim in (m.dim, n.dim):
        route = "cyclic-ambient"
    else:
        return RigidityReport(
            Verdict.INAPPLICABLE,
            None,
            None,
            None,
            "requires a cyclic adjoint tuple, or a cyclic tuple compared "
            "against the whole space",
        )
    ann_eq, sp_eq = _compare_pair(t, m, n, tol)
    verdict = (
        Verdict.THEOREM_VIOLATION if (ann_eq and not sp_eq) else Verdict.CONSISTENT
    )
    return RigidityReport(verdict, route, ann_eq, sp_eq)


def rigidity_coinvariant_check(
    t: RowTuple,
    m: SubspaceBasis,
    n: SubspaceBasis,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RigidityReport:
    """Compare annihilators of two compressions against subspace equality.

    Applicable for cyclic nilpotent tuples and co-invariant subspaces,
    where annihilator equality of the compressions must coincide with
    equality of the subspaces.
    """
    from .vectors import multiplicity

    _check_pair(t, m, n, tol, is_coinvariant, "co-invariant")
    if multiplicity(t, tol=tol) != 1:
        return RigidityReport(
            Verdict.INAPPLICABLE, None, None, None, "requires a cyclic tuple"
        )
    ann_eq, sp_eq = _compare_pair(t, m, n, tol)
    verdict = Verdict.CONSISTENT if ann_eq == sp_eq else Verdict.THEOREM_VIOLATION
    return RigidityReport(verdict, "cyclic", ann_eq, sp_eq)


@dataclass(frozen=True)
class DecompositionReport:
    """Existence of a nontrivial invariant decomposition, with certificate."""

    exists: bool
    commutant_dim: int
    semisimple_dim: int
    idempotent: np.ndarray | None


# Relative distance within which eigenvalues of the generic element of the
# semisimple quotient count as one cluster.  That element is diagonalizable,
# so its repeated eigenvalues agree to roundoff, not to ε^{1/ν}.
_CLUSTER_GAP = 1e-6


def _commutant(t: RowTuple, tol: ToleranceConfig) -> tuple:
    """Basis of the commutant ``{X : X T_k = T_k X}``, computed once per tolerance."""
    return t.memo(("commutant", tol), lambda: intertwiner_space(t, t, tol).basis)


def decomposition_exists(
    t: RowTuple, *, tol: ToleranceConfig = DEFAULT_TOL
) -> DecompositionReport:
    """Decide decomposability through the commutant's semisimple quotient.

    A nontrivial pair of complementary invariant subspaces exists exactly
    when the commutant ``C`` contains an idempotent other than 0 and I,
    equivalently when ``C/R`` has dimension > 1, where the radical ``R``
    is the kernel of the trace form of the left regular representation
    (characteristic zero).  The certificate is built once, without a
    search: left multiplication on ``C/R`` is a faithful representation of
    that semisimple algebra, so a fixed generic element of it is
    diagonalizable; the eigenprojector of one of its eigenvalue clusters
    has a preimage in ``C`` that is idempotent modulo ``R``, and the
    Newton iteration ``e ← 3e² − 2e³`` lifts it to an idempotent of ``C``
    (Friedl & Rónyai, STOC 1985).  Raises :class:`WitnessSearchError` when
    the lifted idempotent fails its certificate.  The tuple keeps the
    report and the commutant per ``tol``.
    """
    return t.memo(("decomposition", tol), lambda: _decomposition_report(t, tol))


def _decomposition_report(t: RowTuple, tol: ToleranceConfig) -> DecompositionReport:
    basis = _commutant(t, tol)
    r = len(basis)
    if r == 0:
        return DecompositionReport(False, 0, 0, None)
    flat = np.column_stack([b.ravel() for b in basis])
    left = []
    for b in basis:
        cols = np.column_stack([(b @ c).ravel() for c in basis])
        left.append(flat.conj().T @ cols)
    k = np.empty((r, r), dtype=np.complex128)
    for i in range(r):
        for j in range(i, r):
            k[i, j] = k[j, i] = np.trace(left[i] @ left[j])
    semisimple, radical = rank_and_kernel(k, tol)
    if semisimple <= 1:
        return DecompositionReport(False, r, semisimple, None)

    # R is a two-sided ideal, so compressing left multiplications to the
    # coordinates orthogonal to R is an algebra map with kernel exactly R.
    # (Compressing C itself to (R·H)^⊥ is not: in 0 ⊕ maxcount a radical
    # map covers the first summand, and its idempotent dies there too.)
    q = cokernel_basis(radical, tol)
    images = np.column_stack([(q.conj().T @ m @ q).ravel() for m in left])
    # A fixed element with distinct phases and moduli stands in for a random
    # one, so the report needs no seed and is the same on every run.
    j = np.arange(r)
    y = (images @ (np.exp(2.4j * j) * (1.0 + j / r))).reshape(semisimple, semisimple)
    vals, vecs = np.linalg.eig(y)
    near = np.abs(vals - vals[np.argmax(vals.real)]) <= _CLUSTER_GAP * np.abs(vals).max()
    p = vecs[:, near] @ np.linalg.pinv(vecs)[near]
    coeffs = np.linalg.lstsq(images, p.ravel(), rcond=None)[0]
    e = np.tensordot(coeffs, np.array(basis), axes=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(np.ceil(np.log2(t.dim))) + 2):
            ee = e @ e
            e = 3.0 * ee - 2.0 * (ee @ e)
    if not _certifies(e, t, tol):
        raise WitnessSearchError(
            "the idempotent lifted from the semisimple quotient fails its certificate"
        )
    e.setflags(write=False)
    return DecompositionReport(True, r, semisimple, e)


def _certifies(e: np.ndarray, t: RowTuple, tol: ToleranceConfig) -> bool:
    """Whether ``e`` is a nontrivial idempotent commuting with the tuple."""
    if not np.isfinite(e).all() or not norm_at_most(e @ e - e, 1e-9, tol):
        return False
    if not all(
        norm_at_most(e @ mat - mat @ e, 1e-9 * max(1.0, norm), tol)
        for mat, norm in zip(t.mats, t.norms)
    ):
        return False
    rank = float(np.trace(e).real)
    return abs(rank - round(rank)) <= 0.1 and 0 < round(rank) < t.dim


def decomposition_find(t: RowTuple, *, tol: ToleranceConfig = DEFAULT_TOL):
    """A pair of complementary nontrivial invariant subspaces, or None.

    Returns ``(M, N)``, the ranges of the certificate ``e`` of
    :func:`decomposition_exists` and of ``I − e``, when both pass the
    invariance test; None when no decomposition exists.
    """
    report = decomposition_exists(t, tol=tol)
    if not report.exists:
        return None
    e = report.idempotent
    m, n = (SubspaceBasis(t.dim, orthonormalize(part, tol)) for part in (e, np.eye(t.dim) - e))
    if m.dim + n.dim != t.dim:
        return None
    if not (is_invariant(t, m, tol, atol=1e-7) and is_invariant(t, n, tol, atol=1e-7)):
        return None
    return m, n


def splitting_construct(
    t: RowTuple, m: SubspaceBasis, *, tol: ToleranceConfig = DEFAULT_TOL
) -> SubspaceBasis:
    """Complement an invariant subspace with adjoint-cyclic restriction.

    Given nilpotent ``T`` and invariant ``M`` with ``(T|_M)*`` cyclic and
    ``Ann(T|_M) = Ann(T)``, returns an invariant ``N`` with ``M ∩ N = 0``
    and ``M + N`` the whole space, with no search.  The Nakayama generator
    ``ξ`` of ``(T|_M)*`` (as a vector of ``M``) is cyclic for it, so ``P_M``
    maps the ``T*``-orbit ``K`` of ``ξ`` onto ``M``; ``K`` is spanned by
    ``T*^α ξ`` over the quotient's monomial basis ``S``, and the hypotheses
    give ``|S| = dim M``, so ``K ∩ M^⊥ = 0`` and ``N = K^⊥`` is the trailing
    part of a complete QR of that orbit matrix.  Raises
    :class:`HypothesisError` naming the first failed hypothesis, and
    :class:`WitnessSearchError` when ``|S|`` is not ``dim M``.
    """
    from .vectors import multiplicity

    _same_ambient(t, m)
    if nilpotency_index(t, tol=tol) is None:
        raise HypothesisError("nilpotent", "tuple is not nilpotent")
    if not is_invariant(t, m, tol):
        raise HypothesisError("invariant_subspace", "subspace is not invariant")
    r = compress(t, m)
    radj = r.adjoint()
    if m.dim == 0 or multiplicity(radj, tol=tol) != 1:
        raise HypothesisError(
            "adjoint_cyclic", "the adjoint of the restriction is not cyclic"
        )
    if not annihilators_equal(annihilator(r, tol), annihilator(t, tol)):
        raise HypothesisError(
            "annihilator_equality",
            "the restriction has a different annihilator than the tuple",
        )

    xi = m.frame @ nakayama_generators(radj, tol)[:, 0]
    orbit = orbit_matrix(t.adjoint(), xi, quotient_of(t, tol).monomial_basis)
    if orbit.shape[1] != m.dim:
        raise WitnessSearchError(
            f"the quotient has dimension {orbit.shape[1]}, not dim M = {m.dim}"
        )
    q = np.linalg.qr(orbit, mode="complete")[0]
    return SubspaceBasis(t.dim, q[:, m.dim :])
