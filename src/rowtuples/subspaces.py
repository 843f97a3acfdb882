"""Invariant and co-invariant subspace machinery for commuting tuples.

Restrictions, compressions, intertwiner spaces, annihilator-rigidity
verdicts, invariant-decomposition search through commutant idempotents,
and the splitting construction for invariant subspaces whose restricted
adjoint is cyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import schur, solve_sylvester

from .errors import (
    DomainError,
    HypothesisError,
    NotNilpotentError,
    ShapeError,
    WitnessSearchError,
)
from .ideals import annihilator, annihilators_equal
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    as_vector,
    kernel_basis,
    norm_at_most,
    numerical_rank,
    orthonormalize,
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


def is_invariant(
    t: RowTuple, m: SubspaceBasis, tol: ToleranceConfig = DEFAULT_TOL, *, atol: float = 1e-9
) -> bool:
    """Whether ``T_k M ⊆ M`` for all k, i.e. ``(I−P)T_kP`` vanishes."""
    _same_ambient(t, m)
    p = m.projector()
    comp = np.eye(t.dim) - p
    for mat, norm in zip(t.mats, t.norms):
        if not norm_at_most(comp @ mat @ p, atol * max(1.0, norm), tol):
            return False
    return True


def is_coinvariant(
    t: RowTuple, m: SubspaceBasis, tol: ToleranceConfig = DEFAULT_TOL, *, atol: float = 1e-9
) -> bool:
    """Whether the orthogonal complement of ``M`` is invariant."""
    _same_ambient(t, m)
    p = m.projector()
    comp = np.eye(t.dim) - p
    for mat, norm in zip(t.mats, t.norms):
        if not norm_at_most(p @ mat @ comp, atol * max(1.0, norm), tol):
            return False
    return True


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


def restrict(
    t: RowTuple,
    m: SubspaceBasis,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    check: bool = True,
) -> RowTuple:
    """Restriction ``T|_M`` in the coordinates of the frame.

    Requires an invariant subspace; the compression formula is exact there.
    """
    _same_ambient(t, m)
    if check and not is_invariant(t, m, tol):
        raise DomainError("restrict requires an invariant subspace")
    f = m.frame
    return RowTuple([f.conj().T @ mat @ f for mat in t.mats])


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


def _require_nilpotent(t: RowTuple, tol: ToleranceConfig) -> int:
    idx = nilpotency_index(t, tol=tol)
    if idx is None:
        raise NotNilpotentError("tuple is not nilpotent")
    return idx


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

    _require_nilpotent(t, tol)
    for label, sub in (("first", m), ("second", n)):
        _same_ambient(t, sub)
        if not is_invariant(t, sub, tol):
            raise DomainError(f"{label} subspace is not invariant")

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

    ann_m = annihilator(restrict(t, m, tol, check=False), tol)
    ann_n = annihilator(restrict(t, n, tol, check=False), tol)
    ann_eq = annihilators_equal(ann_m, ann_n)
    sp_eq = m.dim == n.dim and subspaces_equal(m.frame, n.frame)
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

    _require_nilpotent(t, tol)
    for label, sub in (("first", m), ("second", n)):
        _same_ambient(t, sub)
        if not is_coinvariant(t, sub, tol):
            raise DomainError(f"{label} subspace is not co-invariant")

    if multiplicity(t, tol=tol) != 1:
        return RigidityReport(
            Verdict.INAPPLICABLE, None, None, None, "requires a cyclic tuple"
        )

    ann_m = annihilator(compress(t, m), tol)
    ann_n = annihilator(compress(t, n), tol)
    ann_eq = annihilators_equal(ann_m, ann_n)
    sp_eq = m.dim == n.dim and subspaces_equal(m.frame, n.frame)
    verdict = Verdict.CONSISTENT if ann_eq == sp_eq else Verdict.THEOREM_VIOLATION
    return RigidityReport(verdict, "cyclic", ann_eq, sp_eq)


@dataclass(frozen=True)
class DecompositionReport:
    """Existence of a nontrivial invariant decomposition, with certificate."""

    exists: bool
    commutant_dim: int
    semisimple_dim: int
    idempotent: np.ndarray | None


def _commutant_basis(t: RowTuple, tol: ToleranceConfig) -> list[np.ndarray]:
    return list(intertwiner_space(t, t, tol).basis)


def _eig_clusters(eigs: np.ndarray, rel_gap: float = 1e-6) -> list[list[int]]:
    """Group eigenvalues into connected clusters at a relative gap."""
    n = len(eigs)
    thr = rel_gap * max(1.0, float(np.abs(eigs).max()))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= thr:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _spectral_idempotent(
    a: np.ndarray, t: RowTuple, tol: ToleranceConfig
) -> np.ndarray | None:
    """Riesz projector onto one eigenvalue cluster of a commutant element.

    Returns None when the element has a single cluster or the candidate
    fails the idempotent/commutation certificate checks.
    """
    n = a.shape[0]
    eigs = np.linalg.eigvals(a)
    clusters = _eig_clusters(eigs)
    if len(clusters) < 2:
        return None
    centers = [eigs[idx].mean() for idx in clusters]
    pick = max(range(len(clusters)), key=lambda i: (centers[i].real, centers[i].imag))
    inside = eigs[clusters[pick]]
    outside = np.concatenate(
        [eigs[idx] for i, idx in enumerate(clusters) if i != pick]
    )

    def sorter(z):
        return np.min(np.abs(z - inside)) < np.min(np.abs(z - outside))

    u, z, sdim = schur(a, output="complex", sort=sorter)
    if sdim == 0 or sdim == n:
        return None
    a11 = u[:sdim, :sdim]
    b = u[:sdim, sdim:]
    a22 = u[sdim:, sdim:]
    try:
        r = solve_sylvester(a11, -a22, b)
    except np.linalg.LinAlgError:
        return None
    p = np.zeros((n, n), dtype=np.complex128)
    p[:sdim, :sdim] = np.eye(sdim)
    p[:sdim, sdim:] = r
    e = z @ p @ z.conj().T
    for _ in range(3):
        ee = e @ e
        e = 3.0 * ee - 2.0 * (ee @ e)
    if not norm_at_most(e @ e - e, 1e-9, tol):
        return None
    for mat, norm in zip(t.mats, t.norms):
        if not norm_at_most(e @ mat - mat @ e, 1e-9 * max(1.0, norm), tol):
            return None
    rank = float(np.trace(e).real)
    if abs(rank - round(rank)) > 0.1 or not 0 < round(rank) < n:
        return None
    return e


def decomposition_exists(
    t: RowTuple, *, seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL
) -> DecompositionReport:
    """Decide decomposability through the commutant's semisimple quotient.

    The commutant algebra is decomposable-detecting: a nontrivial pair of
    complementary invariant subspaces exists exactly when the commutant
    contains an idempotent other than 0 and I, equivalently when the
    semisimple quotient (commutant modulo its radical) has dimension > 1.
    The radical is the kernel of the trace form of the left regular
    representation, valid in characteristic zero.
    """
    basis = _commutant_basis(t, tol)
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
    semisimple = numerical_rank(k, tol)
    exists = semisimple > 1
    if not exists:
        return DecompositionReport(False, r, semisimple, None)

    idem = None
    rng = np.random.default_rng(seed)
    for attempt in range(len(basis) + 32):
        if attempt < len(basis):
            a = basis[attempt]
        else:
            w = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            a = sum(c * b for c, b in zip(w, basis))
        idem = _spectral_idempotent(a, t, tol)
        if idem is not None:
            break
    if idem is None:
        raise WitnessSearchError(
            "semisimple quotient is nontrivial but no idempotent certificate "
            "was found within the retry budget"
        )
    idem.setflags(write=False)
    return DecompositionReport(True, r, semisimple, idem)


def decomposition_find(
    t: RowTuple,
    want_cyclic: bool = False,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Search for a pair of complementary nontrivial invariant subspaces.

    Returns ``(M, N)`` with trivial intersection and full span, or None
    when no decomposition exists (or no candidate passes the cyclicity
    filter when ``want_cyclic``).
    """
    from .vectors import multiplicity

    report = decomposition_exists(t, seed=seed, tol=tol)
    if not report.exists:
        return None
    basis = _commutant_basis(t, tol)
    rng = np.random.default_rng(seed + 1)

    def candidates():
        yield report.idempotent
        for _ in range(32):
            w = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            a = sum(c * b for c, b in zip(w, basis))
            e = _spectral_idempotent(a, t, tol)
            if e is not None:
                yield e

    eye = np.eye(t.dim)
    for e in candidates():
        for part in (e, eye - e):
            m = SubspaceBasis.from_span(orthonormalize(part, tol), tol)
            n = SubspaceBasis.from_span(orthonormalize(eye - part, tol), tol)
            if m.dim == 0 or n.dim == 0 or m.dim + n.dim != t.dim:
                continue
            if not (is_invariant(t, m, tol, atol=1e-7) and is_invariant(t, n, tol, atol=1e-7)):
                continue
            if want_cyclic and multiplicity(restrict(t, m, tol, check=False), tol=tol) != 1:
                continue
            return m, n
    return None


def splitting_construct(
    t: RowTuple,
    m: SubspaceBasis,
    *,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
    max_tries: int = 24,
) -> SubspaceBasis:
    """Complement an invariant subspace with adjoint-cyclic restriction.

    Given nilpotent ``T`` and invariant ``M`` with ``(T|_M)*`` cyclic and
    ``Ann(T|_M) = Ann(T)``, returns an invariant ``N`` with ``M ∩ N = 0``
    and ``M + N`` the whole space: the orthogonal complement of the
    adjoint-orbit closure of a cyclic vector for the restricted adjoint.
    Raises :class:`HypothesisError` naming the first failed hypothesis.
    """
    from .vectors import is_cyclic, multiplicity

    _same_ambient(t, m)
    if nilpotency_index(t, tol=tol) is None:
        raise HypothesisError("nilpotent", "tuple is not nilpotent")
    if not is_invariant(t, m, tol):
        raise HypothesisError("invariant_subspace", "subspace is not invariant")
    r = restrict(t, m, tol, check=False)
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

    rng = np.random.default_rng(seed)
    xi_m = None
    for _ in range(max_tries):
        cand = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        if is_cyclic(radj, cand, tol=tol):
            xi_m = cand
            break
    if xi_m is None:
        raise WitnessSearchError(
            "no cyclic vector found for the adjoint restriction"
        )
    xi = m.frame @ xi_m
    orbit = generated_invariant(t.adjoint(), [xi], tol)
    return orbit.complement(tol)
