"""Numerical linear algebra substrate: the tolerance, norms, ranks, frames.

All matrices are dense ``numpy.ndarray`` objects with dtype ``complex128``;
``operator_norm`` alone also takes a ``scipy.sparse`` matrix.  Everything
here runs on numpy: scipy is imported only by ``operator_norm``'s Lanczos
branch, and sparse input is recognised without importing it, since a
caller holding a sparse matrix has imported ``scipy.sparse`` already.

One number, ``ToleranceConfig.rank_rel_tol``, is the caller's threshold
of every rank decision and zero test.  A rank decision cuts at
``rank_rel_tol * sigma_max`` of the matrix at hand, so uniformly scaled
inputs get identical decisions.  A zero test of a tuple (a commutator, an
orbit block, the corner of a subspace) cuts at :func:`zero_cutoff` of a
reference scale that the caller names, relative above scale 1 and
absolute below; ``numerical_rank`` and ``cokernel_basis`` take such a
cutoff as their ``floor``.  Iteration budgets and the frame tolerance of
subspace and ideal equality are private constants.

Each decision computes only the factors it returns.  ``numerical_rank``
needs singular values alone.  ``rank_and_kernel`` needs the right singular
vectors too, but never the left ones: a tall matrix is first reduced to
the square triangular factor ``R`` of its QR decomposition
(``numpy.linalg.qr`` in mode ``"r"``), which has the same singular values
and right singular vectors (the R-SVD of T. F. Chan, ACM TOMS 8(1), 1982),
so no factor as tall as the input is ever formed.
``cokernel_basis`` needs the left singular vectors instead, and takes them
from one SVD of the matrix itself, not of its adjoint.

A decision that only compares a norm with a cutoff goes through
``norm_at_most``, never through ``operator_norm``.  The Frobenius norm
brackets the spectral norm, ``||A||_F / sqrt(min(m, n)) <= ||A||_2 <=
||A||_F`` (Golub & Van Loan, *Matrix Computations*, section 2.3), so the
verdict is settled without an SVD unless the cutoff falls inside that
bracket; only then does an SVD run.  Norms whose value is reported or
used keep ``operator_norm``.

Whether ``span(A)`` lies in ``span(F)``, for an orthonormal frame ``F``, is
one such decision (``in_span``) on the residual ``A - F (F* A)``.
Invariance, subspace equality and ideal equality all reduce to it, so no
projector ``F F*`` is formed for a decision; ``projector`` and
``subspace_distance`` remain as the reference of the tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotHermitianError, ShapeError, ToleranceError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "zero_cutoff",
    "as_matrix",
    "as_vector",
    "operator_norm",
    "norm_at_most",
    "in_span",
    "rank_and_kernel",
    "numerical_rank",
    "kernel_basis",
    "cokernel_basis",
    "psd_below_identity",
    "orthonormalize",
    "projector",
    "subspace_distance",
    "subspaces_equal",
]

# Above this edge length, operator_norm switches from a full SVD to a
# Lanczos eigensolve of the Gram operator; the crossover is well below
# the point where dense SVD time becomes noticeable.
_DENSE_SVD_LIMIT = 600
# ARPACK's complex eigensolver needs a Gram operator of order at least 3;
# thinner matrices always get the (then cheap) full SVD.
_LANCZOS_MIN_ORDER = 3
# Relative margin of the Frobenius bracket in norm_at_most.  Rounding moves
# the computed Frobenius and spectral norms by far less than this, so a
# verdict settled inside the margins is the one the SVD would give.
_BRACKET_MARGIN = 1e-8
# Below this Frobenius norm, squared entries may have underflowed and the
# computed norm may be off; norm_at_most then asks the SVD.  Above it, even
# squares lost entirely below the normal range (< 2.3e-308 each) move the
# sum by under 1e-21 relative per million entries.
_FROBENIUS_FLOOR = 1e-140
# Relative accuracy and budget of Lanczos, tuples.purity and vectors.gram_operator.
_ITER_TOL = 1e-12
_MAX_ITER = 10_000


@dataclass(frozen=True)
class ToleranceConfig:
    """The one numerical threshold of the package, ``rank_rel_tol``.

    Rank decisions cut at ``rank_rel_tol * sigma_max``, zero tests of a
    tuple at :func:`zero_cutoff`, and PSD tests allow ``rank_rel_tol``.
    """

    rank_rel_tol: float = 1e-9

    def __post_init__(self):
        value = self.rank_rel_tol
        if not (isinstance(value, (int, float)) and 0 < value < 1):
            raise ToleranceError(f"rank_rel_tol must lie in (0, 1), got {value!r}")


DEFAULT_TOL = ToleranceConfig()
# Frame orthonormality, subspace and ideal equality: fixed, whatever the caller's.
_FRAME_TOL = ToleranceConfig(rank_rel_tol=1e-8)


def zero_cutoff(reference: float, tol: ToleranceConfig) -> float:
    """``rank_rel_tol * max(1, reference)``, the cutoff of a zero test of scale ``reference``."""
    return tol.rank_rel_tol * max(1.0, reference)


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ShapeError("matrix contains non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce ``v`` to a finite 1-d complex128 array."""
    x = np.asarray(v, dtype=np.complex128)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d array, got ndim={x.ndim}")
    if x.size and not np.isfinite(x).all():
        raise ShapeError("vector contains non-finite entries")
    return x


def operator_norm(a) -> float:
    """Largest singular value of ``a``, a dense array or a ``scipy.sparse`` matrix.

    Small matrices get a full SVD (sparse ones are densified first).  Large
    ones get a Lanczos eigensolve of the Gram operator with a deterministic
    start vector, accurate to ``_ITER_TOL`` relative error, which is all
    downstream rank and convergence decisions require; sparse input keeps
    its sparsity there, so each step costs only its nonzeros.  Raises
    ``ConvergenceError`` when Lanczos does not converge within
    ``_MAX_ITER`` iterations.
    """
    m = _as_operand(a)
    if min(m.shape) == 0:
        return 0.0
    if max(m.shape) <= _DENSE_SVD_LIMIT or min(m.shape) < _LANCZOS_MIN_ORDER:
        dense = m if isinstance(m, np.ndarray) else m.toarray()
        return float(np.linalg.svd(dense, compute_uv=False)[0])
    import scipy.sparse.linalg

    n = m.shape[1]
    adjoint = m.conj().T
    gram = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda v: adjoint @ (m @ v), dtype=np.complex128
    )
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        top = scipy.sparse.linalg.eigsh(
            gram, k=1, which="LA", v0=v0, tol=_ITER_TOL, maxiter=_MAX_ITER,
            return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise ConvergenceError(f"operator norm did not converge: {exc}") from exc
    return float(np.sqrt(max(top[0].real, 0.0)))


def norm_at_most(a, bound: float) -> bool:
    """Whether ``operator_norm(a) <= bound``, mostly without an SVD.

    With ``f = ||a||_F`` and ``k = min(a.shape)``, ``f <= bound`` proves the
    verdict true and ``f > bound * sqrt(k)`` proves it false; each test has
    a relative margin of ``1e-8`` against rounding.  Only a bound inside the
    bracket, or a Frobenius sum that overflows or underflows, runs
    ``operator_norm``.  Empty input is within every nonnegative bound.  The
    verdict is a plain ``bool``, also for a numpy ``bound``.
    """
    m = as_matrix(a)
    with np.errstate(over="ignore", under="ignore"):
        fro = float(np.sqrt(np.vdot(m, m).real))
    if fro == 0.0 and not m.any():  # also empty input
        return bool(0.0 <= bound)
    if _FROBENIUS_FLOOR < fro < np.inf:
        if fro <= bound * (1.0 - _BRACKET_MARGIN):
            return True
        if fro > bound * np.sqrt(min(m.shape)) * (1.0 + _BRACKET_MARGIN):
            return False
    return bool(operator_norm(m) <= bound)


def in_span(a, frame, bound: float) -> bool:
    """Whether ``||A - F (F* A)|| = ||(I - F F*) A|| <= bound``, by :func:`norm_at_most`.

    ``frame`` must have orthonormal columns; the projector is never formed.
    """
    m = as_matrix(a)
    f = as_matrix(frame)
    return norm_at_most(m - f @ (f.conj().T @ m), bound)


def _as_operand(a):
    """``as_matrix`` for dense input; a finite complex CSR matrix for sparse.

    Sparse input can only come from a caller that has imported
    ``scipy.sparse``, so the test looks the module up instead of importing it.
    """
    sparse = sys.modules.get("scipy.sparse")
    if sparse is None or not sparse.issparse(a):
        return as_matrix(a)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={a.ndim}")
    m = sparse.csr_matrix(a, dtype=np.complex128)
    if not np.isfinite(m.data).all():
        raise ShapeError("matrix contains non-finite entries")
    return m


def rank_and_kernel(a, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, np.ndarray]:
    """Numerical rank of ``a`` and an orthonormal basis of its kernel.

    Rank counts singular values exceeding ``rank_rel_tol * sigma_max``;
    the kernel basis is the trailing right singular vectors, returned as
    the columns of an ``(ncols, ncols - rank)`` matrix.  A tall ``a`` is
    first reduced to the ``ncols x ncols`` R factor of its QR
    decomposition: ``a* a = R* R``, so ``R`` has the singular values and
    right singular vectors of ``a``, and the left factor of ``a`` is never
    formed.  A wide ``a`` gets a full SVD directly, since its kernel needs
    all of ``vh`` and its left factor is only ``nrows x nrows``.
    """
    rank, kernel, _ = _rank_kernel_norm(a, tol)
    return rank, kernel


def _rank_kernel_norm(a, tol: ToleranceConfig) -> tuple[int, np.ndarray, float]:
    """:func:`rank_and_kernel` and ``sigma_max``, read off the same SVD."""
    m = as_matrix(a)
    nrows, ncols = m.shape
    if m.size == 0:
        return 0, np.eye(ncols, dtype=np.complex128), 0.0
    if nrows > ncols:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = _rank_from_singular_values(s, tol)
    return rank, vh[rank:].conj().T, float(s[0])


def numerical_rank(a, tol: ToleranceConfig = DEFAULT_TOL, *, floor: float = 0.0) -> int:
    """Count of singular values of ``a`` above ``rank_rel_tol * sigma_max`` and ``floor``."""
    m = as_matrix(a)
    if m.size == 0:
        return 0
    return _rank_from_singular_values(np.linalg.svd(m, compute_uv=False), tol, floor)


def kernel_basis(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    return rank_and_kernel(a, tol)[1]


def cokernel_basis(
    a, tol: ToleranceConfig = DEFAULT_TOL, *, floor: float = 0.0
) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the range of ``a``.

    The trailing left singular vectors of one SVD of ``a``, past the rank
    that ``rank_and_kernel`` would report: the subspace of
    ``kernel_basis(a*)``, without reducing the adjoint first.  A wide ``a``
    needs only its thin left factor, which is already square.  A singular
    value counts toward the range only if it also exceeds the absolute
    ``floor``.
    """
    m = as_matrix(a)
    nrows, ncols = m.shape
    if m.size == 0:
        return np.eye(nrows, dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=nrows > ncols)
    return u[:, _rank_from_singular_values(s, tol, floor):]


def _rank_from_singular_values(s: np.ndarray, tol: ToleranceConfig, floor: float = 0.0) -> int:
    """Count of the descending singular values ``s`` above the relative cutoff and ``floor``."""
    cutoff = max(tol.rank_rel_tol * (s[0] if s.size else 0.0), floor)
    return int(np.count_nonzero(s > cutoff))


def psd_below_identity(a, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether the Hermitian matrix ``a`` satisfies ``0 <= a <= I``.

    ``a`` must be Hermitian within ``tol.rank_rel_tol`` (relative to its
    norm); it is symmetrized before the eigensolve so the test is well
    posed.  Eigenvalues in ``[-rank_rel_tol, 1 + rank_rel_tol]`` pass.
    """
    m = as_matrix(a, square=True)
    if m.size == 0:
        return True
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > tol.rank_rel_tol * scale:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return bool(eigs[0] >= -tol.rank_rel_tol and eigs[-1] <= 1.0 + tol.rank_rel_tol)


def orthonormalize(v, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis for the column span of ``v``.

    Uses an SVD; directions whose singular value falls below
    ``rank_rel_tol * sigma_max`` are discarded, so the result can have
    fewer columns than the input (zero columns for a zero input).
    """
    m = as_matrix(v)
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :_rank_from_singular_values(s, tol)]


def projector(frame) -> np.ndarray:
    """Orthogonal projector ``F F*`` onto the span of an orthonormal frame."""
    f = as_matrix(frame)
    return f @ f.conj().T


def subspace_distance(frame_a, frame_b) -> float:
    """Operator-norm distance between the projectors of two frames.

    Equal subspaces give 0; orthogonal directions give 1.
    """
    return operator_norm(projector(frame_a) - projector(frame_b))


def subspaces_equal(frame_a, frame_b) -> bool:
    """Whether two orthonormal frames span the same subspace.

    Requires matching dimension and ``||F_a - F_b (F_b* F_a)|| <= 1e-8``
    (:func:`in_span`), which for equal dimensions is the projector distance.
    """
    a = as_matrix(frame_a)
    b = as_matrix(frame_b)
    return a.shape[1] == b.shape[1] and in_span(a, b, _FRAME_TOL.rank_rel_tol)
