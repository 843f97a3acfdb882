"""Numerical linear algebra substrate: tolerances, norms, ranks, frames.

All matrices are dense ``numpy.ndarray`` objects with dtype ``complex128``;
``operator_norm`` alone also takes a ``scipy.sparse`` matrix.  Rank
decisions are always made relative to the largest singular value
``sigma_max`` of the matrix at hand, never against an absolute cutoff, so
that uniformly scaled inputs produce identical decisions.

Each decision computes only the factors it returns.  ``numerical_rank``
needs singular values alone.  ``rank_and_kernel`` needs the right singular
vectors too, but never the left ones: a tall matrix is first reduced to
the square triangular factor ``R`` of its QR decomposition, which has the
same singular values and right singular vectors (the R-SVD of T. F. Chan,
ACM TOMS 8(1), 1982), so no factor as tall as the input is ever formed.

A decision that only compares a norm with a cutoff goes through
``norm_at_most``, never through ``operator_norm``.  The Frobenius norm
brackets the spectral norm, ``||A||_F / sqrt(min(m, n)) <= ||A||_2 <=
||A||_F`` (Golub & Van Loan, *Matrix Computations*, section 2.3), so the
verdict is settled without an SVD unless the cutoff falls inside that
bracket; only then does an SVD run.  Norms whose value is reported or
used keep ``operator_norm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConvergenceError, NotHermitianError, ShapeError, ToleranceError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "as_vector",
    "operator_norm",
    "norm_at_most",
    "rank_and_kernel",
    "numerical_rank",
    "kernel_basis",
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


@dataclass(frozen=True)
class ToleranceConfig:
    """Bundle of the numerical thresholds used across the package.

    rank_rel_tol : singular values below ``rank_rel_tol * sigma_max`` are
        treated as zero in rank decisions.
    psd_tol : eigenvalues above ``-psd_tol`` count as nonnegative in
        positive-semidefiniteness tests.
    iter_tol : convergence threshold for iterative computations.
    max_iter : iteration budget for iterative computations.
    """

    rank_rel_tol: float = 1e-9
    psd_tol: float = 1e-9
    iter_tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        for name in ("rank_rel_tol", "psd_tol", "iter_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0 < value < 1):
                raise ToleranceError(f"{name} must lie in (0, 1), got {value!r}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ToleranceError(f"max_iter must be a positive integer, got {self.max_iter!r}")


DEFAULT_TOL = ToleranceConfig()


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


def operator_norm(a, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest singular value of ``a``, a dense array or a ``scipy.sparse`` matrix.

    Small matrices get a full SVD (sparse ones are densified first).  Large
    ones get a Lanczos eigensolve of the Gram operator with a deterministic
    start vector, accurate to ``tol.iter_tol`` relative error, which is all
    downstream rank and convergence decisions require; sparse input keeps
    its sparsity there, so each step costs only its nonzeros.  Raises
    ``ConvergenceError`` when Lanczos does not converge within
    ``tol.max_iter`` iterations.
    """
    m = _as_operand(a)
    if min(m.shape) == 0:
        return 0.0
    if max(m.shape) <= _DENSE_SVD_LIMIT or min(m.shape) < _LANCZOS_MIN_ORDER:
        dense = m.toarray() if scipy.sparse.issparse(m) else m
        return float(np.linalg.svd(dense, compute_uv=False)[0])
    n = m.shape[1]
    adjoint = m.conj().T
    gram = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda v: adjoint @ (m @ v), dtype=np.complex128
    )
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        top = scipy.sparse.linalg.eigsh(
            gram, k=1, which="LA", v0=v0, tol=tol.iter_tol, maxiter=tol.max_iter,
            return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise ConvergenceError(f"operator norm did not converge: {exc}") from exc
    return float(np.sqrt(max(top[0].real, 0.0)))


def norm_at_most(a, bound: float, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether ``operator_norm(a, tol) <= bound``, mostly without an SVD.

    With ``f = ||a||_F`` and ``k = min(a.shape)``, ``f <= bound`` proves the
    verdict true and ``f > bound * sqrt(k)`` proves it false; each test has
    a relative margin of ``1e-8`` against rounding.  Only a bound inside the
    bracket, or a Frobenius sum that overflows or underflows, runs
    ``operator_norm``.  Empty input is within every nonnegative bound.
    """
    m = as_matrix(a)
    if m.size == 0:
        return 0.0 <= bound
    with np.errstate(over="ignore", under="ignore"):
        fro = float(np.sqrt(np.vdot(m, m).real))
    if fro == 0.0 and not m.any():
        return 0.0 <= bound
    if _FROBENIUS_FLOOR < fro < np.inf:
        if fro <= bound * (1.0 - _BRACKET_MARGIN):
            return True
        if fro > bound * np.sqrt(min(m.shape)) * (1.0 + _BRACKET_MARGIN):
            return False
    return operator_norm(m, tol) <= bound


def _as_operand(a):
    """``as_matrix`` for dense input; a finite complex CSR matrix for sparse."""
    if not scipy.sparse.issparse(a):
        return as_matrix(a)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={a.ndim}")
    m = scipy.sparse.csr_matrix(a, dtype=np.complex128)
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
    m = as_matrix(a)
    nrows, ncols = m.shape
    if m.size == 0:
        return 0, np.eye(ncols, dtype=np.complex128)
    if nrows > ncols:
        m = scipy.linalg.qr(m, mode="r", check_finite=False)[0][:ncols]
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = _rank_from_singular_values(s, tol)
    return rank, vh[rank:].conj().T


def numerical_rank(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Count of singular values of ``a`` above ``rank_rel_tol * sigma_max``."""
    m = as_matrix(a)
    if m.size == 0:
        return 0
    return _rank_from_singular_values(np.linalg.svd(m, compute_uv=False), tol)


def kernel_basis(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    return rank_and_kernel(a, tol)[1]


def _rank_from_singular_values(s: np.ndarray, tol: ToleranceConfig) -> int:
    """Count of the descending singular values ``s`` above the relative cutoff."""
    cutoff = tol.rank_rel_tol * (s[0] if s.size else 0.0)
    return int(np.count_nonzero(s > cutoff))


def psd_below_identity(a, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether the Hermitian matrix ``a`` satisfies ``0 <= a <= I``.

    ``a`` must be Hermitian within ``tol.psd_tol`` (relative to its norm);
    it is symmetrized before the eigensolve so the test is well posed.
    Eigenvalues in ``[-psd_tol, 1 + psd_tol]`` pass.
    """
    m = as_matrix(a, square=True)
    if m.size == 0:
        return True
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > tol.psd_tol * scale:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return bool(eigs[0] >= -tol.psd_tol and eigs[-1] <= 1.0 + tol.psd_tol)


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


def subspaces_equal(frame_a, frame_b, tol: float = 1e-8) -> bool:
    """Whether two orthonormal frames span the same subspace.

    Requires matching dimension and projector distance below ``tol``.
    """
    a = as_matrix(frame_a)
    b = as_matrix(frame_b)
    if a.shape[1] != b.shape[1]:
        return False
    return norm_at_most(projector(a) - projector(b), tol)
