import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from rowtuples.errors import (
    ConvergenceError,
    NotHermitianError,
    ShapeError,
    ToleranceError,
)
from rowtuples.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    cokernel_basis,
    kernel_basis,
    in_span,
    norm_at_most,
    numerical_rank,
    operator_norm,
    orthonormalize,
    projector,
    psd_below_identity,
    rank_and_kernel,
    singular_values,
    subspace_distance,
    subspaces_equal,
)


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def assert_scipy_r_svd(a):
    """The tall branch of ``rank_and_kernel`` against the R-SVD with scipy's R, bit for bit."""
    import scipy.linalg

    rows, cols = a.shape
    assert rows > cols
    r = scipy.linalg.qr(a, mode="r", check_finite=False)[0][:cols]
    assert np.array_equal(bits(np.linalg.qr(a, mode="r")), bits(r))
    _, s, vh = np.linalg.svd(r, full_matrices=True)
    rank = int(np.count_nonzero(s > DEFAULT_TOL.rank_rel_tol * s[0]))
    got_rank, got_kernel = rank_and_kernel(a, DEFAULT_TOL)
    assert got_rank == rank
    assert np.array_equal(bits(got_kernel), bits(vh[rank:].conj().T))


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.rank_rel_tol == 1e-9
        assert [f.name for f in dataclasses.fields(tol)] == ["rank_rel_tol"]

    @pytest.mark.parametrize("kwargs", [{"rank_rel_tol": 0.0}])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ToleranceError):
            ToleranceConfig(**kwargs)


class TestOperatorNorm:
    def test_nilpotent_jordan_cell(self):
        # singular values of [[0,0],[1,0]] are {1, 0}
        assert operator_norm([[0, 0], [1, 0]]) == pytest.approx(1.0, abs=1e-15)

    def test_zero_size(self):
        assert operator_norm(np.zeros((0, 0))) == 0.0
        assert operator_norm(np.zeros((3, 0))) == 0.0

    def test_matches_dense_svd_on_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            assert operator_norm(a) == pytest.approx(
                np.linalg.svd(a, compute_uv=False)[0], rel=1e-12
            )

    def test_large_path_agrees_with_dense(self):
        # force the Lanczos branch and compare against a direct SVD
        rng = np.random.default_rng(3)
        a = rng.standard_normal((700, 700)) + 1j * rng.standard_normal((700, 700))
        dense = float(np.linalg.svd(a, compute_uv=False)[0])
        assert operator_norm(a) == pytest.approx(dense, rel=1e-9)
        assert operator_norm(scipy.sparse.csr_matrix(a)) == pytest.approx(dense, rel=1e-9)

    @pytest.mark.parametrize("shape", [(40, 30), (900, 700), (650, 5), (700, 2)])
    def test_sparse_input_matches_dense_svd(self, shape):
        # both sides of the 600 crossover; (700, 2) is too thin for Lanczos
        a = scipy.sparse.random(*shape, density=0.05, random_state=11) * (1 + 0.5j)
        dense = float(np.linalg.svd(a.toarray(), compute_uv=False)[0])
        assert operator_norm(a) == pytest.approx(dense, rel=1e-12)

    def test_thin_dense_matrix(self):
        assert operator_norm(np.ones((700, 1))) == pytest.approx(np.sqrt(700), rel=1e-12)

    def test_sparse_rejects_nonfinite(self):
        with pytest.raises(ShapeError):
            operator_norm(scipy.sparse.csr_matrix([[np.nan, 0], [0, 1]]))

    def test_nonconvergence_is_convergence_error(self, monkeypatch):
        monkeypatch.setattr("rowtuples.linalg._MAX_ITER", 1)
        a = np.diag(np.linspace(1.0, 2.0, 700))
        with pytest.raises(ConvergenceError):
            operator_norm(a)

    def test_rejects_nonfinite(self):
        with pytest.raises(ShapeError):
            operator_norm([[np.inf, 0], [0, 0]])


class TestNormAtMost:
    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from([(9, 4), (12, 7), (6, 6), (1, 1), (4, 9), (3, 11)]),
        rank_fraction=st.floats(0.0, 1.0),
        scale=st.floats(1e-12, 1e12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdict_matches_svd_at_the_bracket_edges(self, shape, rank_fraction, scale, seed):
        # rank 0 .. min(shape); bounds where either bracket end or the SVD decides
        rows, cols = shape
        r = round(rank_fraction * min(shape))
        rng = np.random.default_rng(seed)

        def gaussian(m, n):
            return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

        a = scale * gaussian(rows, r) @ gaussian(r, cols)
        sigma = operator_norm(a)
        fro = float(np.linalg.norm(a))
        low = fro / np.sqrt(min(shape))
        bounds = [sigma]
        for centre, eps in ((sigma, 1e-12), (fro, 1e-9), (low, 1e-9)):
            bounds += [centre * (1.0 - eps), centre * (1.0 + eps)]
        for bound in bounds:
            assert norm_at_most(a, bound) == (sigma <= bound)

    @pytest.mark.parametrize("shape", [(5, 5), (8, 3), (3, 8)])
    def test_huge_entries_raise_no_warning(self, shape):
        # the squared entries overflow, so the Frobenius sum is not finite
        rng = np.random.default_rng(41)
        a = 1e200 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        sigma = operator_norm(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bound in (0.5 * sigma, sigma, 2.0 * sigma, 1e308):
                assert norm_at_most(a, bound) == (sigma <= bound)

    @pytest.mark.parametrize("scale", [1e-200, 1e-162, 1e-160])
    def test_tiny_entries_are_not_rounded(self, scale):
        # squares of such entries underflow or lose digits as subnormals;
        # a rank-one matrix sits on the upper end of the bracket, a unitary
        # one on the lower end, where a short or long Frobenius sum flips
        rng = np.random.default_rng(43)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for a in (scale * np.outer(g[0], g[1]), scale * np.linalg.qr(g)[0]):
            sigma = operator_norm(a)
            for bound in (sigma * (1.0 - 1e-12), sigma, sigma * (1.0 + 1e-12), 1e-250):
                assert norm_at_most(a, bound) == (sigma <= bound)

    def test_empty_and_zero(self):
        assert norm_at_most(np.zeros((0, 0)), 0.0)
        assert norm_at_most(np.zeros((3, 0)), 0.0)
        assert norm_at_most(np.zeros((3, 3)), 0.0)
        assert not norm_at_most(np.zeros((3, 3)), -1.0)

    def test_numpy_bound_gives_a_plain_bool(self):
        # json.dumps refuses np.bool_; each return path is taken once
        a = np.diag([3.0, 1.0])
        cases = [(np.zeros((0, 0)), 0.0), (np.zeros((2, 2)), 0.0), (a, 4.0), (a, 2.0), (a, 3.0)]
        for m, bound in cases:
            assert type(norm_at_most(m, np.float64(bound))) is bool
            assert type(in_span(m, np.eye(len(m))[:, :1], np.float64(bound))) is bool

    def test_rejects_what_as_matrix_rejects(self):
        with pytest.raises(ShapeError):
            norm_at_most([[np.inf, 0], [0, 0]], 1.0)
        with pytest.raises(ShapeError):
            norm_at_most([[np.nan]], 1.0)
        with pytest.raises(ShapeError):
            norm_at_most(np.ones(3), 1.0)


class TestRankAndKernel:
    def test_singular_values_without_factors(self):
        rng = np.random.default_rng(53)
        for shape in ((9, 4), (4, 9), (5, 5)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            s = singular_values(a)
            assert np.array_equal(s, np.linalg.svd(a, compute_uv=False))
            assert s[0] == operator_norm(a)
        assert singular_values(np.zeros((0, 3))).shape == (0,)
        assert numerical_rank(np.zeros((0, 3))) == 0

    def test_diagonal_example(self):
        rank, kernel = rank_and_kernel(np.diag([1.0, 0.0, 1.0]))
        assert rank == 2
        assert kernel.shape == (3, 1)
        # kernel spanned by e2
        assert abs(abs(kernel[1, 0]) - 1.0) < 1e-14
        assert np.abs(kernel[[0, 2], 0]).max() < 1e-14

    def test_zero_matrix(self):
        rank, kernel = rank_and_kernel(np.zeros((3, 3)))
        assert rank == 0
        assert kernel.shape == (3, 3)
        assert np.allclose(kernel.conj().T @ kernel, np.eye(3))

    def test_kernel_columns_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m, n, r = rng.integers(2, 7), rng.integers(2, 7), rng.integers(1, 3)
            a = (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))) @ (
                rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            )
            rank, kernel = rank_and_kernel(a)
            assert rank == min(r, m, n)
            assert np.allclose(kernel.conj().T @ kernel, np.eye(n - rank), atol=1e-12)
            if kernel.size:
                assert np.abs(a @ kernel).max() < 1e-12 * max(1.0, np.abs(a).max())

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        a[:, 4] = a[:, 0] + a[:, 1]
        for scale in (1e-8, 1.0, 1e8):
            assert rank_and_kernel(scale * a)[0] == 4


    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(9, 4), (12, 7), (6, 6), (4, 9), (3, 11)]),
        rank_fraction=st.floats(0.0, 1.0),
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_r_products_match_full_svd(self, shape, rank_fraction, scale, seed):
        # tall, square and wide shapes; singular values in [1, 10] times scale
        rows, cols = shape
        r = 1 + round(rank_fraction * (min(shape) - 1))
        rng = np.random.default_rng(seed)

        def frame(n):
            g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            return np.linalg.qr(g)[0]

        a = scale * (frame(rows) * rng.uniform(1.0, 10.0, r)) @ frame(cols).conj().T
        rank, kernel = rank_and_kernel(a)
        assert rank == numerical_rank(a) == r
        assert kernel.shape == (cols, cols - r)
        assert np.linalg.norm(kernel.conj().T @ kernel - np.eye(cols - r)) < 1e-12
        norm = np.linalg.norm(a, 2)
        if kernel.size:
            assert np.linalg.norm(a @ kernel, 2) <= 1e-10 * norm
        oracle = np.linalg.svd(a, full_matrices=True)[2][r:].conj().T
        assert np.abs(projector(kernel) - projector(oracle)).max() < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(2, 1), (9, 4), (12, 7), (40, 3), (7, 6)]),
        rank_fraction=st.floats(0.0, 1.0),
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tall_reduction_is_scipys_r_factor(self, shape, rank_fraction, scale, seed):
        rows, cols = shape
        r = round(rank_fraction * cols)
        rng = np.random.default_rng(seed)
        left = rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))
        right = rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols))
        assert_scipy_r_svd(scale * left @ right)

    @settings(max_examples=20, deadline=None)
    @given(
        sides=st.sampled_from([((2, 2), (3, 2)), ((3, 2), (3, 2)), ((2, 3), (4, 1)), ((3, 3), (2, 2))]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_intertwiner_systems_reduce_to_scipys_r_factor(self, sides, seed):
        # the Kronecker system that intertwiner_space solves, between conjugated models
        from unittest import mock

        from rowtuples import subspaces
        from rowtuples.fixtures import rectangle
        from rowtuples.sweeps import random_similarity

        rng = np.random.default_rng(seed)
        source, target = (random_similarity(rng, rectangle(*s)) for s in sides)
        with mock.patch.object(subspaces, "kernel_basis", wraps=subspaces.kernel_basis) as spy:
            subspaces.intertwiner_space(source, target)
        assert_scipy_r_svd(spy.call_args.args[0])

    def test_tall_input_forms_no_left_factor(self):
        # the full left factor of a 2704 x 105 complex matrix alone is 117 MB
        rng = np.random.default_rng(29)
        a = rng.standard_normal((2704, 105)) + 1j * rng.standard_normal((2704, 105))
        tracemalloc.start()
        try:
            rank, kernel = rank_and_kernel(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rank, kernel.shape) == (105, (105, 0))
        assert peak < 20 * 2**20


class TestCokernelBasis:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(9, 4), (6, 6), (4, 9), (5, 15)]),
        rank_fraction=st.floats(0.0, 1.0),
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_kernel_of_the_adjoint(self, shape, rank_fraction, scale, seed):
        rows, cols = shape
        r = 1 + round(rank_fraction * (min(shape) - 1))
        rng = np.random.default_rng(seed)
        left = rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))
        right = rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols))
        a = scale * left @ right
        co = cokernel_basis(a)
        oracle = kernel_basis(a.conj().T)
        assert co.shape == oracle.shape == (rows, rows - r)
        assert np.linalg.norm(co.conj().T @ co - np.eye(rows - r)) < 1e-12
        assert np.linalg.norm(projector(co) - projector(oracle)) < 1e-10

    def test_empty_and_zero(self):
        assert cokernel_basis(np.zeros((0, 0))).shape == (0, 0)
        assert np.array_equal(cokernel_basis(np.zeros((3, 0))), np.eye(3))
        assert cokernel_basis(np.zeros((0, 4))).shape == (0, 0)
        assert cokernel_basis(np.zeros((2, 5))).shape == (2, 2)

    def test_scale_invariance(self):
        a = np.diag([1.0, 1e-3, 0.0])
        for scale in (1e-8, 1.0, 1e8):
            co = cokernel_basis(scale * a)
            assert co.shape == (3, 1) and abs(abs(co[2, 0]) - 1.0) < 1e-14

    def test_floor_is_absolute(self):
        # a singular value at or below the floor is range-free however large sigma_max is
        a = np.diag([1.0, 1e-3, 1e-6])
        assert cokernel_basis(a, floor=0.0).shape == (3, 0)
        assert cokernel_basis(a, floor=1e-5).shape == (3, 1)
        assert cokernel_basis(a, floor=1e-2).shape == (3, 2)
        assert cokernel_basis(1e-9 * a, floor=0.0).shape == (3, 0)
        assert cokernel_basis(1e-9 * a, floor=1e-9).shape == (3, 3)
        ranks = [numerical_rank(a, floor=f) for f in (0.0, 1e-5, 1e-2, 1.0)]
        assert ranks == [3, 2, 1, 0]


class TestPsdBelowIdentity:
    def test_diag_half(self):
        assert psd_below_identity(np.diag([0.5, 0.5])) is True

    def test_diag_above_one(self):
        assert psd_below_identity(np.diag([1.5, 0.5])) is False

    def test_negative_direction(self):
        assert psd_below_identity(np.diag([-0.5, 0.5])) is False

    def test_tolerance_boundary(self):
        # 1 + rank_rel_tol/2 counts as below the identity
        assert psd_below_identity(np.diag([1.0 + 5e-10])) is True
        assert psd_below_identity(np.diag([-5e-10])) is True

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            psd_below_identity([[0.0, 1.0], [0.0, 0.0]])

    def test_symmetrizes_roundoff(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = b @ b.conj().T
        a /= 2 * np.linalg.eigvalsh(a)[-1]
        a += 1e-13 * rng.standard_normal((4, 4))  # sub-tolerance asymmetry
        assert psd_below_identity(a) is True


class TestOrthonormalize:
    def test_plane_example(self):
        # Gram-Schmidt on (1,1,0), (1,-1,0) spans the e1-e2 plane
        v = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
        q = orthonormalize(v)
        assert q.shape == (3, 2)
        assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-14)
        expected = np.diag([1.0, 1.0, 0.0])
        assert np.abs(projector(q) - expected).max() < 1e-14

    def test_dependent_columns_dropped(self):
        v = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert orthonormalize(v).shape == (2, 1)

    def test_zero_and_empty(self):
        assert orthonormalize(np.zeros((4, 2))).shape == (4, 0)
        assert orthonormalize(np.zeros((4, 0))).shape == (4, 0)

    def test_span_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
            q = orthonormalize(v)
            # each original column lies in the span of q
            assert np.abs(v - q @ (q.conj().T @ v)).max() < 1e-12


class TestSubspaceComparison:
    def test_same_span_different_frames(self):
        rng = np.random.default_rng(17)
        v = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        q1 = orthonormalize(v)
        q2 = orthonormalize(v @ (rng.standard_normal((2, 2)) + np.eye(2) * 3))
        assert subspace_distance(q1, q2) < 1e-12
        assert subspaces_equal(q1, q2)

    def test_different_dimension(self):
        assert not subspaces_equal(np.eye(3)[:, :1], np.eye(3)[:, :2])

    def test_orthogonal_lines(self):
        assert subspace_distance(np.eye(2)[:, :1], np.eye(2)[:, 1:]) == pytest.approx(1.0)
