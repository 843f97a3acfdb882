import math

import numpy as np
import pytest
import scipy.sparse

from rowtuples import fock
from rowtuples.errors import ConvergenceError, DomainError, ShapeError
from rowtuples.fock import (
    TruncatedDA,
    TruncatedFock,
    creation_matrix,
    creation_targets,
    da_kernel,
    da_monomial_norm,
    multiplication_matrix,
    truncated_multiplier_norm,
    truncated_multiplier_norms,
)
from rowtuples.linalg import _DENSE_SVD_LIMIT, operator_norm, psd_below_identity
from rowtuples.polynomials import (
    Polynomial,
    abelianize,
    graded_indices,
    graded_positions,
    multinomial,
    parse_polynomial,
)


class TestSpaces:
    def test_da_dimensions(self):
        assert TruncatedDA(2, 2).dim == 6
        assert TruncatedDA(1, 5).dim == 6
        assert TruncatedDA(3, 0).dim == 1

    def test_fock_dimensions(self):
        assert TruncatedFock(2, 2).dim == 7
        assert TruncatedFock(1, 4).dim == 5
        assert TruncatedFock(3, 2).dim == 13

    def test_basis_orders_are_graded(self):
        da = TruncatedDA(2, 3)
        degrees = [sum(a) for a in da.basis()]
        assert degrees == sorted(degrees)
        fo = TruncatedFock(2, 3)
        lengths = [len(w) for w in fo.basis()]
        assert lengths == sorted(lengths)

    def test_coordinates_weighted(self):
        da = TruncatedDA(2, 2)
        v = da.coordinates(Polynomial.monomial(2, (1, 1)))
        # single entry of size ||x1*x2|| = sqrt(1/2)
        assert np.count_nonzero(v) == 1
        assert v[da.position((1, 1))] == pytest.approx(math.sqrt(0.5))

    @pytest.mark.parametrize("alpha", [(3, 0), (0, 0, 0), (-1, 1), (1, 2)])
    def test_position_outside_the_basis_is_refused(self, alpha):
        with pytest.raises(ShapeError):
            TruncatedDA(2, 2).position(alpha)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fock_position_is_the_basis_order(self, d):
        fo = TruncatedFock(d, 4)
        assert [fo.position(w) for w in fo.basis()] == list(range(fo.dim))

    @pytest.mark.parametrize("word", [(3,), (0,), (1, -1), (1, 2, 1), (1.5,)])
    def test_fock_position_outside_the_basis_is_refused(self, word):
        with pytest.raises(ShapeError):
            TruncatedFock(2, 2).position(word)

    def test_coordinates_rejects_overflow(self):
        with pytest.raises(ShapeError):
            TruncatedDA(2, 1).coordinates(Polynomial.monomial(2, (1, 1)))

    def test_bad_params(self):
        with pytest.raises(ShapeError):
            TruncatedDA(0, 2)
        with pytest.raises(ShapeError):
            TruncatedFock(2, -1)


class TestDaNorm:
    @pytest.mark.parametrize(
        "alpha,expected",
        [
            ((0, 0), 1.0),
            ((3, 0), 1.0),
            ((1, 1), math.sqrt(1 / 2)),
            ((2, 1), math.sqrt(1 / 3)),
            ((1, 1, 1), math.sqrt(1 / 6)),
        ],
    )
    def test_values(self, alpha, expected):
        assert da_monomial_norm(alpha) == pytest.approx(expected, rel=1e-15)

    def test_at_most_one(self):
        for alpha in graded_indices(3, 6):
            norm = da_monomial_norm(alpha)
            assert norm <= 1.0 + 1e-15
            single = sum(1 for a in alpha if a) <= 1
            assert (norm == 1.0) == single


class TestDaKernel:
    def test_at_origin(self):
        assert da_kernel([0.0, 0.0], [0.0, 0.0]) == 1.0 + 0j

    def test_known_value(self):
        # <z, w> = 0.5*0.5 = 0.25 -> kernel 4/3
        assert da_kernel([0.5, 0.0], [0.5, 0.0]) == pytest.approx(4.0 / 3.0)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z, w = 0.4 * z / np.linalg.norm(z), 0.7 * w / np.linalg.norm(w)
            assert da_kernel(z, w) == pytest.approx(np.conj(da_kernel(w, z)))

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            da_kernel([1.0, 0.0], [0.0, 0.0])
        with pytest.raises(DomainError):
            da_kernel([0.0, 0.0], [0.8, 0.8])


class TestMultiplicationMatrix:
    def test_shift_by_x1_example(self):
        da = TruncatedDA(2, 2)
        m = multiplication_matrix(parse_polynomial("x1", d=2), da)
        expected = np.zeros((6, 6))
        expected[da.position((1, 0)), da.position((0, 0))] = 1.0
        expected[da.position((2, 0)), da.position((1, 0))] = 1.0
        expected[da.position((1, 1)), da.position((0, 1))] = math.sqrt(0.5)
        assert np.abs(m - expected).max() < 1e-15

    def test_constant(self):
        da = TruncatedDA(2, 3)
        m = multiplication_matrix(Polynomial.constant(2, 2.5), da)
        assert np.abs(m - 2.5 * np.eye(da.dim)).max() < 1e-15

    def test_multiplicativity_below_cap(self):
        # on inputs whose product stays under the cap, M_p M_q = M_{pq}
        da = TruncatedDA(2, 6)
        p = parse_polynomial("x1 + 2i*x2", d=2)
        q = parse_polynomial("x1*x2 - 1", d=2)
        lhs = multiplication_matrix(p, da) @ multiplication_matrix(q, da)
        rhs = multiplication_matrix(p * q, da)
        low = [j for j, a in enumerate(da.basis()) if sum(a) <= 3]
        assert np.abs((lhs - rhs)[:, low]).max() < 1e-14

    def test_shift_row_is_contraction(self):
        for d, cap in [(1, 4), (2, 3), (3, 2)]:
            da = TruncatedDA(d, cap)
            gram = sum(
                multiplication_matrix(Polynomial.variable(d, k), da)
                @ multiplication_matrix(Polynomial.variable(d, k), da).conj().T
                for k in range(1, d + 1)
            )
            assert psd_below_identity(gram)


def per_entry_multiplier(p, space):
    """The multiplier assembled one entry at a time: the reference for the array assembly.

    Positions come from the enumerated basis, not from ``graded_rank``.
    """
    basis = space.basis()
    rows, cols, vals = [], [], []
    for gamma, c in p.coeffs.items():
        step = sum(gamma)
        for j, alpha in enumerate(basis):
            if sum(alpha) + step > space.max_degree:
                continue
            beta = tuple(a + g for a, g in zip(alpha, gamma))
            rows.append(graded_positions(space.d, space.max_degree)[beta])
            cols.append(j)
            vals.append(c * da_monomial_norm(beta) / da_monomial_norm(alpha))
    return scipy.sparse.csr_matrix(
        (np.asarray(vals, dtype=np.complex128), (rows, cols)),
        shape=(space.dim, space.dim),
    )


class TestDenseNorms:
    """Caps up to the dense-SVD limit take the dense multiplier, with the same norms."""

    @pytest.mark.parametrize(
        "text, d, cap", [("x1 + x2", 2, 12), ("x1*x3 - 2i*x2^2 + 0.5", 3, 6)]
    )
    def test_norms_match_the_sparse_route_bit_for_bit(self, monkeypatch, text, d, cap):
        p = parse_polynomial(text, d)
        full = fock._multiplication_sparse(p, TruncatedDA(d, cap))
        sizes = [TruncatedDA(d, n).dim for n in range(1, cap + 1)]
        want = [operator_norm(full[:k, :k]) for k in sizes]
        monkeypatch.setattr(fock, "_multiplication_sparse", None)  # any call fails
        got = truncated_multiplier_norms(p, cap)
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
        assert truncated_multiplier_norm(p, cap) == want[-1]

    def test_caps_past_the_limit_stay_sparse(self, monkeypatch):
        cap = 14  # C(17, 3) = 680 coordinates
        assert TruncatedDA(3, cap - 1).dim <= _DENSE_SVD_LIMIT < TruncatedDA(3, cap).dim
        monkeypatch.setattr(fock, "multiplication_matrix", None)
        assert truncated_multiplier_norm(parse_polynomial("x1", 3), cap) == pytest.approx(1.0)


class TestArrayAssembly:
    @pytest.mark.parametrize(
        "text, d, cap",
        [
            ("x1", 3, 6),
            ("x2", 3, 6),
            ("x3", 3, 6),
            ("x1", 2, 13),
            ("x2", 2, 13),
            ("(1+2i)*x1^2*x2 - 3i*x2 + 0.5 - (2-1.5i)*x1*x3^3 + 1e-300i*x3", 3, 9),
            ("x1 + x2", 2, 40),
            ("x1^3*x2^4 - 2i*x1^5", 2, 4),  # every term above the cap: the zero matrix
            ("x4^2 - x1", 4, 5),
            ("2.5", 1, 7),
            # parts that underflow to zero: the signs of the zeros must agree
            ("-5e-324*x3", 3, 3),
            ("(-5e-324-5e-324i)*x3 + (5e-324-5e-324i)*x1 - 5e-324i*x2", 3, 3),
            ("(1e-320-3e-321i)*x1^2 - (2e-323+1e-323i)*x2", 2, 6),
            # signed zero parts, and subnormal parts that round to -0.0 entries
            ("-(5e-324+5e-324i)*x1*x2 + (-0.0+5e-324i)*x2 - (4e-320-0.0i)*x1", 2, 6),
            ("(-0.0-1e-310i)*x1^3 + (-5e-324+0.0i)*x2", 2, 9),
        ],
    )
    def test_bit_identical_to_the_per_entry_assembly(self, text, d, cap):
        p = parse_polynomial(text, d)
        space = TruncatedDA(d, cap)
        got = fock._multiplication_sparse(p, space)
        want = per_entry_multiplier(p, space)
        # int64 views: the sign of every zero counts
        assert np.array_equal(got.toarray().view(np.int64), want.toarray().view(np.int64))
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))
        # the dense writer adds the same entries into zeros, as toarray does
        dense = multiplication_matrix(p, space)
        assert np.array_equal(dense.view(np.int64), got.toarray().view(np.int64))

    def test_cap_below_the_degree_gives_zero(self):
        m = multiplication_matrix(parse_polynomial("x1^3*x2 + 1i*x2^5", 2), TruncatedDA(2, 3))
        assert m.shape == (10, 10) and not m.any()

    def test_zero_polynomial(self):
        m = multiplication_matrix(Polynomial.zero(2), TruncatedDA(2, 2))
        assert m.shape == (6, 6) and not m.any()


class TestMultiplierNorm:
    def test_monotone_in_cap(self):
        p = parse_polynomial("x1 + x2", d=2)
        norms = [truncated_multiplier_norm(p, n) for n in range(1, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= math.sqrt(2) + 1e-12

    def test_single_variable_norm_one(self):
        # M_{x1} is an isometry on H^2_1 restricted below the cap
        p = parse_polynomial("x1", d=1)
        assert truncated_multiplier_norm(p, 8) == pytest.approx(1.0, abs=1e-12)

    def test_constant_norm(self):
        p = Polynomial.constant(2, 3j)
        assert truncated_multiplier_norm(p, 4) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "text, d, cap",
        [
            ("x1 - 0.5i*x1*x2 + 2*x2^3 + 0.25", 2, 40),
            ("x1*x3 + 2*x2^2 - x3 + 0.5i", 3, 16),
        ],
    )
    def test_lanczos_path_matches_dense_svd(self, text, d, cap):
        # 861 and 969 columns: above the 600-column full-SVD crossover
        p = parse_polynomial(text, d)
        m = multiplication_matrix(p, TruncatedDA(d, cap))
        assert m.shape[1] > 600
        dense = float(np.linalg.svd(m, compute_uv=False)[0])
        assert truncated_multiplier_norm(p, cap) == pytest.approx(dense, rel=1e-12)

    def test_exhausted_iteration_budget_raises(self, monkeypatch):
        monkeypatch.setattr("rowtuples.linalg._MAX_ITER", 1)
        p = parse_polynomial("x1 + x2", d=2)
        with pytest.raises(ConvergenceError):
            truncated_multiplier_norm(p, 40)


class TestCreation:
    def test_vacuum_column(self):
        fo = TruncatedFock(2, 2)
        l1 = creation_matrix(1, fo)
        vacuum = np.zeros(fo.dim)
        vacuum[fo.position(())] = 1.0
        image = l1 @ vacuum
        expected = np.zeros(fo.dim)
        expected[fo.position((1,))] = 1.0
        assert np.abs(image - expected).max() == 0.0

    def test_top_length_killed(self):
        fo = TruncatedFock(2, 2)
        l2 = creation_matrix(2, fo)
        for w in fo.basis():
            if len(w) == 2:
                col = l2[:, fo.position(w)]
                assert np.abs(col).max() == 0.0

    def test_row_sum_projection(self):
        # sum_k L_k L_k^* is diagonal: 0 at the vacuum, 1 at nonempty words
        fo = TruncatedFock(2, 3)
        gram = sum(
            creation_matrix(k, fo) @ creation_matrix(k, fo).conj().T for k in (1, 2)
        )
        diag = np.array([0.0 if w == () else 1.0 for w in fo.basis()])
        assert np.abs(gram - np.diag(diag)).max() < 1e-15

    def test_isometry_below_cap(self):
        fo = TruncatedFock(2, 3)
        l1 = creation_matrix(1, fo)
        prod = l1.conj().T @ l1
        for w in fo.basis():
            j = fo.position(w)
            expected = 0.0 if len(w) == fo.max_length else 1.0
            assert prod[j, j] == pytest.approx(expected)

    def test_bad_index(self):
        with pytest.raises(ShapeError):
            creation_matrix(3, TruncatedFock(2, 2))
        with pytest.raises(ShapeError):
            creation_targets(0, TruncatedFock(2, 2))

    @pytest.mark.parametrize("d, cap", [(1, 0), (1, 5), (2, 0), (2, 4), (3, 3)])
    def test_targets_are_the_positions_of_the_extended_words(self, d, cap):
        fo = TruncatedFock(d, cap)
        below = [w for w in fo.basis() if len(w) < cap]
        for k in range(1, d + 1):
            targets = creation_targets(k, fo)
            assert targets.dtype == np.int64
            # the words below the cap lead the graded order, one target each
            assert targets.tolist() == [fo.position((k, *w)) for w in below]


def _symmetrization(fo: TruncatedFock, da: TruncatedDA) -> np.ndarray:
    """Isometry sending ``x^α/||x^α||`` to the normalized sum of the words of ``α``."""
    out = np.zeros((fo.dim, da.dim), dtype=np.complex128)
    for j, alpha in enumerate(da.basis()):
        for i, word in enumerate(fo.basis()):
            if abelianize(word, fo.d) == alpha:
                out[i, j] = 1.0 / math.sqrt(multinomial(alpha))
    return out


class TestSymmetrization:
    @pytest.mark.parametrize("d,cap", [(2, 2), (2, 4), (3, 3)])
    def test_intertwines_shift_with_compressed_creation(self, d, cap):
        fo = TruncatedFock(d, cap)
        da = TruncatedDA(d, cap)
        u = _symmetrization(fo, da)
        assert np.abs(u.conj().T @ u - np.eye(da.dim)).max() < 1e-14
        p_sym = u @ u.conj().T
        low = [j for j, a in enumerate(da.basis()) if sum(a) < cap]
        for k in range(1, d + 1):
            lhs = u @ multiplication_matrix(Polynomial.variable(d, k), da)
            rhs = p_sym @ creation_matrix(k, fo) @ u
            assert np.abs((lhs - rhs)[:, low]).max() < 1e-10
