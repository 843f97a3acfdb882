import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowtuples.errors import DomainError, NotNilpotentError, ShapeError
from rowtuples.fixtures import fromgriff, jordan, maxcount, rectangle
from rowtuples.fock import TruncatedDA, da_monomial_norm, multiplication_matrix
from rowtuples.ideals import (
    AnnihilatorBasis,
    annihilator,
    annihilators_equal,
    model_space,
    model_tuple,
    monomial_annihilator,
    omega_e,
    quotient_algebra,
    staircase_model,
)
from rowtuples.polynomials import Polynomial, graded_indices, parse_polynomial
from rowtuples.sweeps import random_similarity, staircase_generators
from rowtuples.tuples import RowTuple, nilpotency_index, poly_eval, validate


def zero_tuple(d: int, dim: int) -> RowTuple:
    return RowTuple([np.zeros((dim, dim))] * d)


def _columns(d: int, degree: int, polys) -> np.ndarray:
    """Coefficient columns of the polynomials over ``graded_indices(d, degree)``."""
    monomials = graded_indices(d, degree)
    return np.column_stack([p.coefficient_vector(monomials) for p in polys])


class TestAnnihilator:
    def test_worked_example_degree_two_span(self):
        ann = annihilator(maxcount())
        assert ann.degree_bound == 2
        assert len(ann.basis) == 3
        target = monomial_annihilator(2, [(2, 0), (1, 1), (0, 2)])
        assert annihilators_equal(ann, target)

    def test_worked_example_no_linear_members(self):
        # membership of a + b*x1 + c*x2 would force its evaluation to vanish,
        # but the evaluation is invertible whenever a != 0 and carries b, c
        # into off-diagonal entries otherwise
        ann = annihilator(maxcount())
        mat = ann.coefficients
        monos = ann.monomials()
        high = [i for i, a in enumerate(monos) if sum(a) > 1]
        # a member supported on degree <= 1 alone would be a kernel vector of
        # the degree->=2 block; full column rank rules that out
        high_block = mat[high, :]
        assert np.linalg.matrix_rank(high_block) == len(ann.basis)

    def test_basis_members_annihilate(self):
        for t in (maxcount(), fromgriff(3), rectangle(2, 2)):
            ann = annihilator(t)
            for q in ann.basis:
                assert np.abs(poly_eval(q, t)).max() < 1e-12

    def test_zero_tuple_single_variable(self):
        ann = annihilator(zero_tuple(1, 1))
        assert ann.degree_bound == 1
        assert len(ann.basis) == 1
        (q,) = ann.basis
        assert q.coeffs == {(1,): pytest.approx(q.coeffs[(1,)])}
        assert abs(abs(q.coeffs[(1,)]) - 1.0) < 1e-12

    def test_fromgriff_matches_degree_two_monomials(self):
        ann = annihilator(fromgriff(3))
        target = monomial_annihilator(2, [(2, 0), (1, 1), (0, 2)])
        assert annihilators_equal(ann, target)

    def test_requires_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            annihilator(RowTuple([np.eye(2) * 0.5]))

    def test_basis_renders_the_matrix_columns(self):
        ann = annihilator(maxcount())
        mat = ann.coefficients
        assert mat.shape == (len(ann.monomials()), 3)
        assert not mat.flags.writeable
        rebuilt = _columns(2, ann.degree_bound, ann.basis)
        assert np.array_equal(rebuilt, mat)

    def test_matrix_rows_must_match_the_slice(self):
        with pytest.raises(ShapeError):
            AnnihilatorBasis(2, 2, np.zeros((5, 1)))

    def test_annihilator_and_model_space_build_no_polynomial(self, monkeypatch):
        tuples = (maxcount(), rectangle(3, 3), fromgriff(3))
        built = []
        original = Polynomial.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Polynomial, "__init__", counting)
        dims = [model_space(annihilator(t)).dim for t in tuples]
        assert dims == [3, 9, 3]
        assert built == []


class TestMonomialAnnihilator:
    def test_rectangle_staircase(self):
        ann = monomial_annihilator(2, [(2, 0), (0, 2)])
        assert ann.degree_bound == 3
        monos = {next(iter(q.coeffs)) for q in ann.basis}
        assert (1, 1) not in monos
        assert (2, 0) in monos and (0, 2) in monos
        assert (2, 1) in monos and (1, 2) in monos

    def test_single_variable(self):
        ann = monomial_annihilator(1, [(3,)])
        assert ann.degree_bound == 3
        assert {next(iter(q.coeffs)) for q in ann.basis} == {(3,)}

    def test_requires_cofinite(self):
        with pytest.raises(DomainError):
            monomial_annihilator(2, [(2, 0)])

    def test_ideal_slice_contains_shifts(self):
        ann = monomial_annihilator(2, [(2, 0), (1, 1), (0, 2)])
        sl = ann.ideal_slice(4)
        # x1^2 * x2^2 must lie in the degree-4 slice
        target = Polynomial.monomial(2, (2, 2)).coefficient_vector(graded_indices(2, 4))
        coeffs, *_ = np.linalg.lstsq(sl, target, rcond=None)
        assert np.linalg.norm(sl @ coeffs - target) < 1e-10


def _shifted_products(ann: AnnihilatorBasis, max_degree: int) -> np.ndarray:
    """The slice by Polynomial multiplication: columns ``q * x^beta``."""
    monomials = graded_indices(ann.d, max_degree)
    columns = [
        (q * Polynomial.monomial(ann.d, beta)).coefficient_vector(monomials)
        for q in ann.basis
        for beta in graded_indices(ann.d, max_degree - max(q.degree(), 0))
    ]
    return np.array(columns, dtype=np.complex128).T.reshape(len(monomials), len(columns))


class TestIdealSlice:
    @pytest.mark.parametrize("extra", [0, 1, 3])
    def test_matches_polynomial_multiplication(self, extra):
        rng = np.random.default_rng(23)
        anns = [
            annihilator(maxcount()),
            annihilator(random_similarity(rng, rectangle(3, 2))),
            annihilator(random_similarity(rng, rectangle(2, 2, 2))),
            monomial_annihilator(2, [(3, 0), (1, 1), (0, 4)]),
            monomial_annihilator(1, [(2,)]),
            AnnihilatorBasis(
                2, 2, _columns(2, 2, [Polynomial.zero(2), parse_polynomial("x1 - 2*x2^2")])
            ),
        ]
        for ann in anns:
            degree = ann.degree_bound + extra
            expected = _shifted_products(ann, degree)
            got = ann.ideal_slice(degree)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    def test_empty_basis(self):
        ann = AnnihilatorBasis(2, 1, np.zeros((3, 0)))
        assert ann.ideal_slice(2).shape == (6, 0)


class TestAnnihilatorsEqual:
    def test_reflexive_across_degree_bounds(self):
        a = monomial_annihilator(2, [(2, 0), (1, 1), (0, 2)])
        b = annihilator(maxcount())
        assert annihilators_equal(a, b)
        assert annihilators_equal(b, a)

    def test_distinct_ideals_detected(self):
        a = monomial_annihilator(2, [(2, 0), (1, 1), (0, 2)])
        b = monomial_annihilator(2, [(2, 0), (0, 2)])
        assert not annihilators_equal(a, b)

    def test_scaled_basis_equal(self):
        a = monomial_annihilator(1, [(2,)])
        scaled = AnnihilatorBasis(1, 2, 3.0 * a.coefficients)
        assert annihilators_equal(a, scaled)


class TestQuotientAlgebra:
    def test_worked_example(self):
        q = quotient_algebra(annihilator(maxcount()))
        assert q.dim == 3
        assert q.monomial_basis == ((0, 0), (1, 0), (0, 1))

    def test_dimension_count_oracle(self):
        # delta agrees with dim ker of the evaluation map, computed directly
        for t in (maxcount(), fromgriff(3), rectangle(2, 2), jordan(4)):
            m = nilpotency_index(t)
            monos = graded_indices(t.d, m)
            cols = [poly_eval(Polynomial.monomial(t.d, a), t).ravel() for a in monos]
            mat = np.array(cols).T
            rank = np.linalg.matrix_rank(mat, tol=1e-9 * max(t.dim, 1))
            q = quotient_algebra(annihilator(t))
            assert q.dim == rank

    def test_dimension_identity(self):
        for t in (maxcount(), fromgriff(2), rectangle(2, 3)):
            ann = annihilator(t)
            q = quotient_algebra(ann)
            assert q.dim + len(ann.basis) == len(ann.monomials())

    def test_zero_tuple(self):
        q = quotient_algebra(annihilator(zero_tuple(2, 2)))
        assert q.dim == 1
        assert q.monomial_basis == ((0, 0),)

    def test_rectangle_basis(self):
        q = quotient_algebra(monomial_annihilator(2, [(2, 0), (0, 2)]))
        assert set(q.monomial_basis) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_reduce_kills_annihilator(self):
        ann = annihilator(maxcount())
        q = quotient_algebra(ann)
        for p in ann.basis:
            assert np.abs(q.reduce(p)).max() < 1e-10

    def test_reduce_identity_on_basis(self):
        q = quotient_algebra(monomial_annihilator(2, [(2, 0), (0, 2)]))
        for i, alpha in enumerate(q.monomial_basis):
            vec = q.reduce(Polynomial.monomial(2, alpha))
            expected = np.zeros(q.dim)
            expected[i] = 1.0
            assert np.abs(vec - expected).max() < 1e-10

    def test_mult_table_worked_example(self):
        q = quotient_algebra(annihilator(maxcount()))
        i1 = q.monomial_basis.index((1, 0))
        i2 = q.monomial_basis.index((0, 1))
        # x1 * x2 falls in the ideal, so the product class vanishes
        assert np.abs(q.mult_table[i1, i2]).max() < 1e-12

    def test_mult_table_commutative_and_associative(self):
        for q in (
            quotient_algebra(annihilator(maxcount())),
            quotient_algebra(monomial_annihilator(2, [(2, 0), (0, 2)])),
            quotient_algebra(annihilator(jordan(4))),
        ):
            tbl = q.mult_table
            assert np.abs(tbl - tbl.transpose(1, 0, 2)).max() < 1e-10
            left = np.einsum("ijm,mkl->ijkl", tbl, tbl)
            right = np.einsum("jkm,iml->ijkl", tbl, tbl)
            assert np.abs(left - right).max() < 1e-10

    def test_mult_table_is_the_reduced_product(self):
        # at d = 41 and degree bound 2 the exponent codes outgrow int64
        wide = [(2,) + (0,) * 40] + [tuple(int(i == k) for i in range(41)) for k in range(1, 41)]
        for ann in (
            annihilator(maxcount()),
            annihilator(random_similarity(np.random.default_rng(5), rectangle(3, 2))),
            annihilator(fromgriff(3)),
            monomial_annihilator(41, wide),
        ):
            q = quotient_algebra(ann)
            for i, alpha in enumerate(q.monomial_basis):
                for j, beta in enumerate(q.monomial_basis):
                    gamma = tuple(a + b for a, b in zip(alpha, beta))
                    expected = q.reduce(Polynomial.monomial(ann.d, gamma))
                    assert np.array_equal(q.mult_table[i, j], expected)
        assert q.monomial_basis == ((0,) * 41, (1,) + (0,) * 40)

    def test_unit_element(self):
        q = quotient_algebra(annihilator(rectangle(2, 2)))
        iu = q.monomial_basis.index((0, 0))
        for j in range(q.dim):
            expected = np.zeros(q.dim)
            expected[j] = 1.0
            assert np.abs(q.mult_table[iu, j] - expected).max() < 1e-10


class TestOmegaE:
    def test_worked_example(self):
        assert omega_e(maxcount()) == {(1, 0), (0, 1)}

    def test_rectangle(self):
        assert omega_e(rectangle(2, 2)) == {(1, 1)}
        assert omega_e(rectangle(3, 2)) == {(2, 1)}

    def test_jordan(self):
        assert omega_e(jordan(4)) == {(3,)}

    def test_zero_tuple(self):
        assert omega_e(zero_tuple(2, 2)) == {(0, 0)}

    def test_classes_independent_in_quotient(self):
        for t in (maxcount(), rectangle(2, 2), fromgriff(3)):
            q = quotient_algebra(annihilator(t))
            rows = [q.reduce(Polynomial.monomial(t.d, a)) for a in omega_e(t)]
            mat = np.array(rows)
            assert np.linalg.matrix_rank(mat, tol=1e-8) == len(rows)


class TestModelSpace:
    def test_single_variable_dimension(self):
        ann = monomial_annihilator(1, [(2,)])
        ms = model_space(ann)
        assert ms.dim == 2
        assert ms.degree_cap == 2

    def test_dim_equals_quotient_dim(self):
        for ann in (
            annihilator(maxcount()),
            monomial_annihilator(2, [(2, 0), (0, 2)]),
            annihilator(fromgriff(2)),
            monomial_annihilator(3, [(1, 0, 0), (0, 2, 0), (0, 0, 2)]),
        ):
            ms = model_space(ann)
            q = quotient_algebra(ann)
            assert ms.dim == q.dim

    def test_frame_isometric(self):
        ms = model_space(annihilator(maxcount()))
        gram = ms.frame.conj().T @ ms.frame
        assert np.abs(gram - np.eye(ms.dim)).max() < 1e-12

    def test_contains_kernel_directions_only(self):
        # for the ideal generated by x2 and x1^3, elements depend on x1 alone
        ann = monomial_annihilator(2, [(0, 1), (3, 0)])
        ms = model_space(ann)
        space = TruncatedDA(2, ms.degree_cap)
        for i, alpha in enumerate(space.basis()):
            if alpha[1] > 0:
                assert np.abs(ms.frame[i]).max() < 1e-12

    def test_degree_cap_override(self):
        ann = monomial_annihilator(1, [(2,)])
        ms = model_space(ann, degree_cap=4)
        assert ms.dim == 2
        with pytest.raises(DomainError):
            model_space(ann, degree_cap=1)

    def test_rejects_non_cofinite_slice(self):
        lone = AnnihilatorBasis(2, 2, _columns(2, 2, [Polynomial.monomial(2, (2, 0))]))
        with pytest.raises(DomainError):
            model_space(lone)


class TestModelTuple:
    def test_jordan_cell(self):
        ann = monomial_annihilator(1, [(2,)])
        t = model_tuple(model_space(ann))
        # the compressed shift on span{1, x} is the weighted jordan cell
        assert t.dim == 2
        assert np.abs(t.mats[0] - np.array([[0.0, 0.0], [1.0, 0.0]])).max() < 1e-12

    def test_validates_as_pure_nilpotent_contraction(self):
        for ann in (
            annihilator(maxcount()),
            monomial_annihilator(2, [(2, 0), (0, 2)]),
            monomial_annihilator(2, [(0, 1), (3, 0)]),
        ):
            mt = model_tuple(model_space(ann))
            rep = validate(mt)
            assert rep.commuting and rep.row_contraction and rep.pure
            assert rep.nilpotent == ann.degree_bound

    def test_round_trip_annihilator(self):
        for ann in (
            annihilator(maxcount()),
            monomial_annihilator(2, [(2, 0), (0, 2)]),
            monomial_annihilator(2, [(0, 1), (3, 0)]),
            monomial_annihilator(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
            annihilator(fromgriff(3)),
        ):
            mt = model_tuple(model_space(ann))
            back = annihilator(mt)
            assert annihilators_equal(ann, back)

    def test_rectangle_top_monomial_norm(self):
        ann = monomial_annihilator(2, [(2, 0), (0, 2)])
        mt = model_tuple(model_space(ann))
        ms = model_space(ann)
        space = TruncatedDA(2, ms.degree_cap)
        const = ms.frame.conj().T @ space.coordinates(Polynomial.constant(2, 1.0))
        top = mt.monomial((1, 1)) @ const
        assert abs(np.linalg.norm(top) - da_monomial_norm((1, 1))) < 1e-12
        assert abs(np.linalg.norm(top) - 1 / math.sqrt(2)) < 1e-12


def _up(alpha: tuple[int, ...], k: int, step: int = 1) -> tuple[int, ...]:
    return alpha[:k] + (alpha[k] + step,) + alpha[k + 1 :]


@st.composite
def staircases(draw):
    """A staircase in N^d, d = 1..3, of 1 to 12 points, grown corner by corner."""
    d = draw(st.integers(1, 3))
    size = draw(st.integers(1, 12))
    lam = {(0,) * d}
    while len(lam) < size:
        ups = {_up(alpha, k) for alpha in lam for k in range(d)} - lam
        corners = sorted(
            c for c in ups if all(c[j] == 0 or _up(c, j, -1) in lam for j in range(d))
        )
        lam.add(draw(st.sampled_from(corners)))
    return d, lam


class TestStaircaseModel:
    @given(staircases())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_numerical_model(self, case):
        # the model-space path stays the oracle of the closed form
        d, lam = case
        closed = staircase_model(d, lam)
        oracle = model_tuple(model_space(monomial_annihilator(d, staircase_generators(d, lam))))
        assert (closed.d, closed.dim) == (oracle.d, oracle.dim) == (d, len(lam))
        for a, b in zip(closed.mats, oracle.mats):
            assert np.abs(a - b).max() <= 1e-12

    @given(staircases())
    @settings(max_examples=150, deadline=None)
    def test_entries_are_the_shift_weights(self, case):
        d, lam = case
        t = staircase_model(d, lam)
        basis = [a for a in graded_indices(d, max(map(sum, lam))) if a in lam]
        for k, mat in enumerate(t.mats):
            expected = np.zeros((len(basis), len(basis)))
            for j, alpha in enumerate(basis):
                if _up(alpha, k) in lam:
                    expected[basis.index(_up(alpha, k)), j] = math.sqrt(
                        (alpha[k] + 1) / (sum(alpha) + 1)
                    )
            # same support, exact zeros elsewhere, weights to a few ulps
            assert np.array_equal(mat != 0, expected != 0)
            assert np.all(mat.imag == 0)
            assert np.allclose(mat.real, expected, rtol=1e-14, atol=0)

    def test_equals_multiplication_matrix_entries(self):
        # bit for bit the entries of the compressed multiplier on the box
        t = staircase_model(2, [(a, b) for a in range(3) for b in range(2)])
        space = TruncatedDA(2, 3)
        rows = [space.position(a) for a in graded_indices(2, 3) if a[0] < 3 and a[1] < 2]
        for k, mat in enumerate(t.mats, start=1):
            full = multiplication_matrix(Polynomial.variable(2, k), space)
            assert np.array_equal(mat, full[np.ix_(rows, rows)])

    def test_single_point_is_zero(self):
        t = staircase_model(2, [(0, 0)])
        assert t.dim == 1 and all(np.array_equal(m, np.zeros((1, 1))) for m in t.mats)

    @pytest.mark.parametrize(
        "d, points, error",
        [
            (2, [], DomainError),
            (2, [(0, 1)], DomainError),
            (2, [(0, 0), (1, 1)], DomainError),
            (2, [(0, 0), (1,)], ShapeError),
            (1, [(0,), (-1,)], ShapeError),
        ],
    )
    def test_rejects_what_is_no_staircase(self, d, points, error):
        with pytest.raises(error):
            staircase_model(d, points)
