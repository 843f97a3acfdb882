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
    annihilator_normal_form,
    annihilators_equal,
    model_of,
    model_space,
    model_tuple,
    monomial_annihilator,
    nakayama_generators,
    omega_e,
    orbit_matrix,
    quotient_algebra,
    quotient_of,
    staircase_model,
)
from rowtuples.linalg import (
    DEFAULT_TOL,
    numerical_rank,
    orthonormalize,
    rank_and_kernel,
    subspace_distance,
)
from rowtuples.polynomials import Polynomial, graded_indices, indices_of_degree
from rowtuples.sweeps import random_similarity, random_staircase, staircase_generators
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


def _up(alpha: tuple[int, ...], k: int, step: int = 1) -> tuple[int, ...]:
    return alpha[:k] + (alpha[k] + step,) + alpha[k + 1 :]


@st.composite
def staircases(draw, max_size: int = 12, min_d: int = 1):
    """A staircase in N^d, d = ``min_d``..3, of 1 to ``max_size`` points, grown corner by corner."""
    d = draw(st.integers(min_d, 3))
    size = draw(st.integers(1, max_size))
    lam = {(0,) * d}
    while len(lam) < size:
        ups = {_up(alpha, k) for alpha in lam for k in range(d)} - lam
        corners = sorted(
            c for c in ups if all(c[j] == 0 or _up(c, j, -1) in lam for j in range(d))
        )
        lam.add(draw(st.sampled_from(corners)))
    return d, lam


def _shifted_products(ann: AnnihilatorBasis, max_degree: int) -> np.ndarray:
    """The slice by Polynomial multiplication: columns ``q * x^beta``."""
    monomials = graded_indices(ann.d, max_degree)
    columns = [
        (q * Polynomial.monomial(ann.d, beta)).coefficient_vector(monomials)
        for q in ann.basis
        for beta in graded_indices(ann.d, max_degree - max(q.degree(), 0))
    ]
    return np.array(columns, dtype=np.complex128).T.reshape(len(monomials), len(columns))


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

    @given(
        case=staircases(max_size=8),
        kind=st.sampled_from(["conjugates", "normal form", "other staircase", "redundant"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_shifted_slices(self, case, kind, seed):
        # the rule before the span test: both ideals' slices at a common
        # degree, spanned by shifted products, compared as subspaces
        d, lam = case
        rng = np.random.default_rng(seed)
        model = staircase_model(d, lam)
        a = annihilator(random_similarity(rng, model))
        if kind == "conjugates":
            b, equal = annihilator(random_similarity(rng, model)), True
        elif kind == "normal form":
            b, equal = annihilator_normal_form(random_similarity(rng, model)), True
        elif kind == "other staircase":
            other = random_staircase(rng, d, 8)
            b, equal = annihilator(random_similarity(rng, staircase_model(d, other))), other == lam
        else:  # the monomial ideal again, spanned redundantly at a higher bound
            a = monomial_annihilator(d, staircase_generators(d, lam))
            degree = a.degree_bound + int(rng.integers(1, 3))
            shifted = _shifted_products(a, degree)
            mix = rng.standard_normal((shifted.shape[1], shifted.shape[1] + 2))
            b, equal = AnnihilatorBasis(d, degree, shifted @ mix), True
        for x, y in ((a, b), (b, a)):
            degree = max(x.degree_bound, y.degree_bound)
            frames = [orthonormalize(_shifted_products(z, degree)) for z in (x, y)]
            verdict = annihilators_equal(x, y)
            assert type(verdict) is bool
            assert verdict == (subspace_distance(*frames) <= 1e-8) == equal


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

    def test_spanning_set_of_the_slice(self):
        # shifted products span the slice one degree up without being a basis
        for t in (maxcount(), rectangle(2, 2)):
            ann = annihilator(t)
            degree = ann.degree_bound + 1
            spanning = AnnihilatorBasis(t.d, degree, _shifted_products(ann, degree))
            slice_dim = math.comb(degree + t.d, t.d) - quotient_of(t).dim
            assert spanning.coefficients.shape[1] > slice_dim
            assert quotient_algebra(spanning).monomial_basis == quotient_of(t).monomial_basis
            assert model_space(spanning).dim == quotient_of(t).dim

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

    def test_rejects_non_cofinite_slice(self):
        lone = AnnihilatorBasis(2, 2, _columns(2, 2, [Polynomial.monomial(2, (2, 0))]))
        with pytest.raises(DomainError):
            model_space(lone)

    def test_graph_takes_no_slice_and_no_kernel(self, monkeypatch):
        import rowtuples.ideals as ideals

        t = random_similarity(np.random.default_rng(7), rectangle(3, 2))
        ann = annihilator(t)

        def fail(*args, **kwargs):
            raise AssertionError("the model space took a slice, a frame or a kernel")

        for name in ("orthonormalize", "kernel_basis"):
            monkeypatch.setattr(ideals, name, fail)
        assert model_space(ann).dim == model_of(t)[0].dim == 6

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_graph_frame_matches_a_scipy_cholesky_qr2(self, seed):
        # a unitary change of variables of rectangle(3, 3), then a similarity:
        # the ideal is not monomial, so the Cholesky factors are not I
        import scipy.linalg

        from rowtuples.ideals import _model_graph

        q = quotient_of(_mixed_similarity(seed, 2, set(np.ndindex(3, 3))))
        monomials = graded_indices(q.d, q.degree_bound)
        weights = np.array([da_monomial_norm(alpha) for alpha in monomials])
        graph = q._reducer.conj().T * weights[q._standard] / weights[:, None]
        assert np.abs(graph.conj().T @ graph - np.eye(q.dim)).max() > 1e-3
        # CholeskyQR2 on the reversed columns, reversed back, then the phase rule
        graph = graph[:, ::-1]
        for _ in range(2):
            r = scipy.linalg.cholesky(graph.conj().T @ graph, check_finite=False)
            graph = scipy.linalg.solve_triangular(r, graph.T, trans="T", check_finite=False).T
        want = _phase_rule(graph[:, ::-1])
        got = _model_graph(q).frame
        assert got.shape == want.shape == (len(monomials), 9)
        assert np.abs(got - want).max() <= 1e-14


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

    def test_rectangle_top_monomial_norm(self, power):
        ann = monomial_annihilator(2, [(2, 0), (0, 2)])
        mt = model_tuple(model_space(ann))
        ms = model_space(ann)
        space = TruncatedDA(2, ms.degree_cap)
        const = ms.frame.conj().T @ space.coordinates(Polynomial.constant(2, 1.0))
        top = power(mt, (1, 1)) @ const
        assert abs(np.linalg.norm(top) - da_monomial_norm((1, 1))) < 1e-12
        assert abs(np.linalg.norm(top) - 1 / math.sqrt(2)) < 1e-12


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
            assert np.array_equal(a, b)

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


def _full_evaluation_kernel(t: RowTuple, power) -> np.ndarray:
    """Kernel of the n²-row evaluation map ``p -> vec p(T)``, the orbit kernel's oracle."""
    monomials = graded_indices(t.d, nilpotency_index(t))
    eval_map = np.column_stack([power(t, alpha).reshape(-1) for alpha in monomials])
    return rank_and_kernel(eval_map)[1]


def _evaluate_columns(t: RowTuple, ann: AnnihilatorBasis, power) -> list[np.ndarray]:
    """``p(T)`` for every coefficient column ``p`` of ``ann``."""
    powers = [power(t, alpha) for alpha in ann.monomials()]
    return [sum(c * power for c, power in zip(col, powers)) for col in ann.coefficients.T]


def _conjugated_sum(seed: int, *parts: RowTuple) -> RowTuple:
    """A random similarity of the direct sum of ``parts``."""
    from scipy.linalg import block_diag

    summed = RowTuple([block_diag(*mats) for mats in zip(*(p.mats for p in parts))])
    return random_similarity(np.random.default_rng(seed), summed)


def _multiplicity_above_one(choice: int, seed: int) -> RowTuple:
    rng = np.random.default_rng(seed)
    if choice < 3:
        base = (maxcount(), fromgriff(2), fromgriff(3))[choice]
        return random_similarity(rng, base)
    a = staircase_model(2, random_staircase(rng, 2, 6))
    b = staircase_model(2, random_staircase(rng, 2, 6))
    return _conjugated_sum(seed + 1, a, b)


class TestOrbitAnnihilator:
    """The annihilator from the generators' orbits against the n²-row oracle."""

    @given(case=staircases(), seed=st.integers(0, 2**32 - 1), conjugate=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_evaluation_on_staircases(self, case, seed, conjugate, power):
        d, lam = case
        t = staircase_model(d, lam)
        if conjugate:
            t = random_similarity(np.random.default_rng(seed), t)
        kernel = annihilator(t).coefficients
        oracle = _full_evaluation_kernel(t, power)
        assert kernel.shape == oracle.shape
        assert subspace_distance(kernel, oracle) < 1e-10

    @given(choice=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_full_evaluation_above_multiplicity_one(self, choice, seed, power):
        t = _multiplicity_above_one(choice, seed)
        assert nakayama_generators(t).shape[1] > 1
        kernel = annihilator(t).coefficients
        oracle = _full_evaluation_kernel(t, power)
        assert kernel.shape == oracle.shape
        assert subspace_distance(kernel, oracle) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dimension_zero(self, d, power):
        t = zero_tuple(d, 0)
        assert nakayama_generators(t).shape == (0, 0)
        ann = annihilator(t)
        assert ann.degree_bound == 0
        assert np.array_equal(ann.coefficients, _full_evaluation_kernel(t, power))
        normal = annihilator_normal_form(t)
        assert np.array_equal(normal.coefficients, np.ones((1, 1)))

    def test_evaluation_map_has_n_mu_rows(self, monkeypatch):
        import rowtuples.ideals as ideals

        shapes = []

        def recording(a, *args, _real=ideals.kernel_basis, **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(ideals, "kernel_basis", recording)
        t = _multiplicity_above_one(1, 4)
        annihilator(t)
        mu = nakayama_generators(t).shape[1]
        assert shapes == [(t.dim * mu, math.comb(nilpotency_index(t) + t.d, t.d))]

    def test_generators_computed_once(self, monkeypatch):
        import rowtuples.tuples as tuples
        from rowtuples.linalg import cokernel_basis
        from rowtuples.vectors import multiplicity, quasiaffine_witness

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return cokernel_basis(*args, **kwargs)

        monkeypatch.setattr(tuples, "cokernel_basis", counting)
        t = random_similarity(np.random.default_rng(8), rectangle(3, 2))
        assert multiplicity(t) == 1
        annihilator(t)
        quasiaffine_witness(t)
        assert len(calls) == 1
        gens = nakayama_generators(t)
        assert not gens.flags.writeable
        assert np.abs(t.row().conj().T @ gens).max() < 1e-12

    def test_orbit_matrix_columns(self, power):
        t = random_similarity(np.random.default_rng(2), rectangle(2, 3))
        monomials = graded_indices(2, 3)
        vecs = np.random.default_rng(3).standard_normal((t.dim, 2))
        orbit = orbit_matrix(t, vecs, monomials)
        assert orbit.shape == (2 * t.dim, len(monomials))
        for j, alpha in enumerate(monomials):
            assert np.allclose(orbit[:, j], (power(t, alpha) @ vecs).reshape(-1), atol=1e-15)
        single = orbit_matrix(t, vecs[:, 0], monomials)
        assert np.allclose(single, orbit[0::2], atol=1e-15)
        assert orbit_matrix(t, vecs[:, 0], []).shape == (t.dim, 0)


def _power_oracle(t: RowTuple, power):
    """Index, multiplicity, ``omega_e`` and ``E`` from the ``n x n`` powers: the pass's oracle."""
    cutoff = DEFAULT_TOL.rank_rel_tol * t.scale

    def zero(alpha):
        return np.linalg.norm(power(t, alpha), 2) <= cutoff

    index = next(
        m for m in range(1, t.dim + 2) if all(zero(a) for a in indices_of_degree(t.d, m))
    )
    mu = t.dim - numerical_rank(t.row())
    omega = {
        alpha
        for alpha in graded_indices(t.d, index - 1)
        if not zero(alpha) and all(zero(_up(alpha, k)) for k in range(t.d))
    }
    gens = nakayama_generators(t)
    orbits = [(power(t, alpha) @ gens).reshape(-1) for alpha in graded_indices(t.d, index)]
    return index, mu, omega, np.column_stack(orbits)


class TestOrbitPass:
    """Index, generators, orbits and ``omega_e`` from one recursion on ``T^alpha G``."""

    @given(case=staircases(), seed=st.integers(0, 2**32 - 1), second=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_powers(self, case, seed, second, power):
        import rowtuples.ideals as ideals

        d, lam = case
        t = staircase_model(d, lam)
        if second:
            other = staircase_model(d, random_staircase(np.random.default_rng(seed), d, 6))
            t = _conjugated_sum(seed, t, other)
        else:
            t = random_similarity(np.random.default_rng(seed), t)
        index, mu, omega, orbits = _power_oracle(t, power)
        assert nilpotency_index(t) == index
        assert nakayama_generators(t).shape[1] == mu == (2 if second else 1)
        assert omega_e(t) == omega
        assert np.abs(ideals._generator_orbits(t, DEFAULT_TOL) - orbits).max() <= 1e-12

    @given(
        case=staircases(),
        c=st.floats(0.05, 0.5),
        size=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_an_invertible_part_is_not_nilpotent(self, case, c, size, seed):
        # the generators' orbits die in N, but they do not span N ⊕ c·I
        from scipy.linalg import block_diag

        d, lam = case
        rng = np.random.default_rng(seed)
        n = len(lam) + size
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        mats = [block_diag(m, c * np.eye(size)) for m in staircase_model(d, lam).mats]
        t = RowTuple([u @ m @ u.conj().T for m in mats])
        assert nilpotency_index(t) is None
        for analysis in (annihilator, nakayama_generators, omega_e):
            with pytest.raises(NotNilpotentError):
                analysis(t)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_faint_invertible_part_is_not_certified(self, seed):
        # under an oblique similarity G reaches the 0.05·I part faintly: its
        # orbits fall below the cutoff at degree 6 and still span H, without
        # the margin of a proof, so the powers decide, and ||T^alpha|| >=
        # 0.05^6 is not below the cutoff at any degree up to dim + 1 = 6
        from scipy.linalg import block_diag

        base = RowTuple([block_diag(m, [[0.05]]) for m in rectangle(2, 2).mats])
        t = random_similarity(np.random.default_rng(seed), base)
        assert nilpotency_index(t) is None

    @pytest.mark.parametrize("factor", [2.0, 10.0])
    def test_a_scaled_up_tuple_keeps_its_index(self, factor):
        # no longer a row contraction: the certificate divides the degree-j
        # orbits by scale^j, so the growth of ||T^beta|| does not void it
        t = random_similarity(np.random.default_rng(1), rectangle(3, 3))
        scaled = RowTuple([factor * m for m in t.mats])
        assert nilpotency_index(scaled) == nilpotency_index(t) == 5
        assert omega_e(scaled) == {(2, 2)}

    def test_a_scaled_down_tuple_keeps_the_index_of_its_powers(self, power):
        # at 1e-3 the orbits of degree 3 and 4 fall under the cutoff and the
        # rest span six of nine dimensions, but those six are far from
        # invariant (coupling 7e-4), so the missed part is no invertible part
        # and the powers decide, as they did before the pass
        t = random_similarity(np.random.default_rng(1), rectangle(3, 3))
        small = RowTuple([1e-3 * m for m in t.mats])
        assert nilpotency_index(small) == _power_oracle(small, power)[0] == 3

    def test_no_power_is_formed(self, monkeypatch):
        import rowtuples.tuples as tuples
        from rowtuples.vectors import multiplicity, quasiaffine_witness

        def refuse(t, start, *args):
            raise AssertionError(f"the powers searched from degree {start}")

        monkeypatch.setattr(tuples, "_power_index", refuse)
        t = random_similarity(np.random.default_rng(9), rectangle(3, 3))
        assert nilpotency_index(t) == 5
        assert annihilator(t).degree_bound == 5
        assert quotient_of(t).dim == 9
        assert omega_e(t) == {(2, 2)}
        assert model_of(t)[1].dim == 9
        assert multiplicity(t) == 1
        assert quasiaffine_witness(t).shape == (9, 9)

    def test_orbit_matrix_takes_any_monomials(self, power):
        t = random_similarity(np.random.default_rng(4), rectangle(3, 2))
        v = np.random.default_rng(5).standard_normal(t.dim)
        monomials = [(2, 1), (0, 1), (1, 0), (2, 1)]  # no origin, no (1, 1) or (2, 0)
        orbit = orbit_matrix(t, v, monomials)
        for j, alpha in enumerate(monomials):
            assert np.allclose(orbit[:, j], power(t, alpha) @ v, atol=1e-15)
        with pytest.raises(ShapeError):
            orbit_matrix(t, v, [(1, -1)])

    @pytest.mark.parametrize(
        "seed, instance, index", [(1503002070, 0, 6), (1507001020, 0, 5), (1521001776, 2, 5)]
    )
    def test_orbits_short_of_a_proof_leave_the_verdict_to_the_powers(
        self, seed, instance, index, monkeypatch, power
    ):
        # compressions of cyclic tuples to invariant subspaces in these
        # rigidity-full sweeps.  In the first two the top-degree orbits sit
        # just under the cutoff: they span H without the margin of a proof.
        # In the third the row operator's least singular value, 1.8e-9, sits
        # just above the cutoff, so G is empty and its orbits span nothing,
        # yet T is not onto by a clear margin.  The powers decide, with the
        # index and omega_e of the search over them
        import rowtuples.tuples as tuples
        from rowtuples.subspaces import compress
        from rowtuples.sweeps import _streams, cyclic_instance, proper_invariant, run_suite

        searched = []

        def recording(t, start, *args, _real=tuples._power_index):
            searched.append(start)
            return _real(t, start, *args)

        monkeypatch.setattr(tuples, "_power_index", recording)
        rng = _streams(seed, 4)[instance]
        t = cyclic_instance(rng)
        c = compress(t, proper_invariant(rng, t))
        oracle_index, _, oracle_omega, _ = _power_oracle(c, power)
        assert nilpotency_index(c) == oracle_index == index
        assert omega_e(c) == oracle_omega
        assert len(searched) == 1
        [outcome] = run_suite("rigidity-full", seed=seed, count=4)
        assert outcome.passed == 4

    def test_an_index_of_dim_plus_one_stands(self, power):
        # the first compression of instance 3 of this rigidity-coinvariant sweep
        # is 7-dimensional with index 8: its degree-7 orbit has norm 7e-3, one
        # dimension more than an exactly nilpotent tuple allows, and only its
        # degree-8 orbit and powers vanish, so no rank bound may end the pass
        from rowtuples.subspaces import compress
        from rowtuples.sweeps import _streams, cyclic_instance, random_coinvariant, run_suite

        rng = _streams(1505001711, 4)[3]
        t = cyclic_instance(rng)
        c = compress(t, random_coinvariant(rng, t))
        assert c.dim == 7
        assert nilpotency_index(c) == _power_oracle(c, power)[0] == 8
        [outcome] = run_suite("rigidity-coinvariant", seed=1505001711, count=4)
        assert outcome.passed == 4

    @pytest.mark.parametrize("d, p, built", [(3, 6, 4), (4, 4, 3)])
    def test_orbits_that_do_not_die_hand_over_to_the_powers(self, d, p, built, monkeypatch):
        # every T^alpha G with alpha != 0 is e2 ⊗ I_p: the blocks stored pass
        # n (n + 2) columns at degree `built`, well before dim + 1 = 2p + 1, and
        # the powers, which never vanish, decide at one product per degree
        import rowtuples.tuples as tuples

        steps = []

        def counting(t, prev, degree, _real=tuples._orbit_step):
            steps.append(degree)
            return _real(t, prev, degree)

        monkeypatch.setattr(tuples, "_orbit_step", counting)
        coupled = np.kron(np.array([[0.0, 0.0], [1.0, 1.0]]), np.eye(p))
        t = RowTuple([coupled] * d)
        assert nilpotency_index(t) is None
        # the power search stepped no whole degree: every power it formed is a T_1^j
        assert steps == list(range(1, built + 1))
        assert tuples._nakayama_pass(t, DEFAULT_TOL).orbits.size == 0


class TestNormalForm:
    @given(case=staircases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_columns_annihilate(self, case, seed, power):
        d, lam = case
        t = random_similarity(np.random.default_rng(seed), staircase_model(d, lam))
        normal = annihilator_normal_form(t)
        ann = annihilator(t)
        assert normal.coefficients.shape == ann.coefficients.shape
        assert normal.degree_bound == ann.degree_bound
        for value in _evaluate_columns(t, normal, power):
            assert np.linalg.norm(value, 2) <= 1e-10
        assert annihilators_equal(normal, ann)

    @pytest.mark.parametrize("choice", range(6))
    def test_columns_annihilate_above_multiplicity_one(self, choice, power):
        t = _multiplicity_above_one(choice, 11 + choice)
        for value in _evaluate_columns(t, annihilator_normal_form(t), power):
            assert np.linalg.norm(value, 2) <= 1e-10

    def test_leading_monomial_and_standard_tail(self):
        t = random_similarity(np.random.default_rng(6), rectangle(2, 3))
        normal = annihilator_normal_form(t)
        standard = set(quotient_of(t).monomial_basis)
        outside = [i for i, a in enumerate(normal.monomials()) if a not in standard]
        assert np.array_equal(normal.coefficients[outside], np.eye(len(outside)))
        assert not normal.coefficients.flags.writeable

    def test_monomial_fixtures_are_plain_monomials(self):
        for t, gens in (
            (rectangle(2, 2, 2), [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
            (maxcount(), [(2, 0), (1, 1), (0, 2)]),
            (jordan(3), [(3,)]),
        ):
            normal = annihilator_normal_form(t)
            exact = monomial_annihilator(t.d, gens)
            assert normal.degree_bound == exact.degree_bound
            assert np.array_equal(normal.coefficients, exact.coefficients)

    @pytest.mark.parametrize("seed", range(12))
    def test_similar_tuples_share_the_normal_form(self, seed):
        # a unitary change of variables makes the ideal non-monomial
        rng = np.random.default_rng(seed)
        model = staircase_model(2, random_staircase(rng, 2, 8))
        mix = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        base = RowTuple([sum(c * m for c, m in zip(row, model.mats)) for row in mix])
        first = random_similarity(rng, base)
        second = random_similarity(rng, base)
        assert quotient_of(first).monomial_basis == quotient_of(second).monomial_basis
        a = annihilator_normal_form(first).coefficients
        b = annihilator_normal_form(second).coefficients
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-9


class TestExactQuotient:
    """A monomial ideal under a similarity: orbits below the cutoff give exact zeros."""

    @given(case=staircases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_normal_form_is_the_monomial_annihilator(self, case, seed):
        d, lam = case
        t = random_similarity(np.random.default_rng(seed), staircase_model(d, lam))
        normal = annihilator_normal_form(t)
        exact = monomial_annihilator(d, staircase_generators(d, lam))
        assert normal.degree_bound == exact.degree_bound
        assert np.array_equal(normal.coefficients, exact.coefficients)

    @given(case=staircases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_model_is_the_staircase_model(self, case, seed):
        d, lam = case
        t = random_similarity(np.random.default_rng(seed), staircase_model(d, lam))
        _, model = model_of(t)
        for got, want in zip(model.mats, staircase_model(d, lam).mats, strict=True):
            assert np.array_equal(got != 0, want != 0)
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    @given(case=staircases(min_d=2), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_frame_and_model_are_bit_exact(self, case, seed):
        # the input shape of every sweep and benchmark op: nothing is rounded
        d, lam = case
        want = staircase_model(d, lam).mats
        space, model = model_of(random_similarity(np.random.default_rng(seed), RowTuple(want)))
        assert np.all((space.frame == 0) | (space.frame == 1))
        assert np.stack(model.mats).tobytes() == np.stack(want).tobytes()


def _phase_rule(frame: np.ndarray) -> np.ndarray:
    """The frame's phase rule, one column at a time: the oracle of ``_fix_phases``.

    Each column is turned so that its first entry of modulus at least
    ``(1 - 1e-12)`` times the column's largest is real positive.
    """
    out = frame.astype(np.complex128)
    for j in range(out.shape[1]):
        mods = np.abs(out[:, j])
        lead = out[next(i for i, m in enumerate(mods) if m >= (1 - 1e-12) * mods.max()), j]
        out[:, j] *= np.conj(lead) / abs(lead)
    return out


def _projector_frame(kernel: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt over the columns of the explicit projector, the frame's oracle.

    Two passes: a coordinate whose projection nearly lies in the span of the
    earlier ones leaves a short residual, which one pass would leave skewed.
    """
    proj = kernel @ kernel.conj().T
    cols: list[np.ndarray] = []
    for j in range(proj.shape[0]):
        if len(cols) == kernel.shape[1]:
            break
        v = proj[:, j].copy()
        for _ in range(2):
            for u in cols:
                v -= u * (u.conj() @ v)
        if np.linalg.norm(v) > 1e-8:
            cols.append(v / np.linalg.norm(v))
    return _phase_rule(np.column_stack(cols))


def _mixed_similarity(seed: int, d: int, staircase) -> RowTuple:
    """A similarity of the staircase model with its variables mixed by a unitary.

    The mixing makes the ideal non-monomial, so the model frame is not 0/1.
    """
    rng = np.random.default_rng(seed)
    u = orthonormalize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    base = staircase_model(d, staircase).mats
    mixed = RowTuple([np.tensordot(u[k], base, axes=1) for k in range(d)])
    return random_similarity(rng, mixed)


class TestCanonicalFrame:
    @given(case=staircases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_the_projector_gram_schmidt(self, case, seed):
        d, lam = case
        frame = model_space(annihilator(_mixed_similarity(seed, d, lam))).frame
        assert frame.shape[1] == len(lam)
        assert np.abs(frame - _projector_frame(frame)).max() < 1e-13
        assert np.abs(frame.conj().T @ frame - np.eye(len(lam))).max() < 1e-13

    def test_model_space_frames_match(self):
        for t in (
            random_similarity(np.random.default_rng(1), rectangle(3, 3)),
            random_similarity(np.random.default_rng(2), rectangle(2, 2, 2)),
            fromgriff(3),
        ):
            frame = model_space(annihilator(t)).frame
            assert np.abs(frame - _projector_frame(frame)).max() < 1e-13

    def test_rank_deficient_coordinates_skipped(self):
        # a monomial model's frame is exactly the 0/1 columns of its staircase
        ann = monomial_annihilator(2, [(2, 0), (1, 1), (0, 3)])
        staircase = {(0, 0), (1, 0), (0, 1), (0, 2)}
        rows = [i for i, alpha in enumerate(ann.monomials()) if alpha in staircase]
        frame = model_space(ann).frame
        assert np.array_equal(frame, np.eye(len(ann.monomials()))[:, rows])

    def test_stable_at_phase_ties(self):
        # unitary mixing of rectangle(3, 3) gives frame columns whose largest
        # moduli tie exactly; scaling T_1 by one ulp must not turn a column
        moved = 0
        for seed in range(75):
            t = _mixed_similarity(seed, 2, set(np.ndindex(3, 3)))
            nudged = RowTuple([t.mats[0] * (1 + 2e-16), t.mats[1]])
            a, b = model_of(t)[0].frame, model_of(nudged)[0].frame
            moved += np.abs(a - b).max() > 1e-10
        assert moved == 0
