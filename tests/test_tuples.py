import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowtuples import ideals, linalg, subspaces, tuples
from rowtuples.errors import NotCommutingError, NotRowContractionError, ShapeError
from rowtuples.fixtures import fromgriff, jordan, maxcount, rectangle
from rowtuples.fock import truncated_multiplier_norm
from rowtuples.ideals import annihilator, model_of, omega_e, quotient_of, staircase_model
from rowtuples.linalg import ToleranceConfig
from rowtuples.subspaces import decomposition_exists, decomposition_find
from rowtuples.polynomials import Polynomial, parse_polynomial
from rowtuples.sweeps import random_similarity, random_staircase
from rowtuples.tuples import (
    RowTuple,
    nilpotency_index,
    poly_eval,
    purity,
    validate,
)

S3 = 1 / math.sqrt(3)


def zero_tuple(d: int, dim: int) -> RowTuple:
    return RowTuple([np.zeros((dim, dim))] * d)


class TestRowTuple:
    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            RowTuple([])
        with pytest.raises(ShapeError):
            RowTuple([np.zeros((2, 2)), np.zeros((3, 3))])
        with pytest.raises(ShapeError):
            RowTuple([np.zeros((2, 3))])

    def test_zero_dimension_allowed(self):
        t = RowTuple([np.zeros((0, 0))])
        assert t.dim == 0
        assert poly_eval(Polynomial.variable(1, 1), t).shape == (0, 0)

    def test_zero_dimension_steps_every_degree(self):
        # the orbit step reshapes a block with no entries
        t = RowTuple([np.zeros((0, 0))] * 2)
        orbit = ideals.orbit_matrix(t, np.zeros((0, 1)), [(1, 0), (0, 3), (2, 1)])
        assert orbit.shape == (0, 3)
        p = Polynomial(2, {(0, 0): 1.0, (1, 0): 2.0, (1, 2): 3j})
        assert poly_eval(p, t).shape == (0, 0)

    def test_immutable_mats(self):
        t = maxcount()
        with pytest.raises(ValueError):
            t.mats[0][0, 0] = 5.0

    def test_adjoint(self):
        t = maxcount()
        adj = t.adjoint()
        assert np.allclose(adj.mats[0], t.mats[0].conj().T)
        assert t.adjoint() is adj

    def test_input_arrays_stay_writable(self):
        a, b = np.zeros((2, 2)), np.zeros((2, 2), dtype=complex)
        RowTuple([a, b])
        assert a.flags.writeable and b.flags.writeable
        b[0, 1] = 1.0

    def test_writes_to_the_input_do_not_reach_the_tuple(self):
        base = np.array([np.eye(2, k=-1)], dtype=complex)
        t = RowTuple(list(base))
        assert nilpotency_index(t) == 2
        base[0] = np.eye(2)
        assert np.array_equal(t.mats[0], np.eye(2, k=-1))
        assert nilpotency_index(t) == 2
        assert nilpotency_index(RowTuple(list(base))) is None


class TestValidate:
    def test_worked_example(self):
        rep = validate(maxcount())
        assert rep.commuting and rep.row_contraction
        assert rep.pure is True
        assert rep.nilpotent == 2
        gram = maxcount().row_gram()
        assert np.abs(gram - np.diag([0.0, 1.0, 0.0])).max() < 1e-15
        assert np.abs(rep.defect_operator - np.diag([1.0, 0.0, 1.0])).max() < 1e-15
        assert rep.defect == 2

    def test_zero_tuple(self):
        rep = validate(zero_tuple(2, 3))
        assert rep.commuting and rep.row_contraction and rep.pure
        assert rep.nilpotent == 1
        assert rep.defect == 3

    def test_non_commuting_reported(self):
        t = RowTuple([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        rep = validate(t)
        assert not rep.commuting
        assert rep.nilpotent is None

    def test_non_contraction_reported(self):
        rep = validate(RowTuple([np.eye(2) * 2]))
        assert not rep.row_contraction
        assert rep.pure is None


class TestPurity:
    def test_worked_example_second_iterate_vanishes(self):
        t = maxcount()
        phi1 = sum(m @ np.eye(3) @ m.conj().T for m in t.mats)
        assert np.abs(phi1 - np.diag([0.0, 1.0, 0.0])).max() < 1e-15
        phi2 = sum(m @ phi1 @ m.conj().T for m in t.mats)
        assert np.abs(phi2).max() < 1e-15
        assert purity(t) is True

    def test_zero_tuple(self):
        assert purity(zero_tuple(1, 2)) is True

    def test_unitary_scalar_not_pure(self):
        assert purity(RowTuple([np.eye(1)])) is False

    def test_strict_scalar_contraction_pure(self):
        assert purity(RowTuple([np.eye(1) * 0.5])) is True

    def test_isometry_not_pure(self):
        # a 2x2 permutation is unitary, so the iterates never decrease
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert purity(RowTuple([perm])) is False

    def test_requires_row_contraction(self):
        with pytest.raises(NotRowContractionError):
            purity(RowTuple([np.eye(2) * 2]))


class TestNilpotencyIndex:
    def test_worked_example(self):
        assert nilpotency_index(maxcount()) == 2
        assert nilpotency_index(jordan(5)) == 5

    def test_zero_tuple(self):
        assert nilpotency_index(zero_tuple(3, 2)) == 1

    def test_fromgriff(self):
        for n in (1, 2, 3, 5):
            assert nilpotency_index(fromgriff(n)) == 2

    def test_identity_not_nilpotent(self):
        assert nilpotency_index(RowTuple([np.eye(2) * 0.5])) is None

    def test_requires_commuting(self):
        t = RowTuple([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        with pytest.raises(NotCommutingError):
            nilpotency_index(t)

    @pytest.mark.parametrize("n", [30, 40])
    def test_power_search_waits_for_every_pure_power(self, n, monkeypatch):
        # T_1 = 0 vanishes at once, but C = [[0, 0], [1, 1]] ⊗ I is idempotent:
        # no degree vanishes, so the search over the powers builds no whole degree
        searched = []

        def recording(t, start, *args, _real=tuples._power_index):
            searched.append(start)
            return _real(t, start, *args)

        monkeypatch.setattr(tuples, "_power_index", recording)
        c = np.kron([[0, 0], [1, 1]], np.eye(n // 2))
        t = RowTuple([np.zeros((n, n)), c, c])
        tracemalloc.start()
        try:
            index = nilpotency_index(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index is None
        assert len(searched) == 1
        assert peak <= 2 * 2**20


class TestMemoizedVerdicts:
    @pytest.mark.parametrize("sides", [(4,), (3, 3)])
    def test_index_and_omega_e_match_the_staircase(self, sides):
        # the model of (x1^s1, .., xd^sd) has the box staircase prod [0, s_i)
        corner = tuple(s - 1 for s in sides)
        model = rectangle(*sides)
        similar = random_similarity(np.random.default_rng(sum(sides)), model)
        for t in (model, similar):
            assert nilpotency_index(t) == 1 + sum(corner)
            assert omega_e(t) == {corner}

    def test_repeat_queries_reuse_norms_and_verdicts(self, monkeypatch):
        t = random_similarity(np.random.default_rng(8), rectangle(3, 3))
        annihilator(t)
        calls = []
        real = linalg.operator_norm

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        def stepping(t, prev, degree, _real=tuples._orbit_step):
            calls.append(("step", degree))
            return _real(t, prev, degree)

        for module in (linalg, tuples, ideals):
            monkeypatch.setattr(module, "operator_norm", counting, raising=False)
        monkeypatch.setattr(tuples, "_orbit_step", stepping)
        assert omega_e(t) == {(2, 2)}
        assert nilpotency_index(t) == 5
        assert calls == []

    def test_second_analysis_computes_nothing(self, monkeypatch):
        t = random_similarity(np.random.default_rng(3), rectangle(2, 2))
        u = RowTuple([np.block([[m, np.zeros((4, 4))], [np.zeros((4, 4)), m]]) for m in t.mats])

        def analyse():
            return (
                tuples._commuting(u, linalg.DEFAULT_TOL),
                nilpotency_index(u),
                annihilator(u),
                quotient_of(u),
                *model_of(u),
                decomposition_exists(u),
                decomposition_find(u) is not None,
                u.adjoint(),
            )

        first = analyse()
        calls = []
        for module, name in [
            (tuples, "norm_at_most"),
            (ideals, "kernel_basis"),
            (ideals, "singular_values"),
            (ideals, "quotient_algebra"),
            (ideals, "_model_graph"),
            (ideals, "model_space"),
            (ideals, "model_tuple"),
            (subspaces, "intertwiner_space"),
        ]:

            def recording(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)
        second = analyse()
        assert calls == []
        assert first[7] is True
        assert all(a is b for a, b in zip(first, second) if not isinstance(a, bool))

    def test_memo_is_kept_per_tolerance(self):
        t = rectangle(2, 2)
        loose = ToleranceConfig(rank_rel_tol=1e-6)
        assert annihilator(t, loose) is not annihilator(t)
        assert annihilator(t, loose) is annihilator(t, ToleranceConfig(rank_rel_tol=1e-6))
        assert quotient_of(t, loose).dim == quotient_of(t).dim == 4

    def test_memoized_values_are_read_only(self):
        u = RowTuple([np.zeros((3, 3)), np.diag([0.5, 0.0], k=-1)])  # 0, J_2 ⊕ 0
        space, model = model_of(rectangle(2, 2))
        report = decomposition_exists(u)
        arrays = [
            annihilator(u).coefficients,
            quotient_of(u).mult_table,
            space.frame,
            *model.mats,
            *u.adjoint().mats,
            report.idempotent,
            tuples._nakayama_pass(u, linalg.DEFAULT_TOL).orbits,
        ]
        assert report.exists
        assert not any(a.flags.writeable for a in arrays)

    def test_analysed_tuple_is_freed_without_the_cycle_collector(self):
        # a memoized value that referenced its own tuple would leave a cycle
        gc.collect()
        gc.disable()
        try:
            t = random_similarity(np.random.default_rng(5), rectangle(2, 3))
            nilpotency_index(t.adjoint())
            quotient_of(t)
            model_of(t)
            decomposition_find(t)
            gc.collect()
            del t
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_norms_and_scale(self):
        t = RowTuple([np.diag([0.5, 0.25]), np.diag([3.0, 0.0])])
        assert t.norms == pytest.approx((0.5, 3.0), rel=1e-15)
        assert t.scale == pytest.approx(3.0, rel=1e-15)
        assert zero_tuple(2, 3).scale == 1.0


class TestPolyEval:
    def test_constant_one(self):
        t = maxcount()
        assert np.allclose(poly_eval(Polynomial.constant(2, 1.0), t), np.eye(3))

    def test_worked_example_linear_form(self):
        t = maxcount()
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            p = Polynomial(2, {(0, 0): a, (1, 0): b, (0, 1): c})
            expected = np.array(
                [
                    [a, 0, 0],
                    [b * S3, a, (c - b) * S3],
                    [0, 0, a],
                ]
            )
            assert np.abs(poly_eval(p, t) - expected).max() < 1e-14

    def test_degree_two_annihilated(self):
        t = maxcount()
        for text in ("x1^2", "x1*x2", "x2^2"):
            assert np.abs(poly_eval(parse_polynomial(text, d=2), t)).max() < 1e-15

    def test_variable_count_mismatch(self):
        with pytest.raises(ShapeError):
            poly_eval(Polynomial.variable(3, 1), maxcount())

    def test_homomorphism_on_commuting(self):
        rng = np.random.default_rng(42)
        tuples = [maxcount(), rectangle(2, 2), fromgriff(2)]
        # diagonal contractions commute as well
        diag = RowTuple(
            [np.diag(rng.uniform(-0.5, 0.5, 4)), np.diag(rng.uniform(-0.5, 0.5, 4))]
        )
        tuples.append(diag)
        for t in tuples:
            for _ in range(5):
                p = _random_poly(rng, t.d, 3)
                q = _random_poly(rng, t.d, 3)
                lhs = poly_eval(p * q, t)
                rhs = poly_eval(p, t) @ poly_eval(q, t)
                assert np.abs(lhs - rhs).max() < 1e-10

    @given(
        d=st.integers(1, 3),
        size=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_plain_powers(self, d, size, seed, data, power):
        # conjugated staircase models, and dim = 0, against products formed one by one
        rng = np.random.default_rng(seed)
        if size:
            t = random_similarity(rng, staircase_model(d, random_staircase(rng, d, size)))
        else:
            t = zero_tuple(d, 0)
        top = data.draw(st.integers(0, nilpotency_index(t) + 2), label="degree")
        p = _random_poly(rng, d, top)
        expected = sum(
            (c * power(t, alpha) for alpha, c in p.coeffs.items()),
            np.zeros((t.dim, t.dim), dtype=complex),
        )
        scale = max(1.0, sum(abs(c) for c in p.coeffs.values()))
        assert np.abs(poly_eval(p, t) - expected).max(initial=0.0) <= 1e-13 * scale


def _random_poly(rng, d, degree):
    from rowtuples.polynomials import graded_indices

    coeffs = {}
    for alpha in graded_indices(d, degree):
        if rng.random() < 0.5:
            coeffs[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    return Polynomial(d, coeffs)


class TestCrossModuleInvariants:
    def test_nilpotent_implies_pure(self):
        for t in (maxcount(), fromgriff(3), rectangle(2, 2), jordan(4)):
            rep = validate(t)
            assert rep.nilpotent is not None
            assert rep.pure is True

    def test_model_compression_below_multiplier_norm(self):
        rng = np.random.default_rng(21)
        for t in (rectangle(2, 2), rectangle(3, 2), jordan(4)):
            cap = nilpotency_index(t)
            for _ in range(5):
                p = _random_poly(rng, t.d, 2)
                lhs = np.linalg.norm(poly_eval(p, t), 2)
                rhs = truncated_multiplier_norm(p, cap)
                assert lhs <= rhs + 1e-10
