import math

import numpy as np
import pytest

from rowtuples import ideals, linalg, tuples
from rowtuples.errors import NotCommutingError, NotRowContractionError, ShapeError
from rowtuples.fixtures import fromgriff, jordan, maxcount, rectangle
from rowtuples.fock import truncated_multiplier_norm
from rowtuples.ideals import annihilator, omega_e
from rowtuples.polynomials import Polynomial, abelianize, parse_polynomial
from rowtuples.sweeps import random_similarity
from rowtuples.tuples import (
    RowTuple,
    nilpotency_index,
    poly_eval,
    purity,
    validate,
    word_eval,
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

    def test_immutable_mats(self):
        t = maxcount()
        with pytest.raises(ValueError):
            t.mats[0][0, 0] = 5.0

    def test_adjoint(self):
        t = maxcount()
        adj = t.adjoint()
        assert np.allclose(adj.mats[0], t.mats[0].conj().T)

    def test_monomial_cache_consistency(self):
        t = rectangle(2, 3)
        direct = t.mats[0] @ t.mats[0] @ t.mats[1]
        assert np.allclose(t.monomial((2, 1)), direct, atol=1e-14)


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

    def test_zero_tuple(self):
        assert nilpotency_index(zero_tuple(3, 2)) == 1

    def test_fromgriff(self):
        for n in (1, 2, 3, 5):
            assert nilpotency_index(fromgriff(n)) == 2

    def test_identity_not_nilpotent(self):
        assert nilpotency_index(RowTuple([np.eye(2) * 0.5])) is None

    def test_cap_respected(self):
        assert nilpotency_index(jordan(5), cap=3) is None
        assert nilpotency_index(jordan(5), cap=5) == 5

    def test_requires_commuting(self):
        t = RowTuple([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        with pytest.raises(NotCommutingError):
            nilpotency_index(t)


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
        monomials = dict(t._monomials)
        calls = []
        real = linalg.operator_norm

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        for module in (linalg, tuples, ideals):
            monkeypatch.setattr(module, "operator_norm", counting, raising=False)
        assert omega_e(t) == {(2, 2)}
        assert nilpotency_index(t) == 5
        assert calls == []
        assert t._monomials.keys() == monomials.keys()

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


def _random_poly(rng, d, degree):
    from rowtuples.polynomials import graded_indices

    coeffs = {}
    for alpha in graded_indices(d, degree):
        if rng.random() < 0.5:
            coeffs[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    return Polynomial(d, coeffs)


class TestWordEval:
    def test_empty_word(self):
        assert np.allclose(word_eval((), maxcount()), np.eye(3))

    def test_single_letter(self):
        t = maxcount()
        assert np.allclose(word_eval((1,), t), t.mats[0])

    def test_commutativity(self):
        t = maxcount()
        assert np.allclose(word_eval((1, 2), t), word_eval((2, 1), t))

    def test_abelianization_matches_poly_eval(self):
        t = rectangle(2, 3)
        rng = np.random.default_rng(9)
        for _ in range(10):
            word = tuple(rng.integers(1, 3, size=rng.integers(0, 5)))
            alpha = abelianize(word, 2)
            assert np.allclose(
                word_eval(word, t), poly_eval(Polynomial.monomial(2, alpha), t),
                atol=1e-13,
            )

    def test_letter_out_of_range(self):
        with pytest.raises(ShapeError):
            word_eval((3,), maxcount())


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
