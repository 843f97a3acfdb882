import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from rowtuples.errors import (
    ConvergenceError,
    NotCommutingError,
    NotCyclicError,
    NotNilpotentError,
    ShapeError,
    WitnessSearchError,
)
from rowtuples.fixtures import build, fromgriff, jordan, maxcount, rectangle
from rowtuples.fock import TruncatedFock, creation_matrix
from rowtuples.ideals import (
    annihilator,
    model_of,
    model_space,
    model_tuple,
    monomial_annihilator,
    nakayama_generators,
    quotient_algebra,
    staircase_model,
)
from rowtuples.linalg import numerical_rank, operator_norm, orthonormalize
from rowtuples.subspaces import generated_invariant, intertwiner_space
from rowtuples.sweeps import (
    cyclic_instance,
    random_similarity,
    random_staircase,
    staircase_generators,
)
from rowtuples.tuples import RowTuple, poly_eval
from rowtuples.vectors import (
    GramReport,
    fock_intertwiner,
    gram_operator,
    is_cyclic,
    is_separating,
    krylov,
    multiplicity,
    quasiaffine_witness,
    separating_greedy,
    separating_witness,
)

E1 = np.array([1.0, 0.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0, 0.0], dtype=complex)
E3 = np.array([0.0, 0.0, 1.0], dtype=complex)


def _sampled_multiplicity(t: RowTuple, seed: int = 0) -> int:
    """Least size of a random seed set that generates the space (brute force)."""
    rng = np.random.default_rng(seed)
    for size in range(1, t.dim + 1):
        for _ in range(40):
            seeds = [
                rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
                for _ in range(size)
            ]
            if generated_invariant(t, seeds).dim == t.dim:
                return size
    raise AssertionError("no sampled seed set generates the space")


class TestKrylov:
    def test_orbit_of_e1_is_two_dimensional(self):
        t = maxcount()
        k = krylov(t, E1)
        assert k.dim == 2
        # the orbit contains e1 and T_k e1 ∝ e2, nothing more
        p = k.projector()
        assert np.linalg.norm(p @ E1 - E1) < 1e-12
        assert np.linalg.norm(p @ E2 - E2) < 1e-12
        assert np.linalg.norm(p @ E3) < 1e-12

    def test_no_single_cyclic_vector(self):
        t = maxcount()
        rng = np.random.default_rng(11)
        for _ in range(25):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert not is_cyclic(t, v)

    def test_adjoint_is_cyclic_from_e2(self):
        assert is_cyclic(maxcount().adjoint(), E2)

    def test_vector_length_checked(self):
        with pytest.raises(ShapeError):
            krylov(maxcount(), np.array([1.0, 0.0]))

    def test_jordan_top_vector_cyclic(self):
        assert is_cyclic(jordan(4), np.eye(4, dtype=complex)[:, 0])


class TestMultiplicity:
    def test_maxcount_needs_two_generators(self):
        t = maxcount()
        assert multiplicity(t) == 2
        assert _sampled_multiplicity(t) == 2

    def test_jordan_is_cyclic(self):
        assert multiplicity(jordan(3)) == 1

    def test_rectangle(self):
        # C[x1,x2]/(x1^a, x2^b) is cyclic as a module over itself
        assert multiplicity(rectangle(3, 2)) == 1

    def test_direct_sum_adds(self):
        j = jordan(2).mats[0]
        two = RowTuple([np.block([[j, np.zeros((2, 2))], [np.zeros((2, 2)), j]])])
        assert multiplicity(two) == 2

    def test_requires_nilpotent(self):
        t = RowTuple([np.eye(2) * 0.5])
        with pytest.raises(NotNilpotentError):
            multiplicity(t)

    def test_zero_tuple_multiplicity_is_dimension(self):
        t = RowTuple([np.zeros((3, 3))] * 2)
        assert multiplicity(t) == 3
        assert _sampled_multiplicity(t) == 3


class TestSeparating:
    def test_e2_is_not_separating(self):
        assert not is_separating(maxcount(), E2)

    def test_no_single_vector_separates_maxcount(self):
        # T1 v and T2 v are always parallel to e2, so the orbit of any
        # vector has rank at most 2 < delta = 3
        t = maxcount()
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert not is_separating(t, v)
            w = separating_witness(t, v)
            assert np.linalg.norm(poly_eval(w, t) @ v) < 1e-10
            assert operator_norm(poly_eval(w, t)) > 0.1

    def test_generic_vector_separates_cyclic_tuples(self):
        rng = np.random.default_rng(5)
        for t in (jordan(4), rectangle(2, 2)):
            for _ in range(5):
                v = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
                assert is_separating(t, v)
                assert separating_witness(t, v) is None

    def test_witness_formula_on_nonseparating_family(self):
        # vectors with v2 = v3 = components forcing the kernel direction
        t = maxcount()
        v = np.array([1.0, 2.0, 3.0], dtype=complex)
        w = separating_witness(t, v)
        assert w is not None
        # w ∝ (v3 x1 + (v3 - v1) x2) normalized: (3 x1 + 2 x2)/sqrt(13)
        expect = {(1, 0): 3 / math.sqrt(13), (0, 1): 2 / math.sqrt(13)}
        for alpha, c in expect.items():
            assert abs(abs(w.coeffs[alpha]) - c) < 1e-12
        # certificate quality: annihilates v but not the algebra
        assert np.linalg.norm(poly_eval(w, t) @ v) < 1e-12
        assert operator_norm(poly_eval(w, t)) > 0.1

    def test_witness_for_e2_certifies(self):
        t = maxcount()
        w = separating_witness(t, E2)
        assert w is not None
        assert np.linalg.norm(poly_eval(w, t) @ E2) < 1e-12
        assert operator_norm(poly_eval(w, t)) > 0.1

    def test_witness_has_unit_coefficient_norm(self):
        t = maxcount()
        q = quotient_algebra(annihilator(t))
        w = separating_witness(t, E2)
        coeffs = np.array([w.coeffs.get(a, 0.0) for a in q.monomial_basis])
        assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-12

    def test_cyclic_implies_separating(self):
        # for nilpotent commuting tuples a cyclic vector always separates
        rng = np.random.default_rng(2)
        t = jordan(4)
        for _ in range(10):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            if is_cyclic(t, v):
                assert is_separating(t, v)


class TestSeparatingGreedy:
    def test_maxcount_pair_is_its_nakayama_generators(self):
        t = maxcount()
        chosen, trace = separating_greedy(t)
        assert trace == [3, 1, 0]
        assert len(chosen) == 2
        for v, g in zip(chosen, nakayama_generators(t).T):
            assert np.array_equal(v, g)
        # e3 and -e1, up to phase
        assert abs(abs(chosen[0][2]) - 1) < 1e-12 and abs(abs(chosen[1][0]) - 1) < 1e-12

    def test_needs_at_most_min_mu_delta_vectors(self):
        t = maxcount()
        q = quotient_algebra(annihilator(t))
        chosen, _ = separating_greedy(t)
        assert 1 <= len(chosen) <= min(multiplicity(t), q.dim)

    def test_chosen_set_is_jointly_separating(self, power):
        t = fromgriff(3)
        q = quotient_algebra(annihilator(t))
        chosen, _ = separating_greedy(t)
        cols = np.hstack(
            [
                np.column_stack([power(t, a) @ v for a in q.monomial_basis]).T
                for v in chosen
            ]
        )
        assert np.linalg.matrix_rank(cols.T) == q.dim

    def test_single_generic_vector_suffices_when_separating(self):
        chosen, _ = separating_greedy(jordan(3))
        assert len(chosen) == 1

    def test_a_kernel_left_by_the_generators_is_refused(self, monkeypatch):
        # e3 alone leaves a kernel on maxcount: the built set fails its check
        import rowtuples.vectors as vectors

        monkeypatch.setattr(vectors, "nakayama_generators", lambda t, tol: E3[:, None])
        with pytest.raises(WitnessSearchError, match="joint kernel of dimension 1"):
            separating_greedy(maxcount())

    @given(
        d=st.integers(1, 3),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_conjugated_staircase_sums(self, d, sizes, seed, power):
        rng = np.random.default_rng(seed)
        parts = [staircase_model(d, random_staircase(rng, d, size)) for size in sizes]
        summed = [block_diag(*mats) for mats in zip(*(p.mats for p in parts))]
        t = random_similarity(rng, RowTuple(summed))
        q = quotient_algebra(annihilator(t))
        chosen, trace = separating_greedy(t)
        assert len(chosen) <= multiplicity(t)
        assert trace[0] == q.dim and trace[-1] == 0
        assert all(a > b for a, b in zip(trace, trace[1:]))
        joint = np.vstack(
            [np.column_stack([power(t, a) @ xi for a in q.monomial_basis]) for xi in chosen]
        )
        assert numerical_rank(joint) == q.dim
        again, again_trace = separating_greedy(RowTuple([m.copy() for m in t.mats]))
        assert again_trace == trace
        assert all(np.array_equal(a, b) for a, b in zip(again, chosen))


class TestGramOperator:
    def test_worked_example(self):
        rep = gram_operator(maxcount(), E1)
        assert isinstance(rep, GramReport)
        expect = np.diag([1.0, 1.0 / 3.0, 0.0])
        assert np.abs(rep.gram - expect).max() < 1e-12
        assert abs(rep.bound - 1.0) < 1e-12
        assert rep.cyclic is False

    def test_zero_vector(self):
        rep = gram_operator(maxcount(), np.zeros(3))
        assert np.abs(rep.gram).max() == 0.0
        assert rep.bound == 0.0

    def test_gram_is_positive_semidefinite(self):
        t = fromgriff(3)
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
            rep = gram_operator(t, v)
            eigs = np.linalg.eigvalsh(rep.gram)
            assert eigs.min() > -1e-10

    def test_witness_image_of_constant_has_contractive_gram(self):
        # for a cyclic tuple, pushing the model's constant through the
        # quasi-affine witness produces a vector with gram bound <= 1
        rng = np.random.default_rng(21)
        for t0 in (jordan(3), rectangle(2, 2)):
            t = random_similarity(rng, t0)
            X = quasiaffine_witness(t)
            frame = model_space(annihilator(t)).frame
            const = frame.conj().T @ np.eye(frame.shape[0], 1, dtype=complex)[:, 0]
            xi = X @ (const / np.linalg.norm(const))
            rep = gram_operator(t, xi)
            assert rep.bound <= 1.0 + 1e-8

    def test_divergent_series_is_refused_without_overflow_warnings(self):
        # T = 2I: the terms grow by 4 per step until a partial sum overflows
        t = RowTuple([2.0 * np.eye(2)])
        with pytest.raises(ConvergenceError, match="diverges"):
            gram_operator(t, [1.0, 0.0])

    def test_bound_scales_quadratically(self):
        t = maxcount()
        one = gram_operator(t, E1)
        double = gram_operator(t, 2 * E1)
        assert abs(double.bound - 4 * one.bound) < 1e-10


class TestFockIntertwiner:
    def test_shape_and_norm(self):
        X = fock_intertwiner(maxcount(), E1, 2)
        assert X.shape == (3, 7)
        assert abs(operator_norm(X) - 1.0) < 1e-12

    def test_first_column_is_the_vector(self):
        X = fock_intertwiner(maxcount(), E1, 2)
        assert np.allclose(X[:, 0], E1)

    def test_intertwines_creation_operators(self):
        t = maxcount()
        X = fock_intertwiner(t, E1, 3)
        fock = TruncatedFock(2, 3)
        for k in range(2):
            resid = t.mats[k] @ X - X @ creation_matrix(k + 1, fock)
            assert operator_norm(resid) < 1e-12

    def test_words_with_the_same_letters_share_a_column(self):
        # T_w ξ = T^α ξ for the letter counts α of w: the tuple must commute
        t = fromgriff(2)
        X = fock_intertwiner(t, np.ones(t.dim), 2)
        fock = TruncatedFock(2, 2)
        assert np.array_equal(X[:, fock.position((1, 2))], X[:, fock.position((2, 1))])
        with pytest.raises(NotCommutingError):
            fock_intertwiner(RowTuple([[[0, 1], [0, 0]], [[0, 0], [1, 0]]]), [1, 0], 2)

    def test_gram_factorization(self):
        # G = X X^H reproduces the word-orbit gram operator
        t = fromgriff(2)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
        X = fock_intertwiner(t, v, 4)
        rep = gram_operator(t, v)
        assert np.abs(X @ X.conj().T - rep.gram).max() < 1e-10


class TestQuasiaffineWitness:
    def test_jordan_model_intertwiner(self):
        t = jordan(3)
        X = quasiaffine_witness(t)
        m = model_tuple(model_space(annihilator(t)))
        assert X.shape == (3, 3)
        assert abs(operator_norm(X) - 1.0) < 1e-12
        assert np.linalg.matrix_rank(X) == 3
        resid = max(
            operator_norm(t.mats[k] @ X - X @ m.mats[k]) for k in range(t.d)
        )
        assert resid < 1e-12

    def test_conjugated_model_recovers_intertwiner(self):
        rng = np.random.default_rng(9)
        t = random_similarity(rng, rectangle(2, 2))
        X = quasiaffine_witness(t)
        m = model_tuple(model_space(annihilator(t)))
        resid = max(
            operator_norm(t.mats[k] @ X - X @ m.mats[k]) for k in range(t.d)
        )
        assert resid < 1e-8
        assert np.linalg.matrix_rank(X) == t.dim

    def test_noncyclic_tuple_rejected(self):
        with pytest.raises(NotCyclicError):
            quasiaffine_witness(maxcount())

    def test_noncyclic_tuple_rejected_before_the_model(self, monkeypatch):
        import rowtuples.ideals as ideals

        def fail(*args, **kwargs):
            raise AssertionError("model built for a non-cyclic tuple")

        monkeypatch.setattr(ideals, "_model_graph", fail)
        with pytest.raises(NotCyclicError):
            quasiaffine_witness(maxcount())

    @pytest.mark.parametrize("seed", range(6))
    def test_lies_in_the_kronecker_intertwiner_space(self, seed):
        # the Kronecker solve of X M_k = T_k X stays the oracle for n <= 16
        t = cyclic_instance(np.random.default_rng(seed), d=2, max_delta=16)
        _, model = model_of(t)
        x = quasiaffine_witness(t)
        basis = intertwiner_space(model, t).basis
        span = orthonormalize(np.column_stack([b.reshape(-1) for b in basis]))
        vec = x.reshape(-1)
        assert np.linalg.norm(vec - span @ (span.conj().T @ vec)) < 1e-8

    @pytest.mark.parametrize(
        "name",
        ["jordan(1)", "jordan(4)", "rectangle(2,3)", "rectangle(3,3)", "rectangle(4,3)",
         "rectangle(2,2,2)", "model(x1^2;x1*x2;x2^3)", "model(x1^3;x2^2;x3)"],
    )
    def test_identity_on_monomial_fixtures(self, name):
        t = build(name)
        assert np.abs(quasiaffine_witness(t) - np.eye(t.dim)).max() <= 1e-12

    @pytest.mark.parametrize("sides", [(2, 3), (4, 3), (2, 2, 2)])
    def test_stable_under_roundoff(self, sides):
        # roundoff in the input may move X by roundoff only
        t = rectangle(*sides)
        gens = staircase_generators(t.d, list(np.ndindex(*sides)))
        numeric = model_tuple(model_space(monomial_annihilator(t.d, gens)))
        rng = np.random.default_rng(sum(sides))
        noise = [np.exp(2j * np.pi * rng.random(m.shape)) for m in t.mats]
        jittered = RowTuple([m + 2e-16 * e for m, e in zip(t.mats, noise)])
        x = quasiaffine_witness(t)
        for u in (numeric, jittered):
            assert max(np.abs(a - b).max() for a, b in zip(u.mats, t.mats)) <= 4e-16
            assert np.abs(quasiaffine_witness(u) - x).max() <= 1e-12

    def test_stable_at_a_phase_tie(self):
        # the generator (e1 + i e2)/√2 has two entries of equal modulus;
        # roundoff in the similarity must not turn the witness by a unit phase
        s = 1 / math.sqrt(2)
        u = np.array([[s, s, 0], [1j * s, -1j * s, 0], [0, 0, 1]])
        nudged = u.copy()
        nudged[1, 0] *= 1 + 1e-15
        cell = jordan(3).mats[0]
        x, y = (quasiaffine_witness(RowTuple([v @ cell @ np.linalg.inv(v)])) for v in (u, nudged))
        assert np.abs(x - y).max() <= 1e-12

    @given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_similar_staircase_models(self, d, size, seed):
        rng = np.random.default_rng(seed)
        t = random_similarity(rng, staircase_model(d, random_staircase(rng, d, size)))
        space, model = model_of(t)
        x = quasiaffine_witness(t)
        residual = max(operator_norm(tk @ x - x @ mk) for tk, mk in zip(t.mats, model.mats))
        assert residual < 1e-8
        assert numerical_rank(x) == t.dim
        assert abs(operator_norm(x) - 1.0) < 1e-12
        # X maps the constant into (Σ_k T_k H)^⊥, the generator's line
        image = x @ space.frame[0].conj()
        assert np.linalg.norm(t.row().conj().T @ image) <= 1e-8 * np.linalg.norm(image)

    def test_needs_no_kronecker_solve(self, monkeypatch):
        import rowtuples.subspaces as subspaces

        original = subspaces.intertwiner_space

        def fail(*args, **kwargs):
            raise AssertionError("quasi-affine witness solved the Kronecker system")

        for module in list(sys.modules.values()):
            if getattr(module, "intertwiner_space", None) is original:
                monkeypatch.setattr(module, "intertwiner_space", fail)
        t = random_similarity(np.random.default_rng(4), rectangle(3, 2))
        assert quasiaffine_witness(t).shape == (6, 6)
