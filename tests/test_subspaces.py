import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from rowtuples.errors import DomainError, HypothesisError, ShapeError, WitnessSearchError
from rowtuples.fixtures import fromgriff, jordan, maxcount, rectangle
from rowtuples.ideals import annihilator, annihilators_equal, staircase_model
from rowtuples.linalg import ToleranceConfig, numerical_rank, operator_norm, subspaces_equal
from rowtuples.subspaces import (
    SubspaceBasis,
    Verdict,
    compress,
    decomposition_exists,
    decomposition_find,
    generated_invariant,
    intertwiner_space,
    is_coinvariant,
    is_invariant,
    restrict,
    rigidity_coinvariant_check,
    rigidity_invariant_check,
    splitting_construct,
)
from rowtuples.sweeps import (
    proper_invariant,
    random_similarity,
    random_staircase,
    small_nilpotent_instance,
    splitting_instance,
)
from rowtuples.tuples import RowTuple

E1 = np.array([1.0, 0.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0, 0.0], dtype=complex)
E3 = np.array([0.0, 0.0, 1.0], dtype=complex)


def direct_sum(*parts: RowTuple) -> RowTuple:
    return RowTuple([block_diag(*mats) for mats in zip(*(p.mats for p in parts))])


def assert_certifies(e, t: RowTuple) -> float:
    """Check that ``e`` is a nontrivial idempotent commuting with ``t``; its trace."""
    assert operator_norm(e @ e - e) < 1e-9
    for mat in t.mats:
        assert operator_norm(e @ mat - mat @ e) < 1e-9 * max(1.0, operator_norm(mat))
    tr = np.trace(e).real
    assert abs(tr - round(tr)) < 1e-9 and 0 < round(tr) < t.dim
    return tr


def assert_pair(t: RowTuple, pair) -> None:
    """Check that ``pair`` is a complementary pair of nontrivial invariant subspaces."""
    assert pair is not None
    m, n = pair
    assert 0 < m.dim < t.dim and m.dim + n.dim == t.dim
    assert is_invariant(t, m) and is_invariant(t, n)
    assert np.linalg.svd(np.hstack([m.frame, n.frame]), compute_uv=False)[-1] > 1e-8


def equal_rectangles(seed: int) -> RowTuple:
    """A generic conjugate of ``rectangle(3,3) ⊕ rectangle(3,3)``."""
    return random_similarity(
        np.random.default_rng(seed), direct_sum(rectangle(3, 3), rectangle(3, 3))
    )


def two_jordan_cells() -> RowTuple:
    j = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    z = np.zeros((2, 2))
    return RowTuple([np.block([[j, z], [z, j]])])


class TestSubspaceBasis:
    def test_rejects_non_orthonormal_frame(self):
        with pytest.raises(ShapeError):
            SubspaceBasis(2, np.array([[1.0], [1.0]]))

    def test_from_span_gram_schmidt(self):
        cols = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]], dtype=complex)
        s = SubspaceBasis.from_span(cols)
        assert s.dim == 2
        p = s.projector()
        assert np.abs(p - np.diag([1.0, 1.0, 0.0])).max() < 1e-12

    def test_from_span_drops_dependent_columns(self):
        cols = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
        assert SubspaceBasis.from_span(cols).dim == 1

    def test_full_zero_complement(self):
        full = SubspaceBasis.full(3)
        zero = SubspaceBasis.zero(3)
        assert full.dim == 3 and zero.dim == 0
        assert full.complement().dim == 0
        assert zero.complement().dim == 3
        s = SubspaceBasis.from_span(E1.reshape(3, 1))
        c = s.complement()
        assert c.dim == 2
        assert np.abs(s.frame.conj().T @ c.frame).max() < 1e-12


class TestInvariance:
    def test_e2_span_invariant_for_maxcount(self):
        t = maxcount()
        m = SubspaceBasis.from_span(E2.reshape(3, 1))
        assert is_invariant(t, m)

    def test_e1_span_not_invariant(self):
        t = maxcount()
        m = SubspaceBasis.from_span(E1.reshape(3, 1))
        assert not is_invariant(t, m)

    def test_trivial_subspaces_invariant(self):
        t = fromgriff(2)
        assert is_invariant(t, SubspaceBasis.full(t.dim))
        assert is_invariant(t, SubspaceBasis.zero(t.dim))

    def test_generated_is_invariant_and_minimal(self):
        t = maxcount()
        g = generated_invariant(t, [E1])
        assert g.dim == 2
        assert is_invariant(t, g)
        p = g.projector()
        assert np.linalg.norm(p @ E1 - E1) < 1e-12

    def test_restrict_and_compress(self):
        t = maxcount()
        m = SubspaceBasis.from_span(E2.reshape(3, 1))
        r = restrict(t, m)
        assert r.dim == 1
        assert all(np.abs(mat).max() < 1e-14 for mat in r.mats)
        c = compress(t, m.complement())
        assert c.dim == 2

    def test_restrict_rejects_non_invariant(self):
        t = maxcount()
        m = SubspaceBasis.from_span(E1.reshape(3, 1))
        with pytest.raises(DomainError):
            restrict(t, m)

    def test_invariance_follows_the_tolerance(self):
        # span(e3) is invariant for the Jordan cell e1 -> e2 -> e3; tilting it by
        # 1e-7 toward e1 leaves a corner of 1e-7, inside the bound at
        # rank_rel_tol 1e-6 and outside it at the default 1e-9
        t = jordan(3)
        m = SubspaceBasis.from_span(np.array([[1e-7], [0.0], [1.0]]))
        assert not is_invariant(t, m)
        assert is_invariant(t, m, ToleranceConfig(rank_rel_tol=1e-6))
        n = SubspaceBasis.from_span(np.array([[1.0], [0.0], [1e-7]]))
        assert not is_coinvariant(t, n)
        assert is_coinvariant(t, n, ToleranceConfig(rank_rel_tol=1e-6))

    @given(
        d=st.integers(1, 3),
        size=st.integers(2, 8),
        log_tilt=st.floats(-12.0, -6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_span_residuals_agree_with_the_projector_formulas(self, d, size, log_tilt, seed):
        # a proper invariant subspace, its complement and a random subspace,
        # each also tilted by about 10^log_tilt, so verdicts fall on both
        # sides of the invariance bound and the frame tolerance
        tilt = 10.0**log_tilt
        rng = np.random.default_rng(seed)
        t = random_similarity(rng, staircase_model(d, random_staircase(rng, d, size)))
        n = t.dim
        m = proper_invariant(rng, t)
        frames = [m, m.complement(), SubspaceBasis.from_span(rng.standard_normal((n, m.dim)))]
        for f in list(frames):
            noise = rng.standard_normal((n, f.dim)) + 1j * rng.standard_normal((n, f.dim))
            frames.append(SubspaceBasis.from_span(f.frame + tilt * noise))
        bound = 1e-9 * np.sqrt(1.0 + sum(norm**2 for norm in t.norms))
        for f in frames:
            p = f.projector()
            q = np.eye(n) - p
            for upper, test in ((False, is_invariant), (True, is_coinvariant)):
                corners = [p @ mat @ q if upper else q @ mat @ p for mat in t.mats]
                expected = all(operator_norm(c) <= bound for c in corners)
                assert test(t, f) is expected
            for g in frames:
                expected = f.dim == g.dim and operator_norm(p - g.projector()) <= 1e-8
                assert subspaces_equal(f.frame, g.frame) is expected


class TestIntertwinerSpace:
    def test_jordan_commutant_dims(self):
        # a single nonderogatory cell has commutant {p(T)}: dimension = size
        assert len(intertwiner_space(jordan(2), jordan(2)).basis) == 2
        assert len(intertwiner_space(jordan(3), jordan(3)).basis) == 3

    def test_zero_tuple_commutant_is_everything(self):
        z = RowTuple([np.zeros((2, 2), dtype=complex)])
        assert len(intertwiner_space(z, z).basis) == 4

    def test_basis_elements_intertwine(self):
        s, t = jordan(3), jordan(3)
        for x in intertwiner_space(s, t).basis:
            for sk, tk in zip(s.mats, t.mats):
                assert operator_norm(x @ sk - tk @ x) < 1e-10

    def test_basis_frobenius_orthonormal(self):
        basis = intertwiner_space(jordan(3), jordan(3)).basis
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                ip = np.vdot(x.ravel(), y.ravel())
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10

    def test_cross_intertwiners_between_different_sizes(self):
        # maps J2 -> J3 intertwining the shifts: dimension 2
        basis = intertwiner_space(jordan(2), jordan(3)).basis
        for x in basis:
            assert x.shape == (3, 2)
            assert operator_norm(x @ jordan(2).mats[0] - jordan(3).mats[0] @ x) < 1e-10


class TestRigidity:
    def test_adjoint_cyclic_route_consistent(self):
        t = maxcount()
        g = generated_invariant(t, [E1])
        full = SubspaceBasis.full(3)
        rep = rigidity_invariant_check(t, g, full)
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.route == "adjoint-cyclic"
        assert rep.annihilators_match is False
        assert rep.subspaces_match is False

    def test_equal_subspaces_consistent(self):
        t = maxcount()
        g = generated_invariant(t, [E1])
        rep = rigidity_invariant_check(t, g, g)
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.annihilators_match is True
        assert rep.subspaces_match is True

    def test_inapplicable_when_no_hypothesis_holds(self):
        t = two_jordan_cells()
        m = generated_invariant(t, [np.array([0, 1, 0, 0], dtype=complex)])
        n = generated_invariant(t, [np.array([0, 0, 0, 1], dtype=complex)])
        rep = rigidity_invariant_check(t, m, n)
        assert rep.verdict is Verdict.INAPPLICABLE
        assert rep.route is None

    def test_coinvariant_route_on_cyclic_tuple(self):
        j = jordan(3)
        m = generated_invariant(j.adjoint(), [E2])  # span{e1, e2}
        assert m.dim == 2
        rep = rigidity_coinvariant_check(j, m, m)
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.route == "cyclic"

    def test_coinvariant_different_pairs_differ_in_both(self):
        j = jordan(3)
        m = generated_invariant(j.adjoint(), [E2])
        n = generated_invariant(j.adjoint(), [E1])  # span{e1}
        rep = rigidity_coinvariant_check(j, m, n)
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.annihilators_match is False
        assert rep.subspaces_match is False

    def test_coinvariant_inapplicable_without_cyclicity(self):
        t = maxcount()  # multiplicity 2
        m = generated_invariant(t.adjoint(), [E1])
        rep = rigidity_coinvariant_check(t, m, m)
        assert rep.verdict is Verdict.INAPPLICABLE


class TestDecomposition:
    def test_maxcount_is_indecomposable(self):
        rep = decomposition_exists(maxcount())
        assert rep.exists is False
        assert rep.commutant_dim == 3
        assert rep.semisimple_dim == 1
        assert rep.idempotent is None

    def test_fromgriff3_is_indecomposable(self):
        rep = decomposition_exists(fromgriff(3))
        assert rep.exists is False
        assert rep.commutant_dim == 13
        assert rep.semisimple_dim == 1

    def test_jordan_cell_is_indecomposable(self):
        rep = decomposition_exists(jordan(3))
        assert rep.exists is False
        assert rep.commutant_dim == 3
        assert rep.semisimple_dim == 1

    def test_two_cells_decompose(self):
        t = two_jordan_cells()
        rep = decomposition_exists(t)
        assert rep.exists is True
        assert rep.commutant_dim == 8
        assert rep.semisimple_dim == 4
        e = rep.idempotent
        assert np.abs(e @ e - e).max() < 1e-9
        tr = np.trace(e).real
        assert abs(tr - round(tr)) < 1e-9
        assert 0 < round(tr) < 4
        for mat in t.mats:
            assert operator_norm(e @ mat - mat @ e) < 1e-9

    def test_find_returns_complementary_invariant_pair(self):
        t = two_jordan_cells()
        out = decomposition_find(t)
        assert out is not None
        m, n = out
        assert m.dim + n.dim == 4
        assert 0 < m.dim < 4
        assert is_invariant(t, m) and is_invariant(t, n)
        stacked = np.hstack([m.frame, n.frame])
        assert np.linalg.matrix_rank(stacked) == 4

    def test_find_none_when_indecomposable(self):
        assert decomposition_find(jordan(3)) is None

    def test_scalar_tuple_decomposes(self):
        # no nilpotency is needed: 0.5*I has a full matrix commutant
        rep = decomposition_exists(RowTuple([np.eye(2) * 0.5]))
        assert rep.exists is True
        assert rep.commutant_dim == 4
        assert rep.semisimple_dim == 4
        assert_certifies(rep.idempotent, RowTuple([np.eye(2) * 0.5]))

    @pytest.mark.parametrize("s", range(4))
    def test_radical_covering_a_summand(self, s):
        # in 0 ⊕ maxcount a radical map sends maxcount onto the first summand,
        # so the compression of C to (R·H)^⊥ loses one of the two factors of
        # C/R; the left regular representation of C/R keeps both
        zero = RowTuple([np.zeros((1, 1))] * 2)
        t = random_similarity(np.random.default_rng(s), direct_sum(zero, maxcount()), 0.3)
        rep = decomposition_exists(t)
        assert (rep.exists, rep.semisimple_dim) == (True, 2)
        assert round(assert_certifies(rep.idempotent, t)) in (1, 3)

    @pytest.mark.parametrize("s", range(10))
    def test_conjugated_equal_rectangles(self, s):
        # decomposable by construction; a clustering of a generic commutant
        # element's eigenvalues used to miss the two 9-fold eigenvalues
        t = equal_rectangles(100 + s)
        rep = decomposition_exists(t)
        assert (rep.exists, rep.commutant_dim, rep.semisimple_dim) == (True, 36, 4)
        assert round(assert_certifies(rep.idempotent, t)) == 9
        assert_pair(t, decomposition_find(t))

    @pytest.mark.parametrize("s", range(300, 305))
    def test_conjugated_three_summands(self, s):
        parts = [rectangle(2, 3), rectangle(2, 2), rectangle(3, 1)]
        t = random_similarity(np.random.default_rng(s), direct_sum(*parts))
        rep = decomposition_exists(t)
        assert (t.dim, rep.exists, rep.commutant_dim, rep.semisimple_dim) == (13, True, 29, 3)
        sums = {sum(c) for k in (1, 2) for c in itertools.combinations((6, 4, 3), k)}
        assert round(assert_certifies(rep.idempotent, t)) in sums
        assert_pair(t, decomposition_find(t))

    def test_report_is_deterministic(self):
        first, again = equal_rectangles(100), equal_rectangles(100)
        assert np.array_equal(
            decomposition_exists(first).idempotent, decomposition_exists(again).idempotent
        )

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_does_not_change_the_report(self, seed, scale):
        t = small_nilpotent_instance(np.random.default_rng(seed), dim_cap=4)
        scaled = RowTuple([scale * m for m in t.mats])
        reports = [decomposition_exists(u) for u in (t, scaled)]
        assert len({(r.exists, r.commutant_dim, r.semisimple_dim) for r in reports}) == 1
        for u, r in zip((t, scaled), reports):
            if r.exists:
                assert_certifies(r.idempotent, u)


class TestSplitting:
    def test_block_sum_splits_off_one_cell(self):
        t = two_jordan_cells()
        m = generated_invariant(
            t, [np.array([1, 0, 0, 0], dtype=complex), np.array([0, 1, 0, 0], dtype=complex)]
        )
        assert m.dim == 2
        n = splitting_construct(t, m)
        assert n.dim == 2
        assert is_invariant(t, n)
        stacked = np.hstack([m.frame, n.frame])
        assert np.linalg.matrix_rank(stacked) == 4
        smin = np.linalg.svd(stacked, compute_uv=False)[-1]
        assert smin > 1e-8

    def test_full_subspace_gives_zero_complement(self):
        t = maxcount()
        n = splitting_construct(t, SubspaceBasis.full(3))
        assert n.dim == 0

    def test_hypothesis_failures_are_named(self):
        t = two_jordan_cells()
        with pytest.raises(HypothesisError) as info:
            splitting_construct(RowTuple([np.eye(2) * 0.5]), SubspaceBasis.full(2))
        assert info.value.hypothesis == "nilpotent"

        with pytest.raises(HypothesisError) as info:
            splitting_construct(maxcount(), SubspaceBasis.from_span(E1.reshape(3, 1)))
        assert info.value.hypothesis == "invariant_subspace"

        # restriction to the whole block sum has adjoint multiplicity 2
        with pytest.raises(HypothesisError) as info:
            splitting_construct(t, SubspaceBasis.full(4))
        assert info.value.hypothesis == "adjoint_cyclic"

        # span{e2} is invariant but the restriction is the zero tuple on C
        m = generated_invariant(maxcount(), [E2])
        with pytest.raises(HypothesisError) as info:
            splitting_construct(maxcount(), m)
        assert info.value.hypothesis == "annihilator_equality"

    def test_conjugated_instances_split_with_a_wide_angle(self):
        # S T S^-1 with M <- orth(S M): the pair (M, N) is oblique, not block-diagonal
        for seed in range(100):
            rng = np.random.default_rng(seed)
            t, m = splitting_instance(rng, d=2, max_side=3)
            g = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
            s = np.eye(t.dim) + 0.2 * g / np.linalg.norm(g, 2)
            sinv = np.linalg.inv(s)
            t = RowTuple([s @ mat @ sinv for mat in t.mats])
            m = SubspaceBasis.from_span(s @ m.frame)
            n = splitting_construct(t, m)
            stacked = np.hstack([m.frame, n.frame])
            smin = np.linalg.svd(stacked, compute_uv=False)[-1]
            assert is_invariant(t, n), f"seed {seed}"
            assert m.dim + n.dim == t.dim, f"seed {seed}"
            assert numerical_rank(stacked) == t.dim, f"seed {seed}"
            assert smin >= 0.5, f"seed {seed}: sigma_min {smin:.2e}"

    def test_construction_is_deterministic(self):
        t, m = splitting_instance(np.random.default_rng(3), d=2, max_side=3)
        first, second = (splitting_construct(t, m).frame for _ in range(2))
        assert np.array_equal(first, second)
        # a fresh copy of the same input recomputes every memoized step
        fresh = splitting_construct(RowTuple(t.mats), SubspaceBasis(t.dim, m.frame)).frame
        assert np.array_equal(first, fresh)

    def test_quotient_of_another_dimension_is_refused(self, monkeypatch):
        import rowtuples.subspaces as subspaces

        t = two_jordan_cells()
        m = generated_invariant(
            t, [np.array([1, 0, 0, 0], dtype=complex), np.array([0, 1, 0, 0], dtype=complex)]
        )
        real = subspaces.orbit_matrix
        monkeypatch.setattr(
            subspaces, "orbit_matrix", lambda *args: real(*args)[:, :1]
        )
        with pytest.raises(WitnessSearchError):
            splitting_construct(t, m)

    def test_restriction_annihilator_preserved_on_split(self):
        t = two_jordan_cells()
        m = generated_invariant(
            t, [np.array([1, 0, 0, 0], dtype=complex), np.array([0, 1, 0, 0], dtype=complex)]
        )
        n = splitting_construct(t, m)
        r = restrict(t, n)
        assert annihilators_equal(annihilator(r), annihilator(t))
