import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowtuples import fixtures, fock, ideals, sweeps

from rowtuples.errors import WitnessSearchError
from rowtuples.ideals import annihilator, annihilators_equal, quotient_algebra
from rowtuples.subspaces import is_invariant, restrict
from rowtuples.sweeps import (
    SUITES,
    adjoint_cyclic_instance,
    cyclic_instance,
    proper_invariant,
    random_coinvariant,
    random_monomial_ideal,
    random_similarity,
    random_staircase,
    run_suite,
    small_nilpotent_instance,
    splitting_instance,
    staircase_generators,
)
from rowtuples.fixtures import maxcount
from rowtuples.tuples import nilpotency_index, validate
from rowtuples.vectors import multiplicity


def _rngs(seed, n):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


class TestGenerators:
    def test_staircases_are_order_ideals(self):
        for rng in _rngs(0, 20):
            lam = random_staircase(rng, 2, 8)
            assert (0, 0) in lam
            for alpha in lam:
                for k in range(2):
                    if alpha[k] > 0:
                        below = tuple(
                            a - (1 if j == k else 0) for j, a in enumerate(alpha)
                        )
                        assert below in lam

    def test_staircase_generators_cut_exactly(self):
        for rng in _rngs(1, 10):
            lam = random_staircase(rng, 2, 6)
            gens = staircase_generators(2, lam)
            for g in gens:
                assert g not in lam

    def test_random_ideal_quotient_matches_staircase(self):
        for rng in _rngs(2, 10):
            ann = random_monomial_ideal(rng, 2, 8)
            q = quotient_algebra(ann)
            assert 1 <= q.dim <= 8

    def test_cyclic_instance_is_cyclic_contraction(self):
        for rng in _rngs(3, 8):
            t = cyclic_instance(rng, d=2, max_delta=6)
            rep = validate(t)
            assert rep.commuting and rep.row_contraction
            assert nilpotency_index(t) is not None
            assert multiplicity(t) == 1

    def test_adjoint_cyclic_instance(self):
        for rng in _rngs(4, 8):
            t = adjoint_cyclic_instance(rng, d=2, max_side=3)
            assert multiplicity(t.adjoint()) == 1

    def test_similarity_preserves_annihilator(self):
        rng = np.random.default_rng(5)
        t = maxcount()
        s = random_similarity(rng, t)
        assert validate(s).row_contraction
        assert annihilators_equal(annihilator(s), annihilator(t))

    def test_proper_invariant_is_proper_and_invariant(self):
        for rng in _rngs(6, 8):
            t = cyclic_instance(rng, d=2, max_delta=6)
            m = proper_invariant(rng, t)
            assert m.dim < t.dim
            assert is_invariant(t, m)

    def test_random_coinvariant_is_coinvariant(self):
        for rng in _rngs(7, 8):
            t = cyclic_instance(rng, d=2, max_delta=6)
            m = random_coinvariant(rng, t)
            assert is_invariant(t.adjoint(), m)

    def test_splitting_instance_satisfies_hypotheses(self):
        for rng in _rngs(8, 6):
            t, m = splitting_instance(rng, d=2, max_side=3)
            assert is_invariant(t, m)
            r = restrict(t, m)
            assert multiplicity(r.adjoint()) == 1
            assert annihilators_equal(annihilator(r), annihilator(t))

    def test_instances_skip_the_numerical_model(self, monkeypatch):
        # monomial models are built in closed form: no model space, no multiplier
        calls = []
        for module, name in [
            (fock, "_multiplication_entries"),
            (ideals, "model_space"),
            (ideals, "_model_graph"),
        ]:
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for bound in list(sys.modules.values()):
                if getattr(bound, "__name__", "").startswith("rowtuples") and (
                    getattr(bound, name, None) is original
                ):
                    monkeypatch.setattr(bound, name, counting)
        for rng in _rngs(10, 4):
            cyclic_instance(rng, d=2, max_delta=12)
            adjoint_cyclic_instance(rng, d=2, max_side=3)
            splitting_instance(rng, d=2, max_side=3)
        sums = []
        original_sum = sweeps._direct_sum

        def counting_sum(a, b):
            sums.append((a.dim, b.dim))
            return original_sum(a, b)

        monkeypatch.setattr(sweeps, "_direct_sum", counting_sum)
        # the first draw of seed 9 (0.266 < 0.3) takes the direct-sum branch
        (out,) = run_suite("greedy", seed=9, count=1)
        assert out.ok and len(sums) == 1
        assert calls == []
        ideals.model_tuple(ideals.model_space(ideals.monomial_annihilator(1, [(2,)])))
        assert calls == ["model_space", "_model_graph", "_multiplication_entries"]

    def test_small_nilpotent_instance(self):
        for rng in _rngs(9, 10):
            t = small_nilpotent_instance(rng, dim_cap=4)
            assert t.dim <= 4
            assert nilpotency_index(t) is not None
            assert validate(t).commuting


class TestFockCheck:
    """The transform sweep applies the creation operators as column gathers."""

    @given(
        d=st.integers(1, 3),
        cap=st.integers(0, 6),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-1074, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_gather_is_the_product_with_the_creation_matrix(self, d, cap, rows, seed, exponent):
        space = fock.TruncatedFock(d, cap)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((rows, space.dim)) + 1j * rng.standard_normal((rows, space.dim))
        y *= 2.0**exponent  # subnormal parts at the low end
        parts = y.view(np.float64)
        parts[rng.random(parts.shape) < 0.2] = 0.0
        parts[rng.random(parts.shape) < 0.2] = -0.0

        def bits(a):
            # adding 0.0 maps -0.0 to +0.0 and keeps every other value: the
            # matmul picks a zero's sign by how the BLAS kernel orders its sums
            return (a + 0.0).view(np.int64)

        for k in range(1, d + 1):
            product = y @ fock.creation_matrix(k, space)
            assert np.array_equal(bits(sweeps._after_creation(y, k, space)), bits(product))

    def test_the_sweep_forms_no_creation_matrix(self, monkeypatch):
        calls = []
        original = fock.creation_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for bound in list(sys.modules.values()):
            if getattr(bound, "__name__", "").startswith("rowtuples") and (
                getattr(bound, "creation_matrix", None) is original
            ):
                monkeypatch.setattr(bound, "creation_matrix", counting)
        (out,) = run_suite("transform", seed=11, count=6)
        assert out.ok and out.passed == 6
        assert calls == []
        fock.creation_matrix(1, fock.TruncatedFock(2, 1))
        assert len(calls) == 1


# Draws of fixed seeds.  The generators must keep consuming random numbers
# in the same order, or every fixed-seed sweep outcome changes.
STAIRCASES = {
    (2, 0): {(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0)},
    (2, 1): {(0, 0), (1, 0), (2, 0), (3, 0)},
    (2, 2): {(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0)},
    (3, 0): {(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 2, 0)},
    (3, 1): {(0, 0, 0), (0, 1, 0), (1, 0, 0), (2, 0, 0)},
    (3, 3): {(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4), (1, 0, 0)},
}
# seed, d, max_side -> (box sides, staircase drawn inside the box)
SPLITTING_DRAWS = {
    (0, 2, 3): ((3, 2), {(0, 0), (0, 1), (1, 0), (1, 1)}),
    (4, 2, 3): ((3, 3), set(itertools.product(range(3), range(3))) - {(2, 2)}),
    (5, 2, 3): ((3, 3), {(0, 0)}),
    (11, 2, 3): ((1, 2), {(0, 0)}),  # sides (1, 1) drawn first, then one raised to 2
    (0, 3, 2): ((2, 2, 2), {(0, 0, 0), (0, 1, 0), (0, 0, 1)}),
}


class TestPinnedDraws:
    @pytest.mark.parametrize("d, seed", sorted(STAIRCASES))
    def test_random_staircase(self, d, seed):
        assert random_staircase(np.random.default_rng(seed), d, 7) == STAIRCASES[d, seed]

    @pytest.mark.parametrize("seed, d, max_side", sorted(SPLITTING_DRAWS))
    def test_splitting_instance(self, monkeypatch, seed, d, max_side):
        drawn = []
        original = sweeps.staircase_model

        def recording(d, staircase):
            drawn.append(sorted(tuple(a) for a in staircase))
            return original(d, drawn[-1])

        # the box model comes through fixtures.rectangle
        for module in (sweeps, fixtures):
            monkeypatch.setattr(module, "staircase_model", recording)
        t, m = splitting_instance(np.random.default_rng(seed), d=d, max_side=max_side)
        sides, staircase = SPLITTING_DRAWS[seed, d, max_side]
        box = sorted(itertools.product(*(range(s) for s in sides)))
        assert drawn == [box, sorted(staircase)]
        assert (t.dim, m.dim) == (math.prod(sides) + len(staircase), math.prod(sides))

    def test_benchmark_splitting_input(self):
        # the benchmark's pinned splitting op runs on this instance
        rng = sweeps._streams(800019, 4)[3]
        t, m = splitting_instance(rng, d=2, max_side=3)
        assert (t.dim, m.dim) == (17, 9)


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_passes_small_run(self, name):
        (out,) = run_suite(name, seed=11, count=12)
        assert out.total == 12
        assert out.failed == 0
        assert out.violations == 0
        assert out.ok

    def test_closure_canaries_pass(self):
        # each op failed under one rewrite of generated_invariant's closure:
        # raw orbit blocks with one rank cutoff, or a stop rule at the
        # invariance test's own bound; the frames it returns sit near the
        # invariance thresholds of these instances
        canaries = [
            ("rigidity-full", 1000216, 4),
            ("rigidity-full", 2005526, 4),
            ("rigidity-coinvariant", 6003445, 4),
            ("rigidity-adjoint", 6005942, 6),
            ("rigidity-adjoint", 8005684, 6),
        ]
        for name, seed, count in canaries:
            (out,) = run_suite(name, seed=seed, count=count)
            assert (out.passed, out.failed, out.violations) == (count, 0, 0), (name, seed)

    def test_deterministic_for_fixed_seed(self):
        a = run_suite("greedy", seed=5, count=8)[0]
        b = run_suite("greedy", seed=5, count=8)[0]
        assert a == b

    def test_all_runs_every_suite(self):
        outs = run_suite("all", seed=13, count=3)
        assert [o.name for o in outs] == list(SUITES)
        assert all(o.ok for o in outs)

    def test_an_instance_that_raises_fails_alone(self, monkeypatch):
        real = sweeps.small_nilpotent_instance
        drawn = []

        def fifth_raises(rng, dim_cap):
            drawn.append(rng)
            if len(drawn) == 5:
                raise WitnessSearchError("no certificate")
            return real(rng, dim_cap)

        monkeypatch.setattr(sweeps, "small_nilpotent_instance", fifth_raises)
        (out,) = run_suite("decompose", seed=3, count=12)
        assert (out.total, out.passed, out.failed) == (12, 11, 1)
        assert out.messages == ("instance 4: no certificate",)

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            run_suite("nonesuch")
