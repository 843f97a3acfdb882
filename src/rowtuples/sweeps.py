"""Randomized instance generators and property-sweep runners.

The generators produce commuting nilpotent row contractions with
controlled invariants (cyclicity, adjoint cyclicity, quotient dimension)
from random monomial staircases, similarity conjugations, and direct
sums.  The sweep runners drive the rigidity, splitting, greedy, witness,
and decomposition properties over seeded instance streams; they are
shared by the test suite and the command-line ``sweep`` command.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fixtures import rectangle
from .fock import TruncatedFock, creation_targets
from .ideals import (
    AnnihilatorBasis,
    model_of,
    monomial_annihilator,
    orbit_matrix,
    quotient_of,
    staircase_model,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, numerical_rank, operator_norm
from .subspaces import (
    SubspaceBasis,
    Verdict,
    decomposition_exists,
    decomposition_find,
    generated_invariant,
    is_invariant,
    rigidity_coinvariant_check,
    rigidity_invariant_check,
    splitting_construct,
)
from .tuples import RowTuple, nilpotency_index
from .vectors import fock_intertwiner, gram_operator, quasiaffine_witness, separating_greedy

__all__ = [
    "SweepOutcome",
    "SUITES",
    "random_staircase",
    "staircase_generators",
    "random_monomial_ideal",
    "random_similarity",
    "cyclic_instance",
    "adjoint_cyclic_instance",
    "proper_invariant",
    "random_coinvariant",
    "splitting_instance",
    "small_nilpotent_instance",
    "run_suite",
]


def random_staircase(rng, d: int, max_size: int) -> set[tuple[int, ...]]:
    """Random order ideal (staircase) in N^d containing the origin."""
    return _grow_staircase(rng, d, max_size)


def _grow_staircase(rng, d: int, max_size: int, sides=None) -> set[tuple[int, ...]]:
    """:func:`random_staircase`, kept inside the box with the given sides if any.

    The size is drawn from ``1 .. max_size``; the staircase then grows one
    random corner at a time, chosen among the sorted addable monomials.
    """
    target = int(rng.integers(1, max_size + 1))
    lam = {(0,) * d}
    while len(lam) < target:
        frontier = set()
        for alpha in lam:
            for k in range(d):
                up = list(alpha)
                up[k] += 1
                cand = tuple(up)
                if cand in lam or (sides is not None and cand[k] >= sides[k]):
                    continue
                if all(
                    cand[j] == 0
                    or tuple(c - (1 if j == i else 0) for i, c in enumerate(cand))
                    in lam
                    for j in range(d)
                ):
                    frontier.add(cand)
        if not frontier:
            break
        ordered = sorted(frontier)
        lam.add(ordered[int(rng.integers(len(ordered)))])
    return lam


def staircase_generators(d: int, staircase) -> list[tuple[int, ...]]:
    """Minimal monomials outside the staircase (ideal generators)."""
    lam = set(staircase)
    tops = [max(a[k] for a in lam) + 1 for k in range(d)]
    gens = []
    for alpha in itertools.product(*(range(t + 1) for t in tops)):
        if alpha in lam:
            continue
        below = [
            tuple(c - (1 if j == i else 0) for i, c in enumerate(alpha))
            for j in range(d)
            if alpha[j] > 0
        ]
        if all(b in lam for b in below):
            gens.append(alpha)
    return sorted(gens)


def random_monomial_ideal(rng, d: int, max_delta: int) -> AnnihilatorBasis:
    lam = random_staircase(rng, d, max_delta)
    return monomial_annihilator(d, staircase_generators(d, lam))


def random_similarity(
    rng, t: RowTuple, spread: float = 0.2, tol: ToleranceConfig = DEFAULT_TOL
) -> RowTuple:
    """Conjugate by a well-conditioned perturbation of the identity.

    The result is rescaled into a row contraction when the conjugation
    pushes the row norm above one; scaling preserves nilpotency, the
    staircase of a monomial annihilator, and all cyclicity invariants.
    """
    g = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    s = np.eye(t.dim) + spread * g / operator_norm(g, tol)
    sinv = np.linalg.inv(s)
    mats = [s @ mat @ sinv for mat in t.mats]
    row = operator_norm(np.hstack(mats), tol)
    if row > 1.0:
        mats = [mat / (row * (1.0 + 1e-12)) for mat in mats]
    return RowTuple(mats)


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix ``a ⊕ b``."""
    out = np.zeros(np.add(a.shape, b.shape), dtype=np.result_type(a, b))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def _direct_sum(a: RowTuple, b: RowTuple) -> RowTuple:
    """The block-diagonal tuple ``A ⊕ B``."""
    return RowTuple([_block_diag(ma, mb) for ma, mb in zip(a.mats, b.mats)])


def _random_box(rng, d: int, max_side: int) -> tuple[list[int], RowTuple]:
    """Random box sides (not all 1) and the model of ``(x1^s1, .., xd^sd)``."""
    sides = [int(rng.integers(1, max_side + 1)) for _ in range(d)]
    if all(s == 1 for s in sides):
        sides[int(rng.integers(d))] = 2
    return sides, rectangle(*sides)


def cyclic_instance(rng, d: int = 2, max_delta: int = 8) -> RowTuple:
    """Random cyclic nilpotent row contraction (a conjugated model tuple)."""
    model = staircase_model(d, random_staircase(rng, d, max_delta))
    return random_similarity(rng, model)


def adjoint_cyclic_instance(rng, d: int = 2, max_side: int = 3) -> RowTuple:
    """Random instance whose adjoint is cyclic (a conjugated box model).

    Box staircases have a unique maximal element, so the model's socle is
    simple and the adjoint tuple is cyclic; similarity preserves this.
    """
    _, model = _random_box(rng, d, max_side)
    return random_similarity(rng, model)


def proper_invariant(rng, t: RowTuple) -> SubspaceBasis:
    """Random invariant subspace inside ``Σ_k T_k H`` (always proper)."""
    w = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
    v = sum(mat @ w for mat in t.mats)
    return generated_invariant(t, [v])


def random_coinvariant(rng, t: RowTuple) -> SubspaceBasis:
    """Adjoint-orbit closure of a random vector (co-invariant by duality)."""
    v = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
    return generated_invariant(t.adjoint(), [v])


def splitting_instance(rng, d: int = 2, max_side: int = 3):
    """Direct sum ``A ⊕ B`` with ``M = 0 ⊕ H_B`` satisfying the splitting hypotheses.

    ``B`` is a box model (adjoint cyclic) and ``Ann(A) ⊇ Ann(B)``, so the
    restriction to ``M`` has the full annihilator.
    """
    sides, b = _random_box(rng, d, max_side)
    a = staircase_model(d, _grow_staircase(rng, d, math.prod(sides), sides))
    frame = np.zeros((a.dim + b.dim, b.dim), dtype=np.complex128)
    frame[a.dim :, :] = np.eye(b.dim)
    return _direct_sum(a, b), SubspaceBasis(a.dim + b.dim, frame)


def small_nilpotent_instance(rng, dim_cap: int = 4) -> RowTuple:
    """Random commuting nilpotent tuple of dimension ≤ ``dim_cap``.

    Mixes conjugated cyclic models (indecomposable), direct sums of
    Jordan cells (decomposable), and polynomial tuples in one nilpotent
    Jordan block (either, depending on the sampled coefficients).
    """
    kind = int(rng.integers(3))
    if kind == 0:
        return cyclic_instance(rng, d=2, max_delta=dim_cap)
    if kind == 1:
        a = int(rng.integers(1, dim_cap))
        b = int(rng.integers(1, dim_cap + 1 - a))
        block = _block_diag(np.eye(a, k=-1), np.eye(b, k=-1))
        t = RowTuple([block / 2.0, np.zeros((a + b, a + b))])
        return random_similarity(rng, t)
    n = int(rng.integers(2, dim_cap + 1))
    shift = np.eye(n, k=-1)
    mats = []
    for _ in range(2):
        coeffs = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        if rng.random() < 0.3:
            coeffs[0] = 0.0
        mat = sum(c * np.linalg.matrix_power(shift, j + 1) for j, c in enumerate(coeffs))
        mats.append(mat)
    t = RowTuple(mats)
    row = operator_norm(np.hstack(t.mats))
    if row > 1.0:
        t = RowTuple([m / (row * (1.0 + 1e-12)) for m in t.mats])
    return random_similarity(rng, t)


@dataclass(frozen=True)
class SweepOutcome:
    """Aggregate result of one property suite."""

    name: str
    total: int
    passed: int
    failed: int
    violations: int
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.violations == 0


def _streams(seed: int, count: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _sweep(name: str, seed: int, count: int, case) -> SweepOutcome:
    """Run ``case(i, rng)`` on each seeded stream and tally its results.

    ``case`` returns ``(ok, message, violation)``; an exception it raises
    counts as a failed instance with the message ``instance {i}: {exc}``.
    Messages of failed or violating instances are kept, at most eight.
    """
    results = []
    for i, rng in enumerate(_streams(seed, count)):
        try:
            results.append(case(i, rng))
        except Exception as exc:  # noqa: BLE001 - aggregated into the outcome
            results.append((False, f"instance {i}: {exc}", False))
    passed = sum(1 for ok, _, viol in results if ok and not viol)
    violations = sum(1 for _, _, viol in results if viol)
    failed = len(results) - passed - violations
    messages = tuple(msg for ok, msg, viol in results if (not ok or viol) and msg)[:8]
    return SweepOutcome(name, len(results), passed, failed, violations, messages)


def _rigidity_sweep(name, seed, count, instance, draw, check, *, against_full=False):
    """Rigidity sweep over ``instance`` tuples and subspace pairs from ``draw``.

    Every eighth instance compares a subspace with itself.  With
    ``against_full`` the second subspace is the whole space.
    """

    def case(i, rng):
        t = instance(rng)
        if against_full:
            n = SubspaceBasis.full(t.dim)
            m = n if i % 8 == 7 else draw(rng, t)
        else:
            m = draw(rng, t)
            n = m if i % 8 == 7 else draw(rng, t)
        rep = check(t, m, n)
        ok = rep.verdict is Verdict.CONSISTENT
        viol = rep.verdict is Verdict.THEOREM_VIOLATION
        return ok, f"instance {i}: {rep.verdict.value}" if not ok else "", viol

    return _sweep(name, seed, count, case)


def sweep_rigidity_full(seed: int = 0, count: int = 200) -> SweepOutcome:
    """Rigidity sweep: cyclic tuples whose invariant subspace fills the space."""
    return _rigidity_sweep(
        "rigidity-full", seed, count, cyclic_instance, proper_invariant,
        rigidity_invariant_check, against_full=True,
    )


def sweep_rigidity_coinvariant(seed: int = 0, count: int = 200) -> SweepOutcome:
    """Rigidity sweep: co-invariant pairs under a cyclic tuple."""
    return _rigidity_sweep(
        "rigidity-coinvariant", seed, count, cyclic_instance, random_coinvariant,
        rigidity_coinvariant_check,
    )


def sweep_rigidity_adjoint(seed: int = 0, count: int = 200) -> SweepOutcome:
    """Rigidity sweep: invariant pairs under an adjoint-cyclic tuple."""
    return _rigidity_sweep(
        "rigidity-adjoint", seed, count, adjoint_cyclic_instance, proper_invariant,
        rigidity_invariant_check,
    )


def sweep_splitting(seed: int = 0, count: int = 100) -> SweepOutcome:
    """Splitting-construction sweep: verify the three postconditions."""

    def case(i, rng):
        t, m = splitting_instance(rng, d=2, max_side=3)
        n = splitting_construct(t, m)
        stacked = np.hstack([m.frame, n.frame])
        svals = np.linalg.svd(stacked, compute_uv=False) if stacked.size else np.array([])
        checks = [
            bool(check)  # numpy booleans would print as np.True_
            for check in (
                is_invariant(t, n),
                m.dim + n.dim == t.dim,
                svals.size == 0 or svals[-1] > 1e-8,
                numerical_rank(stacked) == t.dim,
            )
        ]
        ok = all(checks)
        return ok, f"instance {i}: checks={checks}" if not ok else "", False

    return _sweep("splitting", seed, count, case)


def sweep_greedy(seed: int = 0, count: int = 200) -> SweepOutcome:
    """Greedy separating-set sweep: size bound and strict kernel descent."""

    def case(i, rng):
        if rng.random() < 0.3:
            a = staircase_model(2, random_staircase(rng, 2, 6))
            b = staircase_model(2, random_staircase(rng, 2, 6))
            t = random_similarity(rng, _direct_sum(a, b))
        else:
            t = cyclic_instance(rng, d=2, max_delta=12)
        q = quotient_of(t)
        delta = q.dim
        chosen, trace = separating_greedy(t)
        strict = all(a > b for a, b in zip(trace, trace[1:]))
        joint = orbit_matrix(t, np.column_stack(chosen), q.monomial_basis)
        separating = numerical_rank(joint) == delta
        ok = len(chosen) <= delta and strict and separating and trace[-1] == 0
        msg = f"instance {i}: size={len(chosen)} delta={delta} trace={trace}"
        return ok, msg if not ok else "", False

    return _sweep("greedy", seed, count, case)


def _after_creation(y: np.ndarray, k: int, space: TruncatedFock) -> np.ndarray:
    """``y @ creation_matrix(k, space)``, gathered from the columns of ``y``.

    Column ``j`` of the product is column ``creation_targets(k, space)[j]``
    of ``y``, and zero for a word at the cap.  A matmul adds exact zeros to
    that one product, so the two agree entry for entry; only the sign of a
    zero entry may differ, as the BLAS kernel orders its sums.
    """
    targets = creation_targets(k, space)
    out = np.zeros_like(y)
    out[:, : targets.size] = y[:, targets]
    return out


def sweep_transform(seed: int = 0, count: int = 100) -> SweepOutcome:
    """Quasi-affine witness sweep with Gram and Fock intertwiner checks.

    The Fock check compares ``y L_k`` with ``T_k y`` for the creation
    operators ``L_k``; ``y L_k`` is gathered from the columns of ``y``
    (:func:`_after_creation`), so no ``D x D`` operator is formed for the
    ``D = (d^(m+1) - 1)/(d - 1)`` words.
    """

    def case(i, rng):
        t = cyclic_instance(rng, d=2, max_delta=8)
        x = quasiaffine_witness(t)
        space, model = model_of(t)
        residual = max(
            operator_norm(x @ mk - tk @ x) for mk, tk in zip(model.mats, t.mats)
        )
        full_rank = numerical_rank(x) == t.dim
        xi = x @ space.frame[0].conj()  # the image of the model's constant function
        gram = gram_operator(t, xi)
        idx = nilpotency_index(t)
        y = fock_intertwiner(t, xi, idx)
        fock = TruncatedFock(t.d, idx)
        fock_res = max(
            operator_norm(_after_creation(y, k, fock) - t.mats[k - 1] @ y)
            for k in range(1, t.d + 1)
        )
        ok = (
            residual < 1e-8
            and full_rank
            and gram.bound <= 1.0 + 1e-8
            and fock_res < 1e-10
        )
        return (
            ok,
            f"instance {i}: res={residual:.2e} rank={full_rank} "
            f"bound={gram.bound:.6f} fock={fock_res:.2e}"
            if not ok
            else "",
            False,
        )

    return _sweep("transform", seed, count, case)


def sweep_decompose(seed: int = 0, count: int = 200) -> SweepOutcome:
    """Decomposition sweep: certificate validity and find-consistency."""

    def case(i, rng):
        t = small_nilpotent_instance(rng, dim_cap=4)
        rep = decomposition_exists(t)
        pair = decomposition_find(t)
        if not rep.exists:
            ok = rep.idempotent is None and pair is None
            return ok, "" if ok else f"instance {i}: inconsistent absence", False
        e = rep.idempotent
        cert = (
            operator_norm(e @ e - e) < 1e-9
            and all(operator_norm(e @ mat - mat @ e) < 1e-8 for mat in t.mats)
            and 0 < round(np.trace(e).real) < t.dim
        )
        ok = cert and pair is not None
        return ok, "" if ok else f"instance {i}: cert={cert} pair={pair is not None}", False

    return _sweep("decompose", seed, count, case)


SUITES = {
    "rigidity-full": sweep_rigidity_full,
    "rigidity-coinvariant": sweep_rigidity_coinvariant,
    "rigidity-adjoint": sweep_rigidity_adjoint,
    "splitting": sweep_splitting,
    "greedy": sweep_greedy,
    "transform": sweep_transform,
    "decompose": sweep_decompose,
}


def run_suite(name: str, seed: int = 0, count: int | None = None) -> list[SweepOutcome]:
    """Run one named suite, or all of them, and return the outcomes."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}, all")
    outcomes = []
    for entry in names:
        fn = SUITES[entry]
        outcomes.append(fn(seed=seed) if count is None else fn(seed=seed, count=count))
    return outcomes
