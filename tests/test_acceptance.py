"""End-to-end acceptance gate.

Each test exercises one numbered acceptance criterion at its stated
tolerance and emits a single PASS/FAIL line on the real stdout so the
gate's outcome is visible in any captured run.
"""

import functools
import math
import sys
import time

import numpy as np
import scipy.linalg

from rowtuples.fixtures import fromgriff, jordan, maxcount, rectangle
from rowtuples.fock import (
    TruncatedDA,
    TruncatedFock,
    creation_matrix,
    da_kernel,
    da_monomial_norm,
    truncated_multiplier_norm,
)
from rowtuples.ideals import (
    annihilator,
    model_space,
    model_tuple,
    monomial_annihilator,
    omega_e,
    quotient_algebra,
)
from rowtuples.linalg import operator_norm, orthonormalize
from rowtuples.polynomials import Polynomial, graded_indices, parse_polynomial
from rowtuples.subspaces import decomposition_exists, is_invariant, splitting_construct
from rowtuples.sweeps import (
    cyclic_instance,
    small_nilpotent_instance,
    splitting_instance,
    sweep_rigidity_adjoint,
    sweep_rigidity_coinvariant,
    sweep_rigidity_full,
)
from rowtuples.tuples import nilpotency_index, poly_eval, validate
from rowtuples.vectors import (
    fock_intertwiner,
    gram_operator,
    is_cyclic,
    is_separating,
    quasiaffine_witness,
    separating_greedy,
    separating_witness,
)


def streams(seed, count):
    """Independent child generators, one per sweep instance."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def criterion(number, label):
    """Emit one PASS/FAIL line per criterion on the unbuffered stdout."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {label}", file=sys.__stdout__)
                raise
            print(f"criterion {number:2d} PASS  {label}", file=sys.__stdout__)

        return wrapper

    return deco


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance between the projectors onto two column spans."""
    fa, fb = orthonormalize(a), orthonormalize(b)
    return operator_norm(fa @ fa.conj().T - fb @ fb.conj().T)


@criterion(1, "worked 3x3 example: exact validation, annihilator, delta")
def test_criterion_01_maxcount_exactness():
    start = time.perf_counter()
    t = maxcount()
    rep = validate(t)
    row_gram = sum(mat @ mat.conj().T for mat in t.mats)
    assert np.abs(row_gram - np.diag([0.0, 1.0, 0.0])).max() < 1e-12
    assert rep.commuting and rep.row_contraction
    assert rep.nilpotent == 2
    ann = annihilator(t)
    degree_two = monomial_annihilator(2, [(2, 0), (1, 1), (0, 2)])
    assert (
        subspace_distance(ann.coefficients, degree_two.coefficients)
        < 1e-9
    )
    assert quotient_algebra(ann).dim == 3
    assert time.perf_counter() - start < 0.1


@criterion(2, "worked example separating facts: 1000 vectors, greedy pair")
def test_criterion_02_maxcount_separating(power):
    t = maxcount()
    q = quotient_algebra(annihilator(t))
    rng = np.random.default_rng(20260814)
    vectors = [
        rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(1000)
    ]
    vectors += [np.eye(3, dtype=complex)[:, k] for k in range(3)]
    for v in vectors:
        assert not is_separating(t, v)
        w = separating_witness(t, v)
        assert np.linalg.norm(poly_eval(w, t) @ v) < 1e-10
        assert operator_norm(poly_eval(w, t)) > 0.1
    chosen, trace = separating_greedy(t)
    assert len(chosen) == 2
    joint = np.vstack(
        [
            np.column_stack([power(t, a) @ xi for a in q.monomial_basis])
            for xi in chosen
        ]
    )
    assert np.linalg.matrix_rank(joint) == q.dim
    # two vectors, both in span{e1, e3}
    for xi in chosen:
        assert abs(xi[1]) < 1e-12
    assert is_cyclic(t.adjoint(), np.array([0.0, 1.0, 0.0]))


@criterion(3, "socle exponents of the worked example and rectangle models")
def test_criterion_03_omega_e():
    assert omega_e(maxcount()) == {(1, 0), (0, 1)}
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            assert omega_e(rectangle(n1, n2)) == {(n1 - 1, n2 - 1)}


@criterion(4, "two-layer shift family: validation and exact projections")
def test_criterion_04_fromgriff():
    for layers in range(2, 9):
        t = fromgriff(layers)
        rep = validate(t)
        assert rep.commuting and rep.row_contraction and rep.pure
        assert rep.nilpotent == 2
        for mat in t.mats:
            p = 2.0 * (mat @ mat.conj().T)
            assert np.abs(p - p.conj().T).max() < 1e-12
            assert np.abs(p @ p - p).max() < 1e-12
        ann = annihilator(t)
        degree_two = monomial_annihilator(2, [(2, 0), (1, 1), (0, 2)])
        assert (
            subspace_distance(
                ann.coefficients, degree_two.coefficients
            )
            < 1e-9
        )


@criterion(5, "monomial norms and reproducing kernel formulas")
def test_criterion_05_da_formulas():
    for d in range(1, 5):
        for alpha in graded_indices(d, 8):
            expect = math.sqrt(
                math.prod(math.factorial(a) for a in alpha)
                / math.factorial(sum(alpha))
            )
            assert abs(da_monomial_norm(alpha) - expect) < 1e-14 * expect
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4):
        for _ in range(20):
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            z *= 0.6 / max(1.0, np.linalg.norm(z))
            w *= 0.9 / max(1.0, np.linalg.norm(w))
            ip = complex(np.vdot(w, z))
            total, term = 0.0 + 0.0j, 1.0 + 0.0j
            while abs(term) > 1e-14:
                total += term
                term *= ip
            assert abs(da_kernel(z, w) - total) < 1e-13


@criterion(6, "truncated multiplier norms of x1+x2 approach sqrt(2)")
def test_criterion_06_multiplier_norm():
    start = time.perf_counter()
    p = parse_polynomial("x1 + x2", 2)
    degrees = list(range(1, 21)) + [30, 40, 50, 60]
    norms = [truncated_multiplier_norm(p, n) for n in degrees]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
    assert abs(norms[-1] - math.sqrt(2)) < 1e-3
    assert time.perf_counter() - start < 5.0


@criterion(7, "quasi-affine witness on 100 conjugated model instances")
def test_criterion_07_quasiaffine():
    for i, rng in enumerate(streams(1207, 100)):
        t = cyclic_instance(rng, d=2, max_delta=8)
        x = quasiaffine_witness(t)
        m = model_tuple(model_space(annihilator(t)))
        residual = max(
            operator_norm(t.mats[k] @ x - x @ m.mats[k]) for k in range(t.d)
        )
        assert residual < 1e-8, f"instance {i}: residual {residual:.2e}"
        assert np.linalg.matrix_rank(x) == t.dim, f"instance {i}: rank deficient"


@criterion(8, "gram bound and Fock intertwiner on the witness instances")
def test_criterion_08_gram_intertwiner():
    for i, rng in enumerate(streams(1207, 100)):
        t = cyclic_instance(rng, d=2, max_delta=8)
        x = quasiaffine_witness(t)
        space = model_space(annihilator(t))
        const = space.frame.conj().T @ TruncatedDA(
            t.d, space.degree_cap
        ).coordinates(Polynomial.constant(t.d, 1.0))
        xi = x @ (const / np.linalg.norm(const))
        rep = gram_operator(t, xi)
        assert rep.bound <= 1.0 + 1e-8, f"instance {i}: bound {rep.bound:.8f}"
        idx = nilpotency_index(t)
        y = fock_intertwiner(t, xi, idx)
        fock = TruncatedFock(t.d, idx)
        residual = max(
            operator_norm(y @ creation_matrix(k, fock) - t.mats[k - 1] @ y)
            for k in range(1, t.d + 1)
        )
        assert residual < 1e-10, f"instance {i}: fock residual {residual:.2e}"


@criterion(9, "rigidity sweeps: 3 x 200 instances, no violations, < 60 s")
def test_criterion_09_rigidity_sweeps():
    start = time.perf_counter()
    for sweep in (
        sweep_rigidity_full,
        sweep_rigidity_coinvariant,
        sweep_rigidity_adjoint,
    ):
        out = sweep(seed=9, count=200)
        assert out.violations == 0, f"{out.name}: {out.messages}"
        assert out.failed == 0, f"{out.name}: {out.messages}"
    assert time.perf_counter() - start < 60.0


@criterion(10, "splitting construction postconditions on 100 instances")
def test_criterion_10_splitting():
    for i, rng in enumerate(streams(1500, 100)):
        t, m = splitting_instance(rng, d=2, max_side=3)
        n = splitting_construct(t, m)
        assert is_invariant(t, n), f"instance {i}: complement not invariant"
        stacked = np.hstack([m.frame, n.frame])
        svals = np.linalg.svd(stacked, compute_uv=False)
        assert svals[-1] > 1e-8, f"instance {i}: sigma_min {svals[-1]:.2e}"
        assert np.linalg.matrix_rank(stacked) == t.dim, f"instance {i}: not spanning"


@criterion(11, "greedy separating sets: one vector per cyclic tuple, strict descent")
def test_criterion_11_greedy():
    for i, rng in enumerate(streams(1100, 200)):
        t = cyclic_instance(rng, d=2, max_delta=12)
        chosen, trace = separating_greedy(t)
        assert len(chosen) == 1, f"instance {i}: {len(chosen)} vectors"
        assert all(a > b for a, b in zip(trace, trace[1:])), f"instance {i}: {trace}"
        assert trace[-1] == 0, f"instance {i}: kernel not exhausted"


# --- criterion 12 oracle: spectral idempotent search, independent of the
# trace-form radical computation used by the package


def _oracle_commutant(t):
    """Null-space basis of the commutation equations, assembled directly."""
    n = t.dim
    eye = np.eye(n)
    blocks = [np.kron(mat, eye) - np.kron(eye, mat.T) for mat in t.mats]
    _, svals, vh = np.linalg.svd(np.vstack(blocks))
    cutoff = svals[0] * 1e-10 if svals.size and svals[0] > 0 else 1e-10
    rank = int(np.sum(svals > cutoff))
    basis = [vh[j].conj().reshape(n, n) for j in range(rank, n * n)]
    for b in basis:
        assert max(operator_norm(b @ m - m @ b) for m in t.mats) < 1e-8
    return basis


def _cluster_projector(a, predicate):
    """Riesz projector onto the eigenvalues selected by ``predicate``."""
    st, z, k = scipy.linalg.schur(a, output="complex", sort=predicate)
    n = a.shape[0]
    if k == 0 or k == n:
        return None
    try:
        x = scipy.linalg.solve_sylvester(st[:k, :k], -st[k:, k:], st[:k, k:])
    except (np.linalg.LinAlgError, ValueError):
        return None
    top = np.hstack([np.eye(k), x])
    bottom = np.zeros((n - k, n), dtype=complex)
    return z @ np.vstack([top, bottom]) @ z.conj().T


def _oracle_decomposes(t, rng, samples=32) -> bool:
    """Search the commutant for a nontrivial spectral idempotent.

    Random combinations of a commutant basis are split along every
    eigenvalue gap; each candidate Riesz projector is accepted only if it
    verifies as a genuine nontrivial idempotent commuting with the tuple.
    """
    n = t.dim
    if n < 2:
        return False
    basis = _oracle_commutant(t)
    for _ in range(samples):
        coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        a = sum(c * b for c, b in zip(coeff, basis))
        direction = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        shadows = np.sort((np.linalg.eigvals(a) / direction).real)
        for j in range(n - 1):
            if shadows[j + 1] - shadows[j] < 1e-8:
                continue
            cut = 0.5 * (shadows[j] + shadows[j + 1])
            proj = _cluster_projector(a, lambda lam: (lam / direction).real < cut)
            if proj is None:
                continue
            if np.abs(proj @ proj - proj).max() > 1e-8:
                continue
            if any(operator_norm(proj @ m - m @ proj) > 1e-8 for m in t.mats):
                continue
            if 0 < np.linalg.matrix_rank(proj) < n:
                return True
    return False


@criterion(12, "decomposition decision agrees with the spectral oracle")
def test_criterion_12_decomposition_oracle():
    for i, rng in enumerate(streams(1212, 200)):
        t = small_nilpotent_instance(rng, dim_cap=4)
        rng.integers(2**31)  # keeps the oracle's random stream where it has always been
        got = decomposition_exists(t).exists
        want = _oracle_decomposes(t, rng)
        assert got == want, f"instance {i} (dim {t.dim}): exists={got}, oracle={want}"
