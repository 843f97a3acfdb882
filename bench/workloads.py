"""The benchmark's workloads: input generation, ops and output checks.

An op is one ``rowtuples`` CLI command run in-process through
``rowtuples.cli.main`` with ``--json``.  Every workload runs in whole
rounds of the same op kinds, and every op gets a fresh input drawn from
the workload seed: a fresh sweep seed, a fresh similarity transform of a
fixed monomial-ideal model, or fresh coefficients on a fixed support.

The checks compare each report with what the benchmark computes itself
(the Drury-Arveson model matrices of a staircase, a dense multiplier
matrix from its entry formula) or with properties the method must have.
They never compare against a stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# ------------------------------------------------------------------ sizes

# Sweep suites, each with an instance count that makes its op cost about
# 40 ms.  ``splitting`` runs only as ``SPLITTING_FAULT`` below: on fresh
# seeds it fails on about 1 instance in 4,800 (see CHANGES.md), so a run's
# failure share would depend on the seed.
SWEEP_COUNTS = {
    "rigidity-full": 4,
    "rigidity-coinvariant": 4,
    "rigidity-adjoint": 6,
    "greedy": 4,
    "transform": 3,
    "decompose": 12,
}
# A known fault, run once in every sweep round on an input that does not
# depend on the workload seed: ``splitting_construct`` returns the zero
# subspace for instance 3 of this suite.  The op fails in every round, so a
# run's failure share is exactly one op per round.  It also keeps
# ``splitting_construct`` in the timed work.
SPLITTING_FAULT = ["sweep", "--suite", "splitting", "--count", "4", "--seed", "800019"]

# Monomial-ideal models, by staircase.  Within a workload every op kind
# costs about the same, so the median op does not jump between kinds.
COMMUTANT_STAIRCASE = "rows(7,6,5,4,3)"  # x1^a x2^b with a < rows[b]: n = 25
IDEALS_STAIRCASES = (
    "box(7,7)",  # d = 2, n = 49, top degree 12
    "simplex(5,3)",  # d = 3, |a| <= 5 and a3 <= 3: n = 52, top degree 5
)

FOCK_DEGREE = 60
FOCK_DENSE_CHECK_CAP = 30
# Fixed supports with fixed coefficient moduli: a linear form, and a form
# with a degree-2 term.  Each op draws fresh phases.  Rotating a variable is
# a unitary of the Drury-Arveson space, so the multiplier's singular values,
# and with them the Lanczos work, are the same for every op of a kind.
FOCK_TERMS = ({(1, 0): 0.6, (0, 1): 0.8}, {(2, 0): 0.6, (0, 1): 0.8})

SIMILARITY_SPREAD = 0.2
# Relative slack for the fock norm checks: Lanczos at ``iter_tol = 1e-12``
# returns a Ritz value a little below the true norm.
FOCK_REL_TOL = 1e-10
# Upper bound on the rounds one run may need; inputs for all of them are
# generated before timing starts.  A run stops early if it uses them all.
POOL_ROUNDS = {"sweep": 1024, "commutant": 64, "ideals": 32, "fock": 64}
# Rounds of the traced run (fixed, so its counts repeat exactly).
TRACE_ROUNDS = {"sweep": 2, "commutant": 2, "ideals": 1, "fock": 1}


# ------------------------------------------------------- staircase models


def graded_key(alpha):
    """Graded order of the package: total degree, then x1-major descending."""
    return (sum(alpha), tuple(-a for a in alpha))


def staircase(spec):
    """Staircase from its name, in graded order.

    ``box(s1,..,sd)``: exponents below the sides.  ``rows(r0,r1,..)``:
    ``x1^a x2^b`` with ``a < r_b``.  ``simplex(m,c)``: ``a`` in N^3 with
    ``|a| <= m`` and ``a3 <= c``.
    """
    kind, args = spec.rstrip(")").split("(")
    nums = [int(x) for x in args.split(",")]
    if kind == "box":
        points = itertools.product(*(range(s) for s in nums))
    elif kind == "rows":
        points = ((a, b) for b, r in enumerate(nums) for a in range(r))
    elif kind == "simplex":
        top, cap = nums
        points = (a for a in itertools.product(range(top + 1), repeat=3)
                  if sum(a) <= top and a[2] <= cap)
    else:
        raise ValueError(f"unknown staircase {spec!r}")
    return sorted(points, key=graded_key)


def model_matrices(points):
    """``M_k`` on the staircase: ``x_k e_a = sqrt((a_k+1)/(|a|+1)) e_{a+e_k}``."""
    pos = {alpha: i for i, alpha in enumerate(points)}
    n, d = len(points), len(points[0])
    mats = [np.zeros((n, n), dtype=np.complex128) for _ in range(d)]
    for alpha, j in pos.items():
        for k in range(d):
            up = tuple(a + (i == k) for i, a in enumerate(alpha))
            if up in pos:
                mats[k][pos[up], j] = math.sqrt((alpha[k] + 1) / (sum(alpha) + 1))
    return mats


def maximal_elements(points):
    st = set(points)
    d = len(points[0])
    return sorted(
        a for a in st
        if all(tuple(x + (i == k) for i, x in enumerate(a)) not in st for k in range(d))
    )


def similar_tuple(rng, mats):
    """``S M_k S^-1`` for ``S = I + spread G/||G||``, scaled into a row contraction."""
    n = mats[0].shape[0]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = np.eye(n) + SIMILARITY_SPREAD * g / np.linalg.norm(g, 2)
    sinv = np.linalg.inv(s)
    out = [s @ m @ sinv for m in mats]
    row = np.linalg.norm(np.hstack(out), 2)
    if row > 1.0:
        out = [m / (row * (1.0 + 1e-12)) for m in out]
    return out


def tuple_document(mats):
    return {
        "d": len(mats),
        "dim": mats[0].shape[0],
        "matrices": [np.stack([m.real, m.imag], axis=-1).tolist() for m in mats],
    }


def matrix_from_report(rows):
    arr = np.asarray(rows, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


# -------------------------------------------------------- fock reference


def da_norm_sq(alpha):
    """``||x^a||^2 = a! / |a|!`` in the Drury-Arveson space."""
    out = 1.0
    for a in alpha:
        out *= math.factorial(a)
    return out / math.factorial(sum(alpha))


def dense_multiplier(coeffs, cap):
    """Matrix of ``P_cap M_p`` from the entry formula ``c_g ||x^b|| / ||x^a||``."""
    basis = sorted(itertools.product(range(cap + 1), repeat=2), key=graded_key)
    basis = [a for a in basis if sum(a) <= cap]
    pos = {a: i for i, a in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    for gamma, c in coeffs.items():
        for alpha, j in pos.items():
            beta = (alpha[0] + gamma[0], alpha[1] + gamma[1])
            if beta in pos:
                out[pos[beta], j] += c * math.sqrt(da_norm_sq(beta) / da_norm_sq(alpha))
    return out


def poly_text(coeffs):
    def mono(alpha):
        return "*".join(
            f"x{i + 1}" + (f"^{a}" if a > 1 else "") for i, a in enumerate(alpha) if a
        )

    def num(c):
        sign = "+" if c.imag >= 0 else "-"
        return f"({c.real!r}{sign}{abs(c.imag)!r}i)"

    return " + ".join(f"{num(c)}*{mono(a)}" for a, c in coeffs.items())


# ------------------------------------------------------------------- ops


@dataclass
class Op:
    """One CLI command with what its check needs."""

    kind: str
    argv: list
    mats: list | None = None  # the input tuple, written to a file before the op
    expect: dict = field(default_factory=dict)


def _tuple_op(kind, rng, model):
    mats = similar_tuple(rng, model["mats"])
    return Op(kind, [kind, "--input", None, "--json"], mats, dict(model, tuple=mats))


def _model(points):
    return {"staircase": points, "mats": model_matrices(points)}


def make_rounds(workload, seed, rounds):
    """The first ``rounds`` rounds of ops of a workload, drawn from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    out = []
    if workload == "sweep":
        # Distinct sweep seeds for every op of every run: seed-major blocks.
        base = seed * 1_000_000
        i = 0
        for _ in range(rounds):
            ops = []
            for name, count in SWEEP_COUNTS.items():
                argv = ["sweep", "--suite", name, "--count", str(count),
                        "--seed", str(base + i), "--json"]
                ops.append(Op("sweep", argv, expect={"count": count}))
                i += 1
            ops.append(Op("sweep", SPLITTING_FAULT + ["--json"], expect={"count": 4}))
            out.append(ops)
    elif workload == "commutant":
        model = _model(staircase(COMMUTANT_STAIRCASE))
        for _ in range(rounds):
            out.append([_tuple_op("transform", rng, model),
                        _tuple_op("decompose", rng, model)])
    elif workload == "ideals":
        models = [_model(staircase(spec)) for spec in IDEALS_STAIRCASES]
        for _ in range(rounds):
            out.append([_tuple_op(kind, rng, model)
                        for model in models for kind in ("ann", "model")])
    elif workload == "fock":
        for _ in range(rounds):
            ops = []
            for terms in FOCK_TERMS:
                phases = rng.uniform(0.0, 2.0 * math.pi, len(terms))
                coeffs = {g: complex(r * np.exp(1j * t))
                          for (g, r), t in zip(terms.items(), phases)}
                argv = ["fock", "--poly", poly_text(coeffs),
                        "--degree", str(FOCK_DEGREE), "--json"]
                ops.append(Op("fock", argv, expect={"coeffs": coeffs}))
            out.append(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


WORKLOADS = ("sweep", "commutant", "ideals", "fock")


# ---------------------------------------------------------------- checks


def check(op, code, report):
    """Problems with one op's outcome; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["no JSON report on stdout"]
    try:
        return CHECKS[op.kind](op.expect, report["results"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def check_sweep(expect, res):
    count = expect["count"]
    problems = []
    if res.get("ok") is not True:
        problems.append("ok is not true")
    if not res.get("suites"):
        problems.append("no suites reported")
    for s in res.get("suites", []):
        if not (s["total"] == s["passed"] == count and s["violations"] == 0):
            problems.append(
                f"suite {s['name']}: total={s['total']} passed={s['passed']} "
                f"violations={s['violations']} (want {count} of {count}, 0 violations)"
            )
    return problems


def check_transform(expect, res):
    x = matrix_from_report(res["witness"])
    n = len(expect["staircase"])
    if x.shape != (n, n):
        return [f"witness shape {x.shape}, want {(n, n)}"]
    problems = []
    if np.linalg.matrix_rank(x) != n:
        problems.append("witness is not of full rank")
    norm = np.linalg.norm(x, 2)
    if abs(norm - 1.0) > 1e-9:
        problems.append(f"||X|| = {norm!r}, want 1")
    residual = max(
        np.linalg.norm(t @ x - x @ m, 2) for t, m in zip(expect["tuple"], expect["mats"])
    )
    if residual > 1e-8:
        problems.append(f"||T_k X - X M_k|| = {residual:.3e} > 1e-8")
    return problems


def check_decompose(expect, res):
    n = len(expect["staircase"])
    problems = []
    if res["exists"] is not False:
        problems.append("a cyclic tuple was reported decomposable")
    if res["commutant_dim"] != n:
        problems.append(f"commutant_dim {res['commutant_dim']}, want {n}")
    if res["semisimple_dim"] != 1:
        problems.append(f"semisimple_dim {res['semisimple_dim']}, want 1")
    return problems


def check_ann(expect, res):
    st = expect["staircase"]
    d = len(st[0])
    m = 1 + max(sum(a) for a in st)
    problems = []
    if res["delta"] != len(st):
        problems.append(f"delta {res['delta']}, want {len(st)}")
    if res["degree_bound"] != m:
        problems.append(f"degree_bound {res['degree_bound']}, want {m}")
    if sorted(tuple(a) for a in res["omega_e"]) != maximal_elements(st):
        problems.append("omega_e is not the set of maximal staircase elements")
    got = [tuple(a) for a in res["monomial_basis"]]
    if len(got) != len(st) or set(got) != set(st):
        problems.append("monomial_basis is not the staircase")
    if len(res["basis"]) != math.comb(m + d, d) - len(st):
        problems.append(
            f"annihilator basis size {len(res['basis'])}, want {math.comb(m + d, d) - len(st)}"
        )
    return problems


def check_model(expect, res):
    want = expect["mats"]
    n = len(expect["staircase"])
    if res["dim"] != n or len(res["matrices"]) != len(want):
        return [f"model of dimension {res['dim']} with {len(res['matrices'])} matrices"]
    err = max(
        float(np.abs(matrix_from_report(got) - m).max())
        for got, m in zip(res["matrices"], want)
    )
    return [] if err <= 1e-10 else [f"model matrices differ by {err:.3e} > 1e-10"]


def check_fock(expect, res):
    coeffs = expect["coeffs"]
    norms = [float(v) for v in res["norms"]]
    problems = []
    if res["degrees"] != list(range(1, FOCK_DEGREE + 1)) or len(norms) != FOCK_DEGREE:
        return ["caps are not 1..degree"]
    for cap, (a, b) in enumerate(zip(norms, norms[1:]), start=2):
        if b < a * (1 - FOCK_REL_TOL):
            problems.append(f"norm decreases at cap {cap}: {a!r} -> {b!r}")
    h2 = math.sqrt(sum(abs(c) ** 2 * da_norm_sq(g) for g, c in coeffs.items()))
    l1 = sum(abs(c) for c in coeffs.values())
    top = max(sum(g) for g in coeffs)
    for cap, v in enumerate(norms, start=1):
        if v > l1 * (1 + FOCK_REL_TOL) or (cap >= top and v < h2 * (1 - FOCK_REL_TOL)):
            problems.append(f"norm {v!r} at cap {cap} outside [{h2!r}, {l1!r}]")
    if top == 1:
        for cap, v in enumerate(norms, start=1):
            if abs(v - h2) > FOCK_REL_TOL * h2:
                problems.append(f"linear form: norm {v!r} at cap {cap}, want {h2!r}")
    full = dense_multiplier(coeffs, FOCK_DENSE_CHECK_CAP)
    for cap in range(1, min(FOCK_DENSE_CHECK_CAP, len(norms)) + 1):
        size = (cap + 1) * (cap + 2) // 2
        want = np.linalg.svd(full[:size, :size], compute_uv=False)[0]
        if abs(norms[cap - 1] - want) > FOCK_REL_TOL * want:
            problems.append(f"cap {cap}: norm {norms[cap - 1]!r}, dense SVD {want!r}")
    return problems


CHECKS = {
    "sweep": check_sweep,
    "transform": check_transform,
    "decompose": check_decompose,
    "ann": check_ann,
    "model": check_model,
    "fock": check_fock,
}


# ---------------------------------------------------------------- runner


def call_cli(argv):
    """Run ``rowtuples.cli.main(argv)``; return (exit code, stdout, stderr, seconds).

    The module attribute is looked up on every call, so an installed tracer
    sees the op.  An exception escaping ``main`` counts as exit code None.
    """
    from rowtuples import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crashing op is a failed op
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


@dataclass
class Tally:
    times: list = field(default_factory=list)
    failed: int = 0
    correct: bool = True
    messages: list = field(default_factory=list)

    def median_ms(self):
        return statistics.median(self.times) * 1000.0


def reports_own_failure(report):
    """Whether the report says an instance failed (a sweep's ``failed``).

    Such an op fails, but the program did not give a wrong answer, so it
    leaves ``correct`` true.
    """
    try:
        return any(s["failed"] > 0 for s in report["results"]["suites"])
    except (KeyError, TypeError):
        return False


def run_op(op, path, tally):
    """Stage the input, run the op, check it, and record the outcome.

    Returns the op's wall time and its parsed JSON report (None if none).
    """
    argv = list(op.argv)
    if op.mats is not None:
        with open(path, "w") as fh:
            json.dump(tuple_document(op.mats), fh)
        argv[argv.index(None)] = path
    code, out, err, elapsed = call_cli(argv)
    tally.times.append(elapsed)
    report = None
    if code == 0:
        lines = out.strip().splitlines()
        with contextlib.suppress(json.JSONDecodeError):
            report = json.loads(lines[-1]) if lines else None
    problems = check(op, code, report)
    if problems:
        tally.failed += 1
        if code == 0 and not reports_own_failure(report):
            tally.correct = False  # the program answered, and answered wrong
        tally.messages.append(f"{' '.join(argv)}: {'; '.join(problems)} {err.strip()[-300:]}")
    return elapsed, report


def run_timed(rounds, seconds, path):
    """Run whole rounds until the ops' summed wall time is nearest ``seconds``.

    A round starts only if its expected end, at the mean round time so far,
    lies closer to ``seconds`` than the time reached.
    """
    tally = Tally()
    busy = 0.0
    for done, ops in enumerate(rounds):
        if done and busy + busy / done / 2 >= seconds:
            break
        for op in ops:
            busy += run_op(op, path, tally)[0]
    return tally, busy


def run_traced(rounds, path, tracer):
    """Each op untraced, then traced on the same input."""
    plain, traced = Tally(), Tally()
    for ops in rounds:
        for op in ops:
            run_op(op, path, plain)
            with tracer:
                run_op(op, path, traced)
    return plain, traced
