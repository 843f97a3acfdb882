"""Command-line front end.

Thirteen subcommands over JSON tuple files and named fixtures:

    check ann model cyclic separating gram transform
    rigidity decompose split fock fixtures sweep

Exit codes: 0 success, 1 usage error, 2 hypothesis-inapplicable,
3 a verdict contradicting a proved theorem (would-be counterexample).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

import numpy as np

from .errors import (
    HypothesisError,
    NotCommutingError,
    NotCyclicError,
    NotNilpotentError,
    RowTuplesError,
)
from .fixtures import build, fixture_catalog
from .fock import truncated_multiplier_norms
from .ideals import (
    annihilator,
    model_space,
    model_tuple,
    omega_e,
    quotient_algebra,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, operator_norm
from .polynomials import parse_polynomial
from .serialize import (
    digest,
    load_document,
    matrix_from_json,
    matrix_to_json,
    tuple_from_json,
    tuple_to_json,
    vector_from_json,
    vector_to_json,
)
from .subspaces import (
    SubspaceBasis,
    Verdict,
    decomposition_exists,
    decomposition_find,
    rigidity_coinvariant_check,
    rigidity_invariant_check,
    splitting_construct,
)
from .sweeps import SUITES, run_suite
from .tuples import nilpotency_index, poly_eval, validate
from .vectors import (
    gram_operator,
    is_cyclic,
    is_separating,
    krylov,
    multiplicity,
    quasiaffine_witness,
    separating_greedy,
    separating_witness,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INAPPLICABLE = 2
EXIT_VIOLATION = 3


class UsageError(Exception):
    """Command-line usage failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(prog="rowtuples", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text, *, poly=False, suite=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="JSON input file (tuple, vector, or payload)")
        p.add_argument("--fixture", help="named fixture, e.g. maxcount or jordan(3)")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
        p.add_argument("--tol", type=float, help="rank/PSD decision tolerance")
        p.add_argument("--degree", type=int, help="degree cap where applicable")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        if poly:
            p.add_argument("--poly", help="polynomial string, e.g. 'x1 + x2'")
        if suite:
            p.add_argument("--suite", default="all", help="suite name or 'all'")
            p.add_argument("--count", type=int, help="instances per suite")
        return p

    add("check", "validate a tuple: shapes, contraction, purity, nilpotency")
    add("ann", "annihilator basis, quotient dimension, socle exponents")
    add("model", "model space dimension and compressed multiplier matrices")
    add("cyclic", "cyclicity of a vector (or the tuple's multiplicity)")
    add("separating", "separating verdict for a vector, or the greedy set")
    add("gram", "word-orbit gram operator and its norm bound")
    add("transform", "quasi-affine witness intertwining the model tuple")
    add("rigidity", "annihilator-rigidity verdict for a subspace pair")
    add("decompose", "invariant-decomposition certificate via the commutant")
    add("split", "complement an invariant subspace (splitting construction)")
    add("fock", "truncated multiplier norms of a polynomial", poly=True)
    add("fixtures", "list the built-in fixtures")
    add("sweep", "run the randomized property suites", suite=True)
    return parser


def _tolerance(args) -> ToleranceConfig:
    if args.tol is None:
        return DEFAULT_TOL
    if args.tol <= 0:
        raise UsageError("tol: must be positive")
    return ToleranceConfig(
        rank_rel_tol=args.tol,
        psd_tol=args.tol,
        iter_tol=DEFAULT_TOL.iter_tol,
        max_iter=DEFAULT_TOL.max_iter,
    )


def _load_inputs(args, *, need_tuple=True):
    """Resolve the tuple and the auxiliary payload document.

    With ``--fixture`` the tuple comes from the catalog and ``--input``
    (when given) is the payload.  Without a fixture the input document
    must carry the tuple itself, either as a bare TupleFile or under a
    ``tuple`` field next to the payload.
    """
    doc, raw = (None, b"")
    if args.input:
        doc, raw = load_document(args.input)
    fixture_bytes = (args.fixture or "").encode()
    dig = digest(fixture_bytes, raw)

    t = None
    payload = doc
    if args.fixture:
        t = build(args.fixture)
    elif isinstance(doc, dict) and "tuple" in doc:
        t = tuple_from_json(doc["tuple"])
    elif isinstance(doc, dict) and "matrices" in doc:
        t = tuple_from_json(doc)
        payload = None
    if need_tuple and t is None:
        raise UsageError("tuple: provide --fixture or an input file with matrices")
    return t, payload, dig


def _payload_vector(payload, field="vector"):
    if payload is None:
        return None
    if isinstance(payload, dict) and field not in payload and "matrices" in payload:
        return None
    return vector_from_json(payload, field)


def _float(x) -> float:
    return float(np.real_if_close(x))


# ---------------------------------------------------------------- commands


def _cmd_check(t, payload, args, tol):
    rep = validate(t, tol=tol)
    results = {
        "d": t.d,
        "dim": t.dim,
        "commuting": rep.commuting,
        "row_contraction": rep.row_contraction,
        "pure": rep.pure,
        "nilpotent": rep.nilpotent,
        "defect": rep.defect,
        "defect_operator": matrix_to_json(rep.defect_operator),
    }
    return results, [], EXIT_OK


def _cmd_ann(t, payload, args, tol):
    ann = annihilator(t, tol)
    q = quotient_algebra(ann, tol)
    results = {
        "degree_bound": ann.degree_bound,
        "basis": [str(p) for p in ann.basis],
        "delta": q.dim,
        "monomial_basis": [list(a) for a in q.monomial_basis],
        "omega_e": sorted(list(a) for a in omega_e(t, tol)),
    }
    return results, [], EXIT_OK


def _cmd_model(t, payload, args, tol):
    ann = annihilator(t, tol)
    space = model_space(ann, args.degree, tol)
    mt = model_tuple(space)
    results = {
        "dim": space.dim,
        "degree_cap": space.degree_cap,
        "matrices": [matrix_to_json(mat) for mat in mt.mats],
    }
    return results, [], EXIT_OK


def _cmd_cyclic(t, payload, args, tol):
    mu = multiplicity(t, tol=tol)
    results = {"multiplicity": mu}
    vec = _payload_vector(payload)
    if vec is not None:
        orbit = krylov(t, vec, tol)
        results["orbit_dim"] = orbit.dim
        results["cyclic"] = orbit.dim == t.dim
    return results, [], EXIT_OK


def _cmd_separating(t, payload, args, tol):
    vec = _payload_vector(payload)
    if vec is None:
        chosen, trace = separating_greedy(
            t, seed=args.seed, tol=tol, with_trace=True
        )
        results = {
            "size": len(chosen),
            "vectors": [vector_to_json(v) for v in chosen],
            "kernel_trace": trace,
        }
        return results, [], EXIT_OK
    verdict = is_separating(t, vec, tol)
    results = {"separating": verdict, "witness": None}
    if not verdict:
        w = separating_witness(t, vec, tol)
        results["witness"] = str(w)
        results["witness_operator_norm"] = _float(operator_norm(poly_eval(w, t)))
    return results, [], EXIT_OK


def _cmd_gram(t, payload, args, tol):
    vec = _payload_vector(payload)
    if vec is None:
        raise UsageError("vector: the gram command needs an input vector")
    rep = gram_operator(t, vec, tol)
    results = {
        "gram": matrix_to_json(rep.gram),
        "bound": _float(rep.bound),
        "cyclic": rep.cyclic,
    }
    return results, [], EXIT_OK


def _cmd_transform(t, payload, args, tol):
    x = quasiaffine_witness(t, seed=args.seed, tol=tol)
    mt = model_tuple(model_space(annihilator(t, tol), None, tol))
    residual = max(
        operator_norm(t.mats[k] @ x - x @ mt.mats[k]) for k in range(t.d)
    )
    results = {
        "witness": matrix_to_json(x),
        "residual": _float(residual),
        "rank": int(np.linalg.matrix_rank(x)),
        "model_dim": mt.dim,
    }
    return results, [], EXIT_OK


def _cmd_rigidity(t, payload, args, tol):
    if not isinstance(payload, dict):
        raise UsageError("m: rigidity needs an input document with m and n")
    for key in ("m", "n"):
        if key not in payload:
            raise UsageError(f"{key}: missing subspace columns")
    m = SubspaceBasis.from_span(matrix_from_json(payload["m"], "m"), tol)
    n = SubspaceBasis.from_span(matrix_from_json(payload["n"], "n"), tol)
    variant = payload.get("variant", "invariant")
    if variant == "invariant":
        rep = rigidity_invariant_check(t, m, n, tol)
    elif variant == "coinvariant":
        rep = rigidity_coinvariant_check(t, m, n, tol)
    else:
        raise UsageError("variant: expected 'invariant' or 'coinvariant'")
    results = {
        "verdict": rep.verdict.value,
        "route": rep.route,
        "annihilators_match": rep.annihilators_match,
        "subspaces_match": rep.subspaces_match,
        "detail": rep.detail,
    }
    code = EXIT_OK
    if rep.verdict is Verdict.THEOREM_VIOLATION:
        code = EXIT_VIOLATION
    elif rep.verdict is Verdict.INAPPLICABLE:
        code = EXIT_INAPPLICABLE
    return results, [], code


def _cmd_decompose(t, payload, args, tol):
    rep = decomposition_exists(t, seed=args.seed, tol=tol)
    results = {
        "exists": rep.exists,
        "commutant_dim": rep.commutant_dim,
        "semisimple_dim": rep.semisimple_dim,
        "idempotent": None if rep.idempotent is None else matrix_to_json(rep.idempotent),
    }
    if rep.exists:
        found = decomposition_find(t, seed=args.seed, tol=tol)
        if found is not None:
            results["m_dim"], results["n_dim"] = found[0].dim, found[1].dim
    return results, [], EXIT_OK


def _cmd_split(t, payload, args, tol):
    if not isinstance(payload, dict) or "m" not in payload:
        raise UsageError("m: split needs an input document with subspace columns")
    m = SubspaceBasis.from_span(matrix_from_json(payload["m"], "m"), tol)
    n = splitting_construct(t, m, seed=args.seed, tol=tol)
    results = {
        "m_dim": m.dim,
        "n_dim": n.dim,
        "dim": t.dim,
        "n_columns": matrix_to_json(n.frame),
    }
    warnings = []
    if n.dim == 0:
        warnings.append("degenerate: the constructed complement is the zero subspace")
    return results, warnings, EXIT_OK


def _cmd_fock(args, tol):
    if not args.poly:
        raise UsageError("poly: the fock command needs --poly")
    indices = [int(m) for m in re.findall(r"x(\d+)", args.poly)]
    d = max(indices, default=1)
    p = parse_polynomial(args.poly, d)
    top = args.degree if args.degree is not None else 12
    if top < 1:
        raise UsageError("degree: must be at least 1")
    norms = [_float(x) for x in truncated_multiplier_norms(p, top, tol)]
    results = {
        "poly": str(p),
        "d": d,
        "degrees": list(range(1, top + 1)),
        "norms": norms,
        "nondecreasing": all(b >= a - 1e-12 for a, b in zip(norms, norms[1:])),
    }
    return results, [], EXIT_OK


def _cmd_fixtures():
    return {"fixtures": fixture_catalog()}, [], EXIT_OK


def _cmd_sweep(args, tol):
    outs = run_suite(args.suite, seed=args.seed, count=args.count)
    results = {
        "suites": [
            {
                "name": o.name,
                "total": o.total,
                "passed": o.passed,
                "failed": o.failed,
                "violations": o.violations,
                "messages": list(o.messages),
            }
            for o in outs
        ],
        "ok": all(o.ok for o in outs),
    }
    code = EXIT_VIOLATION if any(o.violations for o in outs) else EXIT_OK
    return results, [], code


_TUPLE_COMMANDS = {
    "check": _cmd_check,
    "ann": _cmd_ann,
    "model": _cmd_model,
    "cyclic": _cmd_cyclic,
    "separating": _cmd_separating,
    "gram": _cmd_gram,
    "transform": _cmd_transform,
    "rigidity": _cmd_rigidity,
    "decompose": _cmd_decompose,
    "split": _cmd_split,
}


def _render(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report))
        return
    print(f"command: {report['command']}")
    print(f"input_digest: {report['input_digest']}")
    for w in report["warnings"]:
        print(f"warning: {w}")
    for key, value in report["results"].items():
        if isinstance(value, (list, dict)):
            print(f"{key}: {json.dumps(value)}")
        else:
            print(f"{key}: {value}")
    print(f"wall_time_s: {report['wall_time_s']:.6f}")


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("missing subcommand")
        tol = _tolerance(args)
        if args.command == "fixtures":
            results, warnings, code = _cmd_fixtures()
            dig = digest(b"")
        elif args.command == "fock":
            results, warnings, code = _cmd_fock(args, tol)
            dig = digest((args.poly or "").encode())
        elif args.command == "sweep":
            if args.suite != "all" and args.suite not in SUITES:
                raise UsageError(
                    f"suite: unknown suite {args.suite!r}; known: {', '.join(SUITES)}, all"
                )
            results, warnings, code = _cmd_sweep(args, tol)
            dig = digest(args.suite.encode(), str(args.seed).encode())
        else:
            t, payload, dig = _load_inputs(args)
            results, warnings, code = _TUPLE_COMMANDS[args.command](
                t, payload, args, tol
            )
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HypothesisError, NotCyclicError, NotNilpotentError, NotCommutingError) as exc:
        detail = getattr(exc, "hypothesis", None)
        name = f" ({detail})" if detail else ""
        print(f"inapplicable{name}: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except RowTuplesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "command": args.command,
        "input_digest": dig,
        "results": results,
        "warnings": warnings,
        "wall_time_s": time.perf_counter() - start,
    }
    _render(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
