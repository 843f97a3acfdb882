"""Command-line front end.

Thirteen subcommands over JSON tuple files and named fixtures:

    check ann model cyclic separating gram transform
    rigidity decompose split fock fixtures sweep

Exit codes: 0 success, 1 usage error, 2 hypothesis-inapplicable,
3 a verdict contradicting a proved theorem (would-be counterexample),
141 the reader closed stdout before the report was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
    annihilator_normal_form,
    model_of,
    omega_e,
    quotient_of,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, numerical_rank, operator_norm
from .polynomials import format_columns, parse_polynomial
from .serialize import (
    collector_paused,
    digest,
    load_document,
    matrix_from_json,
    pairs_text,
    tuple_from_json,
    vector_from_json,
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
from .tuples import poly_eval, validate
from .vectors import (
    gram_operator,
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
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


class UsageError(Exception):
    """Command-line usage failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


# Each subcommand declares only the flags it reads.
_FLAGS = {
    "input": dict(help="JSON input file (tuple, vector, or payload)"),
    "fixture": dict(help="named fixture, e.g. maxcount or jordan(3)"),
    "seed": dict(type=int, default=0, help="seed of the sweep's instance streams"),
    "tol": dict(type=float, help="rank/PSD decision tolerance"),
    "degree": dict(type=int, help="degree cap"),
    "json": dict(action="store_true", help="machine-readable report"),
    "poly": dict(help="polynomial string, e.g. 'x1 + x2'"),
    "suite": dict(default="all", help="suite name or 'all'"),
    "count": dict(type=int, help="instances per suite"),
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(prog="rowtuples", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        for flag in flags + ("json",):
            p.add_argument(f"--{flag}", **_FLAGS[flag])

    tup = ("input", "fixture", "tol")
    add("check", "validate a tuple: shapes, contraction, purity, nilpotency", *tup)
    add("ann", "annihilator basis, quotient dimension, socle exponents", *tup)
    add("model", "model space dimension and compressed multiplier matrices", *tup)
    add("cyclic", "cyclicity of a vector (or the tuple's multiplicity)", *tup)
    add("separating", "separating verdict for a vector, or the greedy set", *tup)
    add("gram", "word-orbit gram operator and its norm bound", *tup)
    add("transform", "quasi-affine witness intertwining the model tuple", *tup)
    add("rigidity", "annihilator-rigidity verdict for a subspace pair", *tup)
    add("decompose", "invariant-decomposition certificate via the commutant", *tup)
    add("split", "complement an invariant subspace (splitting construction)", *tup)
    add("fock", "truncated multiplier norms of a polynomial", "poly", "degree", "tol")
    add("fixtures", "list the built-in fixtures")
    add("sweep", "run the randomized property suites", "suite", "count", "seed")
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


def _payload_subspace(payload, key, t, tol) -> SubspaceBasis:
    cols = matrix_from_json(payload[key], key)
    if cols.shape[0] != t.dim:
        raise UsageError(f"{key}: {cols.shape[0]} rows do not match tuple dim {t.dim}")
    return SubspaceBasis.from_span(cols, tol)


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
        "defect_operator": rep.defect_operator,
    }
    return results, [], EXIT_OK


def _cmd_ann(t, payload, args, tol):
    ann = annihilator_normal_form(t, tol)
    q = quotient_of(t, tol)
    results = {
        "degree_bound": ann.degree_bound,
        "basis": format_columns(ann.monomials(), ann.coefficients),
        "delta": q.dim,
        "monomial_basis": [list(a) for a in q.monomial_basis],
        "omega_e": sorted(list(a) for a in omega_e(t, tol)),
    }
    return results, [], EXIT_OK


def _cmd_model(t, payload, args, tol):
    space, mt = model_of(t, tol)
    results = {
        "dim": space.dim,
        "degree_cap": space.degree_cap,
        "matrices": list(mt.mats),
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
        chosen, trace = separating_greedy(t, tol=tol)
        results = {
            "size": len(chosen),
            "vectors": list(chosen),
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
        "gram": rep.gram,
        "bound": _float(rep.bound),
        "cyclic": rep.cyclic,
    }
    return results, [], EXIT_OK


def _cmd_transform(t, payload, args, tol):
    x = quasiaffine_witness(t, tol)
    _, mt = model_of(t, tol)
    residual = max(
        operator_norm(t.mats[k] @ x - x @ mt.mats[k]) for k in range(t.d)
    )
    results = {
        "witness": x,
        "residual": _float(residual),
        "rank": numerical_rank(x, tol),
        "model_dim": mt.dim,
    }
    return results, [], EXIT_OK


def _cmd_rigidity(t, payload, args, tol):
    if not isinstance(payload, dict):
        raise UsageError("m: rigidity needs an input document with m and n")
    for key in ("m", "n"):
        if key not in payload:
            raise UsageError(f"{key}: missing subspace columns")
    m, n = (_payload_subspace(payload, key, t, tol) for key in ("m", "n"))
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
    rep = decomposition_exists(t, tol=tol)
    results = {
        "exists": rep.exists,
        "commutant_dim": rep.commutant_dim,
        "semisimple_dim": rep.semisimple_dim,
        "idempotent": rep.idempotent,
    }
    if rep.exists:
        found = decomposition_find(t, tol=tol)
        if found is not None:
            results["m_dim"], results["n_dim"] = found[0].dim, found[1].dim
    return results, [], EXIT_OK


def _cmd_split(t, payload, args, tol):
    if not isinstance(payload, dict) or "m" not in payload:
        raise UsageError("m: split needs an input document with subspace columns")
    m = _payload_subspace(payload, "m", t, tol)
    n = splitting_construct(t, m, tol=tol)
    results = {
        "m_dim": m.dim,
        "n_dim": n.dim,
        "dim": t.dim,
        "n_columns": n.frame,
    }
    warnings = []
    if n.dim == 0:
        warnings.append("degenerate: the constructed complement is the zero subspace")
    return results, warnings, EXIT_OK


def _cmd_fock(args, tol):
    if not args.poly:
        raise UsageError("poly: the fock command needs --poly")
    p = parse_polynomial(args.poly)
    top = args.degree if args.degree is not None else 12
    if top < 1:
        raise UsageError("degree: must be at least 1")
    norms = [_float(x) for x in truncated_multiplier_norms(p, top, tol)]
    results = {
        "poly": str(p),
        "d": p.d,
        "degrees": list(range(1, top + 1)),
        "norms": norms,
        "nondecreasing": all(b >= a - 1e-12 for a, b in zip(norms, norms[1:])),
    }
    return results, [], EXIT_OK


def _cmd_fixtures():
    return {"fixtures": fixture_catalog()}, [], EXIT_OK


def _cmd_sweep(args):
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


def _json_text(value) -> str:
    """``json.dumps(value)``, with each numpy array as its ``[re, im]`` pairs.

    A dict or list that holds no array goes to ``json.dumps`` whole; one
    that does is walked, and the encoder refusing the array ends its try.
    """
    if isinstance(value, np.ndarray):
        return pairs_text(value)
    try:
        return json.dumps(value)
    except TypeError:
        if isinstance(value, dict):
            items = (f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items())
            return "{" + ", ".join(items) + "}"
        if isinstance(value, (list, tuple)):
            return "[" + ", ".join(map(_json_text, value)) + "]"
        raise


def _render(report: dict, as_json: bool) -> None:
    if as_json:
        print(_json_text(report))
        return
    print(f"command: {report['command']}")
    print(f"input_digest: {report['input_digest']}")
    for w in report["warnings"]:
        print(f"warning: {w}")
    for key, value in report["results"].items():
        if isinstance(value, (list, dict, np.ndarray)):
            print(f"{key}: {_json_text(value)}")
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
        for name in ("seed", "count"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise UsageError(f"{name}: must be nonnegative")
        if args.command == "fixtures":
            results, warnings, code = _cmd_fixtures()
            dig = digest(b"")
        elif args.command == "fock":
            results, warnings, code = _cmd_fock(args, _tolerance(args))
            dig = digest((args.poly or "").encode())
        elif args.command == "sweep":
            if args.suite != "all" and args.suite not in SUITES:
                raise UsageError(
                    f"suite: unknown suite {args.suite!r}; known: {', '.join(SUITES)}, all"
                )
            results, warnings, code = _cmd_sweep(args)
            dig = digest(args.suite.encode(), str(args.seed).encode())
        else:
            tol = _tolerance(args)
            with collector_paused():
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
    with collector_paused():
        try:
            _render(report, args.json)
            sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
        except BrokenPipeError:  # the reader left: the exit flush writes to devnull instead
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
