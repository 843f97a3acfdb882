"""Write the CLI reports of one checkout, one line per call, for diffing two checkouts.

    python3 tools/report_matrix.py SRC OUT

imports ``rowtuples`` from ``SRC/src`` and runs ``cli.main`` in-process,
with ``--json``, over four groups of calls:

- the ten tuple commands on nine fixtures, at the default ``--tol`` and
  at ``1e-6``; ``cyclic``, ``separating`` and ``gram`` get a vector
  payload (``cyclic`` and ``separating`` also run without one), and
  ``split`` and ``rigidity`` get the invariant subspace ``Σ_k T_k H``,
  and the co-invariant variant of ``rigidity`` its orthogonal complement,
  each against the whole space;
- ``fock --poly "x1 + x2"`` at degrees 8, 20 and 60;
- ``sweep --suite all --count 40`` at seeds 0, 1 and 7;
- ``sweep --suite transform --count 200`` at seeds 0 to 4.

Each line of OUT is a JSON object: the argv, the exit code, stdout with
its ``wall_time_s`` field removed, and stderr.  Payload files are written
to a temporary directory and named relative to it, so two checkouts give
the same argv and the same input digests.  Two reports are the same
exactly when ``cmp`` finds their files equal.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import tempfile

import numpy as np

FIXTURES = [
    "maxcount",
    "fromgriff(2)",
    "fromgriff(3)",
    "jordan(3)",
    "jordan(4)",
    "rectangle(2,3)",
    "rectangle(3,3)",
    "rectangle(2,2,2)",
    "model(x1^2;x1*x2;x2^3)",
]
TOLS = [[], ["--tol", "1e-6"]]
COMMANDS = ["check", "ann", "model", "cyclic", "separating", "gram",
            "transform", "rigidity", "decompose", "split"]
PAYLOADS = {  # payload file kinds per command; None runs it without --input
    "cyclic": [None, "vector"],
    "separating": [None, "vector"],
    "gram": ["vector"],
    "rigidity": ["invariant", "coinvariant"],
    "split": ["split"],
}
_WALL_TIME = re.compile(r', "wall_time_s": [^,}]+')


def _pairs(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _payloads(t) -> dict[str, dict]:
    """The payload documents of one tuple, by kind.

    ``Σ_k T_k H`` is invariant and its orthogonal complement co-invariant;
    each is compared with the whole space.
    """
    moved = np.hstack(t.mats).astype(complex)
    u, s, _ = np.linalg.svd(moved)
    rank = int(np.sum(s > 1e-9 * s.max())) if s.size else 0
    whole = np.eye(t.dim)
    vector = np.ones(t.dim) / np.sqrt(t.dim)
    return {
        "vector": {"vector": [[float(x), 0.0] for x in vector]},
        "split": {"m": _pairs(moved)},
        "invariant": {"variant": "invariant", "m": _pairs(moved), "n": _pairs(whole)},
        "coinvariant": {"variant": "coinvariant", "m": _pairs(u[:, rank:]), "n": _pairs(whole)},
    }


def _calls(build):
    """Every argv of the matrix, with the payload documents it reads, by file name."""
    files: dict[str, dict] = {}
    calls = []
    for i, fixture in enumerate(FIXTURES):
        for kind, doc in _payloads(build(fixture)).items():
            files[f"{i}-{kind}.json"] = doc
        for command in COMMANDS:
            for kind in PAYLOADS.get(command, [None]):
                for tol in TOLS:
                    payload = ["--input", f"{i}-{kind}.json"] if kind else []
                    calls.append([command, "--fixture", fixture, *payload, *tol, "--json"])
    for degree in (8, 20, 60):
        calls.append(["fock", "--poly", "x1 + x2", "--degree", str(degree), "--json"])
    for seed in (0, 1, 7):
        calls.append(["sweep", "--suite", "all", "--count", "40", "--seed", str(seed), "--json"])
    for seed in range(5):
        calls.append(["sweep", "--suite", "transform", "--count", "200", "--seed", str(seed), "--json"])
    return files, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="checkout whose src/ holds the rowtuples package")
    parser.add_argument("out", help="file to write, one JSON line per call")
    args = parser.parse_args(argv)
    src = os.path.abspath(os.path.join(args.src, "src"))
    out_path = os.path.abspath(args.out)
    sys.path.insert(0, src)
    from rowtuples import cli
    from rowtuples.fixtures import build

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        parser.error(f"rowtuples was imported from {cli.__file__}, not from {src}")
    files, calls = _calls(build)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work, open(out_path, "w") as out:
        for name, doc in files.items():
            with open(os.path.join(work, name), "w") as f:
                json.dump(doc, f)
        os.chdir(work)
        try:
            _run(cli, calls, out)
        finally:
            os.chdir(home)
    print(f"{len(calls)} calls written to {out_path}")
    return 0


def _run(cli, calls, out) -> None:
    """Write one line per call: argv, exit code, stdout without its wall time, stderr."""
    for call in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(call)
        line = {
            "argv": call,
            "code": code,
            "stdout": _WALL_TIME.sub("", stdout.getvalue()),
            "stderr": stderr.getvalue(),
        }
        out.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    sys.exit(main())
