"""Digest the outputs of the effalg CLI on one checkout.

    python3 scripts/cli_digest.py CHECKOUT

Runs each command in a fresh interpreter, with ``CHECKOUT/src`` first on
the path, in a temporary directory that holds the documents of
``perfbench/wl_cli.py``:

* the commands of one ``perfbench/wl_cli.py`` cycle for each seed;
* on each of those documents, ``spectral`` as a listing and with
  ``--lambda 1/3``, and ``expect``, each at the CLI's default depth.

It prints one line per command: the exit code, one sha256 of its stdout
followed by its stderr, and the arguments.  Two checkouts whose outputs
are byte-identical print the same lines, so ``diff`` of two runs shows
every command whose output changed.  ``perfbench`` is imported from the
checkout that holds this script, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 7)
MATRIX_ELEMENT = "1/2,1/4,1/4,1/2"  # eigenvalues 3/4 and 1/4
ELEMENT = "3"  # an index: every finite document has more than four elements


def document_commands(documents) -> list:
    """``spectral`` (listing and ``--lambda 1/3``) and ``expect`` on each
    document; the state weights are equal per coordinate on the grids, and
    a single weight elsewhere, which the CLI refuses with exit 2."""
    out = []
    for name, doc in documents.items():
        file = f"{name}.json"
        element = MATRIX_ELEMENT if doc["kind"] == "matrix" else ELEMENT
        d = doc.get("arity", 1)
        state = ",".join([f"1/{d}"] * d)
        out += [["spectral", file, "--element", element],
                ["spectral", file, "--element", element, "--lambda", "1/3"],
                ["expect", file, "--element", element, "--state", state]]
    return out


def commands() -> list:
    """Every command's argv: the ``wl_cli`` cycle of each seed in
    ``SEEDS``, then the per-document commands."""
    from perfbench import wl_cli

    out = []
    for seed in SEEDS:
        out += [argv for argv, _ in wl_cli.commands(wl_cli.Inputs(random.Random(seed)))]
    return out + document_commands(wl_cli.DOCUMENTS)


def digest(proc) -> str:
    return hashlib.sha256(proc.stdout + proc.stderr).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="a directory holding src/effalg")
    args = parser.parse_args(argv)
    src = Path(args.checkout).resolve() / "src"
    if not (src / "effalg" / "cli.py").is_file():
        print(f"error: {args.checkout!r} holds no src/effalg/cli.py", file=sys.stderr)
        return 2

    sys.path[:0] = [str(ROOT)]
    from perfbench import run as bench
    from perfbench import wl_cli

    env = bench.program_env()  # the cli workload's environment ...
    env["PYTHONPATH"] = os.pathsep.join(  # ... on the checkout's sources
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    with tempfile.TemporaryDirectory() as work:
        for name, doc in wl_cli.DOCUMENTS.items():
            Path(work, f"{name}.json").write_text(json.dumps(doc))
        for argv in commands():
            proc = subprocess.run([sys.executable, "-m", "effalg.cli"] + argv, cwd=work,
                                  env=env, capture_output=True, timeout=300)
            print(proc.returncode, digest(proc), " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
