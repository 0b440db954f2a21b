"""cli: one ``effalg`` command per op, each in a fresh interpreter.

Set-up writes the instance documents into a work directory of the
checkout.  One cycle runs the 40 commands of ``commands()`` in order, as a
user would type them (default depths); the seed picks the elements, state
weights and group vectors.  Every output is parsed and checked; the five
malformed-input commands are expected to exit 2 with an ``error:`` line.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

CYCLE_S = 36.0  # nominal wall time of one cycle
DEPTH = 16  # the CLI default on finite instances
MATRIX_DEPTH = 8  # and on matrices
L8 = {"kind": "mv_product", "denominator": 8, "arity": 1}
DOCUMENTS = {
    "mv83": {"kind": "mv_product", "denominator": 8, "arity": 3},
    "mv162": {"kind": "mv_product", "denominator": 16, "arity": 2},
    "prod": {"kind": "product", "factors": [{"kind": "boolean", "n_atoms": 2},
                                            {"kind": "mv_product", "denominator": 8,
                                             "arity": 3}]},
    "hsum": {"kind": "horizontal_sum", "parts": [L8, L8],
             "states": [[f"{i}/8" for i in range(9)]] * 2},
    "mo2": {"kind": "mo2"},
    "mat2": {"kind": "matrix", "dim": 2},
    "l4": {"kind": "mv_product", "denominator": 4, "arity": 1},
}
# documented facts about each document: carrier size and spectrality
SIZE = {"mv83": 729, "mv162": 289, "prod": 2916, "hsum": 16, "mo2": 6}
SPECTRAL = {"mv83": True, "mv162": True, "prod": True, "hsum": False, "mo2": False,
            "mat2": True}
GRID = {"mv83": (8, 3), "mv162": (16, 2)}
MALFORMED = [  # known to end in a traceback today; the contract is exit 2
    ["group", "l4.json", "--g", "1,2,x"],
    ["group", "l4.json", "--g", "1", "--approx=bad"],
    ["spectral", "l4.json", "--element", "1", "--lambda", "1/0"],
    ["spectral", "l4.json", "--element", "1", "--lambda", "abc"],
    ["spectral", "l4.json", "--element", "1", "--depth", "-3"],
]
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


def _frac(f) -> str:
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class Inputs:
    """Seeded arguments: grid elements, state weights, group vectors, and
    2 x 2 effects R diag(i/16, j/16) R^T with a rational rotation R."""

    def __init__(self, rng):
        self.rng = rng

    def grid(self, doc):
        k, d = GRID[doc]
        return [self.rng.randint(0, k) for _ in range(d)]

    def weights(self, doc):
        raw = [self.rng.randint(1, 8) for _ in range(GRID[doc][1])]
        return [Fraction(x, sum(raw)) for x in raw]

    def vector(self, doc):
        k, d = GRID[doc]
        return [self.rng.randint(-3, k + 3) for _ in range(d)]

    def matrix(self):
        i, j = sorted(self.rng.sample(range(17), 2))
        a, b, c = self.rng.choice(PYTHAGOREAN)
        cos, sin = Fraction(a, c), Fraction(b, c) * self.rng.choice((1, -1))
        v1, v2 = Fraction(i, 16), Fraction(j, 16)
        m = [[cos * cos * v1 + sin * sin * v2, cos * sin * (v1 - v2)],
             [cos * sin * (v1 - v2), sin * sin * v1 + cos * cos * v2]]
        return m, [float(v1), float(v2)]


def commands(inp: Inputs):
    """One cycle: (argv, expectation) pairs; the expectation says how the
    output is checked (see check())."""
    out = []

    def add(argv, kind, **facts):
        out.append((argv, dict(facts, kind=kind)))

    def elem(c):
        return ",".join(map(str, c))

    def mat(m):
        return ",".join(_frac(x) for row in m for x in row)

    # resolutions at the default depth
    c = inp.grid("mv83")
    add(["spectral", "mv83.json", "--element", elem(c)], "grid-rows", doc="mv83", coords=c)
    c = inp.grid("mv162")
    add(["--format", "csv", "spectral", "mv162.json", "--element", elem(c)], "grid-rows",
        doc="mv162", coords=c)
    c = inp.grid("mv162")
    add(["spectral", "mv162.json", "--element", elem(c), "--lambda", "1/3"], "grid-lambda",
        doc="mv162", coords=c, lam=Fraction(1, 3))
    c = inp.grid("mv162")
    add(["--format", "json", "spectral", "mv162.json", "--element", elem(c), "--lambda", "2/3"],
        "grid-lambda", doc="mv162", coords=c, lam=Fraction(2, 3))
    for fmt in ("table", "json"):
        m, eig = inp.matrix()
        add(["--format", fmt, "spectral", "mat2.json", "--element", mat(m)], "matrix-rows",
            matrix=m, eig=eig)
    m, eig = inp.matrix()
    add(["--format", "json", "spectral", "mat2.json", "--element", mat(m), "--lambda", "1/3"],
        "matrix-lambda", matrix=m, lam=Fraction(1, 3))
    # state bounds
    for doc, fmt in (("mv83", "table"), ("mv162", "table"), ("mv162", "json")):
        c, w = inp.grid(doc), inp.weights(doc)
        add(["--format", fmt, "expect", f"{doc}.json", "--element", elem(c),
             "--state", ",".join(map(_frac, w))], "expect", doc=doc, coords=c, weights=w)
    # structure
    for doc in ("mv83", "mv162", "prod", "hsum", "mo2", "mat2"):
        add(["--format", "json", "validate", f"{doc}.json"], "validate", doc=doc)
    for doc in ("mv83", "mv162", "hsum", "mo2", "mat2"):
        add(["analyze", f"{doc}.json"], "analyze", doc=doc)
    add(["--format", "json", "analyze", "mo2.json"], "analyze-json", doc="mo2")
    for doc in ("mo2", "hsum", "mv162", "mat2"):
        add(["check-spectral", f"{doc}.json"], "check-spectral", doc=doc)
    # group oracle
    for doc, lam, fmt in (("mv83", "1/2", "table"), ("mv83", "1/3", "table"),
                          ("mv162", "2/5", "table"), ("mv162", "1/5", "table"),
                          ("mv83", "3/4", "json"), ("mv162", "3/4", "json")):
        g = inp.vector(doc)
        add(["--format", fmt, "group", f"{doc}.json", f"--g={elem(g)}", "--lambda", lam],
            "group", doc=doc, g=g, lam=Fraction(lam))
    g = inp.vector("mv162")
    add(["group", "mv162.json", f"--g={elem(g)}"], "group", doc="mv162", g=g, lam=Fraction(1, 2))
    for doc, grid in (("mv162", "-2:2:1"), ("mv83", "-1:2:1")):
        g = inp.vector(doc)
        add(["group", f"{doc}.json", f"--g={elem(g)}", f"--approx={grid}"], "approx", doc=doc,
            g=g, grid=grid)
    for argv in MALFORMED:
        add(list(argv), "malformed")
    return out


# ---------------------------------------------------------------------------
# checks of one command's exit code and output


class Oracles:
    """Grid algebras and their group oracles, built in this process."""

    def __init__(self):
        from effalg import core

        self.E = {doc: core.GridAlgebra(k, d) for doc, (k, d) in GRID.items()}

    def proj(self, doc, index) -> str:
        return "".join("1" if x > 0 else "0" for x in self.E[doc].coords[index])


def check(facts, code, out, err, orc: Oracles):
    """None when the output is right, FAULT for a known fault, else the problem."""
    from perfbench import checks
    from perfbench.common import FAULT
    from effalg import groups, instances

    kind = facts["kind"]
    if kind == "malformed":
        if code == 2 and re.search(r"^error: ", err, re.M) and "Traceback" not in err:
            return None
        if "Traceback" in err:
            return FAULT
        return f"exit {code} without a traceback or an error line"
    if "Traceback" in err:
        return err.strip().splitlines()[-1]
    doc = facts.get("doc")
    want_code = 0
    if kind == "check-spectral" and not SPECTRAL[doc]:
        want_code = 1
    if code != want_code:
        return f"exit {code}, documented {want_code}"

    if kind in ("grid-rows", "grid-lambda", "expect"):
        E = orc.E[doc]
        a = E.index_of(facts["coords"])
    if kind == "grid-rows":
        rows = _grid_rows(out)
        lams = [Fraction(j, 2 ** DEPTH) for j in range(2 ** DEPTH + 1)]
        if [lam for lam, _ in rows] != lams:
            return f"{len(rows)} rows, not the depth-{DEPTH} grid"
        want = checks.GroupRows(E, a)
        for lam, p in rows:
            if p != orc.proj(doc, want(lam)):
                return f"p[{lam}] = {p}, group oracle {orc.proj(doc, want(lam))}"
        return None
    if kind == "grid-lambda":
        p = (json.loads(out)["projection"] if out.lstrip().startswith("{")
             else re.match(r"p\[\S+\] = (\S+)", out.strip()).group(1))
        want = orc.proj(doc, checks.group_projection(E, a, facts["lam"]))
        return None if p == want else f"p[{facts['lam']}] = {p}, oracle {want}"
    if kind == "matrix-rows":
        import numpy as np

        entries = _matrix_rows(out)
        a = np.array(facts["matrix"], dtype=float)
        return checks.check_matrix_binary(a, facts["eig"], MATRIX_DEPTH, entries, 1e-9)
    if kind == "matrix-lambda":
        import numpy as np

        got = np.array(json.loads(out)["projection"], dtype=float)
        a = np.array(facts["matrix"], dtype=float)
        return checks.check_matrix_rational(a, facts["lam"], got, 1e-9)
    if kind == "expect":
        if out.lstrip().startswith("{"):
            payload = json.loads(out)
            lo, hi, shown = (Fraction(payload[k]) for k in ("lo", "hi", "value"))
        else:
            m = re.match(r"(\S+) <= s\(a\) <= (\S+)\s+\(s\(a\) = (\S+)\)", out.strip())
            lo, hi, shown = (Fraction(x) for x in m.groups())
        value = sum(w * Fraction(x, E.k) for w, x in zip(facts["weights"], facts["coords"]))
        if shown != value:
            return f"printed s(a) = {shown}, weights give {value}"
        return checks.check_expect(lo, hi, value, DEPTH)
    if kind == "validate":
        payload = json.loads(out)
        bad = [c["name"] for r in payload["reports"] for c in r["checks"] if not c["passed"]]
        if payload["passed"] is not True or bad:
            return f"valid instance rejected: {bad}"
        return None
    if kind == "analyze":
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        verdict = fields["spectral"].split()[0] == "yes"
        if verdict != SPECTRAL[doc]:
            return f"spectral: {fields['spectral']}"
        if doc in SIZE and int(fields["|E|"]) != SIZE[doc]:
            return f"|E| = {fields['|E|']}, want {SIZE[doc]}"
        return None
    if kind == "analyze-json":
        payload = json.loads(out)
        if payload["spectral"] != SPECTRAL[doc] or payload["size"] != SIZE[doc]:
            return f"size {payload['size']}, spectral {payload['spectral']}"
        return None
    if kind == "check-spectral":
        want = "spectral: yes" if SPECTRAL[doc] else "spectral: no"
        return None if out.strip() == want else f"printed {out.strip()!r}"
    if kind == "group":
        E = orc.E[doc]
        G = instances.universal_group(E)
        lam = facts["lam"]
        want = [int(x) for x in groups.group_spectral(G, facts["g"], lam.numerator,
                                                      lam.denominator)]
        got = (json.loads(out)["projection"] if out.lstrip().startswith("{")
               else ast.literal_eval(out.strip().split(" = ", 1)[1]))
        return None if got == want else f"{got}, group oracle {want}"
    if kind == "approx":
        E = orc.E[doc]
        G = instances.universal_group(E)
        lo, hi, step = (int(x) for x in facts["grid"].split(":"))
        pieces, error, gap = groups.dyadic_approximation(G, facts["g"],
                                                         range(lo, hi + 1, step), 1)
        lines = out.strip().splitlines()
        got = [ast.literal_eval(line.split(" = ", 1)[1]) for line in lines[:-1]]
        if got != [[int(x) for x in u] for u in pieces]:
            return "approximation pieces differ from the group oracle"
        m = re.match(r"error = (\S+) <= (\S+)", lines[-1])
        e, b = Fraction(m.group(1)), Fraction(m.group(2))
        if (e, b) != (error, gap) or e > b:
            return f"error {e} <= {b}, oracle {error} <= {gap}"
        return None
    raise ValueError(f"unknown check {kind!r}")


def _grid_rows(out):
    """(lambda, projection) rows of the table or the CSV format."""
    lines = out.splitlines()
    rows = []
    if lines and lines[0] == "level,k,lambda,projection":
        for line in lines[1:]:
            level, k, lam, p = line.split(",")
            lam = Fraction(lam)
            if Fraction(int(k), 2 ** int(level)) != lam:
                raise ValueError(f"CSV row {line!r}: k/2^level is not lambda")
            rows.append((lam, p))
        return rows
    for line in lines[1:]:
        lam, p = re.match(r"\s*p\[\s*(\S+)\] = (\S+)", line).groups()
        rows.append((Fraction(lam), p))
    return rows


def _matrix_rows(out):
    import numpy as np

    if out.lstrip().startswith("{"):
        return {Fraction(e["lambda"]): np.array(e["projection"], dtype=float)
                for e in json.loads(out)["entries"]}
    entries = {}
    for line in out.splitlines()[1:]:
        lam, p = re.match(r"\s*p\[\s*(\S+)\] = (.*)$", line).groups()
        entries[Fraction(lam)] = np.array(ast.literal_eval(p), dtype=float)
    return entries


# ---------------------------------------------------------------------------


def main(run, seed, seconds):
    import random

    from perfbench.common import timed_setups

    root = Path(__file__).resolve().parent.parent
    work = root / ".perfbench-work"
    cycles = max(1, round(seconds / CYCLE_S))
    inp = Inputs(random.Random(seed))
    sequence = [commands(inp) for _ in range(cycles)]
    orc = Oracles()
    env = dict(os.environ)
    traced = run.tracer is not None
    child = [sys.executable, str(root / "perfbench" / "cli_child.py")] if traced else \
        [sys.executable, "-m", "effalg.cli"]
    trace_file = work / "trace.json"
    if traced:
        env["PERFBENCH_TRACE"] = str(trace_file)

    def call(argv):
        proc = subprocess.run(child + argv, cwd=work, env=env, capture_output=True,
                              text=True, timeout=150)
        if traced:
            run.tracer.absorb(json.loads(trace_file.read_text()))
        return proc

    def verdict(proc, facts):
        try:
            return check(facts, proc.returncode, proc.stdout, proc.stderr, orc)
        except (ValueError, KeyError, AttributeError, SyntaxError, IndexError) as exc:
            return f"unparsable output ({exc!r})"

    def setup():  # documents, then one command to load the interpreter's caches
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        for name, doc in DOCUMENTS.items():
            (work / f"{name}.json").write_text(json.dumps(doc))
        call(["check-spectral", "mo2.json"])

    ops = [("effalg " + " ".join(argv), lambda argv=argv: call(argv),
            lambda proc, facts=facts: verdict(proc, facts))
           for cmds in sequence for argv, facts in cmds]
    try:
        timed_setups(run, setup)
        run.measure(ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
