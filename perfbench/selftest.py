"""Self-test of the benchmark's checks: every check must flag a wrong answer.

    python3 perfbench/selftest.py

Each case feeds one check a right answer (which must pass) and a
deliberately wrong one (which must be flagged): a swapped resolution
entry, a changed tree node, an off-by-one ``expect`` bound, a passing
verdict on a broken table, a wrong CLI row, and so on.  Exits 1 when any
case is missed.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [p for p in sys.path
                                                if Path(p or ".").resolve() != HERE]
os.environ.setdefault("EA_MAX_CARRIER", "600000")

import numpy as np  # noqa: E402

from effalg import core, instances, matrices, spectral  # noqa: E402
from perfbench import checks, wl_cli, wl_validate  # noqa: E402
from perfbench.common import FAULT  # noqa: E402

results = []


def case(name, right, wrong):
    """``right`` must be accepted (None) and ``wrong`` flagged (a message)."""
    ok = right is None and wrong is not None
    results.append(ok)
    print(f"{'ok  ' if ok else 'MISS'} {name}: right -> {right!r}; wrong -> {wrong!r}")


def swapped(entries):
    fam = dict(entries)
    grid = sorted(fam)
    for lo, hi in zip(grid, grid[1:]):
        if fam[lo] != fam[hi]:
            fam[lo], fam[hi] = fam[hi], fam[lo]
            return fam
    raise ValueError("constant family")


def main() -> int:
    n = 5
    # grid: closed-form tree and group oracle
    E, cb = instances.make_mv_product(8, 3, validate=False)
    a = E.index_of([2, 5, 7])
    res = spectral.binary_resolution(cb, a, n)
    case("grid entries, swapped pair", checks.check_grid_binary(E, a, n, res.tree, res.entries),
         checks.check_grid_binary(E, a, n, res.tree, swapped(res.entries)))
    tree = spectral.splitting_tree(cb, a, n)
    w = next(w for w in tree._u if len(w) == n)
    tree._u[w] = E.one
    case("grid tree, one node changed", None,
         checks.check_grid_binary(E, a, n, tree, res.entries))
    lam = Fraction(1, 3)
    got = spectral.rational_resolution(cb, a, lam, 8)
    case("grid rational, wrong projection", checks.check_grid_rational(E, a, lam, got),
         checks.check_grid_rational(E, a, lam, E.one if got != E.one else E.zero))

    # product: the pair of the factors' closed forms
    P, pcb = instances.make_product(instances.make_boolean(2, validate=False),
                                    instances.make_mv_product(8, 3, validate=False),
                                    validate=False)
    x = P.pair_index(2, E.index_of([1, 4, 8]))
    pres = spectral.binary_resolution(pcb, x, 4)
    case("product entries, swapped pair", checks.check_product_binary(P, x, 4, pres.entries),
         checks.check_product_binary(P, x, 4, swapped(pres.entries)))
    pgot = spectral.rational_resolution(pcb, x, lam, 6)
    case("product rational, wrong projection", checks.check_product_rational(P, x, lam, pgot),
         checks.check_product_rational(P, x, lam, P.one if pgot != P.one else P.zero))

    # matrices: eigenprojections
    M, mcb = instances.make_matrix(2)
    q = np.array([[3, -4], [4, 3]]) / 5.0
    m = q @ np.diag([5 / 16, 11 / 16]) @ q.T
    eig = [5 / 16, 11 / 16]
    mres = spectral.binary_resolution(mcb, m, 6)
    bent = dict(mres.entries)
    bent[Fraction(1, 2)] = bent[Fraction(1, 2)] + 1e-6
    case("matrix entries, off by 1e-6", checks.check_matrix_binary(m, eig, 6, mres.entries, M.tol),
         checks.check_matrix_binary(m, eig, 6, bent, M.tol))
    mgot = spectral.rational_resolution(mcb, m, lam, 8)
    case("matrix rational, identity", checks.check_matrix_rational(m, lam, mgot, M.tol),
         checks.check_matrix_rational(m, lam, np.eye(2), M.tol))

    # expectation bounds
    s = instances.weighted_state(E, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    lo, hi = spectral.expectation_bounds(cb, a, s, n)
    value = Fraction(1, 2) * Fraction(2, 8) + Fraction(1, 4) * Fraction(5, 8) + \
        Fraction(1, 4) * Fraction(7, 8)
    step = Fraction(1, 2 ** n)
    case("expect, upper bound one step too high", checks.check_expect(lo, hi, value, n),
         checks.check_expect(lo, hi + step, value, n))
    case("expect, both bounds one step too low", None,
         checks.check_expect(lo - step, hi - step, value, n))

    # the verifier
    case("verify, perturbed family accepted", checks.check_verify(True, True),
         checks.check_verify(True, False))
    case("verify, computed family rejected", None, checks.check_verify(False, True))
    fam = checks.perturb(res.entries, E.zero, lambda p, q: p == q)
    case("perturb makes a family the verifier rejects",
         None if spectral.verify_resolution(cb, a, res.entries, n).passed else "rejected",
         None if spectral.verify_resolution(cb, a, fam, n).passed else "rejected")

    # axiom laws on broken tables
    S = wl_validate.grid_table(2, 2)
    S[1][1] = S[3][3]  # 1 + 1 retargeted to 3 + 3
    rep = core.validate_axioms(core.TableAlgebra(S, 0, len(S) - 1))
    fake = core.Report("broken table, reported valid")
    fake.add("E1-commutative", True)
    case("broken table, passing verdict", checks.check_broken_table(S, 0, 8, rep),
         checks.check_broken_table(S, 0, 8, fake))
    first = next(c for c in rep.checks if not c.passed)
    lie = core.Report("broken table, wrong witness")
    lie.add(first.name, False, witness=(0, 0, 0) if isinstance(first.witness, tuple) else 0)
    case("broken table, witness that breaks nothing", None,
         checks.check_broken_table(S, 0, 8, lie))

    # states
    L8 = wl_validate.grid_table(8, 1)
    vals = wl_validate.broken_state_values()
    honest = core.Report("state")
    honest.add("additive", False, witness=(1, 1))
    passing = core.Report("state")
    passing.add("additive", True)
    lying = core.Report("state")
    lying.add("additive", False, witness=(3, 4))
    case("broken state, passing verdict is the known fault",
         checks.check_state_report(L8, vals, honest),
         checks.check_state_report(L8, vals, passing) is FAULT and "flagged as FAULT")
    case("broken state, witness that is additive", None,
         checks.check_state_report(L8, vals, lying))

    # the cli output checks
    orc = wl_cli.Oracles()
    G = orc.E["mv162"]
    c = [3, 11]
    rows = ["level,k,lambda,projection"]
    want = checks.GroupRows(G, G.index_of(c))
    for j in range(2 ** wl_cli.DEPTH + 1):
        f = Fraction(j, 2 ** wl_cli.DEPTH)
        level = f.denominator.bit_length() - 1
        rows.append(f"{level},{f.numerator},{wl_cli._frac(f)},{orc.proj('mv162', want(f))}")
    facts = {"kind": "grid-rows", "doc": "mv162", "coords": c}
    good = "\n".join(rows) + "\n"
    bad_rows = list(rows)
    bad_rows[3000] = bad_rows[3000][:-2] + ("01" if bad_rows[3000].endswith("10") else "10")
    case("cli CSV, one projection wrong", wl_cli.check(facts, 0, good, "", orc),
         wl_cli.check(facts, 0, "\n".join(bad_rows) + "\n", "", orc))
    case("cli CSV, wrong exit code", None, wl_cli.check(facts, 1, good, "", orc))
    w = [Fraction(1, 4), Fraction(3, 4)]
    v = w[0] * Fraction(3, 16) + w[1] * Fraction(11, 16)
    lo = v - v % Fraction(1, 2 ** 16)
    facts = {"kind": "expect", "doc": "mv162", "coords": c, "weights": w}

    def expect_out(lo_, hi_):
        return json.dumps({"lo": str(lo_), "hi": str(hi_), "value": str(v), "depth": 16})

    step = Fraction(1, 2 ** 16)
    case("cli expect, off-by-one upper bound",
         wl_cli.check(facts, 0, expect_out(lo, lo + step), "", orc),
         wl_cli.check(facts, 0, expect_out(lo, lo + 2 * step), "", orc))
    facts = {"kind": "group", "doc": "mv162", "g": [3, 20], "lam": Fraction(1, 2)}
    case("cli group, wrong projection", wl_cli.check(facts, 0, "p[1/2] = [16, 0]\n", "", orc),
         wl_cli.check(facts, 0, "p[1/2] = [16, 16]\n", "", orc))
    facts = {"kind": "check-spectral", "doc": "mo2"}
    case("cli check-spectral, passing verdict on MO2",
         wl_cli.check(facts, 1, "spectral: no\n", "", orc),
         wl_cli.check(facts, 0, "spectral: yes\n", "", orc))
    facts = {"kind": "malformed"}
    case("cli malformed input, exit 2 without an error line",
         wl_cli.check(facts, 2, "", "error: bad --g\n", orc),
         wl_cli.check(facts, 2, "", "", orc))

    missed = results.count(False)
    print(f"{len(results) - missed} of {len(results)} cases flagged as they should be")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
