"""validate: build an instance afresh and run the axiom and base scans.

One cycle is the 44 criterion-01 suites in criterion order, then
BROKEN_PER_CYCLE seeded broken sum tables, then one broken state.  Every
op constructs its instance from nothing (``validate=False``), so no dense
table survives from one op to the next.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

CYCLE_S = 28.0  # nominal wall time of one cycle in all its passes; sets the cycle count
PASSES = 2  # the cycle runs twice; an op's latency is its faster pass
SHORT_PASSES = 8  # ops under common.SHORT_S (most suites, all broken tables) run 8 times
BROKEN_PER_CYCLE = 8
GRID_BASES = ((4, 2), (2, 3), (8, 1), (1, 3), (3, 2))  # (k, d) of the valid tables
MUTATIONS = ("retarget", "undefine", "define", "one-sided")


# ---------------------------------------------------------------------------
# inputs (plain Python; no effalg)


def grid_table(k, d):
    """Sum table of {0..k}^d with coordinate 0 least significant."""
    n = (k + 1) ** d
    coords = [[(x // (k + 1) ** i) % (k + 1) for i in range(d)] for x in range(n)]
    S = [[-1] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            c = [x + y for x, y in zip(coords[a], coords[b])]
            if max(c) <= k:
                S[a][b] = sum(v * (k + 1) ** i for i, v in enumerate(c))
    return S


def broken_tables(rng, count, laws_hold):
    """Seeded mutations of valid grid tables that break at least one law.

    ``laws_hold(S, zero, one)`` is the plain-Python reference; a mutation it
    cannot refute is drawn again, so every kept table is known broken.
    """
    out = []
    while len(out) < count:
        i = len(out)
        k, d = GRID_BASES[i % len(GRID_BASES)]
        kind = MUTATIONS[i % len(MUTATIONS)]
        S = grid_table(k, d)
        n = len(S)
        nonzero = range(1, n)
        defined = [(a, b) for a in nonzero for b in nonzero if S[a][b] >= 0]
        undefined = [(a, b) for a in nonzero for b in nonzero if S[a][b] < 0]
        a, b = rng.choice(undefined if kind == "define" else defined)
        if kind == "undefine":
            value = -1
        else:
            value = rng.choice([s for s in range(n) if s != S[a][b]])
        S[a][b] = value
        if kind != "one-sided":
            S[b][a] = value
        if not laws_hold(S, 0, n - 1):
            out.append((f"{kind} ({a},{b}) on {k}^{d}", S))
    return out


def broken_state_values():
    """L8 state i/8 with s(2/8) raised by 10^-14: not additive."""
    values = [Fraction(i, 8) for i in range(9)]
    values[2] += Fraction(1, 10 ** 14)
    return values


# ---------------------------------------------------------------------------


def suites(instances):
    """The criterion-01 suite builders, in criterion order."""
    ident = [Fraction(i, 8) for i in range(9)]

    def hsum():
        l8 = instances.make_mv_product(8, 1, validate=False)
        return instances.make_horizontal_sum(l8, l8, ident, ident, validate=False)

    named = {
        "boolean(1)": lambda: instances.make_boolean(1, validate=False),
        "boolean(2)": lambda: instances.make_boolean(2, validate=False),
        "boolean(3)": lambda: instances.make_boolean(3, validate=False),
        "boolean(4)": lambda: instances.make_boolean(4, validate=False),
        "mv(4,2)": lambda: instances.make_mv_product(4, 2, validate=False),
        "mv(8,3)": lambda: instances.make_mv_product(8, 3, validate=False),
        "MO2": lambda: instances.make_mo2(validate=False),
        "L8+L8": hsum,
    }
    out = list(named.items())
    for (na, a), (nb, b) in itertools.combinations_with_replacement(sorted(named.items()), 2):
        out.append((f"{na} x {nb}",
                    lambda a=a, b=b: instances.make_product(a(), b(), validate=False)))
    return out


def main(run, seed, seconds):
    from effalg import compbase, core, instances

    from perfbench import checks
    from perfbench.common import timed_setups

    cycles = max(1, round(seconds / CYCLE_S))
    run.passes = PASSES
    run.short_passes = SHORT_PASSES
    rng = random.Random(seed)

    def laws_hold(S, zero, one):
        return all(checks.law_holds(S, zero, one, law) for law in checks.AXIOM_LAWS)

    state_values = broken_state_values()
    l8_table = grid_table(8, 1)
    suite_list = suites(instances)

    def validate_suite(build):
        E, cb = build()
        return core.validate_axioms(E), compbase.validate_base(E, cb)

    def suite_check(reports):
        ax, bs = reports
        if ax.passed and bs.passed:
            return None
        return "valid suite rejected: " + ax.summary() + bs.summary()

    def state_op():
        E, _ = instances.make_mv_product(8, 1, validate=False)
        return core.State(E, state_values).validate()

    ops = []
    for _ in range(cycles):
        for name, build in suite_list:
            ops.append((name, lambda build=build: validate_suite(build), suite_check))
        for what, S in broken_tables(rng, BROKEN_PER_CYCLE, laws_hold):
            ops.append((what, lambda S=S: core.validate_axioms(core.TableAlgebra(S, 0, len(S) - 1)),
                        lambda rep, S=S: checks.check_broken_table(S, 0, len(S) - 1, rep)))
        ops.append(("L8 state off by 1e-14", state_op,
                    lambda report: checks.check_state_report(l8_table, state_values, report)))

    def setup():  # warms numpy's lazily loaded paths on a small suite
        validate_suite(dict(suite_list)["mv(4,2)"])

    timed_setups(run, setup)
    run.measure(ops)
