"""Digest the verdicts of the validators and base queries on one checkout.

    python3 scripts/base_digest.py CHECKOUT

Imports effalg from ``CHECKOUT/src`` and, on each carrier, hashes:

* the rows of ``validate_axioms``, ``validate_base``,
  ``check_b_comparability`` and ``check_oml`` on the carrier's base (name,
  verdict, mode, witness and detail), or the class and message of the
  error a check raised;
* ``sharp_elements``, and the projections and maps of ``central_base``;
* on carriers of up to ``PAIR_LIMIT`` elements: ``is_principal`` on every
  element, ``mackey_compatible`` on ``PAIRS`` seeded pairs and
  ``bicommutant`` on ``ELEMENTS`` seeded elements.

The carriers, in print order: the criterion-01 suites of
``perfbench/wl_validate.py`` (its eight instances and their products),
the table copies of ``boolean(3)`` to ``boolean(6)`` with their central
bases, ``BROKEN`` seeded broken tables of ``perfbench/wl_validate.py``,
each alone and times ``boolean(1)`` with central bases, and the table
``0, u, a, b, c`` (``0 + x = x``, ``a + b = u``; c has no
orthosupplement) in three layouts: the unit, a and c last.

It prints one line per carrier: the sha256, the carrier's size and its
name.  Two checkouts that reach the same rows, witnesses and answers
print the same lines, so ``diff`` of two runs shows every carrier whose
answers changed.  ``perfbench`` is imported from the checkout that holds
this script, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR_LIMIT = 1000
PAIRS = 300
ELEMENTS = 20
BROKEN = 16
FIVE_ELEMENT_LAYOUTS = ("0abcu", "0ubca", "0uabc")  # the order of the elements by index


def value(fn):
    """What ``fn`` returns, as plain values (a report as its rows, an array
    as a list), or the class and message of the error it raised."""
    import numpy as np

    from effalg.core import Report
    from effalg.errors import EffalgError

    try:
        got = fn()
    except EffalgError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, Report):
        return [(c.name, c.passed, c.mode, repr(c.witness), c.detail) for c in got.checks]
    if isinstance(got, np.ndarray):
        return got.tolist()
    return repr(got)


def answers(E, cb, rng):
    """The answers hashed for one carrier, one item at a time."""
    import numpy as np

    from effalg import comparability, compbase, core

    yield value(lambda: core.validate_axioms(E))
    yield value(lambda: compbase.validate_base(E, cb))
    yield value(lambda: comparability.check_b_comparability(cb))
    yield value(lambda: compbase.check_oml(cb))
    yield value(lambda: core.sharp_elements(E))
    central = compbase.central_base(E)
    yield central.projections
    for p in central.projections:  # as bytes: a map of a large product is long
        yield np.asarray(central.map_table(p), dtype=np.int64).tobytes()
    if E.size > PAIR_LIMIT:
        return
    yield [core.is_principal(E, a) for a in range(E.size)]
    for a, b in rng.integers(0, E.size, size=(PAIRS, 2)).tolist():
        yield value(lambda: core.mackey_compatible(E, a, b))
    for a in rng.integers(0, E.size, size=ELEMENTS).tolist():
        yield value(lambda: compbase.bicommutant(cb, a))


def five_element_table(order: str):
    """The table 0, u, a, b, c with its elements at their places in ``order``."""
    from effalg import core

    at = {x: i for i, x in enumerate(order)}
    triples = [(at["0"], at[x], at[x]) for x in order] + [(at["a"], at["b"], at["u"])]
    return core.TableAlgebra.from_triples(5, triples, at["0"], at["u"], labels=list(order))


def carriers():
    """``(name, make)`` per carrier, in print order; ``make()`` builds the
    carrier and its base afresh."""
    from effalg import compbase, core, instances
    from perfbench import checks, wl_validate

    def with_central(E):
        return lambda: (E, compbase.central_base(E))

    yield from wl_validate.suites(instances)
    for k in (3, 4, 5, 6):
        S = core.BooleanAlgebra(k).sum_table
        yield f"table boolean({k})", with_central(core.TableAlgebra(S, 0, len(S) - 1))

    def laws_hold(S, zero, one):
        return all(checks.law_holds(S, zero, one, law) for law in checks.AXIOM_LAWS)

    for what, S in wl_validate.broken_tables(random.Random(0), BROKEN, laws_hold):
        T = core.TableAlgebra(S, 0, len(S) - 1)
        yield what, with_central(T)
        yield f"{what} x boolean(1)", with_central(core.ProductAlgebra(T, core.BooleanAlgebra(1)))
    for order in FIVE_ELEMENT_LAYOUTS:
        yield f"five elements {order}", with_central(five_element_table(order))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="a directory holding src/effalg")
    args = parser.parse_args(argv)
    src = Path(args.checkout).resolve() / "src"
    if not (src / "effalg" / "compbase.py").is_file():
        print(f"error: {args.checkout!r} holds no src/effalg/compbase.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import numpy as np

    for seed, (name, make) in enumerate(carriers()):
        E, cb = make()
        digest = hashlib.sha256()
        for item in answers(E, cb, np.random.default_rng(seed)):
            digest.update(item if isinstance(item, bytes) else repr(item).encode())
        print(digest.hexdigest(), E.size, name, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
