"""Modes and seconds of the exhaustive scans on table copies of instances.

    python3 scripts/scan_modes.py NAME [NAME ...]

A NAME is ``boolean(k)``, ``mv(k,d)``, ``MO2`` or a product ``A x B`` of
those, e.g. ``"boolean(2) x mv(8,3)"``.  Each instance is copied as a
``TableAlgebra`` of its sum table with its base's maps as a base without
factors, so that ``core._scan_axioms``, ``compbase._scan_base`` and
``comparability._scan_spectral`` scan it as they scan any carrier without
factors.  For each scan the script prints its wall seconds, then one line
per row: name, verdict, mode and detail.  Before the scans it prints the
wall seconds and the traced peak (``tracemalloc``, a second run) of
``compbase._central_base`` on a fresh copy of the table, with the size of
the centre it finds, and the wall seconds of ``p_meet_table`` on a fresh
copy of the base, with the name of the error it raises, if any.
``compbase.check_oml`` is measured the same way as the
central base, each run on its own fresh copy of the base, and its rows
follow in the same form, or the name of the error it raises.  Last come
the public routes ``core.validate_axioms``, ``compbase.validate_base``
and ``comparability.check_b_comparability``, one line each: its wall
seconds on a fresh copy of the table and base, then its verdict and the
modes of its rows, or the name of the error it raises.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from effalg import comparability, compbase, core, instances  # noqa: E402
from effalg.errors import EffalgError  # noqa: E402


def build(name: str):
    """The instance ``name``, with validation off: ``(E, cb)``."""
    parts = name.split(" x ")
    if len(parts) > 1:
        out = build(parts[0])
        for part in parts[1:]:
            out = instances.make_product(out, build(part), validate=False)
        return out
    if name == "MO2":
        return instances.make_mo2(validate=False)
    match = re.fullmatch(r"boolean\((\d+)\)", name)
    if match:
        return instances.make_boolean(int(match[1]), validate=False)
    match = re.fullmatch(r"mv\((\d+),(\d+)\)", name)
    if match:
        return instances.make_mv_product(int(match[1]), int(match[2]), validate=False)
    raise SystemExit(f"unknown instance {name!r}: use boolean(k), mv(k,d), MO2 or A x B")


def table_copy(E, cb):
    """E as a table, and cb's maps on it without factors."""
    T = core.TableAlgebra(E.sum_table, E.zero, E.one)
    return T, compbase.CompressionBase(T, cb.projections,
                                       {p: cb.map_table(p) for p in cb.projections})


def timed(run, *args):
    """``run(*args)`` or the ``EffalgError`` it raises, and its seconds."""
    t0 = time.perf_counter()
    try:
        out = run(*args)
    except EffalgError as exc:
        out = exc
    return out, time.perf_counter() - t0


def measured(run, fresh):
    """``run`` on one ``fresh()`` argument timed, and on another traced
    (``tracemalloc``): its result or ``EffalgError``, seconds and peak MB."""
    out, took = timed(run, fresh())
    arg = fresh()
    tracemalloc.start()
    timed(run, arg)
    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    return out, took, peak


def rows(rep) -> list:
    """One line per row of a report: name, verdict, mode and detail."""
    return [f"    {c.name:<30} {'PASS' if c.passed else 'FAIL'} {c.mode:<8} {c.detail}".rstrip()
            for c in rep.checks]


def scan(name: str) -> list:
    """The printed lines for one instance."""
    T, tcb = table_copy(*build(name))
    lines = [f"{name} table copy (n = {T.size}, |P| = {len(tcb.projections)})"]
    centre, took, peak = measured(compbase._central_base,
                                  lambda: core.TableAlgebra(T.sum_table, T.zero, T.one))
    lines.append(f"  central_base: {took:.2f} s, peak {peak:.1f} MB, "
                 f"|centre| = {len(centre.projections)}")
    table, took = timed(lambda cb: cb.p_meet_table(), table_copy(T, tcb)[1])
    raised = f", {type(table).__name__}" if isinstance(table, EffalgError) else ""
    lines.append(f"  p_meet_table: {took:.2f} s{raised}")
    oml, took, peak = measured(compbase.check_oml, lambda: table_copy(T, tcb)[1])
    raised = f", {type(oml).__name__}" if isinstance(oml, EffalgError) else ""
    lines.append(f"  check_oml: {took:.4f} s, peak {peak:.1f} MB{raised}")
    lines += [] if raised else rows(oml)
    for what, run in (("axioms", lambda: core._scan_axioms(T)),
                      ("base", lambda: compbase._scan_base(T, tcb)),
                      ("spectral", lambda: comparability._scan_spectral(tcb))):
        rep, took = timed(run)
        lines.append(f"  {what}: {took:.2f} s")
        lines += rows(rep)
    for what, run in (("validate_axioms", lambda E, cb: core.validate_axioms(E)),
                      ("validate_base", compbase.validate_base),
                      ("check_b_comparability",
                       lambda E, cb: comparability.check_b_comparability(cb))):
        rep, took = timed(run, *table_copy(T, tcb))
        verdict = type(rep).__name__ if isinstance(rep, EffalgError) else \
            f"{'PASS' if rep.passed else 'FAIL'} {','.join(sorted({c.mode for c in rep.checks}))}"
        lines.append(f"  {what}: {took:.2f} s, {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", metavar="NAME")
    args = parser.parse_args(argv)
    for name in args.names:
        print("\n".join(scan(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
