"""Break one benchmark workload run down by op kind.

    python3 scripts/op_kinds.py --workload resolve|validate|cli
        [--seconds 10] [--seed 1]

Runs ``perfbench/run.py``'s workload in this process, with tracing off,
and prints one line per op kind: its op count, its median latency at
reference speed (see ``perfbench/common.py``) and its share of the busy
time, the sum of all op latencies that ``ops_per_s`` divides by.  The
slowest kinds come first.  An op's kind is its label without the
arguments that change from op to op: options and their values, the
depth, the element and a broken table's pair.  ``perfbench`` is only
imported, never changed.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# per-op arguments: "--opt value" or "--opt=value", " depth 8", " element 3", " (1,2)"
_ARGUMENTS = re.compile(r" --[\w-]+(?:=\S+| \S+)| depth \d+| element \d+| \(\d+,\d+\)")


def kind_of(label: str) -> str:
    """The op kind of one op label."""
    return _ARGUMENTS.sub("", label)


def breakdown(labels, latencies) -> list:
    """``(kind, count, median ms, share of busy time)``, slowest share first."""
    by_kind = {}
    for label, took in zip(labels, latencies):
        by_kind.setdefault(kind_of(label), []).append(took)
    busy = sum(latencies)
    rows = [(kind, len(times), statistics.median(times) * 1000.0, sum(times) / busy)
            for kind, times in by_kind.items()]
    return sorted(rows, key=lambda row: -row[3])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("validate", "resolve", "cli"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import run as bench

    os.environ.update(bench.program_env())  # before numpy is imported
    from perfbench import common

    class Recorded(common.Run):
        """A run that keeps the label of each op it measures."""

        def measure(self, ops):
            self.labels = [what for what, _, _ in ops]
            super().measure(ops)

    run = Recorded()
    importlib.import_module(f"perfbench.wl_{args.workload}").main(run, args.seed, args.seconds)
    for error in run.errors[:20]:
        print(f"WRONG {error}", file=sys.stderr)
    rows = breakdown(run.labels, run.latencies)
    width = max(len(kind) for kind, *_ in rows)
    print(f"{'op kind':<{width}}  {'ops':>5}  {'p50 ms':>9}  {'share':>6}")
    for kind, count, p50, share in rows:
        print(f"{kind:<{width}}  {count:>5}  {p50:>9.4f}  {share:>6.1%}")
    print(f"{len(run.latencies)} ops, {sum(run.latencies) * 1000.0:.3f} ms busy at reference "
          f"speed, {run.failed} failed, correct {not run.errors}")
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
