"""scripts/op_kinds.py: op kinds of the benchmark workloads, and a smoke run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "op_kinds.py"


def _script():
    spec = importlib.util.spec_from_file_location("op_kinds", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kinds_drop_the_per_op_arguments():
    kind_of = _script().kind_of
    assert kind_of("verify matrix(3) depth 5 element 12") == "verify matrix(3)"
    assert kind_of("binary boolean(2) x mv(8,3) depth 6 element 0") == \
        "binary boolean(2) x mv(8,3)"
    assert kind_of("effalg --format json spectral mat2.json --element 1/2,0,0,1/4 "
                   "--lambda 1/3") == "effalg spectral mat2.json"
    assert kind_of("effalg group mv162.json --g=1,-2 --approx=-2:2:1") == \
        "effalg group mv162.json"
    assert kind_of("E4 (3,5) on 4^2") == "E4 on 4^2"
    assert kind_of("MO2 x mv(4,2)") == "MO2 x mv(4,2)"


def test_breakdown_shares_add_up():
    rows = _script().breakdown(["a depth 1 element 0", "a depth 1 element 1", "b"],
                               [0.001, 0.003, 0.004])
    assert [(kind, count) for kind, count, _, _ in rows] == [("a", 2), ("b", 1)]
    assert rows[0][2] == 2.0 and rows[1][2] == 4.0
    assert [share for *_, share in rows] == [0.5, 0.5]


def test_resolve_breakdown_runs():
    """One short resolve run: one row per op kind, 15 in all, whose shares
    add up to the busy time; exit 0 with every output correct."""
    proc = subprocess.run([sys.executable, str(SCRIPT), "--workload", "resolve",
                           "--seconds", "0.5", "--seed", "7"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["op", "kind", "ops", "p50", "ms", "share"]
    rows = lines[1:-1]
    assert len(rows) == 15
    kinds = {row.rsplit(None, 3)[0] for row in rows}
    assert {"verify matrix(3)", "binary matrix(3)", "expect mv(16,2)"} <= kinds
    shares = [float(row.split()[-1].rstrip("%")) for row in rows]
    assert abs(sum(shares) - 100.0) < 0.5
    assert lines[-1].endswith("0 failed, correct True")
