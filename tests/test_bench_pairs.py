"""scripts/bench_pairs.py rejects a side it cannot check out."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def test_unknown_revision_exits_2_with_one_error_line(tmp_path):
    """Neither a checkout directory nor a revision git can export: exit 2
    with one ``error:`` line naming the option, not a traceback."""
    proc = subprocess.run([sys.executable, str(SCRIPT), "--parent", "no-such-revision-0x14",
                           "--out", str(tmp_path / "out.json")],
                          capture_output=True, text=True, timeout=60)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("error: --parent 'no-such-revision-0x14'")
    assert "directory" in lines[0] and not (tmp_path / "out.json").exists()
