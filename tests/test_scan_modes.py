"""scripts/scan_modes.py: the scans' rows and seconds on table copies."""

import re
import subprocess
import sys
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scan_modes.py"


def test_boolean_3_table_copy_is_scanned_in_full():
    t0 = time.perf_counter()
    run = subprocess.run([sys.executable, str(SCRIPT), "boolean(3)"], capture_output=True,
                         text=True, check=True)
    took = time.perf_counter() - t0
    lines = run.stdout.splitlines()
    assert lines[0] == "boolean(3) table copy (n = 8, |P| = 8)"
    assert re.fullmatch(r"  central_base: \d+\.\d\d s, peak \d+\.\d MB, \|centre\| = 8",
                        lines[1]), lines[1]
    assert re.fullmatch(r"  p_meet_table: \d+\.\d\d s", lines[2]), lines[2]
    assert re.fullmatch(r"  check_oml: \d+\.\d{4} s, peak \d+\.\d MB", lines[3]), lines[3]
    assert [line.split(":")[0].strip() for line in lines if line.endswith(" s")] == \
        ["p_meet_table", "axioms", "base", "spectral"]
    rows = [re.fullmatch(r"    (\S.*?) +(PASS|FAIL) (\S+) *(.*)", line).groups()
            for line in lines if line.startswith("    ")]
    assert [row[0] for row in rows] == [
        "pairwise-meets-exist", "pairwise-joins-exist", "orthomodular-law",
        "sup-inf-closed-(subsets ≤ 3)",
        "E1-commutative", "E2-associative", "E3-orthosupplement-exists",
        "E3-orthosupplement-valid", "E3-orthosupplement-unique", "E4-unit-maximal",
        "cancellation", "P-sub-effect-algebra", "C1-compressions", "supplement-pairing",
        "C2-composition", "P-normal", "triple-law", "b-property", "comparability",
        "sharp-elements-are-projections", "C-blocks-are-MV"]
    assert {row[1:3] for row in rows} == {("PASS", "full")}
    assert rows[12][3] == "8 of 8 maps checked"
    assert [re.fullmatch(r"  (\w+): \d+\.\d\d s, PASS full", line)[1] for line in lines[-3:]] == \
        ["validate_axioms", "validate_base", "check_b_comparability"]
    assert run.stderr == ""
    assert took < 1.0, f"took {took:.2f} s"
