"""scripts/verify_digest.py: one digest line per instance, on short lists."""

import importlib.util
import sys
from pathlib import Path

from effalg import spectral

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "verify_digest.py"


def _script(monkeypatch):
    """The script as a module, on a restored path, with a few families per
    instance: two elements, one stream pair and one edge offset, depth 3."""
    monkeypatch.setattr(sys, "path", [str(ROOT)] + sys.path)
    spec = importlib.util.spec_from_file_location("verify_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "FINITE_ELEMENTS", 2)
    monkeypatch.setattr(module, "STREAM_EFFECTS", 1)
    monkeypatch.setattr(module, "OFFSETS", (1e-9,))
    monkeypatch.setattr(module, "MATRIX_DEPTHS", (3,))
    return module


def _lines(script, capsys):
    assert script.main([str(ROOT)]) == 0
    return [line.split(" ", 2) for line in capsys.readouterr().out.splitlines()]


def test_one_line_per_instance_the_same_on_each_run(monkeypatch, capsys):
    script = _script(monkeypatch)
    lines = _lines(script, capsys)
    assert [name for _, _, name in lines] == [
        "mv(8,3)", "mv(16,2)", "boolean(2) x mv(8,3)", "matrix(2)", "matrix(3)", "matrix(4)",
        "mv(16,1)", "restrict(mv(8,3), (8,8,0))", "matrix(2) at the edge of (ii)",
        "matrix(3) at the edge of (ii)", "matrix(4) at the edge of (ii)"]
    for digest, count, _ in lines:
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert int(count) > 0
    finite = lines[:3] + lines[6:8]
    assert [count for _, count, _ in finite] == ["12"] * 5  # 2 elements x 2 depths x 3
    assert _lines(script, capsys) == lines


def test_a_changed_verdict_changes_its_line(monkeypatch, capsys):
    script = _script(monkeypatch)
    lines = _lines(script, capsys)
    verify = spectral.verify_resolution

    def flipped(cb, a, family, n):
        rep = verify(cb, a, family, n)
        if cb.enumerable:
            rep.checks[-1].passed = not rep.checks[-1].passed
        return rep

    monkeypatch.setattr(spectral, "verify_resolution", flipped)
    changed = _lines(script, capsys)
    assert [a == b for a, b in zip(lines, changed)] == [False, False, False, True, True, True,
                                                        False, False, True, True, True]


def test_a_directory_without_sources_exits_2(tmp_path, monkeypatch, capsys):
    assert _script(monkeypatch).main([str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "src/effalg/spectral.py" in err
