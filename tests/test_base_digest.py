"""scripts/base_digest.py: one line per carrier, on a short list."""

import importlib.util
import sys
from pathlib import Path

from effalg import core

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "base_digest.py"
SHORT = ("boolean(2)", "MO2", "MO2 x boolean(1)", "table boolean(3)")
LAYOUTS = ["five elements 0abcu", "five elements 0ubca", "five elements 0uabc"]


def _script(monkeypatch):
    """The script as a module, on a restored path, with the carriers cut to
    a few suites, one table copy, two broken tables alone and times
    ``boolean(1)``, and the three layouts of the five-element table."""
    monkeypatch.setattr(sys, "path", [str(ROOT)] + sys.path)
    spec = importlib.util.spec_from_file_location("base_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BROKEN", 1)
    every = module.carriers
    monkeypatch.setattr(module, "carriers", lambda: [
        (name, make) for name, make in every()
        if name in SHORT or name.startswith(("retarget", "five"))])
    return module


def _lines(script, capsys):
    assert script.main([str(ROOT)]) == 0
    return [line.split(" ", 2) for line in capsys.readouterr().out.splitlines()]


def test_one_line_per_carrier_the_same_on_each_run(monkeypatch, capsys):
    script = _script(monkeypatch)
    lines = _lines(script, capsys)
    names = [name for _, _, name in lines]
    assert names[:4] == ["boolean(2)", "MO2", "MO2 x boolean(1)", "table boolean(3)"]
    assert names[4].startswith("retarget") and names[5] == f"{names[4]} x boolean(1)"
    assert names[6:] == LAYOUTS and len(lines) == 9
    assert [size for _, size, _ in lines] == ["4", "6", "12", "8", "25", "50", "5", "5", "5"]
    for digest, _, _ in lines:
        assert len(digest) == 64 and int(digest, 16) >= 0
    assert len({digest for digest, _, _ in lines[6:]}) == 3  # the layouts name different elements
    assert _lines(script, capsys) == lines


def test_a_changed_answer_changes_its_line(monkeypatch, capsys):
    """``is_principal`` answering no everywhere changes every line while
    every carrier is within ``PAIR_LIMIT`` (0 is principal in each), and
    none once none is."""
    script = _script(monkeypatch)
    lines = _lines(script, capsys)
    principal = core.is_principal
    monkeypatch.setattr(core, "is_principal", lambda E, a: False)
    assert [a != b for a, b in zip(lines, _lines(script, capsys))] == [True] * 9
    monkeypatch.setattr(script, "PAIR_LIMIT", 0)
    gated = _lines(script, capsys)
    monkeypatch.setattr(core, "is_principal", principal)
    assert _lines(script, capsys) == gated


def test_a_directory_without_sources_exits_2(tmp_path, monkeypatch, capsys):
    assert _script(monkeypatch).main([str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "src/effalg/compbase.py" in err
