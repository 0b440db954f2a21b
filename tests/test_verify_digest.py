"""scripts/verify_digest.py: two digest lines per instance, on short lists."""

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


INSTANCES = [
    "mv(8,3)", "mv(16,2)", "boolean(2) x mv(8,3)", "matrix(2)", "matrix(3)", "matrix(4)",
    "mv(16,1)", "restrict(mv(8,3), (8,8,0))", "matrix(2) at the edge of (ii)",
    "matrix(3) at the edge of (ii)", "matrix(4) at the edge of (ii)"]
FINITE = [0, 1, 2, 6, 7]  # the positions of the finite instances


def test_two_lines_per_instance_the_same_on_each_run(monkeypatch, capsys):
    """The verify lines, then one resolution line per instance after them."""
    script = _script(monkeypatch)
    lines = _lines(script, capsys)
    assert [name for _, _, name in lines] == \
        INSTANCES + [f"resolutions on {name}" for name in INSTANCES]
    for digest, count, _ in lines:
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert int(count) > 0
    assert [lines[i][1] for i in FINITE] == ["12"] * 5  # 2 elements x 2 depths x 3
    assert [lines[11 + i][1] for i in FINITE] == ["4"] * 5  # 2 elements x 2 depths
    assert _lines(script, capsys) == lines


def test_a_changed_resolution_changes_its_line(monkeypatch, capsys):
    """Moving the upper expectation bound, or the depth from which a
    rational value is stable on the finite instances, changes only the
    resolution lines that it reaches."""
    script = _script(monkeypatch)
    lines = _lines(script, capsys)
    bounds, rational = spectral.expectation_bounds, spectral.rational_resolution
    monkeypatch.setattr(spectral, "expectation_bounds",
                        lambda cb, a, state, n: (bounds(cb, a, state, n)[0], 2))
    changed = _lines(script, capsys)
    assert [a == b for a, b in zip(lines, changed)] == [True] * 11 + [False] * 11
    monkeypatch.setattr(spectral, "expectation_bounds", bounds)

    def later(cb, a, lam, n, details=False):
        got = rational(cb, a, lam, n, details)
        if cb.enumerable and details:
            got.stable_from += 1
        return got

    monkeypatch.setattr(spectral, "rational_resolution", later)
    changed = _lines(script, capsys)
    assert [a != b for a, b in zip(lines, changed)] == \
        [False] * 11 + [i in FINITE for i in range(11)]


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
                                                        False, False, True, True, True] + \
        [True] * 11


def test_a_directory_without_sources_exits_2(tmp_path, monkeypatch, capsys):
    assert _script(monkeypatch).main([str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "src/effalg/spectral.py" in err


def test_a_changed_tree_node_changes_only_the_resolution_lines(monkeypatch, capsys):
    """Swapping the root node of every tree that ``splitting_tree`` returns
    (zero for the unit, anything else for zero) changes every resolution
    line and no verify line: each resolution line hashes the tree's nodes."""
    script = _script(monkeypatch)
    lines = _lines(script, capsys)
    real = spectral.splitting_tree

    def swapped(cb, a, n):
        tree = real(cb, a, n)
        E = tree.algebra
        root = E.one if E.eq(tree.u(()), E.zero) else E.zero
        return spectral.SplittingTree(E, a, n, {**tree._u, (): root}, tree._c)

    monkeypatch.setattr(spectral, "splitting_tree", swapped)
    changed = _lines(script, capsys)
    assert [a == b for a, b in zip(lines, changed)] == [True] * 11 + [False] * 11
