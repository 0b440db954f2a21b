"""scripts/cli_digest.py: the command list, and a run on a short list."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "cli_digest.py"


def _script(monkeypatch):
    """The script as a module, with the checkout's root on a restored path."""
    monkeypatch.setattr(sys, "path", [str(ROOT)] + sys.path)
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commands_are_the_seeded_cycles_then_the_documents(monkeypatch):
    script = _script(monkeypatch)
    from perfbench import wl_cli

    cmds = script.commands()
    docs = script.document_commands(wl_cli.DOCUMENTS)
    assert len(docs) == 3 * len(wl_cli.DOCUMENTS)
    assert cmds[-len(docs):] == docs
    assert len(cmds) == 4 * 40 + len(docs)
    assert docs[:3] == [
        ["spectral", "mv83.json", "--element", "3"],
        ["spectral", "mv83.json", "--element", "3", "--lambda", "1/3"],
        ["expect", "mv83.json", "--element", "3", "--state", "1/3,1/3,1/3"]]


def test_each_command_prints_its_exit_code_and_digest(tmp_path, monkeypatch, capsys):
    """On the per-document commands alone: one line per command, its exit
    code, the sha256 of its stdout and stderr, and its arguments."""
    script = _script(monkeypatch)
    from perfbench import wl_cli

    monkeypatch.setattr(script, "commands", lambda: script.document_commands(wl_cli.DOCUMENTS))
    assert script.main([str(ROOT)]) == 0
    lines = [line.split(" ", 2) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 21
    codes = {argv: int(code) for code, _, argv in lines}
    assert codes["spectral prod.json --element 3"] == 0
    assert codes["spectral mo2.json --element 3 --lambda 1/3"] == 2  # not spectral
    assert codes["expect mat2.json --element 1/2,1/4,1/4,1/2 --state 1/1"] == 2
    # the digest of one line, recomputed
    (tmp_path / "l4.json").write_text(json.dumps(wl_cli.DOCUMENTS["l4"]))
    argv = ["spectral", "l4.json", "--element", "3", "--lambda", "1/3"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "effalg.cli"] + argv, cwd=tmp_path, env=env,
                         capture_output=True, timeout=120)
    assert ["0", hashlib.sha256(run.stdout + run.stderr).hexdigest(), " ".join(argv)] in lines


def test_a_directory_without_sources_exits_2(tmp_path, monkeypatch, capsys):
    assert _script(monkeypatch).main([str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "src/effalg/cli.py" in err
