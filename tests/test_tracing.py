"""The per-layer tracer of perfbench finds every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", [w[1] for w in _tracing().WRAPS])
def test_every_wrapped_target_is_defined_by_its_owner(target):
    """Tracer.install reads each target from its owner's own __dict__, so a
    method that moved to a base class or a renamed function would break
    ``perfbench/run.py --trace 1``; the check installs nothing."""
    parts = target.split(".")
    owner = importlib.import_module("effalg." + parts[0])
    if len(parts) == 3:
        owner = owner.__dict__[parts[1]]
    assert parts[-1] in owner.__dict__, target
