"""The traced benchmark run (perfbench/spans.py) times each layer through the
entry points it names. It skips an entry point that no longer exists, so a
renamed method would move its time into ``cli.self_s`` unnoticed: every
entry point must resolve to a callable where the tracer wraps it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def entry_points():
    """ENTRY_POINTS of spans.py, read without importing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.ENTRY_POINTS


@pytest.mark.parametrize("entry", entry_points(), ids=lambda entry: f"{entry[1]}.{entry[2]}")
def test_entry_point_resolves(entry):
    _, module_name, attr, _, _ = entry
    owner_name, _, name = attr.rpartition(".")
    owner = importlib.import_module(module_name)
    if owner_name:
        owner = getattr(owner, owner_name)
        # the tracer wraps a method in the class that defines it
        assert name in vars(owner)
    assert callable(getattr(owner, name))
