"""The benchmark in `perfbench/` wraps semlog's entry points by name.

If one is renamed, its per-layer metric silently reads zero, so these
tests check that every name it wraps still exists.  They read
`perfbench/` and change nothing there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["TRACED", "MEMORY_PROBES"])
def test_wrapped_entry_points_are_callable(table, monkeypatch):
    entries = getattr(load_spans(monkeypatch), table)
    assert entries
    for module_name, attr, _label in entries:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"

