"""The benchmark in `perfbench/` wraps semlog's entry points by name.

If one is renamed, or the program stops calling it, its per-layer metric
silently reads zero, so these tests check that every name it wraps still
exists and that each workload's grounding still opens its spans.  They
read `perfbench/` and change nothing there.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import semlog
from semlog import frontend, grounding
from semlog.semirings import boolean, semiring_from_token, tropical

from conftest import random_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def load_spans(monkeypatch):
    return load_perfbench("spans", monkeypatch)


@pytest.mark.parametrize("table", ["TRACED", "MEMORY_PROBES"])
def test_wrapped_entry_points_are_callable(table, monkeypatch):
    entries = getattr(load_spans(monkeypatch), table)
    assert entries
    for module_name, attr, _label in entries:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


# The benchmark's workloads: (corpus program, semiring, grounding spans).
WORKLOAD_SPANS = {
    "apsp-dense": ("apsp", tropical(), {"ground_program", "acyclic", "linear_arity2"}),
    "andersen-points-to": (
        "andersen", boolean(), {"ground_program", "acyclic", "linear_arity2"}
    ),
    "star-wide": ("ex51_star", tropical(), {"ground_program", "acyclic"}),
}


@pytest.mark.parametrize("workload", list(WORKLOAD_SPANS))
def test_workload_grounding_opens_its_spans(workload, monkeypatch):
    """`grounding.body_s.*` reads zero for a span that never opens."""
    spans = load_spans(monkeypatch)
    name, sr, want = WORKLOAD_SPANS[workload]
    program = semlog.corpus_program(name)
    inst = random_instance(program, sr, random.Random(f"spans:{workload}"))
    tracer = spans.Tracer()
    with spans.patched(spans.TRACED, tracer.wrap):
        grounding.ground_program(program, inst)
    opened = {s.name for s in tracer.spans}
    assert {n.removeprefix("grounding.") for n in opened if n.startswith("grounding.")} == want


@pytest.mark.parametrize("workload", list(WORKLOAD_SPANS))
def test_workload_parsing_opens_one_span_per_call(workload, monkeypatch):
    """`frontend.parse_s` reads zero, or splits, if parsing moves out of `parse_facts`."""
    spans = load_spans(monkeypatch)
    w = load_perfbench("workloads", monkeypatch).WORKLOADS[workload]
    text = w.generate(w, random.Random(f"{workload}:1"))
    sr = semiring_from_token(w.semiring)
    tracer = spans.Tracer()
    with spans.patched(spans.TRACED, tracer.wrap):
        for calls in (1, 2):
            inst = frontend.parse_facts(text, sr)
            assert [s.name for s in tracer.spans] == ["frontend.parse_facts"] * calls
    assert inst.m == text.count("\n")
