"""The benchmark in `perfbench/` wraps semlog's entry points by name.

If one is renamed, or the program stops calling it, its per-layer metric
silently reads zero, so these tests check that every name it wraps still
exists and that each workload's grounding still opens its spans.  They
also pin the solver counts of each workload's seed-1 instance.  They read
`perfbench/` and change nothing there.
"""

import hashlib
import importlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import semlog
from semlog import frontend, grounding
from semlog.semirings import boolean, semiring_from_token, tropical
from semlog.solver import solve_grounding

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


# Each workload's seed-1 grounding, solved by `solve_grounding`: (popped,
# stale skips, sha256 of the repr of the `pops` list, heads evaluated in one
# pass).  apsp and andersen are one recursive stratum each; every stratum of
# star is non-recursive, so nothing is popped.
SOLVER_PINS = {
    "apsp-dense": (
        784, 464, "1115622c95d480113cabcbf14977921822e3923ded11f4ef3ac6334c504b4f99", 0
    ),
    "andersen-points-to": (
        736, 0, "11175f66e0568e3a7e26d5f31463cba2937c9c15e00ecf0a4786e447ed012f00", 0
    ),
    "star-wide": (
        0, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 640
    ),
}


def solve_seed_1(workload, monkeypatch):
    """Parse, ground and solve the workload's seed-1 instance."""
    w = load_perfbench("workloads", monkeypatch).WORKLOADS[workload]
    text = w.generate(w, random.Random(f"{workload}:1"))
    inst = frontend.parse_facts(text, semiring_from_token(w.semiring))
    g, _ = grounding.ground_program(semlog.corpus_program(w.program), inst)
    return solve_grounding(g)


@pytest.mark.parametrize("workload", list(SOLVER_PINS))
def test_workload_solver_counts(workload, monkeypatch):
    """`solver.pops` and `solver.stale_skips` read these; the pop order is pinned too."""
    stats = solve_seed_1(workload, monkeypatch).stats
    digest = hashlib.sha256(repr(stats["pops"]).encode()).hexdigest()
    got = (stats["popped"], stats["stale_skips"], digest, stats["evaluated"])
    assert got == SOLVER_PINS[workload]


@pytest.mark.parametrize("workload", list(SOLVER_PINS))
def test_workload_query_opens_one_solve_span(workload, monkeypatch):
    """`solver.solve_s` and `solver.solve_peak_mb` read zero, or split, if
    solving moves out of `solve_absorptive`."""
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    with spans.patched(spans.TRACED, tracer.wrap):
        solve_seed_1(workload, monkeypatch)
    opened = [s.name for s in tracer.spans if s.name.startswith("solver.")]
    assert opened == ["solver.solve_absorptive"]
