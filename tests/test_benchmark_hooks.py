"""The benchmark in `perfbench/` wraps semlog's entry points by name.

If one is renamed, or the program stops calling it, its per-layer metric
silently reads zero, so these tests check that every name it wraps still
exists and that each workload's grounding still opens its spans.  They
also pin the solver counts of each workload's seed-1 instance.  They read
`perfbench/` and change nothing there.
"""

import gc
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


def ground_seed_1(workload, monkeypatch):
    """Parse and ground the workload's seed-1 instance."""
    w = load_perfbench("workloads", monkeypatch).WORKLOADS[workload]
    text = w.generate(w, random.Random(f"{workload}:1"))
    inst = frontend.parse_facts(text, semiring_from_token(w.semiring))
    g, _ = grounding.ground_program(semlog.corpus_program(w.program), inst)
    return g


def solve_seed_1(workload, monkeypatch):
    """Parse, ground and solve the workload's seed-1 instance."""
    return solve_grounding(ground_seed_1(workload, monkeypatch))


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


# Each workload's seed-1 grounding: (sha256 of `to_text()`, sha256 of the
# repr of its head order `list(g.equations)`, `size`).
GROUNDING_PINS = {
    "apsp-dense": (
        "67aeb985528429d901b65a36b4b288a6782fc65080ac2ae988df49bfecf428ec",
        "41cf5b16bcd76f28e2c95fcaca09837312dcbc9fa5041b9531ec72738ffc97f8",
        13552,
    ),
    "andersen-points-to": (
        "2bd4f345ec1df5ac0e2289e8c9236540906712aea43bd55009dbe5272bcd5575",
        "7b51847308bf356d9a825f6f5a4816eba5d5aca0b97a6c88a2e8f23bd6cfca55",
        21808,
    ),
    "star-wide": (
        "57f58b3a589a3227e58b7fe71867d00abfb88e5b72d55eab05db8c29b8daa677",
        "8430918736bb4aeed970d9e5ee25b92b20997b3cefd0367fe5651490782c716c",
        15232,
    ),
}


@pytest.mark.parametrize("workload", list(GROUNDING_PINS))
def test_workload_grounding_text_head_order_and_size(workload, monkeypatch):
    """`grounding.size` and `grounding.equations` read these, and the solver
    visits heads in this order."""
    g = ground_seed_1(workload, monkeypatch)
    text = hashlib.sha256(g.to_text().encode()).hexdigest()
    heads = hashlib.sha256(repr(list(g.equations)).encode()).hexdigest()
    assert (text, heads, g.size) == GROUNDING_PINS[workload]


def tracked_lists():
    gc.collect()
    return sum(type(o) is list for o in gc.get_objects())


@pytest.mark.parametrize("workload", list(GROUNDING_PINS))
def test_workload_grounding_keeps_no_list_per_head(workload, monkeypatch):
    """A list per equation head lives through the collections that fall
    while a query grounds and solves, and the collector promotes it to the
    oldest generation; a flat grounding leaves a handful of lists, and so
    does solving it."""
    before = tracked_lists()
    g = ground_seed_1(workload, monkeypatch)
    assert tracked_lists() - before <= 16
    sol = solve_grounding(g)
    assert tracked_lists() - before <= 16
    assert g.size == GROUNDING_PINS[workload][2]
    assert sol.stats["popped"] == SOLVER_PINS[workload][0]
