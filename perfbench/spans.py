"""Spans, counters and memory probes installed from outside the program.

Every probe wraps a module attribute that semlog calls through, so the
program itself is unchanged.  A function imported by name into another
module (``gyo_join_tree`` into ``semlog.grounding``) is patched in every
``semlog`` module that binds it.  If the program stops calling an entry
point, its span simply never opens and its metric reads zero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
import tracemalloc
from collections import Counter
from typing import Callable, Iterator, NamedTuple

# (module, attribute) -> span name.  The names are the layers of the
# per-layer metrics; the attribute is the program's own entry point.
TRACED = (
    ("semlog.frontend", "parse_facts", "frontend.parse_facts"),
    ("semlog.grounding", "ground_program", "grounding.ground_program"),
    ("semlog.grounding", "ground_acyclic_rule", "grounding.acyclic"),
    ("semlog.grounding", "ground_linear_acyclic2", "grounding.linear_arity2"),
    ("semlog.grounding", "_ground_body_naive", "grounding.naive"),
    ("semlog.decomposition", "gyo_join_tree", "decomposition.gyo_join_tree"),
    ("semlog.solver", "to_two_canonical", "solver.to_two_canonical"),
    ("semlog.solver", "solve_rank", "solver.solve_rank"),
    ("semlog.solver", "solve_absorptive", "solver.solve_absorptive"),
    ("semlog.solver", "kleene_grounding", "solver.kleene_grounding"),
)

# Layers whose tracemalloc peak is taken, keyed by the metric they feed.
MEMORY_PROBES = (
    ("semlog.grounding", "ground_program", "grounding.peak_mb"),
    ("semlog.solver", "to_two_canonical", "solver.canonicalize_peak_mb"),
    ("semlog.solver", "solve_rank", "solver.solve_peak_mb"),
    ("semlog.solver", "solve_absorptive", "solver.solve_peak_mb"),
    ("semlog.solver", "kleene_grounding", "solver.solve_peak_mb"),
)


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a query's root
    query: int


@contextlib.contextmanager
def patched(targets, make_wrapper: Callable[[str, Callable], Callable]) -> Iterator[None]:
    """Replace each target function in every semlog module that binds it."""
    saved = []
    try:
        for module_name, attr, label in targets:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:  # entry point gone: its metric reads zero
                continue
            wrapper = make_wrapper(label, original)
            for name, module in list(sys.modules.items()):
                if name == "semlog" or name.startswith("semlog."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, original))
                            setattr(module, key, wrapper)
        yield
    finally:
        for module, key, original in reversed(saved):
            setattr(module, key, original)


class Tracer:
    """In-memory span recorder plus event counters for the traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.results: dict[str, object] = {}
        self._stack: list[int] = []
        self._query = -1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._query))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = self.spans[index]._replace(end_ns=time.perf_counter_ns())

    @contextlib.contextmanager
    def query(self, qid: int) -> Iterator[None]:
        self._query = qid
        with self.span("query"):
            yield

    def wrap(self, label: str, fn: Callable) -> Callable:
        not_applicable = getattr(sys.modules["semlog.grounding"], "StrategyNotApplicable", ())

        def traced(*args, **kwargs):
            with self.span(label):
                try:
                    result = fn(*args, **kwargs)
                except not_applicable:
                    self.counts[label + ".fallbacks"] += 1
                    raise
            self.results[label] = result
            return result

        return traced

    def counting(self, semiring):
        """A copy of `semiring` whose plus_fn and times_fn count their calls."""
        counts = self.counts

        def count(key, fn):
            def op(a, b):
                counts[key] += 1
                return fn(a, b)

            return op

        return dataclasses.replace(
            semiring,
            plus_fn=count("semirings.plus_calls", semiring.plus_fn),
            times_fn=count("semirings.times_calls", semiring.times_fn),
        )


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end_ns - s.start_ns
    return own


@dataclasses.dataclass
class QuerySpans:
    """One query's spans, summed by name."""

    total_ns: int = 0  # the root span
    children_ns: int = 0  # the root's direct children: the top-level layers
    dur_ns: Counter = dataclasses.field(default_factory=Counter)
    own_ns: Counter = dataclasses.field(default_factory=Counter)


def per_query(spans: list[Span]) -> list[QuerySpans]:
    own = self_times(spans)
    out: dict[int, QuerySpans] = {}
    for s, self_ns in zip(spans, own):
        q = out.setdefault(s.query, QuerySpans())
        q.dur_ns[s.name] += s.end_ns - s.start_ns
        q.own_ns[s.name] += self_ns
        if s.parent == -1:
            q.total_ns = s.end_ns - s.start_ns
        elif spans[s.parent].parent == -1:
            q.children_ns += s.end_ns - s.start_ns
    return list(out.values())


class MemoryProbe:
    """Per-layer tracemalloc peaks, above the memory in use at layer entry."""

    def __init__(self) -> None:
        self.peaks_mb: Counter = Counter()

    def wrap(self, label: str, fn: Callable) -> Callable:
        def probed(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.peaks_mb[label] = max(self.peaks_mb[label], (peak - base) / 2**20)

        return probed
