"""semlog benchmark: sequential queries in a closed loop, checked against references.

Usage (from the repository root):

    python3 perfbench/run.py --workload apsp-dense --seed 1 --seconds 40 --trace 0

One client in one process sends one query at a time; the next starts when
the previous one has returned.  A query is what ``semlog run`` does for one
fact file, in-process: ``parse_facts`` and ``check_instance_against``,
``ground_program``, ``solve_grounding``, then ``Solution.relation`` and
``format_value`` for every answer.  The facts are generated from ``--seed``;
each answer is compared with a reference in ``workloads.py`` that shares no
code with semlog, outside the timed region.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` alternates untraced queries with traced ones, which record
spans and counters around the program's layer entry points (see
``spans.py``), then runs one query under ``tracemalloc`` for per-layer
memory peaks.  It reports the per-layer metrics and writes the spans to
``perfbench/out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The lines before it repeat every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from spans import MEMORY_PROBES, TRACED, MemoryProbe, Tracer, patched, per_query
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# The tail is the highest percentile with at least ten samples beyond it at
# the run length in BENCHMARK.json: every workload makes over 100 queries.
TAIL_PERCENTILE = 90
SETUP_REPEATS = 10
# The top-level layer spans must cover this share of the traced query time;
# the rest is the benchmark's own glue between layers.
MIN_SPAN_COVERAGE = 0.98

END_TO_END_UNITS = {
    "query_s.tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "frontend.parse_s": "s",
    "decomposition.plan_s": "s",
    "grounding.ground_s": "s",
    "grounding.body_s.acyclic": "s",
    "grounding.body_s.linear_arity2": "s",
    "grounding.strategy_fallbacks": "count",
    "grounding.size": "count",
    "grounding.atoms": "count",
    "grounding.equations": "count",
    "grounding.supported_ratio": "ratio",
    "grounding.size_over_bound": "ratio",
    "grounding.peak_mb": "MB",
    "solver.canonicalize_s": "s",
    "solver.canonical_size": "count",
    "solver.temp_vars": "count",
    "solver.canonicalize_peak_mb": "MB",
    "solver.solve_s": "s",
    "solver.pops": "count",
    "solver.stale_skips": "count",
    "solver.pop_ratio": "ratio",
    "solver.equation_evals": "count",
    "solver.max_equation_visits": "count",
    "solver.update_ratio": "ratio",
    "solver.extract_s": "s",
    "solver.solve_peak_mb": "MB",
    "semirings.plus_calls": "count",
    "semirings.times_calls": "count",
    "trace.overhead_ratio": "ratio",
}

# Per-layer times read from the spans of one traced query: (metric, span
# names, whether to take self time instead of the whole duration).
SPAN_TIMES = (
    ("frontend.parse_s", ("frontend.parse_facts",), False),
    ("decomposition.plan_s", ("decomposition.gyo_join_tree",), False),
    ("grounding.ground_s", ("grounding.ground_program",), False),
    ("grounding.body_s.acyclic", ("grounding.acyclic",), True),
    ("grounding.body_s.linear_arity2", ("grounding.linear_arity2",), True),
    ("solver.canonicalize_s", ("solver.to_two_canonical",), False),
    (
        "solver.solve_s",
        ("solver.solve_rank", "solver.solve_absorptive", "solver.kleene_grounding"),
        False,
    ),
    ("solver.extract_s", ("extract",), False),
)


class SetupError(Exception):
    """The program under test cannot be loaded from this checkout."""


@dataclass
class Engine:
    """The loaded program: semlog's modules, the parsed program, the semiring."""

    frontend: object
    grounding: object
    solver: object
    program: object
    semiring: object


def set_up(w: Workload) -> tuple[float, Engine]:
    """Import semlog afresh, parse and classify the program; return (seconds, engine)."""
    if not (ROOT / "src" / "semlog" / "__init__.py").is_file():
        raise SetupError(f"no semlog package under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [n for n in sys.modules if n == "semlog" or n.startswith("semlog.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    semlog = importlib.import_module("semlog")
    program = semlog.parse_program(semlog.corpus_text(w.program))
    semlog.classify(program)
    semiring = semlog.semiring_from_token(w.semiring)
    seconds = time.perf_counter() - t0
    if Path(semlog.__file__).resolve().parent != ROOT / "src" / "semlog":
        raise SetupError(f"semlog was imported from {semlog.__file__}, not this checkout")
    engine = Engine(
        sys.modules["semlog.frontend"],
        sys.modules["semlog.grounding"],
        sys.modules["semlog.solver"],
        program,
        semiring,
    )
    return seconds, engine


def query(engine: Engine, text: str, span=contextlib.nullcontext, semiring=None, on_update=None):
    """One `semlog run`: returns (answer, instance, grounding, solution).

    Every layer is reached through its module attribute, so the traced pass
    can wrap it.  The answer maps each target tuple to its printed value.
    """
    with span("frontend"):
        instance = engine.frontend.parse_facts(text, semiring or engine.semiring)
        engine.frontend.check_instance_against(engine.program, instance)
    g, _ = engine.grounding.ground_program(engine.program, instance)
    with span("solve"):
        sol = engine.solver.solve_grounding(g, on_update=on_update)
    with span("extract"):
        fmt = engine.semiring.format_value
        answer = {t: fmt(v) for t, v in sol.relation(g, engine.program.target).items()}
    return answer, instance, g, sol


def _printed(value: str):
    if value in ("true", "false"):
        return value == "true"
    return float(value)


def matches(answer: dict, reference: dict) -> bool:
    return answer.keys() == reference.keys() and all(
        _printed(v) == reference[t] for t, v in answer.items()
    )


class Loop:
    """Closed loop: runs and checks queries, counting attempts and failures."""

    def __init__(self, engine: Engine, text: str, reference: dict) -> None:
        self.engine = engine
        self.text = text
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def one(self, **kwargs):
        """Run and check one query; returns (seconds, query result or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = query(self.engine, self.text, **kwargs)
        except Exception:  # a failing query is counted, and the loop goes on
            seconds = time.perf_counter() - t0
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc()
            return seconds, None
        seconds = time.perf_counter() - t0
        if not matches(result[0], self.reference):
            self.failed += 1
            if self.failed == 1:
                print("query answer differs from the reference", file=sys.stderr)
        return seconds, result


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(w: Workload, seed: int, seconds: float) -> tuple[Loop, dict, list[str]]:
    _, engine = set_up(w)
    text = w.generate(w, random.Random(f"{w.name}:{seed}"))
    loop = Loop(engine, text, w.reference(text))
    loop.one()  # warm-up: checked and counted, not timed
    # Set-ups are spread evenly over the run, between queries, so that their
    # median samples the same machine load as the queries do.  A set-up
    # replaces semlog in sys.modules; the loop keeps its own engine.
    times, setups = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() < start + seconds:
        if not setups or len(setups) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            setups.append(set_up(w)[0])
        times.append(loop.one()[0])
    facts = text.count("\n")
    metrics = {
        "query_s.p50": statistics.median(times),
        "query_s.tail": percentile(times, TAIL_PERCENTILE),
        "facts_per_s": facts * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    beyond = sum(t > metrics["query_s.tail"] for t in times)
    notes = [
        f"queries timed: {len(times)}; query_s.tail is p{TAIL_PERCENTILE} "
        f"({beyond} samples beyond it)",
        f"facts per query: {facts}; set-ups: {len(setups)}",
    ]
    return loop, metrics, notes


def _layer_counts(tracer: Tracer, instance, g, sol, w: Workload) -> dict:
    """Counts of one traced query, read from the objects its layers returned."""
    stats = sol.stats
    canonical = tracer.results.get("solver.to_two_canonical")
    pops, stale = stats.get("popped", 0), stats.get("stale_skips", 0)
    evals = stats.get("semiring_ops", 0)
    bound = instance.m * (instance.n if w.bound == "m*n" else 1)
    return {
        "grounding.strategy_fallbacks": tracer.counts["grounding.linear_arity2.fallbacks"],
        "grounding.size": g.size,
        "grounding.atoms": len(g.symbols),
        "grounding.equations": len(g.equations),
        "grounding.size_over_bound": g.size / bound,
        "solver.canonical_size": stats.get("canonical_size", 0),
        "solver.temp_vars": canonical.num_vars() - len(g.equations) if canonical else 0,
        "solver.pops": pops,
        "solver.stale_skips": stale,
        "solver.pop_ratio": pops / (pops + stale) if pops + stale else 0.0,
        "solver.equation_evals": evals,
        "solver.max_equation_visits": stats.get("max_equation_visits", 0),
        "solver.update_ratio": tracer.counts["updates"] / evals if evals else 0.0,
        "semirings.plus_calls": tracer.counts["semirings.plus_calls"],
        "semirings.times_calls": tracer.counts["semirings.times_calls"],
    }


def per_layer(w: Workload, seed: int, seconds: float) -> tuple[Loop, dict, list[str], bool]:
    _, engine = set_up(w)
    text = w.generate(w, random.Random(f"{w.name}:{seed}"))
    loop = Loop(engine, text, w.reference(text))
    loop.one()  # warm-up

    tracer = Tracer()
    counted = tracer.counting(engine.semiring)

    def on_update(node, value):
        tracer.counts["updates"] += 1

    # Untraced and traced queries alternate, so that both see the same load
    # from the rest of the machine and their ratio is the tracing overhead.
    untraced, counts, supported = [], [], None
    deadline = time.perf_counter() + seconds
    while not counts or time.perf_counter() < deadline:
        untraced.append(loop.one()[0])
        tracer.counts.clear()
        with patched(TRACED, tracer.wrap), tracer.query(len(counts)):
            _, result = loop.one(span=tracer.span, semiring=counted, on_update=on_update)
        if result is None:
            break
        _, instance, g, sol = result
        counts.append(_layer_counts(tracer, instance, g, sol, w))
        tracer.results.clear()
        if supported is None:
            supported = engine.grounding.prune_unreachable(g).size / g.size
        del result, instance, g, sol

    probe = MemoryProbe()
    tracemalloc.start()
    try:
        with patched(MEMORY_PROBES, probe.wrap):
            loop.one()
    finally:
        tracemalloc.stop()

    queries = per_query(tracer.spans)
    traced_times = [q.total_ns / 1e9 for q in queries]
    coverage = sum(q.children_ns for q in queries) / sum(q.total_ns for q in queries)

    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    for name, names, use_self in SPAN_TIMES:
        metrics[name] = statistics.median(
            sum((q.own_ns if use_self else q.dur_ns)[n] for n in names) / 1e9 for q in queries
        )
    metrics.update(counts[0] if counts else {})
    metrics["grounding.supported_ratio"] = supported or 0.0
    for name in ("grounding.peak_mb", "solver.canonicalize_peak_mb", "solver.solve_peak_mb"):
        metrics[name] = probe.peaks_mb[name]
    metrics["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_times, untraced)
    )

    repeat = all(c == counts[0] for c in counts)
    ok = bool(counts) and repeat and coverage >= MIN_SPAN_COVERAGE
    names = sorted({n for q in queries for n in q.own_ns})
    notes = [
        f"queries: {len(untraced)} untraced, {len(traced_times)} traced, 1 under tracemalloc",
        f"counts repeat across traced queries: {repeat}",
        f"top-level layer spans cover {coverage:.4f} of the traced query time",
        "median self time per traced query:",
    ] + [
        f"  {n:32s} {statistics.median(q.own_ns[n] for q in queries) / 1e9:.6f} s"
        for n in names
    ]
    write_spans(tracer.spans, w, seed)
    return loop, metrics, notes, ok


def write_spans(spans, w: Workload, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    base = spans[0].start_ns if spans else 0
    path = OUT_DIR / f"spans-{w.name}-{seed}.jsonl"
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "name": s.name,
                "start_ns": s.start_ns - base,
                "end_ns": s.end_ns - base,
                "parent": s.parent,
                "query": s.query,
            }) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        if args.trace:
            loop, metrics, notes, ok = per_layer(w, args.seed, args.seconds)
            units = PER_LAYER_UNITS
        else:
            loop, metrics, notes = end_to_end(w, args.seed, args.seconds)
            ok, units = True, END_TO_END_UNITS
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # These are printed but not gated (see BASELINE.md): the median and the
    # mean query time depend on the share of the run the host spends slow.
    ungated = {} if args.trace else {"query_s.p50": "s", "facts_per_s": "1/s"}
    shown = {**ungated, **units, "error_rate": "ratio"}
    metrics["error_rate"] = loop.failed / loop.attempted
    for name, unit in shown.items():
        print(f"{name:32s} {metrics[name]:<14.6g} {unit}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": ok and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
