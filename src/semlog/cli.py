"""Command-line surface: run, ground, check, bench, classify.

Exit codes: 0 success; 2 parse/validation or usage error; 3 solver
capability error; 4 grounding cap exceeded; 5 non-convergence; 6 cross-check
disagreement.  Any other exception is a bug: it propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import statistics
import sys
import time
from typing import Optional

from . import CORPUS_ALL, corpus_text
from .frontend import (
    FrontendError,
    Instance,
    build_instance,
    check_instance_against,
    classify,
    parse_facts,
    parse_program,
)
from .decomposition import CyclicVerdict, build_hypergraph, dump_tree, gyo_join_tree
from .grounding import (
    CapExceeded,
    CyclicRuleError,
    STRATEGIES,
    ground_program,
)
from .semirings import UserInputError, semiring_from_token
from .solver import (
    METHODS,
    NonConvergence,
    SolverCapabilityError,
    applicable_methods,
    kleene_program,
    solve_grounding,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPABILITY = 3
EXIT_CAP_EXCEEDED = 4
EXIT_NONCONVERGENCE = 5
EXIT_DISAGREEMENT = 6

EXIT_CODE_HELP = (
    "exit codes: 0 success, 2 parse/validation or usage error (unreadable "
    "file, unknown corpus program, semiring, bench family or size), 3 solver "
    "capability error, 4 grounding size cap exceeded, 5 non-convergence, "
    "6 cross-check disagreement; an internal error exits 1 with a traceback"
)


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UserInputError(f"{path}: not a text file ({exc.reason})") from exc


def _load_program_text(token: str) -> str:
    if token.startswith("corpus:"):
        return corpus_text(token.split(":", 1)[1])
    return _read_text(token)


def _load_inputs(args: argparse.Namespace):
    program = parse_program(_load_program_text(args.program))
    sr = semiring_from_token(args.semiring)
    if args.facts is None:
        instance = build_instance({}, sr)
    else:
        instance = parse_facts(_read_text(args.facts), sr)
    check_instance_against(program, instance)
    return program, instance


_NEEDS_QUOTES = re.compile(r"[\s,()%]").search


def _format_atom(symbol: str, args: tuple[str, ...]) -> str:
    """The atom in fact-file syntax: a constant holding ``,``, ``(``, ``)``,
    ``%`` or whitespace is double-quoted, so distinct tuples print apart."""
    quoted = (f'"{a}"' if _NEEDS_QUOTES(a) else a for a in args)
    return f"{symbol}({','.join(quoted)})"


def _stats_lines(stats: dict) -> list[str]:
    """The TSV form of `run`'s stats record: a line per key, unset keys left out."""
    out = []
    for key, value in stats.items():
        if key == "strategies":
            out += [f"strategy\t{b['rule']}[{b['body']}]\t{b['strategy']}" for b in value]
        elif key == "wall_time":
            out.append(f"wall_time\t{value:.4f}")
        elif value is not None:
            out.append(f"{key}\t{value}")
    return out


def cmd_run(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    program, instance = _load_inputs(args)
    g, report = ground_program(
        program, instance, strategy=args.strategy, cap=args.cap_size
    )
    sol = solve_grounding(g, method=args.solver, max_iters=args.max_iters)
    rel = sol.relation(g, program.target)
    stats = {
        "m": instance.m,
        "n": instance.n,
        "grounding_size": g.size,
        "canonical_size": sol.stats.get("canonical_size"),
        "strategies": [
            {"rule": b.rule, "body": b.body, "strategy": b.strategy} for b in report
        ],
        "solver": sol.method,
        **{
            k: sol.stats[k]
            for k in ("popped", "evaluated", "semiring_ops", "iterations")
            if k in sol.stats
        },
        "wall_time": time.perf_counter() - t0,
    }
    if args.output == "structured":
        doc = {
            "target": program.target,
            "relation": {
                _format_atom(program.target, t): instance.semiring.format_value(v)
                for t, v in sorted(rel.items())
            },
            "stats": stats,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for t in sorted(rel):
            print(f"{_format_atom(program.target, t)}\t{instance.semiring.format_value(rel[t])}")
        for line in _stats_lines(stats):
            print(line, file=sys.stderr)
    return EXIT_OK


def cmd_ground(args: argparse.Namespace) -> int:
    program, instance = _load_inputs(args)
    g, report = ground_program(
        program, instance, strategy=args.strategy, cap=args.cap_size
    )
    # Under `structured` stdout holds one JSON document, so the explanation
    # goes to stderr, as `run`'s stats do.
    out = sys.stderr if args.output == "structured" else sys.stdout
    if args.explain:
        for rule in program.rules:
            for bi, body in enumerate(rule.bodies):
                tree = gyo_join_tree(build_hypergraph(body))
                print(f"% rule {rule.head_pred} body {bi}:", file=out)
                if isinstance(tree, CyclicVerdict):
                    print("%   cyclic; residue edges:", [e.id for e in tree.residue], file=out)
                else:
                    chosen = next(
                        b for b in report if b.rule == rule.head_pred and b.body == bi
                    )
                    print(f"%   strategy {chosen.strategy}", file=out)
                    if chosen.root is not None:
                        for line in dump_tree(tree, chosen.root).splitlines():
                            print(f"%   {line}", file=out)
    if args.output == "structured":
        print(json.dumps(g.to_record(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(g.to_text())
    return EXIT_OK


def cmd_check(args: argparse.Namespace, max_n: int = 12) -> int:
    program, instance = _load_inputs(args)
    if instance.n > max_n:
        print(
            f"check requires n <= {max_n} (got {instance.n}): "
            "the reference evaluation is exponential in rule width",
            file=sys.stderr,
        )
        return EXIT_PARSE
    oracle = kleene_program(program, instance)[program.target]
    rows = []
    ok = True
    first_diff = None
    for strategy in ("naive", "acyclic", "auto"):
        try:
            g, _ = ground_program(program, instance, strategy=strategy)
        except CyclicRuleError:
            rows.append((strategy, "-", "cyclic"))
            continue
        for method in applicable_methods(instance.semiring):
            sol = solve_grounding(g, method=method, max_iters=args.max_iters)
            rel = sol.relation(g, program.target)
            agree = rel == oracle
            rows.append((strategy, method, "agree" if agree else "DISAGREE"))
            if not agree and first_diff is None:
                ok = False
                diff_keys = set(rel) ^ set(oracle)
                diff_keys |= {k for k in set(rel) & set(oracle) if rel[k] != oracle[k]}
                first_diff = _format_atom(program.target, min(diff_keys))
    print(f"oracle: kleene_program on {program.target} ({len(oracle)} tuples)")
    for strategy, method, verdict in rows:
        print(f"{strategy}\t{method}\t{verdict}")
    if not ok:
        print(f"first differing atom: {first_diff}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    program = parse_program(_load_program_text(args.program))
    for key, value in classify(program).as_dict().items():
        print(f"{key}\t{str(value).lower()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Bench
# ---------------------------------------------------------------------------


def gen_path(n: int, rng: random.Random) -> list[tuple[str, str, int]]:
    nodes = [f"v{i}" for i in range(n)]
    return [(nodes[i], nodes[i + 1], rng.randint(1, 10)) for i in range(n - 1)]


def gen_random_graph(n: int, m: int, rng: random.Random) -> list[tuple[str, str, int]]:
    nodes = [f"v{i}" for i in range(n)]
    m = min(m, n * n)
    seen = set()
    while len(seen) < m:
        seen.add((rng.randrange(n), rng.randrange(n)))
    return [(nodes[a], nodes[b], rng.randint(1, 10)) for a, b in sorted(seen)]


def gen_grid(k: int, rng: random.Random) -> list[tuple[str, str, int]]:
    def name(i, j):
        return f"v{i}_{j}"

    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append((name(i, j), name(i, j + 1), rng.randint(1, 10)))
            if i + 1 < k:
                edges.append((name(i, j), name(i + 1, j), rng.randint(1, 10)))
    return edges


def build_bench_instance(program, family: str, size: int, semiring, rng, nodes=None) -> Instance:
    """Random instance for one bench cell.

    Every binary EDB receives an independently drawn edge set of ~`size`
    facts; unary EDBs cover all generated nodes with the multiplicative
    identity, so instance.m reflects the realized total.
    """
    if family == "path":
        make = lambda: gen_path(size + 1, rng)
    elif family == "grid":
        k = max(2, int(math.isqrt(size // 2)) + 1)
        make = lambda: gen_grid(k, rng)
    elif family == "random-graph":
        n = nodes if nodes is not None else max(4, 2 * int(math.isqrt(size)))
        make = lambda: gen_random_graph(n, size, rng)
    else:
        raise UserInputError(f"unknown bench family {family!r}")

    def annot(w):
        if semiring.name == "tropical":
            return float(w)
        if semiring.name == "naturals":
            return 1
        return semiring.one

    relations: dict[str, dict[tuple[str, ...], object]] = {}
    all_nodes: set[str] = set()
    for pred, arity in sorted(program.edb_schema.items()):
        if arity == 2:
            rel = {}
            for a, b, w in make():
                rel[(a, b)] = annot(w)
                all_nodes.update((a, b))
            relations[pred] = rel
    for pred, arity in sorted(program.edb_schema.items()):
        if arity == 1:
            relations[pred] = {(v,): semiring.one for v in sorted(all_nodes)}
        elif arity != 2:
            raise UserInputError(f"bench cannot generate arity-{arity} EDB {pred}")
    return build_instance(relations, semiring)


def parse_sizes(text: str) -> list[int]:
    """The `--sizes` schedule: comma-separated positive integers."""
    try:
        sizes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise UserInputError(f"--sizes wants comma-separated positive integers, got {text!r}")
    return sizes


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    return statistics.linear_regression(lx, ly).slope


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = parse_sizes(args.sizes)
    if args.nodes is not None and args.nodes < 1:
        raise UserInputError(f"--nodes wants a positive integer, got {args.nodes}")
    program = parse_program(_load_program_text(args.program))
    sr = semiring_from_token(args.semiring)
    family = args.family
    print("index,family,size,m,n,grounding_size,canonical_size,solver,wall_time,status")
    rows = []
    for idx, size in enumerate(sizes):
        rng = random.Random(f"{args.seed}:{family}:{size}")
        instance = build_bench_instance(program, family, size, sr, rng, args.nodes)
        t0 = time.perf_counter()
        try:
            g, _ = ground_program(program, instance, strategy=args.strategy, cap=args.cap_size)
            sol = solve_grounding(g, method=args.solver, max_iters=args.max_iters)
        except CapExceeded:
            print(f"{idx},{family},{size},{instance.m},{instance.n},,,,"
                  f"{time.perf_counter() - t0:.4f},cap-exceeded")
            continue
        wall = time.perf_counter() - t0
        csize = sol.stats.get("canonical_size", "")
        print(
            f"{idx},{family},{size},{instance.m},{instance.n},{g.size},"
            f"{csize},{sol.method},{wall:.4f},ok"
        )
        rows.append((instance.m, instance.n, g.size))
    gs = [r[2] for r in rows]
    for label, xs in (
        ("m", [m for m, _, _ in rows]),
        ("n", [n for _, n, _ in rows]),
        ("m*n", [m * n for m, n, _ in rows]),
    ):
        if len(set(xs)) >= 2:  # a slope needs two distinct sizes
            print(f"slope |G| vs {label}: {loglog_slope(xs, gs):.3f}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


FLAGS = {
    "program": dict(required=True,
                    help="program file path or corpus:<name> "
                         f"(corpus: {', '.join(CORPUS_ALL)})"),
    "facts": dict(help="fact file (one annotated fact per line)"),
    "semiring": dict(default="boolean",
                     help="boolean | tropical | naturals | set:<k1,...> | access"),
    "strategy": dict(default="auto", choices=STRATEGIES),
    "solver": dict(default="auto", choices=METHODS),
    "max-iters": dict(type=int, default=None),
    "output": dict(default="tsv", choices=("tsv", "structured")),
    "cap-size": dict(type=int, default=None, help="abort grounding beyond this size"),
    "explain": dict(action="store_true"),
    "seed": dict(type=int, default=0),
    "family": dict(default="path", choices=("path", "random-graph", "grid")),
    "sizes": dict(default="1024,2048,4096", help="comma-separated size schedule"),
    "nodes": dict(type=int, default=None, help="fix the node count for random-graph"),
}

# Each subcommand: its function, and exactly the flags it reads.
COMMANDS = {
    "run": (cmd_run, ("program", "facts", "semiring", "strategy", "solver",
                      "max-iters", "output", "cap-size")),
    "ground": (cmd_ground, ("program", "facts", "semiring", "strategy", "cap-size",
                            "output", "explain")),
    "check": (cmd_check, ("program", "facts", "semiring", "max-iters")),
    "classify": (cmd_classify, ("program",)),
    "bench": (cmd_bench, ("program", "semiring", "strategy", "solver", "max-iters",
                          "cap-size", "seed", "family", "sizes", "nodes")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="semlog", epilog=EXIT_CODE_HELP)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, flags) in COMMANDS.items():
        p = sub.add_parser(command, epilog=EXIT_CODE_HELP)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except (UserInputError, FrontendError, OSError, CyclicRuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SolverCapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
