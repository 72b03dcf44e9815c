"""Seeded workload inputs and reference answers for the semlog benchmark.

Nothing here imports semlog: every reference answer is computed by code
that shares nothing with the engine it checks.  Weights are integers in
1..10 (as in ``semlog bench``), so tropical sums are exact in floats and
answers compare with ``==``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a corpus program, a semiring and a generator.

    Why each workload is in the benchmark is recorded in BENCHMARK.json.

    ``nodes`` and ``facts`` size the generated instance; ``facts`` is the
    number of facts per generated binary relation.  ``bound`` names the
    paper's grounding bound that ``grounding.size_over_bound`` divides by:
    ``"m"`` for free-connex bodies, ``"m*n"`` for the others.
    """

    name: str
    program: str
    semiring: str
    nodes: int
    facts: int
    bound: str
    generate: Callable[["Workload", random.Random], str]
    reference: Callable[[str], dict]


# ---------------------------------------------------------------------------
# Generators: seed -> facts text
# ---------------------------------------------------------------------------


def _pairs(n: int, k: int, rng: random.Random, loops: bool = True) -> list[tuple[int, int]]:
    """Exactly k distinct (a, b) pairs over range(n), sorted."""
    universe = [(a, b) for a in range(n) for b in range(n) if loops or a != b]
    return sorted(rng.sample(universe, k))


def gen_apsp(w: Workload, rng: random.Random) -> str:
    return "".join(
        f"E(v{a}, v{b}) = {rng.randint(1, 10)}.\n"
        for a, b in _pairs(w.nodes, w.facts, rng, loops=False)
    )


ANDERSEN_RELATIONS = ("AddressOf", "Assign", "Load", "Store")


def gen_andersen(w: Workload, rng: random.Random) -> str:
    lines = []
    for rel in ANDERSEN_RELATIONS:
        lines += [f"{rel}(l{a}, l{b}).\n" for a, b in _pairs(w.nodes, w.facts, rng)]
    return "".join(lines)


def gen_star(w: Workload, rng: random.Random) -> str:
    lines = []
    for rel in ("A", "B"):
        lines += [f"{rel}(v{i}) = {rng.randint(1, 10)}.\n" for i in range(w.nodes)]
    for rel in ("R14", "R24", "R34"):
        lines += [
            f"{rel}(v{a}, v{b}) = {rng.randint(1, 10)}.\n"
            for a, b in _pairs(w.nodes, w.facts, rng)
        ]
    return "".join(lines)


# ---------------------------------------------------------------------------
# References: facts text -> {tuple: value} of the target relation
# ---------------------------------------------------------------------------


def read_facts(text: str) -> dict[str, dict[tuple[str, ...], int]]:
    """Parse the generator's own line format; a missing annotation reads as 1."""
    rels: dict[str, dict[tuple[str, ...], int]] = {}
    for line in text.splitlines():
        head, _, lit = line.rstrip(".").partition("=")
        pred, _, args = head.strip().rstrip(")").partition("(")
        key = tuple(a.strip() for a in args.split(","))
        rels.setdefault(pred, {})[key] = int(lit) if lit else 1
    return rels


def ref_apsp(text: str) -> dict[tuple[str, str], int]:
    """Floyd-Warshall over non-empty paths: d[i][i] is the shortest cycle."""
    edges = read_facts(text)["E"]
    names = sorted({c for t in edges for c in t})
    idx = {c: i for i, c in enumerate(names)}
    n = len(names)
    d = [[math.inf] * n for _ in range(n)]
    for (a, b), w in edges.items():
        d[idx[a]][idx[b]] = min(d[idx[a]][idx[b]], w)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == math.inf:
                continue
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return {
        (names[i], names[j]): d[i][j]
        for i in range(n)
        for j in range(n)
        if d[i][j] != math.inf
    }


def ref_andersen(text: str) -> dict[tuple[str, str], bool]:
    """Semi-naive closure of the four Andersen rules over Python sets."""
    rels = read_facts(text)

    def index(pairs, pos):
        out: dict[str, set[str]] = {}
        for t in pairs:
            out.setdefault(t[pos], set()).add(t[1 - pos])
        return out

    assign_out = index(rels.get("Assign", {}), 0)
    load_out = index(rels.get("Load", {}), 0)
    store_out = index(rels.get("Store", {}), 0)
    store_in = index(rels.get("Store", {}), 1)
    total: set[tuple[str, str]] = set()
    t_out: dict[str, set[str]] = {}
    t_in: dict[str, set[str]] = {}
    delta = set(rels.get("AddressOf", {}))
    while delta:
        total |= delta
        for a, b in delta:
            t_out.setdefault(a, set()).add(b)
            t_in.setdefault(b, set()).add(a)
        new = set()
        for x1, x3 in delta:  # T(x1,x3), Assign(x3,x2)
            new.update((x1, x2) for x2 in assign_out.get(x3, ()))
        for x1, x4 in delta:  # dT(x1,x4), T(x4,x3), Load(x3,x2)
            for x3 in t_out.get(x4, ()):
                new.update((x1, x2) for x2 in load_out.get(x3, ()))
        for x4, x3 in delta:  # T(x1,x4), dT(x4,x3), Load(x3,x2)
            for x2 in load_out.get(x3, ()):
                new.update((x1, x2) for x1 in t_in.get(x4, ()))
        for x1, x4 in delta:  # dT(x1,x4), Store(x4,x3), T(x2,x3)
            for x3 in store_out.get(x4, ()):
                new.update((x1, x2) for x2 in t_in.get(x3, ()))
        for x2, x3 in delta:  # T(x1,x4), Store(x4,x3), dT(x2,x3)
            for x4 in store_in.get(x3, ()):
                new.update((x1, x2) for x1 in t_in.get(x4, ()))
        delta = new - total
    return {t: True for t in total}


def ref_star(text: str) -> dict[tuple[str], int]:
    """T(x1) = min over x2,x3,x4 of A(x2)+B(x3)+R24(x2,x4)+R34(x3,x4)+R14(x1,x4),
    aggregated one variable at a time in min-plus arithmetic."""
    rels = read_facts(text)
    a, b = rels["A"], rels["B"]

    def via(unary, binary):
        out: dict[str, int] = {}
        for (x, hub), w in binary.items():
            if (x,) in unary:
                cost = unary[(x,)] + w
                if cost < out.get(hub, math.inf):
                    out[hub] = cost
        return out

    left, right = via(a, rels["R24"]), via(b, rels["R34"])
    answer: dict[tuple[str], int] = {}
    for (x1, hub), w in rels["R14"].items():
        if hub in left and hub in right:
            cost = w + left[hub] + right[hub]
            if cost < answer.get((x1,), math.inf):
                answer[(x1,)] = cost
    return answer


# Sizes are scaled so one query takes about 0.15-0.3 s on a 2-core x86 VM
# with Python 3.11: a 40 s run then holds well over 100 queries, enough for
# a p90 with at least ten samples beyond it.  Each keeps the fact density
# and the layer mix of the larger instance it stands for (see BASELINE.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="apsp-dense",
            program="apsp",
            semiring="tropical",
            nodes=28,
            facts=224,  # out-degree 8, as n=100 at density 0.08
            bound="m*n",
            generate=gen_apsp,
            reference=ref_apsp,
        ),
        Workload(
            name="andersen-points-to",
            program="andersen",
            semiring="boolean",
            nodes=16,
            facts=48,  # 0.1875 n^2 per relation, as 300 over 40 locations
            bound="m*n",
            generate=gen_andersen,
            reference=ref_andersen,
        ),
        Workload(
            name="star-wide",
            program="ex51_star",
            semiring="tropical",
            nodes=128,
            facts=2048,  # 0.125 n^2 per relation, as 8192 over 256 nodes
            bound="m",
            generate=gen_star,
            reference=ref_star,
        ),
    )
}
