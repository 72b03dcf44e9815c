"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the engine: textbook
Floyd-Warshall / Dijkstra / Warshall implementations and a brute-force
assignment enumerator, so agreement is meaningful.
"""

import math
import heapq
import itertools
import random

from semlog import build_instance


def floyd_warshall(nodes, edges):
    """Min-plus closure over paths with >= 1 edge: {(a, b): dist}."""
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    inf = math.inf
    d = [[inf] * n for _ in range(n)]
    for (a, b), w in edges.items():
        i, j = idx[a], idx[b]
        d[i][j] = min(d[i][j], w)
    for k in range(n):
        for i in range(n):
            if d[i][k] == inf:
                continue
            for j in range(n):
                v = d[i][k] + d[k][j]
                if v < d[i][j]:
                    d[i][j] = v
    return {
        (nodes[i], nodes[j]): d[i][j]
        for i in range(n)
        for j in range(n)
        if d[i][j] < inf
    }


def dijkstra(edges, source):
    """Single-source distances, source included at 0: {node: dist}."""
    adj = {}
    for (a, b), w in edges.items():
        adj.setdefault(a, []).append((b, w))
    dist = {source: 0.0}
    pq = [(0.0, source)]
    while pq:
        dv, v = heapq.heappop(pq)
        if dv > dist.get(v, math.inf):
            continue
        for u, w in adj.get(v, []):
            nd = dv + w
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return dist


def warshall(edges):
    """Boolean transitive closure (>= 1 edge) as a set of pairs."""
    nodes = sorted({c for e in edges for c in e})
    reach = {v: {b for (a, b) in edges if a == v} for v in nodes}
    for k in nodes:
        for i in nodes:
            if k in reach[i]:
                reach[i] |= reach[k]
    return {(a, b) for a in nodes for b in reach[a]}


def brute_force_fixpoint(program, instance, max_iters=200):
    """Assignment-enumeration reference: no joins, no grounding.

    Iterates every rule body over all domain^vars assignments, reading
    absent tuples as the additive identity.
    """
    sr = instance.semiring
    dom = instance.active_domain
    cur = {p: {} for p in program.idb_schema}
    for _ in range(max_iters):
        rels = dict(instance.relations)
        rels.update(cur)
        nxt = {p: {} for p in program.idb_schema}
        for rule in program.rules:
            out = nxt[rule.head_pred]
            for body in rule.bodies:
                for combo in itertools.product(dom, repeat=body.num_vars):
                    prod = sr.one
                    for atom in body.atoms:
                        t = tuple(combo[v] for v in atom.args)
                        val = rels.get(atom.pred, {}).get(t, sr.zero)
                        prod = sr.times_fn(prod, val)
                        if prod == sr.zero:
                            break
                    if prod != sr.zero:
                        key = tuple(combo[v] for v in body.head_vars)
                        out[key] = sr.plus_fn(out[key], prod) if key in out else prod
        if nxt == cur:
            return cur
        cur = nxt
    raise AssertionError("brute-force reference did not converge")


def random_instance(program, sr, rng, nmax=6, wmax=10):
    """Random small instance over the program's EDB schema."""
    n = rng.randint(2, nmax)
    dom = [f"c{i}" for i in range(n)]
    rels = {}
    for pred, arity in program.edb_schema.items():
        cnt = rng.randint(0, min(n ** arity, max(2, 2 * n)))
        rel = {}
        for _ in range(cnt):
            t = tuple(rng.choice(dom) for _ in range(arity))
            if sr.name == "tropical":
                rel[t] = float(rng.randint(1, wmax))
            elif sr.name == "boolean":
                rel[t] = True
            elif sr.name == "access":
                rel[t] = rng.choice(["P", "C", "S", "T"])
            elif sr.name == "naturals":
                rel[t] = rng.randint(1, 3)
            elif sr.name.startswith("set:"):  # a random non-empty subset
                universe = sorted(sr.one)
                rel[t] = frozenset(rng.sample(universe, rng.randint(1, len(universe))))
            else:
                rel[t] = sr.one
        if rel:
            rels[pred] = rel
    return build_instance(rels, sr)


def random_digraph(n, density, rng, wmax=10, prefix="v"):
    nodes = [f"{prefix}{i:03d}" for i in range(n)]
    edges = {}
    for a in nodes:
        for b in nodes:
            if rng.random() < density:
                edges[(a, b)] = float(rng.randint(1, wmax))
    return nodes, edges
