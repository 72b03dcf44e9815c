"""Hypergraphs, GYO reduction, join trees, rooting and free-connexity."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .frontend import Atom, SumProdQuery


@dataclass(frozen=True)
class Hyperedge:
    id: int
    vertices: frozenset[int]
    atom: "Atom"


@dataclass(frozen=True)
class Hypergraph:
    num_vertices: int
    edges: tuple[Hyperedge, ...]


@dataclass(frozen=True)
class CyclicVerdict:
    """GYO got stuck; `residue` is the irreducible remaining edge set."""

    residue: tuple[Hyperedge, ...]


@dataclass
class JoinTree:
    """One node per hyperedge; bags are exactly the hyperedge vertex sets."""

    nodes: tuple[Hyperedge, ...]
    adj: dict[int, list[int]]

    def rooted_at(self, root: int) -> tuple[dict[int, Optional[int]], dict[int, list[int]], list[int]]:
        """BFS orientation: (parent, children, preorder)."""
        parent: dict[int, Optional[int]] = {root: None}
        children: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        order = [root]
        q = deque([root])
        while q:
            u = q.popleft()
            for v in self.adj[u]:
                if v not in parent:
                    parent[v] = u
                    children[u].append(v)
                    order.append(v)
                    q.append(v)
        return parent, children, order


def build_hypergraph(query: "SumProdQuery") -> Hypergraph:
    """One hyperedge per atom occurrence; duplicates keep distinct ids."""
    edges = tuple(
        Hyperedge(i, atom.vars, atom) for i, atom in enumerate(query.atoms)
    )
    return Hypergraph(num_vertices=query.num_vars, edges=edges)


def gyo_join_tree(h: Hypergraph) -> JoinTree | CyclicVerdict:
    """GYO ear removal; a JoinTree iff the hypergraph is acyclic.

    Deterministic: edges contained in other edges are attached first
    (ascending id), then ears are removed lowest-id first; the witness is
    the highest-id candidate.
    """
    adj: dict[int, list[int]] = {e.id: [] for e in h.edges}
    active = {e.id: e for e in h.edges}

    def attach(child: int, parent: int) -> None:
        adj[child].append(parent)
        adj[parent].append(child)
        del active[child]

    # Containment pass: redundant edges become children of a containing edge.
    for e in sorted(active.values(), key=lambda e: e.id):
        hosts = [
            w for w in active.values() if w.id != e.id and e.vertices <= w.vertices
        ]
        if hosts:
            attach(e.id, max(hosts, key=lambda w: w.id).id)

    # Ear removal on the remaining pairwise-incomparable edges.
    while len(active) > 1:
        removed = False
        for e in sorted(active.values(), key=lambda e: e.id):
            others = [w for w in active.values() if w.id != e.id]
            covered = e.vertices & frozenset().union(*(w.vertices for w in others))
            witnesses = [w for w in others if covered <= w.vertices]
            if witnesses:
                attach(e.id, max(witnesses, key=lambda w: w.id).id)
                removed = True
                break
        if not removed:
            return CyclicVerdict(tuple(sorted(active.values(), key=lambda e: e.id)))

    return JoinTree(nodes=h.edges, adj=adj)


def verify_running_intersection(tree: JoinTree) -> bool:
    """Independent check: each variable's nodes form a connected subtree."""
    all_vars = frozenset().union(*(n.vertices for n in tree.nodes)) if tree.nodes else frozenset()
    for v in all_vars:
        holders = {n.id for n in tree.nodes if v in n.vertices}
        start = next(iter(holders))
        seen = {start}
        q = deque([start])
        while q:
            u = q.popleft()
            for w in tree.adj[u]:
                if w in holders and w not in seen:
                    seen.add(w)
                    q.append(w)
        if seen != holders:
            return False
    return True


def choose_root(tree: JoinTree, head_vars: frozenset[int]) -> int:
    """Node whose bag meets the head variables maximally; ties to lowest id."""
    if not head_vars:
        return 0
    best = max(tree.nodes, key=lambda n: (len(n.vertices & head_vars), -n.id))
    return best.id


def top_map(tree: JoinTree, root: int) -> dict[int, int]:
    """TOP_r(v): the node closest to the root whose bag contains v."""
    parent, _, order = tree.rooted_at(root)
    depth = {root: 0}
    for u in order[1:]:
        depth[u] = depth[parent[u]] + 1
    tops: dict[int, int] = {}
    for n in tree.nodes:
        for v in n.vertices:
            if v not in tops or depth[n.id] < depth[tops[v]]:
                tops[v] = n.id
    return tops


def is_free_connex_rooting(tree: JoinTree, root: int, head_vars: frozenset[int]) -> bool:
    """No non-head variable's TOP node is a proper ancestor of a head one's."""
    parent, _, _ = tree.rooted_at(root)
    tops = top_map(tree, root)
    all_vars = set(tops)

    def proper_ancestor(a: int, b: int) -> bool:
        cur = parent[b]
        while cur is not None:
            if cur == a:
                return True
            cur = parent[cur]
        return False

    for y in all_vars - head_vars:
        for x in head_vars & all_vars:
            if proper_ancestor(tops[y], tops[x]):
                return False
    return True


def free_connex_root(tree: JoinTree, head_vars: frozenset[int]) -> Optional[int]:
    """First node id (ascending) whose rooting is free-connex, else None."""
    for n in tree.nodes:
        if is_free_connex_rooting(tree, n.id, head_vars):
            return n.id
    return None


def dump_tree(tree: JoinTree, root: int) -> str:
    """Indented text rendering used by `ground --explain`."""
    _, children, _ = tree.rooted_at(root)
    lines: list[str] = []

    def walk(u: int, depth: int) -> None:
        atom = tree.nodes[u].atom
        args = ",".join(f"v{i}" for i in atom.args)
        lines.append("  " * depth + f"{atom.pred}({args})")
        for c in children[u]:
            walk(c, depth + 1)

    walk(root, 0)
    return "\n".join(lines)
