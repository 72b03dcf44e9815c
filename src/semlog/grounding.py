"""Grounding a program + instance into a system of polynomial equations.

Three strategies: naive enumeration over the active domain, the join-tree
recursion for acyclic bodies (optionally rooted free-connex), and the
specialized construction for linear bodies when every IDB has arity <= 2.
All strategies write into the same `Grounding` sink so rules can mix.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .decomposition import (
    CyclicVerdict,
    Hyperedge,
    JoinTree,
    build_hypergraph,
    choose_root,
    free_connex_root,
    gyo_join_tree,
)
from .frontend import Atom, Instance, Program, Rule, SumProdQuery

KIND_COEFF = 0
KIND_VAR = 1


class GroundingError(Exception):
    pass


class CapExceeded(GroundingError):
    def __init__(self, size: int, cap: int):
        super().__init__(f"grounding size {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


class CyclicRuleError(GroundingError):
    pass


class StrategyNotApplicable(GroundingError):
    pass


class Grounding:
    """Interned ground atoms plus equations: IDB variable -> sum of monomials.

    Atoms are indexed per symbol (`_index[symbol][args]` is the atom id), so
    a lookup hashes only the argument tuple.  A monomial is a tuple of atom
    ids in rule-body order.  `size` counts every coefficient/variable
    occurrence plus one per left-hand side; it is kept up to date by
    `ensure_equation` and `add_monomial`, the only writers of `equations`.
    """

    def __init__(self, semiring, cap: Optional[int] = None):
        self.semiring = semiring
        self.cap = cap
        self._index: dict[str, dict[tuple[str, ...], int]] = {}
        self.symbols: list[str] = []
        self.tuples: list[tuple[str, ...]] = []
        self.kinds: list[int] = []
        self.values: list[object] = []
        self.equations: dict[int, list[tuple[int, ...]]] = {}
        self.size = 0

    # -- interning ---------------------------------------------------------

    def _intern(self, symbol: str, args: tuple[str, ...], kind: int, value=None) -> int:
        index = self._index.get(symbol)
        if index is None:
            index = self._index[symbol] = {}
        aid = index.get(args)
        if aid is None:
            aid = index[args] = len(self.symbols)
            self.symbols.append(symbol)
            self.tuples.append(args)
            self.kinds.append(kind)
            self.values.append(value)
        elif self.kinds[aid] != kind:
            raise GroundingError(f"atom {symbol}{args} interned with both kinds")
        return aid

    def intern_var(self, symbol: str, args: tuple[str, ...]) -> int:
        return self._intern(symbol, args, KIND_VAR)

    def intern_coeff(self, symbol: str, args: tuple[str, ...], value) -> int:
        return self._intern(symbol, args, KIND_COEFF, value)

    def atom_name(self, aid: int) -> str:
        prefix = "x" if self.kinds[aid] == KIND_VAR else "e"
        parts = (self.symbols[aid],) + self.tuples[aid]
        return prefix + "_" + "_".join(parts)

    # -- equation building -------------------------------------------------

    def ensure_equation(self, head: int) -> None:
        if head not in self.equations:
            self.equations[head] = []
            self._grow(1)

    def add_monomial(self, head: int, mono: Iterable[int]) -> None:
        mono = tuple(mono)
        if head in self.equations:
            self.equations[head].append(mono)
            self._grow(len(mono))
        else:
            self.equations[head] = [mono]
            self._grow(1 + len(mono))

    def _grow(self, amount: int) -> None:
        self.size += amount
        if self.cap is not None and self.size > self.cap:
            raise CapExceeded(self.size, self.cap)

    def finalize(self) -> "Grounding":
        """Give every referenced IDB variable an equation (empty RHS = zero)."""
        for aid, kind in enumerate(self.kinds):
            if kind == KIND_VAR:
                self.ensure_equation(aid)
        return self

    def flat_monomials(self):
        """Dowling-Gallier counter setup: parallel `heads`/`monos`, one per
        monomial; `uses`, variable -> monomial per occurrence; `waiting`, each
        monomial's variable operands with multiplicity."""
        kinds = self.kinds
        heads = [head for head, monos in self.equations.items() for _ in monos]
        monos = [mono for head_monos in self.equations.values() for mono in head_monos]
        uses: list[list[int]] = [[] for _ in kinds]
        waiting: list[int] = []
        for m, mono in enumerate(monos):
            count = 0
            for a in mono:
                if kinds[a] == KIND_VAR:
                    uses[a].append(m)
                    count += 1
            waiting.append(count)
        return heads, monos, uses, waiting

    # -- output ------------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for head in sorted(self.equations, key=self.atom_name):
            monos = self.equations[head]
            if monos:
                rhs = " + ".join(
                    " * ".join(self.atom_name(a) for a in mono) for mono in monos
                )
            else:
                rhs = "0"
            lines.append(f"{self.atom_name(head)} = {rhs} ;")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_record(self) -> dict:
        return {
            "semiring": self.semiring.name,
            "size": self.size,
            "equations": {
                self.atom_name(head): [
                    [self.atom_name(a) for a in mono] for mono in monos
                ]
                for head, monos in sorted(
                    self.equations.items(), key=lambda kv: self.atom_name(kv[0])
                )
            },
        }


# ---------------------------------------------------------------------------
# Naive grounding
# ---------------------------------------------------------------------------


def _enumerate_body(i: int, asg: dict[int, str], atoms, rels, facts, domain, callback):
    """Backtracking enumeration of the assignments satisfying atoms[i:].

    EDB atoms iterate their relation's facts in `facts` (sorted once per
    body; absent tuples annihilate the product); IDB atoms range over the
    active domain.  `callback` sees each complete assignment dict,
    extending `asg`.
    """
    if i == len(atoms):
        callback(asg)
        return
    atom = atoms[i]
    if not atom.is_idb:
        if all(v in asg for v in atom.args):
            if tuple(asg[v] for v in atom.args) in rels.get(atom.pred, {}):
                _enumerate_body(i + 1, asg, atoms, rels, facts, domain, callback)
            return
        for fact in facts[atom.pred]:
            trail = []
            ok = True
            for v, c in zip(atom.args, fact):
                if v in asg:
                    if asg[v] != c:
                        ok = False
                        break
                else:
                    asg[v] = c
                    trail.append(v)
            if ok:
                _enumerate_body(i + 1, asg, atoms, rels, facts, domain, callback)
            for v in trail:
                del asg[v]
    else:
        unbound = sorted({v for v in atom.args if v not in asg})
        for combo in itertools.product(domain, repeat=len(unbound)):
            for v, c in zip(unbound, combo):
                asg[v] = c
            _enumerate_body(i + 1, asg, atoms, rels, facts, domain, callback)
            for v in unbound:
                del asg[v]


def _ground_body_naive(
    rule: Rule, body: SumProdQuery, instance: Instance, g: Grounding
) -> None:
    domain = instance.active_domain
    rels = instance.relations
    facts = {a.pred: sorted(rels.get(a.pred, {})) for a in body.atoms if not a.is_idb}

    def emit(asg: dict[int, str]):
        mono = []
        for atom in body.atoms:
            t = tuple(asg[v] for v in atom.args)
            if atom.is_idb:
                mono.append(g.intern_var(atom.pred, t))
            else:
                mono.append(g.intern_coeff(atom.pred, t, rels[atom.pred][t]))
        head = g.intern_var(rule.head_pred, tuple(asg[v] for v in body.head_vars))
        g.add_monomial(head, mono)

    _enumerate_body(0, {}, body.atoms, rels, facts, domain, emit)


def ground_naive(
    program: Program, instance: Instance, cap: Optional[int] = None
) -> Grounding:
    """Replace variables by all active-domain constants, dropping monomials
    annihilated by absent EDB facts; every IDB ground instance gets an
    equation even when its RHS is empty."""
    g = Grounding(instance.semiring, cap=cap)
    domain = instance.active_domain
    for sym, arity in program.idb_schema.items():
        for t in itertools.product(domain, repeat=arity):
            g.ensure_equation(g.intern_var(sym, t))
    for rule in program.rules:
        for body in rule.bodies:
            _ground_body_naive(rule, body, instance, g)
    return g.finalize()


# ---------------------------------------------------------------------------
# Acyclic grounding (join-tree recursion)
# ---------------------------------------------------------------------------


def _picker(positions: Sequence[int]):
    """A function taking a row to the tuple of its values at `positions`."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def _node_rows(node: Hyperedge, bagvars: tuple[int, ...], domain, relations):
    """Yield (the node's values in `bagvars` order, EDB value or None).

    An IDB node ranges over domain^bag; an EDB node reads its sorted facts,
    keeping those that agree on every repeated variable.
    """
    atom = node.atom
    if atom.is_idb:
        for row in itertools.product(domain, repeat=len(bagvars)):
            yield row, None
        return
    args = atom.args
    first = [args.index(v) for v in args]
    checks = [(i, j) for j, i in enumerate(first) if i != j]
    pick = None if args == bagvars else _picker([args.index(v) for v in bagvars])
    rel = relations.get(atom.pred, {})
    for fact in sorted(rel):
        if all(fact[i] == fact[j] for i, j in checks):
            yield (fact if pick is None else pick(fact)), rel[fact]


def _collect_subtree(children: dict[int, list[int]], root: int) -> list[int]:
    """The subtree's nodes breadth-first, so each comes after its parent."""
    order = [root]
    for u in order:
        order.extend(children[u])
    return order


def _subtree_head_vars(
    root: int, children: dict[int, list[int]], nodes: Sequence[Hyperedge], head_set
) -> dict[int, frozenset[int]]:
    h_sub: dict[int, frozenset[int]] = {}
    for u in reversed(_collect_subtree(children, root)):
        acc = nodes[u].vertices & head_set
        for c in children[u]:
            acc |= h_sub[c]
        h_sub[u] = acc
    return h_sub


def _ground_tree(
    root: int,
    nodes: Sequence[Hyperedge],
    children: dict[int, list[int]],
    head_pred: str,
    head_args: tuple[int, ...],
    head_set: frozenset[int],
    domain,
    relations,
    g: Grounding,
    fresh_prefix: str,
) -> None:
    """Refactor/Ground/Recurse along a rooted join tree.

    `nodes` is indexed by node id.  Each tree edge (s, t) introduces the
    fresh IDB named ``<fresh_prefix>_e<s>_<t>`` over (bag(s) & bag(t)) | H_t.
    """
    h_sub = _subtree_head_vars(root, children, nodes, head_set)
    intern_var, intern_coeff = g.intern_var, g.intern_coeff
    add_monomial = g.add_monomial
    stack = [(root, head_pred, head_args)]
    while stack:
        s, pred, args = stack.pop()
        node = nodes[s]
        bag, atom = node.vertices, node.atom
        e_st = {
            t: tuple(sorted((bag & nodes[t].vertices) | h_sub[t]))
            for t in children[s]
        }
        fresh = {t: f"{fresh_prefix}_e{s}_{t}" for t in children[s]}
        bagvars = tuple(sorted(bag))
        extra = tuple(sorted(set().union(*e_st.values()) - bag))

        # Each row holds the values of bagvars + extra; every atom the
        # node interns reads its arguments through a fixed picker.
        pos = {v: i for i, v in enumerate(bagvars + extra)}
        head_of = _picker([pos[v] for v in args])
        own_pred, own_idb = atom.pred, atom.is_idb
        own_of = _picker([pos[v] for v in atom.args])
        kids = [(fresh[t], _picker([pos[v] for v in e_st[t]])) for t in children[s]]
        combos = list(itertools.product(domain, repeat=len(extra)))
        for base, value in _node_rows(node, bagvars, domain, relations):
            for combo in combos:
                row = base + combo
                head = intern_var(pred, head_of(row))
                if own_idb:
                    own = intern_var(own_pred, own_of(row))
                else:
                    own = intern_coeff(own_pred, own_of(row), value)
                add_monomial(head, [own] + [intern_var(f, pick(row)) for f, pick in kids])

        # Depth-first pre-order, children left to right.
        stack.extend((t, fresh[t], e_st[t]) for t in reversed(children[s]))


def ground_acyclic_rule(
    body: SumProdQuery,
    tree: JoinTree,
    root: int,
    instance: Instance,
    g: Grounding,
    head_pred: str,
    rule_tag: str,
) -> None:
    """Ground one acyclic sum-prod body along a rooted join tree."""
    _, children, _ = tree.rooted_at(root)
    _ground_tree(
        root,
        tree.nodes,
        children,
        head_pred,
        body.head_vars,
        body.head_set,
        instance.active_domain,
        instance.relations,
        g,
        f"__u_r{rule_tag}",
    )


# ---------------------------------------------------------------------------
# Linear, arity <= 2 construction
# ---------------------------------------------------------------------------


def _eval_edb_tree(
    root: int,
    nodes: Sequence[Hyperedge],
    children: dict[int, list[int]],
    out_vars: tuple[int, ...],
    semiring,
    relations,
) -> dict[tuple[str, ...], object]:
    """Directly evaluate an EDB-only subtree, aggregated onto `out_vars`.

    Bottom-up join of each node's facts with its children's messages; the
    sum over eliminated variables distributes through the products.
    """
    bagvars = tuple(sorted(nodes[root].vertices))
    rel = _eval_edb_node(root, nodes, children, semiring, relations)
    out = _sum_onto(rel, bagvars, out_vars, semiring.plus_fn)
    return {k: v for k, v in out.items() if v != semiring.zero}


def _sum_onto(rel: dict, bagvars: tuple[int, ...], out_vars: tuple[int, ...], plus) -> dict:
    """Sum `rel`, keyed in `bagvars` order, onto the `out_vars` columns."""
    pick = _picker([bagvars.index(v) for v in out_vars])
    out: dict[tuple[str, ...], object] = {}
    for key, v in rel.items():
        pkey = pick(key)
        out[pkey] = plus(out[pkey], v) if pkey in out else v
    return out


def _eval_edb_node(
    u: int, nodes, children, semiring, relations
) -> dict[tuple[str, ...], object]:
    """Node u's facts over its sorted bag, joined with its children's messages."""
    node = nodes[u]
    if node.atom.is_idb:
        raise StrategyNotApplicable("IDB atom inside an EDB-only subtree")
    bagvars = tuple(sorted(node.vertices))
    rel = dict(_node_rows(node, bagvars, (), relations))
    times = semiring.times_fn
    for c in children[u]:
        crel = _eval_edb_node(c, nodes, children, semiring, relations)
        shared = tuple(sorted(node.vertices & nodes[c].vertices))
        msg = _sum_onto(crel, tuple(sorted(nodes[c].vertices)), shared, semiring.plus_fn)
        pick = _picker([bagvars.index(v) for v in shared])
        rel = {key: times(v, msg[k]) for key, v in rel.items() if (k := pick(key)) in msg}
    return rel


def ground_linear_acyclic2(
    program: Program,
    body: SumProdQuery,
    tree: JoinTree,
    instance: Instance,
    g: Grounding,
    head_pred: str,
    rule_tag: str,
) -> int:
    """Grounding for a linear acyclic body when all IDB arities are <= 2.

    `tree` is the body's join tree, which has no free-connex rooting.
    Rooted at the first node other than the IDB's that holds a head
    variable.  When every head variable in the IDB's subtree occurs in the
    IDB atom itself (always so for a leaf IDB), this is the plain join-tree
    recursion.  Otherwise the one head variable trapped below the IDB is
    carried along a chain of join-project rules from the IDB down to the
    nearest node holding it, keeping the grounding within O(m * n).
    Returns the root it grounded from.
    """
    if len(body.idb_atoms()) > 1:
        raise StrategyNotApplicable("body is not linear")
    if program.arity_bound > 2:
        raise StrategyNotApplicable("an IDB has arity > 2")

    if not body.idb_atoms():
        root = choose_root(tree, body.head_set)
        ground_acyclic_rule(body, tree, root, instance, g, head_pred, rule_tag)
        return root

    nodes = tree.nodes
    t_node = next(n.id for n in nodes if n.atom.is_idb)
    candidates = [
        n.id
        for n in nodes
        if n.id != t_node and (not body.head_set or n.vertices & body.head_set)
    ]
    if not candidates:
        raise StrategyNotApplicable("head variables occur only in the IDB atom")
    root = candidates[0]
    parent, children, _ = tree.rooted_at(root)

    h_sub = _subtree_head_vars(root, children, nodes, body.head_set)
    t_bag = nodes[t_node].vertices
    trapped = sorted(h_sub[t_node] - t_bag)

    if not trapped:
        # Nothing below the IDB (a leaf IDB has no subtree) needs carrying
        # past it: the plain join-tree recursion, unconditionally correct.
        ground_acyclic_rule(body, tree, root, instance, g, head_pred, rule_tag)
        return root
    if len(trapped) > 1:
        raise StrategyNotApplicable("more than one head variable below the IDB")
    y = trapped[0]

    join_vars = t_bag & nodes[parent[t_node]].vertices
    if len(join_vars) != 1:
        raise StrategyNotApplicable("IDB shares more than one variable upward")
    (z,) = join_vars

    _ground_via_chain(
        nodes, children, t_node, root, y, z, body, instance.active_domain,
        instance.relations, g, head_pred, rule_tag,
    )
    return root


def _ground_via_chain(
    nodes, children, t_node, root, y, z, body, domain, relations, g, head_pred, rule_tag
) -> None:
    """Reduce the IDB-to-TOP(y) path to join-project rules of O(m*n) each."""
    semiring = g.semiring

    # Locate t_y: the node closest to t_node (within its subtree) holding y.
    sub_ids = _collect_subtree(children, t_node)
    depth = {t_node: 0}
    for u in sub_ids:
        for c in children[u]:
            depth[c] = depth[u] + 1
    holders = [u for u in sub_ids if y in nodes[u].vertices]
    t_y = min(holders, key=lambda u: (depth[u], u))
    path = [t_y]
    par = {c: u for u in sub_ids for c in children[u]}
    while path[-1] != t_node:
        path.append(par[path[-1]])
    path.reverse()  # t_node .. t_y

    # Materialize side branches and path relations as local EDBs.
    side_rels: list[tuple[int, tuple[int, ...], dict]] = []
    for c in children[t_node]:
        if c != path[1]:
            conn = tuple(sorted(nodes[t_node].vertices & nodes[c].vertices))
            side_rels.append(
                (c, conn, _eval_edb_tree(c, nodes, children, conn, semiring, relations))
            )
    path_rels: list[tuple[int, tuple[int, ...], dict, str]] = []
    for q in path[1:]:
        qvars = tuple(sorted(nodes[q].vertices))
        # q's subtree without the branch that the path continues into.
        below = {**children, q: [c for c in children[q] if c not in path]}
        rel = _eval_edb_tree(q, nodes, below, qvars, semiring, relations)
        path_rels.append((q, qvars, rel, f"__e_r{rule_tag}_p{q}"))

    # Chain of join-project rules along the path, on rows qvars + extra.
    intern_var, intern_coeff = g.intern_var, g.intern_coeff
    add_monomial = g.add_monomial
    idb = nodes[t_node].atom
    prev_pred, prev_args = idb.pred, idb.args
    prev_keep = tuple(sorted(nodes[t_node].vertices))
    later_bags = [nodes[q].vertices for q in path[1:]]
    for i, (q, qvars, rel, rel_name) in enumerate(path_rels, start=1):
        later = frozenset().union(*later_bags[i:]) if i < len(later_bags) else frozenset()
        keep = tuple(sorted({z} | (nodes[q].vertices & (later | {y}))))
        link_pred = f"__u_r{rule_tag}_chain{i}"
        extra = tuple(sorted(set(prev_keep) - nodes[q].vertices))
        pos = {v: k for k, v in enumerate(qvars + extra)}
        prev_of = _picker([pos[v] for v in prev_args])
        head_of = _picker([pos[v] for v in keep])
        sides = [
            (f"__e_r{rule_tag}_side{sid}", _picker([pos[v] for v in conn]), srel)
            for sid, conn, srel in (side_rels if i == 1 else ())
        ]
        combos = list(itertools.product(domain, repeat=len(extra)))
        for fact in sorted(rel):
            value = rel[fact]
            for combo in combos:
                row = fact + combo
                mono = [intern_var(prev_pred, prev_of(row))]
                for side, side_of, srel in sides:
                    key = side_of(row)
                    if key not in srel:
                        break
                    mono.append(intern_coeff(side, key, srel[key]))
                else:
                    mono.append(intern_coeff(rel_name, fact, value))
                    add_monomial(intern_var(link_pred, head_of(row)), mono)
        prev_pred, prev_args, prev_keep = link_pred, keep, keep

    # Reground the outer tree with the chain result as a leaf IDB.
    pruned = list(nodes)
    pruned_children = {k: list(v) for k, v in children.items()}
    for u in _collect_subtree(children, t_node):
        pruned_children[u] = []
    pruned[t_node] = Hyperedge(
        t_node, frozenset(prev_keep), Atom(prev_pred, prev_keep, True)
    )
    _ground_tree(
        root,
        pruned,
        pruned_children,
        head_pred,
        body.head_vars,
        body.head_set,
        domain,
        relations,
        g,
        f"__u_r{rule_tag}",
    )


# ---------------------------------------------------------------------------
# Program-level driver
# ---------------------------------------------------------------------------

STRATEGIES = ("naive", "acyclic", "auto")


@dataclass(frozen=True)
class BodyStrategy:
    rule: str
    body: int
    strategy: str
    root: Optional[int] = None


def ground_program(
    program: Program,
    instance: Instance,
    strategy: str = "auto",
    cap: Optional[int] = None,
) -> tuple[Grounding, list[BodyStrategy]]:
    """Ground every rule body, picking a per-body strategy and reporting it."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    report: list[BodyStrategy] = []
    if strategy == "naive":
        g = ground_naive(program, instance, cap=cap)
        report = [
            BodyStrategy(rule.head_pred, bi, "naive")
            for rule in program.rules
            for bi in range(len(rule.bodies))
        ]
        return g, report

    g = Grounding(instance.semiring, cap=cap)
    for ri, rule in enumerate(program.rules):
        for bi, body in enumerate(rule.bodies):
            tag = f"{ri}b{bi}"
            tree = gyo_join_tree(build_hypergraph(body))
            if isinstance(tree, CyclicVerdict):
                if strategy == "acyclic":
                    raise CyclicRuleError(
                        f"rule {rule.head_pred} body {bi} is cyclic"
                    )
                _ground_body_naive(rule, body, instance, g)
                report.append(BodyStrategy(rule.head_pred, bi, "naive"))
                continue
            fc = free_connex_root(tree, body.head_set)
            if fc is not None:
                ground_acyclic_rule(body, tree, fc, instance, g, rule.head_pred, tag)
                report.append(
                    BodyStrategy(rule.head_pred, bi, "acyclic-free-connex", fc)
                )
                continue
            if strategy == "auto":
                try:
                    root = ground_linear_acyclic2(
                        program, body, tree, instance, g, rule.head_pred, tag
                    )
                except StrategyNotApplicable:
                    pass
                else:
                    report.append(
                        BodyStrategy(rule.head_pred, bi, "linear-arity2", root)
                    )
                    continue
            root = choose_root(tree, body.head_set)
            ground_acyclic_rule(body, tree, root, instance, g, rule.head_pred, tag)
            report.append(BodyStrategy(rule.head_pred, bi, "acyclic", root))
    return g.finalize(), report


def prune_unreachable(g: Grounding) -> Grounding:
    """Drop IDB equations that can never leave the additive identity.

    A variable is supported once some monomial has all its variable
    operands supported; unsupported variables stay at zero in the least
    fixpoint, so removing their equations (and the monomials mentioning
    them) preserves it.  One worklist over `flat_monomials`' counters, as in
    `solver.solve_absorptive`: each monomial counts its unsupported
    variable operands, and reaching 0 supports its head.
    """
    heads, monos, uses, waiting = g.flat_monomials()
    supported = [False] * len(g.kinds)
    queue = [head for head, count in zip(heads, waiting) if not count]
    for v in queue:  # a head may be queued more than once; it is taken once
        if supported[v]:
            continue
        supported[v] = True
        for m in uses[v]:
            waiting[m] -= 1
            if not waiting[m]:
                queue.append(heads[m])

    pruned = Grounding(g.semiring)
    pruned._index = g._index
    pruned.symbols = g.symbols
    pruned.tuples = g.tuples
    pruned.kinds = g.kinds
    pruned.values = g.values
    for head, mono, count in zip(heads, monos, waiting):
        if supported[head]:
            pruned.ensure_equation(head)
            if not count:
                pruned.add_monomial(head, mono)
    return pruned
