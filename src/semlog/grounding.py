"""Grounding a program + instance into a system of polynomial equations.

Every body is grounded as flat rules ``head :- atoms``, each through one
indexed left-to-right join (`_join_rows`) whose rows `_emit` turns into
monomials.  A cyclic body (or every body, under `naive`) is one flat rule.
An acyclic body is refactored along a rooted join tree into one flat rule
per node, over fresh IDBs for the tree's edges (`_flat_rules`).  It is
rooted free-connex when it can be; otherwise a linear body whose IDBs all
have arity <= 2 is cut at its IDB atom into two trees, which keeps it
within O(m * n).  All strategies write into the same `Grounding` sink so
rules can mix.
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


def _name_part(text: str) -> str:
    return repr(text) if "_" in text or "'" in text or '"' in text else text


class Grounding:
    """Interned ground atoms plus equations: IDB variable -> sum of monomials.

    Atoms are indexed per symbol (`_index[symbol][args]` is the atom id), so
    a lookup hashes only the argument tuple.  `values` is the initial
    valuation, indexed by atom id: a coefficient's annotation, and the
    semiring's zero for a variable; every solver starts from a copy of it.
    A monomial is a tuple of atom ids in rule-body order.  The monomials are
    stored flat and only so: `add_monomial` appends each one and its head to
    two emission-order lists, `_monos` and `_heads`, and `_seen` keeps each
    head in first-seen order, so a grounding keeps no list per head for the
    collector to promote.  `equations` groups them by head each time it is
    read, for printing and `solver.to_two_canonical`; the other solvers and
    `prune_unreachable` read the flat lists.  `size` counts every
    coefficient/variable occurrence plus one per left-hand side; it is kept
    up to date by `ensure_equation` and `add_monomial`, the only writers.
    `depends` maps each flat rule's head symbol to the IDB symbols its body
    reads; a grounding built by hand leaves it empty.
    """

    def __init__(self, semiring, cap: Optional[int] = None):
        self.semiring = semiring
        self.cap = cap
        self._index: dict[str, dict[tuple[str, ...], int]] = {}
        self.symbols: list[str] = []
        self.tuples: list[tuple[str, ...]] = []
        self.kinds: list[int] = []
        self.values: list[object] = []
        self._seen: dict[int, int] = {}
        self._heads: list[int] = []
        self._monos: list[tuple[int, ...]] = []
        self.depends: dict[str, set[str]] = {}
        self.size = 0

    # -- interning ---------------------------------------------------------

    def _intern(self, symbol: str, args: tuple[str, ...], kind: int, value) -> int:
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
        return aid

    def intern_var(self, symbol: str, args: tuple[str, ...]) -> int:
        return self._intern(symbol, args, KIND_VAR, self.semiring.zero)

    def intern_coeff(self, symbol: str, args: tuple[str, ...], value) -> int:
        return self._intern(symbol, args, KIND_COEFF, value)

    def atom_name(self, aid: int) -> str:
        """The symbol and constants joined by ``_``.  A user symbol or constant
        that holds ``_`` or a quote is `repr`-quoted, so names stay distinct."""
        prefix = "x" if self.kinds[aid] == KIND_VAR else "e"
        symbol = self.symbols[aid]
        if not symbol.startswith("__u_"):
            symbol = _name_part(symbol)
        return "_".join([prefix, symbol, *map(_name_part, self.tuples[aid])])

    # -- equation building -------------------------------------------------

    @property
    def equations(self) -> dict[int, list[tuple[int, ...]]]:
        """IDB variable -> its monomials, heads in first-seen order: a view
        built on each read, so a reader binds it once."""
        equations: dict[int, list[tuple[int, ...]]] = {head: [] for head in self._seen}
        for head, mono in zip(self._heads, self._monos):
            equations[head].append(mono)
        return equations

    def ensure_equation(self, head: int) -> None:
        if head not in self._seen:
            self._seen[head] = len(self._seen)
            self._grow(1)

    def add_monomial(self, head: int, mono: Iterable[int]) -> None:
        mono = tuple(mono)
        self._heads.append(head)
        self._monos.append(mono)
        if head in self._seen:
            self._grow(len(mono))
        else:
            self._seen[head] = len(self._seen)
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

    # -- output ------------------------------------------------------------

    def _named_equations(self):
        """Each equation as (head name, the atom names of each monomial),
        sorted by head name: the one order both output forms print."""
        equations = self.equations
        for head in sorted(equations, key=self.atom_name):
            names = [[self.atom_name(a) for a in mono] for mono in equations[head]]
            yield self.atom_name(head), names

    def to_text(self) -> str:
        lines = [
            f"{head} = {' + '.join(map(' * '.join, monos)) if monos else '0'} ;"
            for head, monos in self._named_equations()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_record(self) -> dict:
        return {
            "semiring": self.semiring.name,
            "size": self.size,
            "equations": dict(self._named_equations()),
        }


# ---------------------------------------------------------------------------
# Flat rules: rows and monomials
# ---------------------------------------------------------------------------


def _picker(positions: Sequence[int]):
    """A function taking a row to the tuple of its values at `positions`."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def _join_rows(atoms: Sequence[Atom], domain, relations):
    """The rows of the join of `atoms`, left to right, streamed one stage per
    atom, and the variable at each row position (in the order the atoms
    first bind them).

    An EDB atom extends each row through an index of its sorted facts keyed
    on the variables already bound; a fact that disagrees on a repeated
    variable is dropped when the index is built.  An IDB atom extends each
    row by every domain value of its unbound variables, sorted.
    """
    rows: Iterable[tuple] = [()]
    order: list[int] = []
    for atom in atoms:
        pos = {v: i for i, v in enumerate(order)}
        if atom.is_idb:
            new = sorted({v for v in atom.args if v not in pos})
            if new:
                rows = _extend(rows, list(itertools.product(domain, repeat=len(new))))
                order.extend(new)
            continue
        args = atom.args
        first = [args.index(v) for v in args]
        checks = [(i, j) for j, i in enumerate(first) if i != j]
        facts = sorted(relations.get(atom.pred, {}))
        if checks:
            facts = [f for f in facts if all(f[i] == f[j] for i, j in checks)]
        bound = [i for j, i in enumerate(first) if i == j and args[i] in pos]
        new = [i for j, i in enumerate(first) if i == j and args[i] not in pos]
        if not bound and len(new) == len(args):
            rows = _extend(rows, facts)
        else:
            key_of, new_of = _picker(bound), _picker(new)
            index: dict[tuple, list[tuple]] = {}
            for f in facts:
                index.setdefault(key_of(f), []).append(new_of(f))
            rows = _extend_indexed(rows, index, _picker([pos[args[i]] for i in bound]))
        order.extend(args[i] for i in new)
    return rows, order


# A stage takes its extensions as parameters: a generator expression in the
# loop above would look them up late, after the loop has rebound them.
def _extend(rows, ext):
    return (row + e for row in rows for e in ext)


def _extend_indexed(rows, index, row_key):
    return (row + e for row in rows for e in index.get(row_key(row), ()))


def _emit(g: Grounding, rows, factors, head_pred: str, head_of) -> None:
    """Add one monomial per row to the equation of its head atom.

    `factors` are the monomial's atoms in order, each (symbol, picker, the
    facts of an EDB atom or None for an IDB atom).  Every row comes from
    the join of those atoms, so each EDB fact it reads is present.
    """
    intern_var, intern_coeff = g.intern_var, g.intern_coeff
    add_monomial = g.add_monomial
    for row in rows:
        mono = []
        for pred, pick, facts in factors:
            key = pick(row)
            if facts is None:
                mono.append(intern_var(pred, key))
            else:
                mono.append(intern_coeff(pred, key, facts[key]))
        add_monomial(intern_var(head_pred, head_of(row)), mono)


def _ground_rule(g: Grounding, head: Atom, atoms: Sequence[Atom], domain, relations) -> None:
    """Ground the flat rule `head :- atoms`: one monomial per row of the join."""
    g.depends.setdefault(head.pred, set()).update(a.pred for a in atoms if a.is_idb)
    rows, order = _join_rows(atoms, domain, relations)
    pos = {v: i for i, v in enumerate(order)}
    factors = []
    for atom in atoms:
        facts = None if atom.is_idb else relations.get(atom.pred, {})
        factors.append((atom.pred, _picker([pos[v] for v in atom.args]), facts))
    _emit(g, rows, factors, head.pred, _picker([pos[v] for v in head.args]))


# ---------------------------------------------------------------------------
# Naive grounding
# ---------------------------------------------------------------------------


def _ground_body_naive(
    rule: Rule, body: SumProdQuery, instance: Instance, g: Grounding
) -> None:
    head = Atom(rule.head_pred, body.head_vars, True)
    _ground_rule(g, head, body.atoms, instance.active_domain, instance.relations)


# ---------------------------------------------------------------------------
# Acyclic grounding (join tree to flat rules)
# ---------------------------------------------------------------------------


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


def _flat_rules(
    root: int,
    nodes: Sequence[Hyperedge],
    children: dict[int, list[int]],
    head: Atom,
    head_set: frozenset[int],
    fresh_prefix: str,
) -> list[tuple[Atom, list[Atom]]]:
    """Refactor a rooted join tree into flat rules, one per node, depth-first
    pre-order with children left to right.

    `nodes` is indexed by node id.  Each tree edge (s, t) introduces the
    fresh IDB named ``<fresh_prefix>_e<s>_<t>`` over (bag(s) & bag(t)) | H_t,
    the head of t's rule, unless t is a leaf whose bag is exactly those
    variables: then s's rule reads t's atom in place.  A node's rule body is
    its own atom, then per child, left to right, the leaf atom read in place
    or the fresh atom.
    """
    h_sub = _subtree_head_vars(root, children, nodes, head_set)
    rules = []
    stack = [(root, head)]
    while stack:
        s, head = stack.pop()
        bag = nodes[s].vertices
        body, fresh = [nodes[s].atom], []
        for t in children[s]:
            edge = tuple(sorted((bag & nodes[t].vertices) | h_sub[t]))
            if not children[t] and len(edge) == len(nodes[t].vertices):
                body.append(nodes[t].atom)
            else:
                body.append(Atom(f"{fresh_prefix}_e{s}_{t}", edge, True))
                fresh.append((t, body[-1]))
        rules.append((head, body))
        stack.extend(reversed(fresh))
    return rules


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
    head = Atom(head_pred, body.head_vars, True)
    for rule_head, atoms in _flat_rules(
        root, tree.nodes, children, head, body.head_set, f"__u_r{rule_tag}"
    ):
        _ground_rule(g, rule_head, atoms, instance.active_domain, instance.relations)


# ---------------------------------------------------------------------------
# Linear, arity <= 2 construction
# ---------------------------------------------------------------------------


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
    recursion.  Otherwise one head variable y is trapped below the IDB,
    which shares one variable z with its parent.  The join tree is cut
    there: the IDB's subtree, re-rooted at the node nearest the IDB that
    holds y, is grounded as its own body with head ``__u_r<tag>_chain(z, y)``,
    and the rest with that atom as a leaf in the IDB's place.  Each side
    stays within O(m * n).  Returns the root it grounded the rest from.
    """
    if len(body.idb_atoms()) != 1:
        raise StrategyNotApplicable("body does not have exactly one IDB atom")
    if program.arity_bound > 2:
        raise StrategyNotApplicable("an IDB has arity > 2")

    # Some node other than the IDB's holds a head variable: were they all
    # in the IDB atom alone, rooting there would be free-connex.
    nodes = tree.nodes
    t_node = next(n.id for n in nodes if n.atom.is_idb)
    root = next(
        n.id
        for n in nodes
        if n.id != t_node and (not body.head_set or n.vertices & body.head_set)
    )
    parent, children, _ = tree.rooted_at(root)

    # At most one head variable is trapped: the head has at most two, and by
    # running intersection one the root holds is in the IDB's bag if it
    # occurs below it.
    h_sub = _subtree_head_vars(root, children, nodes, body.head_set)
    t_bag = nodes[t_node].vertices
    trapped = sorted(h_sub[t_node] - t_bag)
    if not trapped:
        # Nothing below the IDB (a leaf IDB has no subtree) needs carrying
        # past it: the plain join-tree recursion, unconditionally correct.
        ground_acyclic_rule(body, tree, root, instance, g, head_pred, rule_tag)
        return root
    (y,) = trapped

    join_vars = t_bag & nodes[parent[t_node]].vertices
    if len(join_vars) != 1:
        raise StrategyNotApplicable(
            f"IDB shares {len(join_vars)} variables upward, not one"
        )
    (z,) = join_vars

    prefix = f"__u_r{rule_tag}"
    chain = Atom(f"{prefix}_chain", (z, y), True)
    # The IDB's subtree, rooted at its first node holding y and cut off
    # from the IDB's parent, grounds chain(z, y); z is the only variable it
    # shares with the rest of the tree, and y occurs nowhere else.
    t_y = next(u for u in _collect_subtree(children, t_node) if y in nodes[u].vertices)
    _, sub_children, _ = tree.rooted_at(t_y)
    sub_children[t_node] = [c for c in sub_children[t_node] if c != parent[t_node]]
    rules = _flat_rules(t_y, nodes, sub_children, chain, chain.vars, prefix)
    # The rest of the tree, with chain(z, y) as a leaf read in place.
    outer = list(nodes)
    outer[t_node] = Hyperedge(t_node, chain.vars, chain)
    head = Atom(head_pred, body.head_vars, True)
    rules += _flat_rules(
        root, outer, {**children, t_node: []}, head, body.head_set, prefix
    )
    for rule_head, atoms in rules:
        _ground_rule(g, rule_head, atoms, instance.active_domain, instance.relations)
    return root


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
    """Ground every rule body, picking a per-body strategy and reporting it.

    Under `naive` every IDB ground instance over the active domain gets an
    equation, even when its RHS is empty, and every body is grounded by
    `_ground_body_naive`: its variables range over the active domain, and
    monomials annihilated by absent EDB facts are dropped.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    g = Grounding(instance.semiring, cap=cap)
    if strategy == "naive":
        for sym, arity in program.idb_schema.items():
            for t in itertools.product(instance.active_domain, repeat=arity):
                g.ensure_equation(g.intern_var(sym, t))
    report: list[BodyStrategy] = []
    for ri, rule in enumerate(program.rules):
        for bi, body in enumerate(rule.bodies):
            tree = None if strategy == "naive" else gyo_join_tree(build_hypergraph(body))
            if isinstance(tree, CyclicVerdict) and strategy == "acyclic":
                raise CyclicRuleError(f"rule {rule.head_pred} body {bi} is cyclic")
            if not isinstance(tree, JoinTree):  # naive, or a cyclic body
                _ground_body_naive(rule, body, instance, g)
                report.append(BodyStrategy(rule.head_pred, bi, "naive"))
                continue
            tag = f"{ri}b{bi}"
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


def counters(heads: list[int], monos: list[tuple[int, ...]], variables):
    """Dowling-Gallier counter setup for the monomials `monos` of `heads`
    (parallel lists): `uses`, each atom of `variables` -> the monomial once
    per occurrence as an operand, and `waiting`, each monomial's operands
    among `variables` with multiplicity.  Any other atom is a constant."""
    uses: dict[int, list[int]] = {v: [] for v in variables}
    waiting: list[int] = []
    for m, mono in enumerate(monos):
        count = 0
        for a in mono:
            if a in uses:
                uses[a].append(m)
                count += 1
        waiting.append(count)
    return heads, monos, uses, waiting


def prune_unreachable(g: Grounding) -> Grounding:
    """Drop IDB equations that can never leave the additive identity.

    A variable is supported once some monomial has all its variable
    operands supported; unsupported variables stay at zero in the least
    fixpoint, so removing their equations (and the monomials mentioning
    them) preserves it.  One worklist over the flat monomials' `counters`,
    as in `solver.solve_absorptive`: each monomial counts its unsupported
    variable operands, and reaching 0 supports its head.
    """
    variables = [aid for aid, kind in enumerate(g.kinds) if kind == KIND_VAR]
    heads, monos, uses, waiting = counters(g._heads, g._monos, variables)
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
    pruned.depends = g.depends
    for head in g._seen:
        if supported[head]:
            pruned.ensure_equation(head)
    for head, mono, count in zip(heads, monos, waiting):
        if not count:
            pruned.add_monomial(head, mono)
    return pruned
