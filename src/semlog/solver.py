"""Fixpoint solvers over grounded equation systems.

The priority-queue solver for absorptive, totally ordered semirings runs on
the grounding's sums of monomials directly, one stratum (a strongly
connected component of the head-symbol dependency graph) at a time: a
non-recursive stratum is evaluated in one pass, a recursive one by the heap
loop, over its own monomials.  The worklist solver for
finite-rank semirings runs on its 2-canonical rewrite (every equation is
y = a (+) b or y = a (x) b), so only that path reports `canonical_size`.
The rewrite is a set of parallel int lists with a per-node `uses` index,
and the worklist is seeded only with the equations that have a constant
operand.  Kleene iteration is kept both on the canonical system and
directly on programs as independent oracles.

`auto` picks by capability: boolean, access and tropical take the
priority-queue solver, `set:` semirings (no total order key) the worklist,
and the naturals Kleene iteration.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

from .frontend import Instance, Program, SumProdQuery
from .grounding import KIND_VAR, Grounding, counters


class SolverError(Exception):
    pass


class SolverCapabilityError(SolverError):
    """The chosen solver does not support this semiring."""


class NonConvergence(SolverError):
    def __init__(self, iterations: int):
        super().__init__(f"no fixpoint after {iterations} iterations")
        self.iterations = iterations


OP_PLUS = 0
OP_TIMES = 1


class TwoCanonicalSystem:
    """Binary equations lhs[i] = a[i] (ops[i]) b[i] over integer nodes.

    Node 0 is the additive identity, node 1 the multiplicative one, node
    `ATOMS + aid` is grounding atom `aid` (a constant for a coefficient) and
    temporaries follow.  Every variable node is the left-hand side of at most
    one equation.  `uses[v]` lists each equation once per occurrence of
    variable v as an operand, so an equation appears twice when both operands
    are v; a constant's `uses` is empty.  `seeds` lists the equations with a
    constant operand.
    """

    ZERO = 0
    ONE = 1
    ATOMS = 2

    def __init__(self, semiring):
        self.semiring = semiring
        self.init_values: list = []
        self.lhs: list[int] = []
        self.a: list[int] = []
        self.b: list[int] = []
        self.ops: list[int] = []
        self.uses: list[list[int]] = []
        self.seeds: list[int] = []
        self.var_count = 0

    @property
    def size(self) -> int:
        """Occurrence count: one left-hand side plus two operands per equation."""
        return 3 * len(self.lhs)

    def num_vars(self) -> int:
        return self.var_count


def to_two_canonical(g: Grounding) -> TwoCanonicalSystem:
    """Rewrite sums of monomials into chains of binary equations.

    Length-1 monomials are used directly inside sum chains; a whole
    equation consisting of one length-1 monomial becomes y = x (x) one.
    The result has size at most 4x the grounding's.
    """
    sr = g.semiring
    sys = TwoCanonicalSystem(sr)
    base, kinds = sys.ATOMS, g.kinds
    lhs, xs, ys, ops = sys.lhs, sys.a, sys.b, sys.ops
    temp = first_temp = base + len(kinds)  # the next temporary node
    for head, monos in g.equations.items():
        if not monos:
            lhs.append(head + base)
            xs.append(sys.ZERO)
            ys.append(sys.ZERO)
            ops.append(OP_PLUS)
            continue
        summands = []
        for mono in monos:
            acc = mono[0] + base
            for x in mono[1:]:
                lhs.append(temp)
                xs.append(acc)
                ys.append(x + base)
                ops.append(OP_TIMES)
                acc = temp
                temp += 1
            summands.append(acc)
        if len(summands) == 1:
            if len(monos[0]) == 1:
                lhs.append(head + base)
                xs.append(acc)
                ys.append(sys.ONE)
                ops.append(OP_TIMES)
                continue
        else:
            acc = summands[0]
            for s in summands[1:]:
                lhs.append(temp)
                xs.append(acc)
                ys.append(s)
                ops.append(OP_PLUS)
                acc = temp
                temp += 1
        lhs[-1] = head + base  # the chain ends in the head, not a temporary
        temp -= 1

    ntemps = temp - first_temp
    sys.init_values = [sr.zero, sr.one] + g.values + [sr.zero] * ntemps
    sys.var_count = kinds.count(KIND_VAR) + ntemps
    is_var = [False, False] + [k == KIND_VAR for k in kinds] + [True] * ntemps
    uses = sys.uses = [[] if v else () for v in is_var]
    seeds = sys.seeds
    for eq, (x, y) in enumerate(zip(xs, ys)):
        if is_var[x]:
            uses[x].append(eq)
            if is_var[y]:
                uses[y].append(eq)
                continue
        elif is_var[y]:
            uses[y].append(eq)
        seeds.append(eq)
    return sys


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------


@dataclass
class Solution:
    """The least fixpoint as a value per grounding atom id (a coefficient
    keeps its annotation), plus solver counters."""

    semiring: object
    values: list
    method: str
    stats: dict = field(default_factory=dict)

    def relation(self, g: Grounding, symbol: str) -> dict[tuple[str, ...], object]:
        """Non-zero tuples of one symbol, in atom id order."""
        zero, values = self.semiring.zero, self.values
        return {
            args: values[aid]
            for args, aid in g._index.get(symbol, {}).items()
            if values[aid] != zero
        }

    def named(self, g: Grounding) -> dict[str, object]:
        """Each IDB variable's name -> its value."""
        return {g.atom_name(a): v for a, v in enumerate(self.values) if g.kinds[a] == KIND_VAR}


# ---------------------------------------------------------------------------
# Worklist solver (finite rank)
# ---------------------------------------------------------------------------


def solve_rank(
    sys: TwoCanonicalSystem,
    on_update: Optional[Callable[[int, object], None]] = None,
) -> tuple[list, dict]:
    """Worklist least fixpoint for finite-rank semirings.

    The seeding pass evaluates only the equations with a constant operand:
    one over two variables reads 0 (+) 0 or 0 (x) 0 until an operand
    changes, and then it is queued.  Every variable climbs the natural
    order at most r times, so each equation is visited at most 2r times
    after the seeding pass.  Returns (values, stats).
    """
    sr = sys.semiring
    _require("rank", sr)
    plus, times = sr.plus_fn, sr.times_fn
    lhs, xs, ys, ops, uses = sys.lhs, sys.a, sys.b, sys.ops, sys.uses
    values = list(sys.init_values)
    visits = [0] * len(lhs)
    queue: list[int] = []
    # The update below is written out twice: a closure call per update is slower.
    for eq in sys.seeds:
        new = (times if ops[eq] else plus)(values[xs[eq]], values[ys[eq]])
        y = lhs[eq]
        if new != values[y]:
            values[y] = new
            if on_update is not None:
                on_update(y, new)
            queue += uses[y]
    while queue:
        eq = queue.pop()
        visits[eq] += 1
        new = (times if ops[eq] else plus)(values[xs[eq]], values[ys[eq]])
        y = lhs[eq]
        if new != values[y]:
            values[y] = new
            if on_update is not None:
                on_update(y, new)
            queue += uses[y]
    stats = {
        "init_ops": len(sys.seeds),
        "loop_ops": sum(visits),
        "equation_visits": visits,
        "max_equation_visits": max(visits, default=0),
    }
    return values, stats


# ---------------------------------------------------------------------------
# Priority-queue solver (absorptive, total order)
# ---------------------------------------------------------------------------


def _strata(depends: dict[str, set[str]]) -> list[tuple[list[str], bool]]:
    """The strongly connected components of the symbol graph `depends`
    (head symbol -> the IDB symbols its rules read), dependencies first,
    each with whether it is recursive: its symbols reach themselves.

    The graph has a few symbols, so each one's reachable set is searched
    in full.  A component that reaches another reaches more symbols outside
    itself, so sorting by that count puts dependencies first.
    """
    symbols = sorted(set(depends).union(*depends.values()))
    reach: dict[str, set[str]] = {}
    for s in symbols:
        seen, stack = set(), [s]
        while stack:
            for t in depends.get(stack.pop(), ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach[s] = seen
    strata, placed = [], set()
    for s in symbols:
        if s not in placed:
            component = [t for t in symbols if t == s or (t in reach[s] and s in reach[t])]
            placed.update(component)
            strata.append((component, s in reach[s]))
    strata.sort(key=lambda st: len(reach[st[0][0]].difference(st[0])))
    return strata


def _settle(sr, values, frozen, counters, pops) -> int:
    """Knuth's generalized Dijkstra over one system of counters: fires each
    monomial once its variable operands are frozen, appends each pop to
    `pops` and returns the number of stale heap entries skipped."""
    plus, times, key, one = sr.plus_fn, sr.times_fn, sr.key_fn, sr.one
    heads, monos, uses, waiting = counters  # waiting: unfrozen operands
    heap: list[tuple[object, int]] = []

    def fire(m: int) -> None:
        prod = one
        for a in monos[m]:
            prod = times(prod, values[a])
        head = heads[m]
        new = plus(values[head], prod)
        if new != values[head]:
            values[head] = new
            heapq.heappush(heap, (key(new), head))

    for m, count in enumerate(waiting):
        if not count:
            fire(m)

    stale = 0
    while heap:
        k, aid = heapq.heappop(heap)
        if frozen[aid] or k != key(values[aid]):
            stale += 1
            continue
        frozen[aid] = True
        pops.append((aid, values[aid]))
        for m in uses[aid]:
            waiting[m] -= 1
            if not waiting[m] and not frozen[heads[m]]:
                fire(m)
    return stale


def solve_absorptive(g: Grounding) -> Solution:
    """Dijkstra-style least fixpoint for absorptive, totally ordered semirings,
    one stratum at a time.

    A stratum is a strongly connected component of `g.depends`, the
    head-symbol dependency graph, and strata are solved dependencies first;
    a grounding built by hand has no `depends`, and all its variables are
    one recursive stratum.  The emission-order monomials are split by their
    head's stratum in one pass.  A non-recursive stratum (one symbol, no
    self-edge) needs no fixpoint: each of its heads is evaluated once, as
    the sum of its monomials' products over final operands.  A recursive
    stratum runs Knuth's generalized Dijkstra on its own monomials, with
    Dowling-Gallier counters: a monomial fires once all its variable
    operands in the stratum are frozen, lower strata being final.  Within a
    stratum, variables pop in descending natural order (ascending sort key)
    and freeze on first pop; products can only stay below their factors, so
    a frozen value is final.  Only a firing that raises a variable pushes
    it; stale heap entries are skipped lazily.

    Stats: `pops` (each heap-frozen variable with its value, in pop order),
    `popped`, `stale_skips`, `one_pass` (the heads of non-recursive strata,
    stratum by stratum) and `evaluated`.
    """
    sr = g.semiring
    _require("absorptive", sr)
    plus, times = sr.plus_fn, sr.times_fn
    kinds, index = g.kinds, g._index
    values = list(g.values)
    frozen = [False] * len(kinds)
    pops: list[tuple[int, object]] = []
    one_pass: list[int] = []
    stale = 0
    strata = _strata(g.depends) or [
        ([s for s, ids in index.items() if kinds[next(iter(ids.values()))] == KIND_VAR], True)
    ]
    members = [[aid for s in stratum for aid in index.get(s, {}).values()] for stratum, _ in strata]
    stratum_of = {aid: i for i, aids in enumerate(members) for aid in aids}
    split: list[tuple[list, list]] = [([], []) for _ in strata]
    for head, mono in zip(g._heads, g._monos):
        heads, monos = split[stratum_of[head]]
        heads.append(head)
        monos.append(mono)
    for (_, recursive), aids, (heads, monos) in zip(strata, members, split):
        if recursive:
            stale += _settle(sr, values, frozen, counters(heads, monos, aids), pops)
            continue
        # Each sum starts from its first product; `frozen` marks a head that has one.
        for head, mono in zip(heads, monos):
            prod = values[mono[0]]
            for a in mono[1:]:
                prod = times(prod, values[a])
            if frozen[head]:
                values[head] = plus(values[head], prod)
            else:
                values[head] = prod
                frozen[head] = True
        one_pass += aids

    stats = {
        "pops": pops,
        "popped": len(pops),
        "stale_skips": stale,
        "one_pass": one_pass,
        "evaluated": len(one_pass),
    }
    return Solution(sr, values, "absorptive", stats)


# ---------------------------------------------------------------------------
# Kleene iteration
# ---------------------------------------------------------------------------


def kleene_system(
    sys: TwoCanonicalSystem, max_iters: Optional[int] = None
) -> tuple[list, dict]:
    """Synchronous Kleene iteration on the canonical system."""
    sr = sys.semiring
    plus, times = sr.plus_fn, sr.times_fn
    if max_iters is None:
        max_iters = 10 * sys.num_vars() + 10
    equations = list(zip(sys.lhs, sys.ops, sys.a, sys.b))
    values = list(sys.init_values)
    for it in range(1, max_iters + 1):
        nxt = list(values)
        for lhs, op, a, b in equations:
            nxt[lhs] = (times if op else plus)(values[a], values[b])
        if nxt == values:
            return values, {"iterations": it}
        values = nxt
    raise NonConvergence(max_iters)


def kleene_grounding(g: Grounding, max_iters: Optional[int] = None) -> Solution:
    """Synchronous Kleene iteration directly on the grounding's flat
    monomials, independent of the 2-canonical rewriting: each iterate starts
    from `g.values` and adds each non-zero monomial product into its head."""
    sr = g.semiring
    plus, times, zero, one = sr.plus_fn, sr.times_fn, sr.zero, sr.one
    heads, monos = g._heads, g._monos
    if max_iters is None:
        max_iters = 10 * len(g._seen) + 10
    values = list(g.values)
    for it in range(1, max_iters + 1):
        nxt = list(g.values)
        for head, mono in zip(heads, monos):
            prod = one
            for aid in mono:
                prod = times(prod, values[aid])
                if prod == zero:
                    break
            else:
                nxt[head] = plus(nxt[head], prod)
        if nxt == values:
            return Solution(sr, values, "kleene", {"iterations": it})
        values = nxt
    raise NonConvergence(max_iters)


def _join_body(body: SumProdQuery, rels, callback) -> None:
    """Enumerate assignments by joining materialized relations atom by atom."""
    atoms = body.atoms

    def rec(i: int, asg: dict[int, str]):
        if i == len(atoms):
            callback(asg)
            return
        rel = rels.get(atoms[i].pred, {})
        args = atoms[i].args
        if all(v in asg for v in args):
            if tuple(asg[v] for v in args) in rel:
                rec(i + 1, asg)
            return
        for fact in sorted(rel):
            trail = []
            ok = True
            for v, c in zip(args, fact):
                if v in asg:
                    if asg[v] != c:
                        ok = False
                        break
                else:
                    asg[v] = c
                    trail.append(v)
            if ok:
                rec(i + 1, asg)
            for v in trail:
                del asg[v]

    rec(0, {})


def kleene_program(
    program: Program, instance: Instance, max_iters: Optional[int] = None
) -> dict[str, dict[tuple[str, ...], object]]:
    """Grounding-free oracle: synchronous rule application to a fixpoint.

    IDB atoms join against the previous iterate's non-zero tuples (absent
    tuples hold the additive identity and annihilate their monomial).
    Returns per-IDB maps of non-zero tuples.
    """
    sr = instance.semiring
    plus, times, zero = sr.plus_fn, sr.times_fn, sr.zero
    current: dict[str, dict[tuple[str, ...], object]] = {
        p: {} for p in program.idb_schema
    }
    if max_iters is None:
        domain_n = max(1, instance.n)
        bound = sum(domain_n ** a for a in program.idb_schema.values())
        max_iters = 10 * bound + 10

    for it in range(1, max_iters + 1):
        rels = dict(instance.relations)
        rels.update(current)
        nxt: dict[str, dict[tuple[str, ...], object]] = {
            p: {} for p in program.idb_schema
        }
        for rule in program.rules:
            out = nxt[rule.head_pred]
            for body in rule.bodies:

                def emit(asg, body=body, out=out):
                    prod = sr.one
                    for atom in body.atoms:
                        prod = times(prod, rels[atom.pred][tuple(asg[v] for v in atom.args)])
                    if prod == zero:
                        return
                    key = tuple(asg[v] for v in body.head_vars)
                    out[key] = plus(out[key], prod) if key in out else prod

                _join_body(body, rels, emit)
        for p in nxt:
            nxt[p] = {k: v for k, v in nxt[p].items() if v != zero}
        if nxt == current:
            return current
        current = nxt
    raise NonConvergence(max_iters)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

METHODS = ("auto", "rank", "absorptive", "kleene")


def applicable_methods(sr) -> list[str]:
    """The methods that support `sr`, in `check`'s row order: `rank` needs a
    finite rank, `absorptive` an absorptive total order with a sort key."""
    out = ["rank"] if sr.finite_rank is not None else []
    if sr.is_absorptive and sr.is_total_order and sr.key_fn is not None:
        out.append("absorptive")
    return out + ["kleene"]


def pick_method(sr) -> str:
    """`absorptive` where it applies, else the first applicable method."""
    methods = applicable_methods(sr)
    return "absorptive" if "absorptive" in methods else methods[0]


def _require(method: str, sr) -> None:
    if method not in applicable_methods(sr):
        raise SolverCapabilityError(f"semiring {sr.name} does not support the {method} solver")


def solve_grounding(
    g: Grounding,
    method: str = "auto",
    max_iters: Optional[int] = None,
    on_update: Optional[Callable[[int, object], None]] = None,
) -> Solution:
    """Solve with a method the semiring supports; only `rank` canonicalizes."""
    if method not in METHODS:
        raise ValueError(f"unknown solver method {method!r}")
    if method == "auto":
        method = pick_method(g.semiring)
    if method == "kleene":
        sol = kleene_grounding(g, max_iters=max_iters)
    elif method == "absorptive":
        sol = solve_absorptive(g)
    else:
        sys = to_two_canonical(g)
        values, stats = solve_rank(sys, on_update=on_update)
        stats["semiring_ops"] = stats["init_ops"] + stats["loop_ops"]
        stats["canonical_size"] = sys.size
        sol = Solution(g.semiring, values[sys.ATOMS : sys.ATOMS + len(g.kinds)], method, stats)
    sol.stats["grounding_size"] = g.size
    return sol
