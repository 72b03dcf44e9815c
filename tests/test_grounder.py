import gc
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import semlog
from semlog import grounding
from semlog.cli import build_bench_instance, loglog_slope
from semlog.decomposition import build_hypergraph, gyo_join_tree
from semlog.frontend import parse_program
from semlog.grounding import (
    BodyStrategy,
    CapExceeded,
    CyclicRuleError,
    Grounding,
    StrategyNotApplicable,
    ground_program,
    prune_unreachable,
)
from semlog.semirings import access, boolean, set_semiring, tropical
from semlog.solver import applicable_methods, kleene_grounding, solve_grounding

from conftest import brute_force_fixpoint, random_digraph, random_instance

TC = semlog.corpus_program("eq2_tc")


def tc_instance(sr=None):
    sr = sr or boolean()
    return semlog.build_instance({"R": {("a", "b"): sr.one}}, sr)


def test_naive_tc_equations():
    g = ground_program(TC, tc_instance(), strategy="naive")[0]
    rec = g.to_record()["equations"]
    assert rec == {
        "x_T_a_a": [],
        "x_T_a_b": [["e_R_a_b"], ["x_T_a_a", "e_R_a_b"]],
        "x_T_b_a": [],
        "x_T_b_b": [["x_T_b_a", "e_R_a_b"]],
    }
    # 4 left-hand sides + 5 operand occurrences
    assert g.size == 4 + 5


def test_naive_empty_instance():
    inst = semlog.build_instance({}, boolean())
    g = ground_program(TC, inst, strategy="naive")[0]
    assert g.size == 0 and g.equations == {}


def test_cap_exceeded():
    with pytest.raises(CapExceeded) as exc:
        ground_program(TC, tc_instance(), strategy="naive", cap=3)
    assert exc.value.size > exc.value.cap == 3


def recount_size(g):
    return sum(1 + sum(len(m) for m in monos) for monos in g.equations.values())


def test_size_matches_tracked_size():
    rng = random.Random(11)
    for name in semlog.CORPUS:
        program = semlog.corpus_program(name)
        inst = random_instance(program, tropical(), rng)
        for strategy in ("naive", "auto", "acyclic"):
            g, _ = ground_program(program, inst, strategy=strategy)
            assert g.size == recount_size(g), (name, strategy)
            pruned = prune_unreachable(g)
            assert pruned.size == recount_size(pruned), (name, strategy)


def test_grounding_is_deterministic():
    rng = random.Random(5)
    inst = random_instance(TC, tropical(), rng)
    a, _ = ground_program(TC, inst, strategy="auto")
    b, _ = ground_program(TC, inst, strategy="auto")
    assert a.to_text() == b.to_text()


def test_single_atom_body():
    program = parse_program("T(x) :- R(x).\n@target T.")
    inst = semlog.build_instance({"R": {("a",): True, ("c",): True}}, boolean())
    g = ground_program(program, inst, strategy="naive")[0]
    rec = g.to_record()["equations"]
    assert rec == {"x_T_a": [["e_R_a"]], "x_T_c": [["e_R_c"]]}


def test_repeated_variable_atom_filters_diagonal():
    program = parse_program("T(x) :- R(x, x).\n@target T.")
    inst = semlog.build_instance(
        {"R": {("a", "a"): True, ("a", "b"): True}}, boolean()
    )
    g = ground_program(program, inst, strategy="naive")[0]
    rec = g.to_record()["equations"]
    assert rec["x_T_a"] == [["e_R_a_a"]]
    assert rec["x_T_b"] == []


def test_strategy_report_auto():
    rng = random.Random(3)

    def strategies(name):
        program = semlog.corpus_program(name)
        inst = random_instance(program, tropical(), rng)
        _, report = ground_program(program, inst, strategy="auto")
        return [(s.rule, s.body, s.strategy) for s in report]

    apsp = strategies("apsp")
    assert ("T", 1, "linear-arity2") in apsp
    sg = strategies("same_generation")
    assert ("SG", 1, "linear-arity2") in sg
    sssp = strategies("sssp")
    assert all(s == "acyclic-free-connex" for _, _, s in sssp)


def apsp_instance():
    edges = {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 3.0}
    return semlog.build_instance({"E": edges}, tropical())


def test_cap_exceeded_on_the_join_tree_path():
    program = semlog.corpus_program("apsp")
    full, report = ground_program(program, apsp_instance(), strategy="auto")
    assert [s.strategy for s in report] == ["acyclic-free-connex", "linear-arity2"]
    # The cap fires at the first left-hand side or monomial that crosses it.
    step = 1 + max(len(m) for monos in full.equations.values() for m in monos)
    for cap in (1, full.size // 2, full.size - 1):
        with pytest.raises(CapExceeded) as exc:
            ground_program(program, apsp_instance(), strategy="auto", cap=cap)
        assert cap == exc.value.cap < exc.value.size <= cap + step
    g, _ = ground_program(program, apsp_instance(), strategy="auto", cap=full.size)
    assert g.to_text() == full.to_text()


def test_one_join_tree_per_body(monkeypatch):
    calls = []
    real = grounding.gyo_join_tree

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(grounding, "gyo_join_tree", counted)
    ground_program(semlog.corpus_program("apsp"), apsp_instance())
    assert len(calls) == 2  # one per body


def test_linear_arity2_reports_its_root():
    _, report = ground_program(semlog.corpus_program("apsp"), apsp_instance())
    # T(x1, x3), E(x3, x2): grounded from E, the node holding head var x2.
    assert report[1] == BodyStrategy("T", 1, "linear-arity2", 1)


def _query(program, inst):
    g, _ = ground_program(program, inst)
    return solve_grounding(g).relation(g, program.target)


@pytest.mark.parametrize(
    "name, sr",
    [("apsp", tropical()), ("andersen", boolean()), ("ex51_star", tropical())],
    ids=["apsp", "andersen", "ex51_star"],
)
def test_query_leaves_no_reference_cycles(name, sr):
    """A query's grounding is freed by reference counting alone."""
    program = semlog.corpus_program(name)
    inst = build_bench_instance(program, "random-graph", 48, sr, random.Random(name))
    gc.collect()
    gc.disable()
    try:
        assert _query(program, inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_acyclic_strategy_rejects_cyclic_rule():
    program = parse_program(
        "T(x) :- R(x, y), S(y, z), W(z, x).\n@target T.\n"
    )
    inst = semlog.build_instance(
        {"R": {("a", "b"): True}, "S": {("b", "c"): True},
         "W": {("c", "a"): True}}, boolean()
    )
    with pytest.raises(CyclicRuleError):
        ground_program(program, inst, strategy="acyclic")
    g, report = ground_program(program, inst, strategy="auto")
    assert report[0].strategy == "naive"
    assert kleene_grounding(g).relation(g, "T") == {("a",): True}


def test_prune_preserves_target_relation():
    rng = random.Random(21)
    for name in semlog.CORPUS:
        program = semlog.corpus_program(name)
        inst = random_instance(program, tropical(), rng, nmax=4)
        g, _ = ground_program(program, inst, strategy="auto")
        pruned = prune_unreachable(g)
        assert pruned.size <= g.size
        want = kleene_grounding(g).relation(g, program.target)
        got = kleene_grounding(pruned).relation(pruned, program.target)
        assert got == want, name


def test_prune_long_chain_in_one_pass():
    """x_i = x_(i-1) * x_(i-1) with the equations stored last link first, so a
    sweep in equation order would support one link per pass."""
    sr = boolean()
    g = Grounding(sr)
    n = 400
    xs = [g.intern_var("X", (f"v{i}",)) for i in range(n)]
    c = g.intern_coeff("C", (), True)
    u, w = g.intern_var("U", ()), g.intern_var("W", ())
    for i in reversed(range(1, n)):
        g.add_monomial(xs[i], [u, c])  # u is never supported
        g.add_monomial(xs[i], [xs[i - 1], xs[i - 1]])
    g.add_monomial(xs[0], [c])
    g.add_monomial(u, [w])
    g.add_monomial(w, [u, c])
    g.finalize()
    pruned = prune_unreachable(g)
    assert list(pruned.equations) == xs[:0:-1] + [xs[0]]
    assert pruned.equations[xs[0]] == [(c,)]
    for i in range(1, n):
        assert pruned.equations[xs[i]] == [(xs[i - 1], xs[i - 1])]
    assert pruned.size == recount_size(pruned) == 3 * (n - 1) + 2
    assert kleene_grounding(pruned).relation(pruned, "X") == {
        (f"v{i}",): True for i in range(n)
    }


def test_star_grounding_is_linear_in_input():
    program = semlog.corpus_program("ex51_star")
    rng = random.Random(9)
    n = 40
    rels = {"A": {}, "B": {}}
    for pred in ("R24", "R34", "R14"):
        nodes, edges = random_digraph(n, 0.05, rng)
        rels[pred] = {e: 1.0 for e in edges}
    for v in nodes:
        rels["A"][(v,)] = 0.0
        rels["B"][(v,)] = 0.0
    inst = semlog.build_instance(rels, tropical())
    g, report = ground_program(program, inst, strategy="auto")
    assert all(s.strategy == "acyclic-free-connex" for s in report)
    assert g.size <= 20 * (inst.m + inst.n)


def test_fresh_predicates_have_small_arity_bags():
    rng = random.Random(17)
    program = semlog.corpus_program("apsp")
    inst = random_instance(program, tropical(), rng, nmax=6)
    g, _ = ground_program(program, inst, strategy="auto")
    n = inst.n
    per_symbol: dict[str, int] = {}
    for head in g.equations:
        sym = g.symbols[head]
        if sym.startswith("__"):
            per_symbol[sym] = per_symbol.get(sym, 0) + 1
    for sym, count in per_symbol.items():
        assert count <= n * n, sym


def test_strategies_agree_on_fixpoint():
    rng = random.Random(33)
    for name in semlog.CORPUS:
        program = semlog.corpus_program(name)
        inst = random_instance(program, tropical(), rng, nmax=5)
        results = []
        for strategy in ("naive", "auto", "acyclic"):
            g, _ = ground_program(program, inst, strategy=strategy)
            results.append(kleene_grounding(g).relation(g, program.target))
        assert results[0] == results[1] == results[2], name


def assert_matches_brute_force(program, inst):
    """Every strategy x applicable solver agrees with the independent oracle."""
    want = brute_force_fixpoint(program, inst)[program.target]
    sizes = {}
    for strategy in ("naive", "acyclic", "auto"):
        try:
            g, _ = ground_program(program, inst, strategy=strategy)
        except CyclicRuleError:
            continue
        sizes[strategy] = g.size
        for method in applicable_methods(inst.semiring):
            got = solve_grounding(g, method=method).relation(g, program.target)
            assert got == want, (strategy, method)
    return sizes


# The IDB sits inside the join tree and no head variable lies below it in
# the chosen rooting, so `linear-arity2` grounds it by the plain join-tree
# recursion from that root.
IDB_INSIDE = parse_program(
    "T(x, w) :- A(x, w).\n"
    "T(x, w) :- A(x, z), T(z, w), B(w, u).\n"
    "@target T.\n"
)


@pytest.mark.parametrize("sr", [tropical(), boolean()], ids=lambda sr: sr.name)
def test_linear_arity2_idb_inside_tree(sr):
    rng = random.Random(f"inside:{sr.name}")
    for _ in range(15):
        inst = random_instance(IDB_INSIDE, sr, rng, nmax=5)
        _, report = ground_program(IDB_INSIDE, inst, strategy="auto")
        assert [s.strategy for s in report] == ["acyclic-free-connex", "linear-arity2"]
        sizes = assert_matches_brute_force(IDB_INSIDE, inst)
        assert sizes["auto"] <= sizes["acyclic"]


@pytest.mark.parametrize("sr", [boolean(), access()], ids=lambda sr: sr.name)
@pytest.mark.parametrize("name", list(semlog.CORPUS))
def test_corpus_matches_brute_force(name, sr):
    program = semlog.corpus_program(name)
    rng = random.Random(f"oracle:{name}:{sr.name}")
    for _ in range(20):
        assert_matches_brute_force(program, random_instance(program, sr, rng, nmax=4))


# Bodies with a repeated variable in an EDB atom, grounded along the join
# tree: the equality filter of the compiled node loop must drop the facts
# that disagree on it.  The last two are linear arity-2 bodies; the first
# grounds by the plain recursion, the second through the chain.
REPEATED_VARIABLE = {
    "diagonal": "T(x) :- R(x, x).\n@target T.\n",
    "diagonal-join": "T(x, y) :- R(x, x), S(x, y).\n@target T.\n",
    "linear-tree": (
        "T(x, y) :- E(x, y).\nT(x, y) :- T(x, z), E(z, z), E(z, y).\n@target T.\n"
    ),
    "linear-chain": (
        "T(x, y) :- E(x, y).\n"
        "T(x, y) :- E(x, z), T(z, w), F(w, y, y), L(w, w).\n@target T.\n"
    ),
}


@pytest.fixture
def tree_heads(monkeypatch):
    """The head symbol of every grounded flat rule.  The trapped
    linear-arity2 case is the one that grounds a `__u_r<tag>_chain` head."""
    heads = []
    real = grounding._ground_rule

    def recorded(g, head, *rest):
        heads.append(head.pred)
        real(g, head, *rest)

    monkeypatch.setattr(grounding, "_ground_rule", recorded)
    return heads


def grounds_trapped(program, inst, tree_heads):
    """Ground with `auto`: (grounding, report, whether a body took the trapped case)."""
    tree_heads.clear()
    g, report = ground_program(program, inst, strategy="auto")
    return g, report, any(h.endswith("_chain") for h in tree_heads)


@pytest.mark.parametrize("sr", [boolean(), tropical()], ids=lambda sr: sr.name)
@pytest.mark.parametrize("name", list(REPEATED_VARIABLE))
def test_repeated_variable_on_the_join_tree_path(name, sr, tree_heads):
    program = parse_program(REPEATED_VARIABLE[name])
    rng = random.Random(f"repeated:{name}:{sr.name}")
    for _ in range(15):
        inst = random_instance(program, sr, rng, nmax=4)
        assert_matches_brute_force(program, inst)
        if name.startswith("linear"):
            _, report, trapped = grounds_trapped(program, inst, tree_heads)
            assert report[1].strategy == "linear-arity2"
            assert trapped == (name == "linear-chain")


@pytest.mark.parametrize("sr", [tropical(), boolean(), access()], ids=lambda sr: sr.name)
def test_no_equation_copies_a_leaf(sr):
    """A leaf whose bag is its edge variables is read in place: no fresh
    equation is a single atom over the head's own arguments."""
    for name in semlog.CORPUS:
        program = semlog.corpus_program(name)
        for seed in range(3):
            inst = random_instance(program, sr, random.Random(f"copy:{name}:{sr.name}:{seed}"))
            for strategy in ("acyclic", "auto"):
                try:
                    g, _ = ground_program(program, inst, strategy=strategy)
                except CyclicRuleError:
                    continue
                for head, monos in g.equations.items():
                    if g.symbols[head].startswith("__u_") and len(monos) == 1:
                        (mono,) = monos
                        copy = len(mono) == 1 and g.tuples[mono[0]] == g.tuples[head]
                        assert not copy, (name, strategy, g.atom_name(head))


def test_reads_between_writes_leave_the_equations_unchanged():
    """`equations` is a view grouped from the flat lists on each read;
    reading between writes must give what one read at the end gives, head
    order included."""

    def build(read):
        g = Grounding(tropical())
        x = [g.intern_var("T", (c,)) for c in "abcd"]
        e = g.intern_coeff("E", ("a",), 1.0)
        g.add_monomial(x[1], [e])
        g.ensure_equation(x[0])
        g.add_monomial(x[2], [x[1], e])
        read(g)
        g.add_monomial(x[1], [x[2]])
        g.ensure_equation(x[3])
        g.ensure_equation(x[1])
        read(g)
        read(g)
        g.add_monomial(x[3], [x[0]])
        g.add_monomial(x[0], [x[0], x[3]])
        return g, x, e

    g, x, e = build(lambda g: g.equations)
    plain, _, _ = build(lambda g: None)
    want = {x[1]: [(e,), (x[2],)], x[0]: [(x[0], x[3])], x[2]: [(x[1], e)], x[3]: [(x[0],)]}
    for h in (g, plain):
        assert list(h.equations.items()) == list(want.items())
        assert h.size == 4 + 7
    # prune_unreachable reads the flat lists of a grounding never read.
    unread, _, _ = build(lambda g: None)
    pruned = [prune_unreachable(h) for h in (g, unread)]
    assert list(pruned[0].equations.items()) == list(pruned[1].equations.items())
    assert list(pruned[0].equations) == [x[1], x[2]]
    assert pruned[0].size == pruned[1].size == 2 + 4


def test_atom_names_of_distinct_atoms_differ():
    program = parse_program("T(x, y) :- R(x, y).\n@target T.\n")
    inst = semlog.parse_facts("R(a_b, c) = 1.\nR(a, b_c) = 2.\n", tropical())
    g, _ = ground_program(program, inst)
    assert g.to_text() == (
        "x_T_'a_b'_c = e_R_'a_b'_c ;\n"
        "x_T_a_'b_c' = e_R_a_'b_c' ;\n"
    )
    assert len(g.to_record()["equations"]) == 2
    assert solve_grounding(g).named(g) == {"x_T_'a_b'_c": 1.0, "x_T_a_'b_c'": 2.0}

    g = Grounding(tropical())
    names = {g.atom_name(g.intern_coeff(sym, args, 1.0))
             for sym, args in [("A_B", ("c",)), ("A", ("B", "c")), ("A", ("B_c",)),
                               ("A", ("'B", "c'")), ("A", ("'B_c'",))]}
    assert len(names) == 5
    assert g.atom_name(g.intern_var("__u_r0b0_e0_1", ("a",))) == "x___u_r0b0_e0_1_a"


def test_absent_edb_leaf_fact_yields_no_monomial():
    # S(y) is a leaf of R(x, y), read in place: R(a, c) and R(d, c) find no S(c).
    program = parse_program("T(x) :- R(x, y), S(y).\n@target T.\n")
    inst = semlog.build_instance(
        {"R": {("a", "b"): True, ("a", "c"): True, ("d", "c"): True},
         "S": {("b",): True}}, boolean()
    )
    g, _ = ground_program(program, inst, strategy="auto")
    assert g.to_record()["equations"] == {"x_T_a": [["e_R_a_b", "e_S_b"]]}

    # No S(b): the join yields no row with y = b, so U(b) is never interned.
    program = parse_program("T(x) :- R(x, y), S(y), U(y).\n@target T.\n")
    inst = semlog.build_instance(
        {"R": {("a", "b"): True, ("a", "c"): True},
         "S": {("c",): True}, "U": {("b",): True, ("c",): True}}, boolean()
    )
    g, _ = ground_program(program, inst, strategy="auto")
    read = {a for monos in g.equations.values() for mono in monos for a in mono}
    unread = [
        g.atom_name(a)
        for a, kind in enumerate(g.kinds)
        if kind == grounding.KIND_COEFF and a not in read
    ]
    assert not unread


def test_trapped_case_grounds_within_m_times_n(tree_heads):
    """same_generation's recursive body traps y below SG(a, b): |G| grows as m*n."""
    program = semlog.corpus_program("same_generation")
    xs, ys = [], []
    for size in (128, 256, 512, 1024):
        rng = random.Random(f"sg:{size}")
        inst = build_bench_instance(program, "random-graph", size, tropical(), rng)
        g, report, trapped = grounds_trapped(program, inst, tree_heads)
        assert report[1].strategy == "linear-arity2" and trapped
        xs.append(inst.m * inst.n)
        ys.append(g.size)
    assert 0.9 <= loglog_slope(xs, ys) <= 1.1


# A nullary head or atom, or a child sharing no variable with its parent,
# gives the compiled node loop an empty argument tuple to pick.
EMPTY_ARGUMENTS = {
    "nullary-head": "T() :- R(x, y).\n@target T.\n",
    "disconnected": "T(x) :- R(x, y), S(z).\n@target T.\n",
    "linear-nullary-atom": (
        "T(x, y) :- E(x, y).\nT(x, y) :- T(x, z), E(z, y), F().\n@target T.\n"
    ),
}


@pytest.mark.parametrize("sr", [boolean(), tropical()], ids=lambda sr: sr.name)
@pytest.mark.parametrize("name", list(EMPTY_ARGUMENTS))
def test_empty_argument_tuples_on_the_join_tree_path(name, sr):
    program = parse_program(EMPTY_ARGUMENTS[name])
    rng = random.Random(f"empty:{name}:{sr.name}")
    for _ in range(10):
        assert_matches_brute_force(program, random_instance(program, sr, rng, nmax=4))


# Non-free-connex bodies that `ground_linear_acyclic2` turns down, each
# with the reason: `auto` grounds them along the plain join tree, as
# `acyclic` does, and reports `acyclic`.
LINEAR_DECLINED = {
    "no-idb": (
        "T(x, y) :- E(x, y).\nT(x, y) :- E(x, z), F(z, y).\n@target T.\n",
        "exactly one IDB atom",
    ),
    "no-shared-variable": (
        "T(x, y) :- F(x, y).\nT(x, y) :- E(x), F(b, y), T(a, b).\n@target T.\n",
        "shares 0 variables upward",
    ),
    "arity-3": (
        "T(x, y, z) :- R(x, y, z).\nT(x, y, z) :- T(x, w, z), R(w, y, y).\n@target T.\n",
        "arity > 2",
    ),
}


@pytest.mark.parametrize("sr", [boolean(), tropical()], ids=lambda sr: sr.name)
@pytest.mark.parametrize("name", list(LINEAR_DECLINED))
def test_linear_arity2_declines_to_acyclic(name, sr):
    text, reason = LINEAR_DECLINED[name]
    program = parse_program(text)
    body = program.rules[0].bodies[1]
    rng = random.Random(f"declined:{name}:{sr.name}")
    for _ in range(10):
        inst = random_instance(program, sr, rng, nmax=4)
        with pytest.raises(StrategyNotApplicable, match=reason):
            grounding.ground_linear_acyclic2(
                program, body, gyo_join_tree(build_hypergraph(body)), inst,
                Grounding(sr), "T", "0b1",
            )
        _, report = ground_program(program, inst, strategy="auto")
        assert report[1].strategy == "acyclic"
        assert_matches_brute_force(program, inst)


def test_triangle_grounds_through_indexed_rows():
    """A cyclic body grounds naively, each EDB atom extending the rows
    through an index of its facts keyed on the bound variables, not a scan
    of every fact per partial assignment: m = 3,200 well within 2 s."""
    program = parse_program("T(x, z) :- R(x, y), S(y, z), U(z, x).\n@target T.\n")
    m = 3200
    rng = random.Random("triangle")
    nodes = [f"v{i}" for i in range(2 * math.isqrt(m))]
    pairs = [(a, b) for a in nodes for b in nodes]
    inst = semlog.build_instance(
        {p: {t: float(rng.randint(1, 10)) for t in rng.sample(pairs, m)} for p in "RSU"},
        tropical(),
    )
    start = time.perf_counter()
    g, report = ground_program(program, inst)
    elapsed = time.perf_counter() - start
    assert report == [BodyStrategy("T", 0, "naive")]
    assert g.size > m
    assert elapsed < 2.0, elapsed


# Generated programs.  A predicate's name fixes its arity, so every draw is
# consistent: EDBs of arity <= 3 (N is nullary), IDBs S, T and U of arity <= 2
# (the linear-arity2 construction applies), variables drawn from a pool of
# four so they repeat.
FUZZ_ARITY = {"A": 1, "E": 2, "F": 2, "N": 0, "R": 3, "S": 1, "T": 2, "U": 2}
FUZZ_EDB = ("A", "E", "F", "N", "R")
FUZZ_SEMIRINGS = (boolean(), tropical(), access(), set_semiring("abc"))


def _fuzz_body(rng, preds, size):
    binary = [p for p in preds if FUZZ_ARITY[p] == 2]
    shape = rng.random()
    if shape < 0.15:  # a triangle: a cyclic body, sometimes with a side atom
        body = [(rng.choice(binary), args) for args in ("xy", "yz", "zx")]
        side = rng.random()
        if side < 0.25:  # ternary, with a repeated variable
            v = rng.choice("xyz")
            body.append(("R", rng.choice([v + v + "w", v + "w" + v])))
        elif side < 0.4:
            body.append(("N", ""))
        return body
    if shape < 0.3:  # a path: with T inside, a head variable may be trapped past it
        return [(rng.choice(binary), args) for args in ("xz", "zw", "wy")]
    return [
        (pred, "".join(rng.choice("xyzw") for _ in range(FUZZ_ARITY[pred])))
        for pred in (rng.choice(preds) for _ in range(size))
    ]


def _fuzz_trapped_body(rng):
    """T inside a path x .. y of 1-4 EDB atoms, with side atoms hanging off
    the path variables: with x and y in the head, y is trapped past T."""
    path = ["x", *"pqrs"[: rng.randint(1, 4)], "y"]
    at = rng.randrange(len(path) - 1)
    body = [("T" if i == at else rng.choice("EF"), path[i] + path[i + 1])
            for i in range(len(path) - 1)]
    for private in "uv"[: rng.randint(0, 2)]:
        v = rng.choice(path)
        body.append(rng.choice([
            ("A", v),
            ("N", ""),
            (rng.choice("EF"), rng.choice([v + private, private + v])),
            ("R", rng.choice([v + v + private, v + private + private])),
        ]))
    return body


def _fuzz_rule(head, body, rng, pool=None):
    """The rule `head(...) :- body`, its head variables drawn from `pool`
    (default: the body's variables)."""
    if not any(args for _, args in body):  # only nullary atoms bind nothing
        body = body + [("A", "x")]
    bvars = sorted({v for _, args in body for v in args})
    if len(bvars) < FUZZ_ARITY[head]:
        head = "S"
    hargs = rng.sample(pool or bvars, FUZZ_ARITY[head])
    atoms = ", ".join(f"{p}({', '.join(args)})" for p, args in body)
    return head, f"{head}({', '.join(hargs)}) :- {atoms}."


def _fuzz_reading(rng, head, reads):
    """A rule for `head` over 1-2 EDB atoms and one atom of each of `reads`."""
    body = _fuzz_body(rng, FUZZ_EDB, rng.randint(1, 2))
    body += [(p, "".join(rng.choice("xyzw") for _ in range(FUZZ_ARITY[p]))) for p in reads]
    return _fuzz_rule(head, body, rng)[1]


def random_program(rng):
    """A base rule for the target over EDBs, then 1-3 rules over everything;
    a quarter of those put T inside a path between two head variables.  A
    fifth of the programs add rules where T and U read each other and S
    reads itself and one of them: a recursive stratum of two symbols below
    another recursive stratum."""
    base = _fuzz_body(rng, FUZZ_EDB, rng.randint(1, 2))
    target, line = _fuzz_rule("T" if rng.random() < 0.7 else "S", base, rng)
    lines = [line]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            lines.append(_fuzz_rule(rng.choice("STU"), _fuzz_trapped_body(rng), rng, "xy")[1])
        else:
            body = _fuzz_body(rng, tuple(FUZZ_ARITY), rng.randint(1, 4))
            lines.append(_fuzz_rule(rng.choice("STU"), body, rng)[1])
    if rng.random() < 0.2:
        lines += [_fuzz_reading(rng, "T", "U"), _fuzz_reading(rng, "U", "T"),
                  _fuzz_reading(rng, "S", ("S", rng.choice("TU")))]
    return parse_program("\n".join(lines) + f"\n@target {target}.\n")


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_generated_programs_match_brute_force(rng):
    program = random_program(rng)
    for sr in FUZZ_SEMIRINGS:
        assert_matches_brute_force(program, random_instance(program, sr, rng, nmax=3))


def test_generated_programs_reach_every_body_strategy(tree_heads):
    reached = set()
    rng = random.Random("fuzz-strategies")
    for _ in range(100):
        program = random_program(rng)
        inst = random_instance(program, boolean(), rng, nmax=3)
        _, report, trapped = grounds_trapped(program, inst, tree_heads)
        reached.update(s.strategy for s in report)
        if trapped:
            reached.add("linear-arity2 chain")
    assert reached == {
        "naive", "acyclic", "acyclic-free-connex", "linear-arity2", "linear-arity2 chain"
    }
