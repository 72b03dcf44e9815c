import copy
import math
import random

import pytest

import semlog
from semlog.grounding import (
    KIND_COEFF, KIND_VAR, CyclicRuleError, Grounding, ground_program
)
from semlog.semirings import access, boolean, naturals, set_semiring, tropical
from semlog.solver import (
    OP_PLUS,
    OP_TIMES,
    NonConvergence,
    SolverCapabilityError,
    applicable_methods,
    kleene_grounding,
    kleene_program,
    kleene_system,
    pick_method,
    solve_absorptive,
    solve_grounding,
    solve_rank,
    to_two_canonical,
    _strata,
)

from conftest import brute_force_fixpoint, random_instance, warshall
from test_grounder import random_program

TC = semlog.corpus_program("eq2_tc")


def tc_grounding(sr, edges):
    inst = semlog.build_instance({"R": edges}, sr)
    return ground_program(TC, inst, strategy="naive")[0]


def test_to_two_canonical_shapes():
    g = tc_grounding(boolean(), {("a", "b"): True})
    sys = to_two_canonical(g)
    # x_aa, x_ba: (+) zero zero; x_bb: single product chain;
    # x_ab: one (*) for the binary monomial plus one (+) combining summands
    assert sorted(sys.ops) == [OP_PLUS, OP_PLUS, OP_PLUS, OP_TIMES, OP_TIMES]
    assert sys.size == 3 * len(sys.lhs) <= 4 * g.size


def test_single_length_one_monomial_times_one():
    g = Grounding(boolean())
    x = g.intern_var("T", ("a",))
    e = g.intern_coeff("R", ("a",), True)
    g.add_monomial(x, [e])
    sys = to_two_canonical(g.finalize())
    [op] = sys.ops
    assert op == OP_TIMES and sys.b == [sys.ONE]


def test_long_monomial_becomes_chain():
    g = Grounding(naturals())
    x = g.intern_var("T", ("a",))
    coeffs = [g.intern_coeff(f"C{i}", ("a",), 2) for i in range(5)]
    g.add_monomial(x, coeffs)
    sys = to_two_canonical(g.finalize())
    assert len(sys.lhs) == 4
    assert all(op == OP_TIMES for op in sys.ops)
    values, _ = kleene_system(sys)
    assert values[sys.ATOMS + x] == 2 ** 5


def test_canonical_size_bound_random():
    rng = random.Random(2)
    for name in semlog.CORPUS:
        program = semlog.corpus_program(name)
        inst = random_instance(program, tropical(), rng, nmax=5)
        for strategy in ("naive", "auto"):
            g, _ = ground_program(program, inst, strategy=strategy)
            sys = to_two_canonical(g)
            assert sys.size <= 4 * g.size, (name, strategy)


def test_canonicalization_preserves_fixpoint():
    rng = random.Random(6)
    for name in semlog.CORPUS:
        program = semlog.corpus_program(name)
        inst = random_instance(program, tropical(), rng, nmax=4)
        g, _ = ground_program(program, inst, strategy="auto")
        sys = to_two_canonical(g)
        values, _ = kleene_system(sys)
        via_sys = values[sys.ATOMS : sys.ATOMS + len(g.kinds)]
        direct = kleene_grounding(g).values
        assert via_sys == direct, name


def test_rank_boolean_tc_matches_warshall():
    edges = {("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")}
    g = tc_grounding(boolean(), {e: True for e in edges})
    sol = solve_grounding(g, method="rank")
    assert set(sol.relation(g, "T")) == warshall(edges)


def test_tropical_path_distance():
    g = tc_grounding(tropical(), {("a", "b"): 1.0, ("b", "c"): 2.0})
    sol = solve_grounding(g, method="absorptive")
    rel = sol.relation(g, "T")
    assert rel[("a", "c")] == 3.0
    assert ("c", "a") not in rel


def test_capability_errors():
    trop = to_two_canonical(tc_grounding(tropical(), {("a", "b"): 1.0}))
    with pytest.raises(SolverCapabilityError):
        solve_rank(trop)
    nat_inst = semlog.build_instance({"R": {("a", "b"): 2}}, naturals())
    with pytest.raises(SolverCapabilityError):
        solve_absorptive(ground_program(TC, nat_inst, strategy="naive")[0])
    with pytest.raises(SolverCapabilityError):
        solve_grounding(ground_program(TC, nat_inst, strategy="naive")[0], method="absorptive")


def test_method_dispatch():
    assert pick_method(boolean()) == "absorptive"
    assert pick_method(access()) == "absorptive"
    assert pick_method(tropical()) == "absorptive"
    assert pick_method(naturals()) == "kleene"
    assert pick_method(set_semiring("abc")) == "rank"
    assert pick_method(set_semiring("a")) == "rank"
    assert applicable_methods(tropical()) == ["absorptive", "kleene"]
    assert applicable_methods(boolean()) == ["rank", "absorptive", "kleene"]
    assert applicable_methods(naturals()) == ["kleene"]


def test_all_zero_system():
    inst = semlog.build_instance({"S": {("a", "b"): True}}, boolean())
    g = ground_program(TC, inst, strategy="naive")[0]  # R is empty, so T never fires
    for method in ("rank", "kleene"):
        sol = solve_grounding(g, method=method)
        assert sol.relation(g, "T") == {}


def test_kleene_nonconvergence():
    g = Grounding(naturals())
    x = g.intern_var("T", ("a",))
    one = g.intern_coeff("C", ("a",), 1)
    g.add_monomial(x, [one])
    g.add_monomial(x, [x, one])  # x = 1 + x, diverges over the naturals
    with pytest.raises(NonConvergence):
        kleene_grounding(g.finalize(), max_iters=50)


def test_kleene_program_nonconvergence():
    inst = semlog.build_instance({"R": {("a", "a"): 2}}, naturals())
    with pytest.raises(NonConvergence):
        kleene_program(TC, inst)  # T(a, a) doubles on every round


def test_solvers_agree_across_semirings():
    rng = random.Random(13)
    for sr in (boolean(), access(), tropical()):
        for name in semlog.CORPUS:
            program = semlog.corpus_program(name)
            inst = random_instance(program, sr, rng, nmax=4)
            g, _ = ground_program(program, inst, strategy="auto")
            baseline = kleene_grounding(g).relation(g, program.target)
            for method in applicable_methods(sr):
                sol = solve_grounding(g, method=method)
                assert sol.relation(g, program.target) == baseline, (sr.name, name, method)


def test_absorptive_pop_discipline():
    rng = random.Random(19)
    for name in semlog.CORPUS:
        program = semlog.corpus_program(name)
        inst = random_instance(program, tropical(), rng, nmax=5)
        g, _ = ground_program(program, inst, strategy="auto")
        sol = solve_grounding(g, method="absorptive")
        pops = sol.stats["pops"]
        ids = [nid for nid, _ in pops]
        assert len(ids) == len(set(ids)), "variable popped twice"
        keys = [tropical().key_fn(v) for _, v in pops]
        assert keys == sorted(keys), "pop keys must be non-decreasing"


# Two coefficient values per absorptive semiring, both non-zero.
ABSORPTIVE_COEFFS = [(tropical(), 1.0, 2.0), (boolean(), True, True), (access(), "S", "C")]


def hand_grounding(sr, c1, c2):
    """x = c1 + c1*c2;  y = x*x*c2 + y*c1;  z = z*u;  u = z*c2;  w has no monomial."""
    g = Grounding(sr)
    x, y, z, u, w = (g.intern_var("T", (name,)) for name in "xyzuw")
    a = g.intern_coeff("E", ("a",), c1)
    b = g.intern_coeff("E", ("b",), c2)
    g.add_monomial(x, [a])  # coefficients only
    g.add_monomial(x, [a, b])
    g.add_monomial(y, [x, x, b])  # repeated variable
    g.add_monomial(y, [y, a])
    g.add_monomial(z, [z, u])  # z and u stay at zero
    g.add_monomial(u, [z, b])
    g.ensure_equation(w)  # empty equation
    return g.finalize()


def assert_pops_count_nonzero(g, sol):
    """Each non-zero variable of a recursive stratum is popped once, and each
    head of a non-recursive stratum is evaluated once instead: the two sets
    are disjoint, and every other head is a zero of a recursive stratum."""
    one_pass = set(sol.stats["one_pass"])
    assert sol.stats["evaluated"] == len(sol.stats["one_pass"]) == len(one_pass)
    popped = {aid for aid, _ in sol.stats["pops"]}
    assert popped.isdisjoint(one_pass)
    zero = sol.semiring.zero
    variables = [a for a, kind in enumerate(g.kinds) if kind == KIND_VAR]
    recursive_nonzero = {a for a in variables if sol.values[a] != zero} - one_pass
    assert sol.stats["popped"] == len(recursive_nonzero)
    assert popped == recursive_nonzero


@pytest.mark.parametrize(
    "sr, c1, c2", ABSORPTIVE_COEFFS, ids=[c[0].name for c in ABSORPTIVE_COEFFS]
)
def test_absorptive_hand_grounding(sr, c1, c2):
    g = hand_grounding(sr, c1, c2)
    sol = solve_absorptive(g)
    assert sol.values == kleene_grounding(g).values
    named = sol.named(g)
    assert named["x_T_x"] != sr.zero and named["x_T_y"] != sr.zero
    assert named["x_T_z"] == named["x_T_u"] == named["x_T_w"] == sr.zero
    assert_pops_count_nonzero(g, sol)


# A repeated IDB atom gives monomials with a repeated variable; naive
# grounding adds empty equations and variables that stay at zero.
SQUARE = semlog.parse_program(
    "T(x) :- S(x).\n"
    "T(y) :- T(x), T(x), R(x, y).\n"
    "@target T.\n"
)


@pytest.mark.parametrize("sr", [c[0] for c in ABSORPTIVE_COEFFS], ids=lambda sr: sr.name)
def test_absorptive_matches_oracles(sr):
    rng = random.Random(f"absorptive:{sr.name}")
    for _ in range(20):
        inst = random_instance(SQUARE, sr, rng, nmax=5)
        want = brute_force_fixpoint(SQUARE, inst)["T"]
        for strategy in ("naive", "auto"):
            g, _ = ground_program(SQUARE, inst, strategy=strategy)
            sol = solve_absorptive(g)
            assert sol.relation(g, "T") == want, strategy
            assert sol.values == kleene_grounding(g).values, strategy
            assert_pops_count_nonzero(g, sol)


# Two recursive strata, the upper one reading the lower as constants; few
# random programs and no corpus program have two.
STACKED = semlog.parse_program(
    "T(x, y) :- E(x, y).\n"
    "T(x, y) :- T(x, z), E(z, y).\n"
    "S(x, y) :- T(x, y).\n"
    "S(x, y) :- S(x, z), F(z, y).\n"
    "@target S.\n"
)


# A multi-stratum solve must agree with the one-stratum loop (the same
# grounding with `depends` cleared) and with both oracles.
@pytest.mark.parametrize("sr", [c[0] for c in ABSORPTIVE_COEFFS], ids=lambda sr: sr.name)
def test_strata_match_the_one_stratum_solve_and_the_oracles(sr):
    rng = random.Random(f"strata:{sr.name}")
    programs = [semlog.corpus_program(name) for name in semlog.CORPUS for _ in range(3)]
    programs += [random_program(rng) for _ in range(40)]
    programs += [STACKED] * 3
    reached = set()
    for program in programs:
        inst = random_instance(program, sr, rng, nmax=4)
        want = brute_force_fixpoint(program, inst)
        for strategy in ("naive", "acyclic", "auto"):
            try:
                g, _ = ground_program(program, inst, strategy=strategy)
            except CyclicRuleError:
                continue
            sol = solve_absorptive(g)
            flat = copy.copy(g)
            flat.depends = {}
            one = solve_absorptive(flat)
            assert one.stats["evaluated"] == 0
            assert sol.values == one.values == kleene_grounding(g).values
            for symbol in program.idb_schema:
                assert sol.relation(g, symbol) == want[symbol], (symbol, strategy)
            assert_pops_count_nonzero(g, sol)
            strata = _strata(g.depends)
            stratum_of = {s: i for i, (symbols, _) in enumerate(strata) for s in symbols}
            keys = {}  # the pop keys of each stratum, non-decreasing within it
            for aid, value in sol.stats["pops"]:
                keys.setdefault(stratum_of.get(g.symbols[aid]), []).append(sr.key_fn(value))
            assert all(k == sorted(k) for k in keys.values())
            reached.add((sum(rec for _, rec in strata), sol.stats["evaluated"] > 0))
            recursive = [set(symbols) for symbols, rec in strata if rec]
            if any(len(low & program.idb_schema.keys()) >= 2 and low <= _reads(g.depends, high)
                   for low in recursive for high in recursive if high is not low):
                reached.add("two IDBs in a recursive stratum read by another")
    assert {(0, True), (1, False), (1, True), (2, False), (2, True)} <= reached, reached
    assert "two IDBs in a recursive stratum read by another" in reached, reached


def _reads(depends, symbols):
    """The symbols that `symbols` read through `depends`, transitively."""
    seen, stack = set(), list(symbols)
    while stack:
        for t in depends.get(stack.pop(), ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def test_kleene_and_absorptive_read_only_the_flat_lists(monkeypatch):
    """Both solvers start from a copy of `g.values` and never build the
    per-head `equations` view; no solution shares the grounding's list."""
    edges = {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 3.0}
    g, _ = ground_program(TC, semlog.build_instance({"R": edges}, tropical()))
    initial = list(g.values)

    def refuse(self):
        raise AssertionError("Grounding.equations was read")

    monkeypatch.setattr(Grounding, "equations", property(refuse))
    for method in ("kleene", "absorptive"):
        sol = solve_grounding(g, method=method)
        assert sol.values is not g.values and g.values == initial, method
        assert sol.relation(g, "T")[("a", "c")] == 3.0, method


def test_kleene_and_absorptive_agree_without_finalize():
    """T(a) = E(a) + T(b)*E(a), built by hand with no equation for T(b): both
    solvers start every variable atom at zero."""
    g = Grounding(tropical())
    a, b = g.intern_var("T", ("a",)), g.intern_var("T", ("b",))
    e = g.intern_coeff("E", ("a",), 1.0)
    g.add_monomial(a, [e])
    g.add_monomial(a, [b, e])
    want = [1.0, math.inf, 1.0]  # T(a), T(b), E(a)
    assert kleene_grounding(g).values == solve_absorptive(g).values == want


@pytest.mark.parametrize("sr", [c[0] for c in ABSORPTIVE_COEFFS], ids=lambda sr: sr.name)
def test_star_evaluates_every_head_once(sr):
    program = semlog.corpus_program("ex51_star")
    inst = random_instance(program, sr, random.Random(f"star:{sr.name}"), nmax=5)
    g, _ = ground_program(program, inst)
    sol = solve_absorptive(g)
    assert sol.stats["popped"] == sol.stats["stale_skips"] == 0
    assert sorted(sol.stats["one_pass"]) == sorted(g.equations)
    assert sol.values == kleene_grounding(g).values


def test_rank_visit_bound():
    rng = random.Random(23)
    for sr in (boolean(), access()):
        r = sr.finite_rank
        for name in semlog.CORPUS:
            program = semlog.corpus_program(name)
            inst = random_instance(program, sr, rng, nmax=4)
            g, _ = ground_program(program, inst, strategy="auto")
            sol = solve_grounding(g, method="rank")
            assert sol.stats["max_equation_visits"] <= 2 * r, (sr.name, name)


def test_rank_updates_stay_below_fixpoint():
    rng = random.Random(29)
    sr = access()
    for name in semlog.CORPUS:
        program = semlog.corpus_program(name)
        inst = random_instance(program, sr, rng, nmax=4)
        g, _ = ground_program(program, inst, strategy="auto")
        sys = to_two_canonical(g)
        final, _ = kleene_system(sys)
        seen = []

        def check(nid, value):
            seen.append(nid)
            assert sr.nat_leq(value, final[nid]), "overshot the least fixpoint"

        values, _ = solve_rank(sys, on_update=check)
        assert values == final


SET3 = set_semiring(["a", "b", "c"])
# Two non-zero coefficient values per finite-rank semiring.
RANK_COEFFS = [
    (boolean(), True, True),
    (access(), "S", "C"),
    (SET3, frozenset({"a", "b"}), frozenset({"b", "c"})),
]


def rank_hand_grounding(sr, c1, c2):
    """x = c1;  y = x*x*c1*c2 + y*c2;  p = x*x;  z = z*c1;  w = 0;  u = v*c2.

    A length-1 monomial alone, a monomial of length 4, x*x, two self-loops
    (z stays at zero), an empty equation, and an operand v with no equation:
    the grounding is not finalized.
    """
    g = Grounding(sr)
    x, y, p, z, w, u, v = (g.intern_var("T", (name,)) for name in "xypzwuv")
    a = g.intern_coeff("E", ("a",), c1)
    b = g.intern_coeff("E", ("b",), c2)
    g.add_monomial(x, [a])
    g.add_monomial(y, [x, x, a, b])
    g.add_monomial(y, [y, b])
    g.add_monomial(p, [x, x])
    g.add_monomial(z, [z, a])
    g.ensure_equation(w)
    g.add_monomial(u, [v, b])
    return g


def is_constant(sys, g, node):
    atom = node - sys.ATOMS
    return atom < 0 or (atom < len(g.kinds) and g.kinds[atom] == KIND_COEFF)


@pytest.mark.parametrize("sr, c1, c2", RANK_COEFFS, ids=[c[0].name for c in RANK_COEFFS])
def test_rank_hand_grounding(sr, c1, c2):
    g = rank_hand_grounding(sr, c1, c2)
    sys = to_two_canonical(g)
    seeded = [
        eq for eq in range(len(sys.lhs))
        if is_constant(sys, g, sys.a[eq]) or is_constant(sys, g, sys.b[eq])
    ]
    assert sys.seeds == seeded and len(seeded) < len(sys.lhs)
    p = g.intern_var("T", ("p",))
    [eq_p] = [eq for eq, lhs in enumerate(sys.lhs) if lhs == sys.ATOMS + p]
    assert sys.uses[sys.ATOMS + g.intern_var("T", ("x",))].count(eq_p) == 2
    sol = solve_grounding(g, method="rank")
    assert sol.stats["init_ops"] == len(seeded)
    assert sol.stats["max_equation_visits"] <= 2 * sr.finite_rank
    assert sol.values == kleene_grounding(g.finalize()).values
    named = sol.named(g)
    assert named["x_T_x"] == c1 and named["x_T_p"] == c1
    assert named["x_T_y"] != sr.zero
    assert named["x_T_z"] == named["x_T_w"] == named["x_T_u"] == named["x_T_v"] == sr.zero


@pytest.mark.parametrize("name", list(semlog.CORPUS))
def test_rank_set_semiring_matches_brute_force(name):
    program = semlog.corpus_program(name)
    rng = random.Random(f"rank-set:{name}")
    for _ in range(12):
        inst = random_instance(program, SET3, rng, nmax=4)
        want = brute_force_fixpoint(program, inst)[program.target]
        for strategy in ("naive", "auto"):
            g, _ = ground_program(program, inst, strategy=strategy)
            sol = solve_grounding(g, method="rank")
            assert sol.relation(g, program.target) == want, strategy
            assert sol.stats["max_equation_visits"] <= 2 * SET3.finite_rank, strategy


@pytest.mark.parametrize("sr", [boolean(), tropical(), access()], ids=lambda sr: sr.name)
@pytest.mark.parametrize("name", list(semlog.CORPUS))
def test_kleene_program_matches_brute_force(name, sr):
    """The two grounding-free oracles agree, so neither can drift alone."""
    program = semlog.corpus_program(name)
    rng = random.Random(f"oracles:{name}:{sr.name}")
    for _ in range(4):
        inst = random_instance(program, sr, rng, nmax=4)
        assert kleene_program(program, inst) == brute_force_fixpoint(program, inst)


def test_kleene_program_tc():
    edges = {("a", "b"), ("b", "c")}
    inst = semlog.build_instance({"R": {e: True for e in edges}}, boolean())
    out = kleene_program(TC, inst)
    assert set(out["T"]) == warshall(edges)
    empty = kleene_program(TC, semlog.build_instance({}, boolean()))
    assert out is not empty and empty["T"] == {}


# `auto` sends boolean and access to the counter solver.  On boolean it is
# Dowling-Gallier Horn satisfiability: a variable is raised at most once, so
# it is pushed once, no pop is stale and one pop is made per true atom.
@pytest.mark.parametrize("sr", [boolean(), access()], ids=lambda sr: sr.name)
@pytest.mark.parametrize("name", list(semlog.CORPUS))
def test_auto_takes_the_counter_solver(name, sr):
    program = semlog.corpus_program(name)
    rng = random.Random(f"auto:{name}:{sr.name}")
    for _ in range(15):
        inst = random_instance(program, sr, rng, nmax=5)
        for strategy in ("naive", "acyclic", "auto"):
            g, _ = ground_program(program, inst, strategy=strategy)
            sol = solve_grounding(g)
            assert sol.method == "absorptive"
            assert sol.values == solve_grounding(g, method="rank").values
            assert_pops_count_nonzero(g, sol)
            if sr.name == "boolean":
                assert sol.stats["stale_skips"] == 0
