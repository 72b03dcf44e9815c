import random

import pytest
from hypothesis import given, settings, strategies as st

import semlog
from semlog.decomposition import (
    CyclicVerdict,
    build_hypergraph,
    choose_root,
    free_connex_root,
    gyo_join_tree,
    is_free_connex_rooting,
    top_map,
    verify_running_intersection,
)
from semlog.frontend import Atom, SumProdQuery, parse_program


def star_body():
    # T(x1) over T2(x2) * T3(x3) * R24(x2,x4) * R34(x3,x4) * R14(x1,x4)
    return semlog.corpus_program("ex51_star").rules[-1].bodies[0]


def test_build_hypergraph_star():
    h = build_hypergraph(star_body())
    assert h.num_vertices == 4
    assert [set(e.vertices) for e in h.edges] == [
        {1}, {2}, {1, 3}, {2, 3}, {0, 3}]


def test_build_hypergraph_keeps_duplicates():
    body = SumProdQuery((0,), (Atom("R", (0, 1), False), Atom("R", (0, 1), False)), 2)
    h = build_hypergraph(body)
    assert len(h.edges) == 2 and h.edges[0].id != h.edges[1].id


def test_gyo_star_tree_shape():
    tree = gyo_join_tree(build_hypergraph(star_body()))
    assert not isinstance(tree, CyclicVerdict)
    # hub is the head-variable edge R14 (id 4), carrying both binary edges,
    # each of which carries its unary IDB edge
    assert sorted(tree.adj[4]) == [2, 3]
    assert sorted(tree.adj[2]) == [0, 4]
    assert sorted(tree.adj[3]) == [1, 4]
    assert verify_running_intersection(tree)


def test_gyo_triangle_cyclic():
    body = SumProdQuery(
        (0,),
        (Atom("R", (0, 1), False), Atom("S", (1, 2), False), Atom("W", (2, 0), False)),
        3,
    )
    verdict = gyo_join_tree(build_hypergraph(body))
    assert isinstance(verdict, CyclicVerdict)
    assert len(verdict.residue) == 3


def test_gyo_two_atom_chain():
    body = SumProdQuery(
        (0,), (Atom("R", (0, 1), False), Atom("S", (1, 2), False)), 3
    )
    tree = gyo_join_tree(build_hypergraph(body))
    assert tree.adj[0] == [1] and tree.adj[1] == [0]


def test_all_corpus_trees_satisfy_running_intersection():
    for name in semlog.CORPUS_ALL:
        program = semlog.corpus_program(name)
        for rule in program.rules:
            for body in rule.bodies:
                tree = gyo_join_tree(build_hypergraph(body))
                assert not isinstance(tree, CyclicVerdict), name
                assert verify_running_intersection(tree), name


def test_verdict_invariant_under_atom_order():
    base = star_body()
    rng = random.Random(7)
    for _ in range(10):
        atoms = list(base.atoms)
        rng.shuffle(atoms)
        body = SumProdQuery(base.head_vars, tuple(atoms), base.num_vars)
        tree = gyo_join_tree(build_hypergraph(body))
        assert not isinstance(tree, CyclicVerdict)
        assert verify_running_intersection(tree)


def test_choose_root_star():
    tree = gyo_join_tree(build_hypergraph(star_body()))
    assert choose_root(tree, frozenset({0})) == 4  # only R14 holds the head var


def test_choose_root_tie_and_empty():
    body = SumProdQuery(
        (0, 1), (Atom("R", (0, 2), False), Atom("S", (2, 1), False)), 3
    )
    tree = gyo_join_tree(build_hypergraph(body))
    assert choose_root(tree, frozenset({0, 1})) == 0  # 1 head var each, low id
    assert choose_root(tree, frozenset()) == 0


def test_free_connex_root_star():
    tree = gyo_join_tree(build_hypergraph(star_body()))
    r = free_connex_root(tree, frozenset({0}))
    assert r == 4
    assert is_free_connex_rooting(tree, r, frozenset({0}))
    assert not is_free_connex_rooting(tree, 0, frozenset({0}))


def test_free_connex_root_tc_body_fails():
    body = semlog.corpus_program("eq2_tc").rules[0].bodies[1]
    tree = gyo_join_tree(build_hypergraph(body))
    assert free_connex_root(tree, body.head_set) is None


def test_free_connex_vacuous_when_all_vars_are_head():
    body = SumProdQuery(
        (0, 1), (Atom("A", (0,), False), Atom("R", (0, 1), False), Atom("B", (1,), False)), 2
    )
    tree = gyo_join_tree(build_hypergraph(body))
    for node in tree.nodes:
        assert is_free_connex_rooting(tree, node.id, frozenset({0, 1}))
    assert free_connex_root(tree, frozenset({0, 1})) == 0


def test_top_map_star():
    tree = gyo_join_tree(build_hypergraph(star_body()))
    tops = top_map(tree, 4)
    assert tops[0] == 4 and tops[3] == 4
    assert tops[1] == 2 and tops[2] == 3


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_acyclic_queries_get_valid_trees(data):
    # random "path + attached unary" shapes are always acyclic
    n = data.draw(st.integers(2, 6))
    atoms = [Atom(f"E{i}", (i, i + 1), False) for i in range(n - 1)]
    for v in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        atoms.append(Atom(f"U{v}", (v,), False))
    body = SumProdQuery((0,), tuple(atoms), n)
    tree = gyo_join_tree(build_hypergraph(body))
    assert not isinstance(tree, CyclicVerdict)
    assert verify_running_intersection(tree)
    r = free_connex_root(tree, frozenset({0}))
    if r is not None:
        assert is_free_connex_rooting(tree, r, frozenset({0}))
