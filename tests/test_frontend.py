import math
import re

import pytest
from hypothesis import given, strategies as st

import semlog
from semlog.frontend import (
    DuplicateFactWarning,
    ProgramSyntaxError,
    ValidationError,
    check_instance_against,
    classify,
    parse_facts,
    parse_program,
    pretty_print,
)
from semlog.semirings import boolean, naturals, tropical

TC = """
T(x1, x2) :- R(x1, x2).
T(x1, x2) :- T(x1, x3), R(x3, x2).
@target T.
"""


def test_parse_tc():
    p = parse_program(TC)
    assert len(p.rules) == 1
    rule = p.rules[0]
    assert rule.head_pred == "T" and len(rule.bodies) == 2
    assert p.target == "T"
    assert p.edb_schema == {"R": 2} and p.idb_schema == {"T": 2}
    assert p.arity_bound == 2


def test_variable_canonicalization():
    p = parse_program(TC)
    body = p.rules[0].bodies[1]
    # head vars 0,1; the join variable becomes 2
    assert body.head_vars == (0, 1)
    assert [a.args for a in body.atoms] == [(0, 2), (2, 1)]
    assert body.atoms[0].is_idb and not body.atoms[1].is_idb


def test_unsafe_rule():
    with pytest.raises(ValidationError, match="unsafe"):
        parse_program("T(x) :- R(y, z).\n@target T.")


def test_missing_target():
    with pytest.raises(ValidationError, match="target"):
        parse_program("T(x) :- R(x).")


def test_multiple_targets():
    with pytest.raises(ValidationError, match="multiple"):
        parse_program("T(x) :- R(x).\n@target T.\n@target T.")


def test_target_must_be_idb():
    with pytest.raises(ValidationError, match="IDB"):
        parse_program("T(x) :- R(x).\n@target R.")


def test_arity_mismatch():
    with pytest.raises(ValidationError, match="arity"):
        parse_program("T(x) :- R(x), R(x, y).\n@target T.")


def test_repeated_head_variable():
    with pytest.raises(ValidationError, match="repeated"):
        parse_program("T(x, x) :- R(x, x).\n@target T.")


@pytest.mark.parametrize("text", [
    "__u_r0b0_e0_1(x) :- R(x).\nT(x) :- R(x).\n@target T.",
    "T(x) :- __u_r0b0_e0_1(x).\n@target T.",
], ids=["head", "body"])
def test_reserved_predicate_prefix(text):
    # The grounder names its fresh predicates `__u_r...`: a user predicate
    # of that name would share their equations.
    with pytest.raises(ValidationError, match="reserved"):
        parse_program(text)


def test_syntax_error_position():
    with pytest.raises(ProgramSyntaxError) as exc:
        parse_program("T(x) :- R(x)\n@target T.")
    assert exc.value.line == 2


def test_unknown_declaration():
    with pytest.raises(ProgramSyntaxError, match="declaration"):
        parse_program("@magic T.\nT(x) :- R(x).\n@target T.")


def test_comments_and_whitespace():
    p = parse_program("% header\nT(x) :- R(x). % trailing\n@target T.")
    assert p.target == "T"


def test_pretty_print_round_trip():
    for name in semlog.CORPUS_ALL:
        p = semlog.corpus_program(name)
        assert parse_program(pretty_print(p)) == p


def test_rule_merging_preserves_body_multiplicity():
    text = "T(x) :- R(x).\nT(x) :- R(x).\n@target T.\n"
    p = parse_program(text)
    assert len(p.rules[0].bodies) == 2
    assert p.rules[0].bodies[0] == p.rules[0].bodies[1]


def test_parse_facts_tropical():
    inst = parse_facts("R(a,b) = 1.\nR(b,c) = 2.\n", tropical())
    assert inst.m == 2 and inst.n == 3
    assert inst.active_domain == ("a", "b", "c")
    assert inst.relations["R"][("a", "b")] == 1.0


def test_parse_facts_decimal_annotation():
    inst = parse_facts("E(a, b) = 1.5.\nE(b, c) = 2.\nS(a) = 0.\n", tropical())
    assert inst.relations["E"] == {("a", "b"): 1.5, ("b", "c"): 2.0}
    assert inst.relations["S"] == {("a",): 0.0}
    assert parse_facts("E(a, b) = 2.5e-3 .\n", tropical()).relations["E"] == {
        ("a", "b"): 0.0025
    }


def test_parse_facts_boolean_default_and_dup():
    with pytest.warns(DuplicateFactWarning):
        inst = parse_facts("R(a,b).\nR(a,b).\n", boolean())
    assert inst.m == 1
    assert inst.relations["R"][("a", "b")] is True


def test_parse_facts_zero_dropped():
    inst = parse_facts("R(a,b) = inf.\n", tropical())
    assert inst.m == 0 and inst.relations == {}


def test_parse_facts_errors():
    with pytest.raises(ValidationError, match="malformed"):
        parse_facts("R(a,b = 1.\n", tropical())
    with pytest.raises(ValidationError, match="arity"):
        parse_facts("R(a,b) = 1.\nR(a) = 1.\n", tropical())
    with pytest.raises(ValidationError):
        parse_facts("R(a,b) = frog.\n", tropical())
    with pytest.raises(ValidationError, match="annotation"):
        parse_facts("R(a,b).\n", tropical())


def test_parse_facts_comments_and_quotes():
    inst = parse_facts('% facts\nR("a b", c) = 1. % w\n', tropical())
    assert ("a b", "c") in inst.relations["R"]


def test_parse_facts_quoted_comma_and_percent():
    inst = parse_facts('E("a,b", c).\nE("50%", "f(x)") . % note\n', boolean())
    assert inst.relations["E"] == {("a,b", "c"): True, ("50%", "f(x)"): True}


def test_parse_facts_unbalanced_quote_is_malformed():
    with pytest.raises(ValidationError):
        parse_facts('E("a, b).\n', boolean())


def test_check_instance_against():
    p = parse_program(TC)
    inst = parse_facts("T(a,b) = 1.\n", tropical())
    with pytest.raises(ValidationError, match="both"):
        check_instance_against(p, inst)
    inst2 = parse_facts("R(a,b,c) = 1.\n", tropical())
    with pytest.raises(ValidationError, match="arity"):
        check_instance_against(p, inst2)


def test_classify_tc():
    c = classify(parse_program(TC))
    assert c.as_dict() == {
        "monadic": False,
        "linear": True,
        "chain": True,
        "rulewise_acyclic": True,
        "rulewise_free_connex": False,
    }


def test_classify_p_complete_shape():
    c = classify(semlog.corpus_program("eq1_pcomplete"))
    assert c.monadic and not c.linear


def test_classify_chain_requires_forward_orientation():
    # reversed final atom breaks the chain reading
    text = "T(x, y) :- A(x, z), B(y, z).\n@target T.\n"
    assert not classify(parse_program(text)).chain
    text2 = "T(x, y) :- A(x, z), B(z, y).\n@target T.\n"
    assert classify(parse_program(text2)).chain


CLASSIFY_RE = re.compile(r"% classify: (.+)")


def test_corpus_headers_match_classification():
    for name in semlog.CORPUS_ALL:
        text = semlog.corpus_text(name)
        m = CLASSIFY_RE.search(text)
        assert m, f"{name} missing classify header"
        declared = dict(kv.split("=") for kv in m.group(1).split())
        got = {k: str(v).lower() for k, v in
               classify(parse_program(text)).as_dict().items()}
        assert declared == got, name


def test_triangle_body_is_cyclic():
    text = "T(x) :- R(x, y), S(y, z), W(z, x).\n@target T.\n"
    assert not classify(parse_program(text)).rulewise_acyclic


names = st.sampled_from(["a", "b", "c", "d"])


@given(st.lists(st.tuples(names, names), min_size=0, max_size=8))
def test_parse_facts_never_stores_zero(pairs):
    lines = "".join(f"R({a},{b}) = 1.\n" for a, b in pairs)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = parse_facts(lines, naturals())
    assert all(v != 0 for rel in inst.relations.values() for v in rel.values())
    assert inst.n <= 2 * inst.m


def test_idb_used_before_its_rule():
    program = parse_program("S(x) :- T(x, y).\nT(x, y) :- E(x, y).\n@target S.\n")
    assert program.idb_schema == {"S": 1, "T": 2}
    assert program.edb_schema == {"E": 2}
    assert program.rules[0].bodies[0].atoms[0].is_idb
