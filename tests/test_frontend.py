import math
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import semlog
from semlog.frontend import (
    DuplicateFactWarning,
    ProgramSyntaxError,
    ValidationError,
    build_instance,
    check_instance_against,
    classify,
    parse_facts,
    parse_program,
    pretty_print,
)
from semlog.semirings import boolean, naturals, set_semiring, tropical

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


# Comment and blank lines before the bad line: line numbers count them.
PREAMBLE = "% header\n\nR(a, b) = 2.\n   \n  % note\r\n"


FACT_ERRORS = [
    ("R(a,b = 1.\n", "line 1: malformed"),
    ("R(a,b) = 1.\nR(a) = 1.\n", "line 2: arity mismatch for R: 1 vs 2"),
    ("R(a,b) = frog.\n", "line 1: "),
    ("R(a,b).\n", "line 1: missing annotation"),
    (PREAMBLE + "R(a,b = 1.\n", "line 6: malformed"),
    (PREAMBLE + "R(a) = 1.\n", "line 6: arity mismatch for R: 1 vs 2"),
    (PREAMBLE + "R(a, c) = frog.\n", "line 6: could not convert"),
    (PREAMBLE + "R(a, c).\n", "line 6: missing annotation for semiring tropical"),
    # The good literal `2` is read three times before the bad one.
    (PREAMBLE + "R(b, c) = 2.\nR(c, d) = 2 .\nR(d, e) = 2x.\n", "line 8: could not convert"),
    (PREAMBLE + "R(b, c) = frog.\nR(c, d) = frog.\n", "line 6: could not convert"),
    # A row may name its semiring; the others read tropical.
    ("R(a,b) = yes.\n", "line 1: bad boolean literal 'yes'", boolean()),
    ("R(a,b) = -1.\n", "line 1: bad natural literal '-1'", naturals()),
    ("R(a,b) = a.\n", "line 1: bad set literal 'a'", set_semiring("ab")),
    ("R(a,b) = {c}.\n", "line 1: set literal '{c}' outside universe", set_semiring("ab")),
]


def test_parse_facts_errors():
    for text, pattern, *sr in FACT_ERRORS:
        with pytest.raises(ValidationError, match=re.escape(pattern)):
            parse_facts(text, sr[0] if sr else tropical())


def test_parse_facts_comments_and_quotes():
    inst = parse_facts('% facts\nR("a b", c) = 1. % w\n', tropical())
    assert ("a b", "c") in inst.relations["R"]


def test_parse_facts_quoted_comma_and_percent():
    inst = parse_facts('E("a,b", c).\nE("50%", "f(x)") . % note\n', boolean())
    assert inst.relations["E"] == {("a,b", "c"): True, ("50%", "f(x)"): True}


def test_parse_facts_unbalanced_quote_is_malformed():
    with pytest.raises(ValidationError):
        parse_facts('E("a, b).\n', boolean())


@pytest.mark.parametrize("fact", [
    "R(a, ) = 1.", "R(,) = 1.", 'R("a" b) = 1.', 'R("") = 1.', 'R(a "b") = 1.',
], ids=["empty-last", "empty-both", "half-quoted", "empty-quoted", "quote-after-bare"])
def test_parse_facts_rejects_empty_and_half_quoted_arguments(fact):
    # An empty constant names its atoms like `e_R_a_`, which reads as the constant 'a_'.
    with pytest.raises(ValidationError, match=re.escape(f"line 3: malformed fact {fact!r}")):
        parse_facts(f"E(a, b) = 1.\n% c\n{fact}\n", tropical())


# What the README's fact-file example reads as, over tropical.
README_FACTS = {
    "E": {("a", "b"): 1.5, ("b", "c"): 2.0, ("x, y", "c"): 0.25},
    "S": {("a",): 0.0},
    "Start": {(): 0.0},
}


def test_readme_fact_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Fact files", 1)[1]
    block = section.split("```", 2)[1]
    with pytest.warns(DuplicateFactWarning):
        inst = parse_facts(block, tropical())
    assert inst.relations == README_FACTS


def test_build_instance_rejects_mixed_arities():
    with pytest.raises(ValidationError, match="R mixes arities"):
        build_instance({"E": {("a",): 1.0}, "R": {("a", "b"): 1.0, ("c",): 2.0}}, tropical())
    check_instance_against(parse_program(TC), build_instance({"R": {}}, tropical()))


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


# A fact file drawn with its expected contents, built here without the parser.
# Each semiring draws (literal text or None, value); None omits the annotation.
SET_ITEMS = ("a", "b", "c")
SEMIRING_VALUES = {
    "tropical": st.one_of(
        st.integers(0, 12).map(lambda i: (str(i), float(i))),
        st.sampled_from([("1.5", 1.5), ("0.25", 0.25), ("2.5e-3", 0.0025),
                         ("inf", math.inf)]),
    ),
    "boolean": st.sampled_from([(None, True), ("true", True), ("false", False)]),
    "set:a,b,c": st.tuples(
        st.lists(st.sampled_from(SET_ITEMS), unique=True, max_size=3),
        st.sampled_from(["", " "]),
    ).map(lambda d: ("{" + f"{d[1]},{d[1]}".join(d[0]) + "}", frozenset(d[0]))),
}
SEMIRINGS = {"tropical": tropical, "boolean": boolean,
             "set:a,b,c": lambda: set_semiring(SET_ITEMS)}

space = st.sampled_from(["", " ", "  ", "\t"])
bare_constant = st.one_of(
    st.from_regex(r"[A-Za-z0-9_'.-]{1,4}", fullmatch=True),
    st.sampled_from(["x y", "v10", "a.b"]),
)
quoted_text = st.text(alphabet='ab ,%()', min_size=1, max_size=5)
constant = st.one_of(
    bare_constant.map(lambda c: (c, c)),
    quoted_text.map(lambda c: (f'"{c}"', c)),
)
comment = st.text(alphabet='ab %(),"=.', max_size=6).map(lambda c: "%" + c)
filler = st.one_of(st.sampled_from(["", "   ", "\t"]),
                   st.tuples(space, comment).map("".join))


@st.composite
def fact_files(draw):
    name = draw(st.sampled_from(sorted(SEMIRINGS)))
    sr = SEMIRINGS[name]()
    preds = draw(st.lists(st.from_regex(r"[A-Z][a-z0-9_']{0,3}", fullmatch=True),
                          min_size=1, max_size=3, unique=True))
    arity = {p: draw(st.integers(0, 3)) for p in preds}
    expected: dict = {}
    duplicates = 0
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(filler))
            continue
        pred = draw(st.sampled_from(preds))
        args = [draw(constant) for _ in range(arity[pred])]
        if draw(st.booleans()) and expected.get(pred):  # repeat a stored tuple
            key = draw(st.sampled_from(sorted(expected[pred])))
            args = [(f'"{c}"', c) for c in key]
        lit, value = draw(SEMIRING_VALUES[name])
        sep = draw(space) + "," + draw(space)
        line = (draw(space) + pred + draw(space) + "(" + draw(space)
                + sep.join(text for text, _ in args) + draw(space) + ")" + draw(space))
        if lit is not None:
            line += "=" + draw(space) + lit + draw(space)
        line += "." + draw(space) + draw(st.sampled_from(["", "% c", "%(a, b)"]))
        lines.append(line)
        rel = expected.setdefault(pred, {})
        key = tuple(c for _, c in args)
        if key in rel:
            duplicates += 1
            value = sr.plus(rel[key], value)
        rel[key] = value
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text.removesuffix(ends[-1])  # no line break after the last line
    kept = {p: {k: v for k, v in rel.items() if v != sr.zero}
            for p, rel in expected.items()}
    return sr, text, {p: rel for p, rel in kept.items() if rel}, duplicates


@settings(deadline=None)
@given(fact_files())
def test_parse_facts_matches_a_built_instance(drawn):
    sr, text, relations, duplicates = drawn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = parse_facts(text, sr)
    assert sum(issubclass(w.category, DuplicateFactWarning) for w in caught) == duplicates
    assert inst.relations == relations
    domain = sorted({c for rel in relations.values() for key in rel for c in key})
    assert inst.active_domain == tuple(domain)
    assert inst.n == len(domain)
    assert inst.m == sum(map(len, relations.values()))
