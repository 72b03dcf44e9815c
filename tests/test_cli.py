import json

import random

import pytest
from hypothesis import given, settings, strategies as st

import semlog
from semlog import cli
from semlog.cli import build_bench_instance, main
from semlog.frontend import parse_facts
from semlog.semirings import UserInputError, boolean, naturals

TC = "T(x1, x2) :- R(x1, x2).\nT(x1, x2) :- T(x1, x3), R(x3, x2).\n@target T.\n"


@pytest.fixture
def tc_files(tmp_path):
    prog = tmp_path / "tc.dl"
    prog.write_text(TC)
    facts = tmp_path / "facts.txt"
    facts.write_text("R(a,b) = 1.\nR(b,c) = 2.\n")
    return str(prog), str(facts)


def test_run_tsv(tc_files, capsys):
    prog, facts = tc_files
    rc = main(["run", "--program", prog, "--facts", facts,
               "--semiring", "tropical"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out.splitlines() == [
        "T(a,b)\t1",
        "T(a,c)\t3",
        "T(b,c)\t2",
    ]
    assert "grounding_size" in err


def test_run_structured(tc_files, capsys):
    prog, facts = tc_files
    rc = main(["run", "--program", prog, "--facts", facts,
               "--semiring", "tropical", "--output", "structured"])
    out, _ = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out)
    assert doc["relation"]["T(a,c)"] == "3"
    assert doc["stats"]["solver"] == "absorptive"


def _tsv_stats(err):
    """The stats lines on stderr as {key: value}, with the strategy lines as a list."""
    stats = {"strategies": []}
    for line in err.splitlines():
        key, *values = line.split("\t")
        if key == "strategy":
            stats["strategies"].append(values)
        else:
            (stats[key],) = values
    return stats


@pytest.mark.parametrize(
    "semiring, facts, solver",
    [("tropical", "R(a,b) = 1.\nR(b,c) = 2.\n", "absorptive"),
     ("tropical", "R(a,b) = 1.\nR(b,c) = 2.\n", "kleene"),
     ("boolean", "R(a,b).\nR(b,c).\n", "rank")],
    ids=["absorptive", "kleene", "rank"],
)
def test_run_structured_stats_equal_the_tsv(tmp_path, semiring, facts, solver, capsys):
    (tmp_path / "tc.dl").write_text(TC)
    (tmp_path / "facts.txt").write_text(facts)
    args = ["run", "--program", str(tmp_path / "tc.dl"), "--facts",
            str(tmp_path / "facts.txt"), "--semiring", semiring, "--solver", solver]
    assert main(args) == 0
    tsv = _tsv_stats(capsys.readouterr().err)
    assert main(args + ["--output", "structured"]) == 0
    record = json.loads(capsys.readouterr().out)["stats"]
    assert tsv.pop("strategies") == [
        [f"{b['rule']}[{b['body']}]", b["strategy"]] for b in record.pop("strategies")
    ]
    del tsv["wall_time"], record["wall_time"]  # two runs, two timings
    assert tsv == {k: str(v) for k, v in record.items() if v is not None}
    assert {"popped", "iterations", "semiring_ops"} & set(record)


def test_run_star_evaluates_every_head_in_one_pass(tmp_path, capsys):
    """No equation of ex51_star is recursive, so nothing is popped."""
    facts = tmp_path / "facts.txt"
    facts.write_text("A(a) = 1.\nB(b) = 2.\nR14(c, d) = 3.\nR24(a, d) = 4.\nR34(b, d) = 5.\n")
    args = ["run", "--program", "corpus:ex51_star", "--facts", str(facts),
            "--semiring", "tropical"]
    assert main(args) == 0
    out, err = capsys.readouterr()
    tsv = _tsv_stats(err)
    assert out == "T(c)\t15\n"
    assert tsv["popped"] == "0" and int(tsv["evaluated"]) > 0
    assert main(args + ["--output", "structured"]) == 0
    record = json.loads(capsys.readouterr().out)["stats"]
    assert record["popped"] == 0 and record["evaluated"] == int(tsv["evaluated"])


def test_run_corpus_program(capsys):
    for facts in (["--facts", "/dev/null"], []):  # an empty fact file, and none
        rc = main(["run", "--program", "corpus:eq2_tc", "--semiring", "boolean", *facts])
        out, _ = capsys.readouterr()
        assert rc == 0 and out == "", facts


def test_run_quotes_constants_so_distinct_answers_print_apart(tmp_path, capsys):
    """Printed bare, both answers would read T(a,b,c)."""
    prog = tmp_path / "copy.dl"
    prog.write_text("T(x, y) :- R(x, y).\n@target T.\n")
    facts = tmp_path / "facts.txt"
    facts.write_text('R("a,b", c) = 1.\nR(a, "b,c") = 2.\n')
    args = ["run", "--program", str(prog), "--facts", str(facts), "--semiring", "tropical"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == ['T(a,"b,c")\t2', 'T("a,b",c)\t1']
    assert main(args + ["--output", "structured"]) == 0
    relation = json.loads(capsys.readouterr().out)["relation"]
    assert relation == {'T(a,"b,c")': "2", 'T("a,b",c)': "1"}


# Any constant a fact file can hold: no double quote and no line break.
fact_constant = st.one_of(
    st.text(alphabet="ab ,%()\t", min_size=1, max_size=4),
    st.text(st.characters(exclude_characters='"'), min_size=1, max_size=4),
).filter(lambda c: len(f"x{c}x".splitlines()) == 1)


@settings(deadline=None)
@given(st.lists(fact_constant, max_size=3))
def test_printed_atom_parses_back_as_a_fact(args):
    text = cli._format_atom("T", tuple(args)) + "."
    assert parse_facts(text, boolean()).relations == {"T": {tuple(args): True}}


def test_ground_explain(tc_files, capsys):
    prog, facts = tc_files
    rc = main(["ground", "--program", prog, "--facts", facts,
               "--semiring", "tropical", "--strategy", "naive", "--explain"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "% rule T body 1:" in out
    assert "x_T_a_b = " in out


def test_ground_explain_shows_the_grounded_root(tc_files, capsys):
    prog, facts = tc_files
    rc = main(["ground", "--program", prog, "--facts", facts,
               "--semiring", "tropical", "--explain"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert ("% rule T body 1:\n%   strategy linear-arity2\n"
            "%   R(v2,v1)\n%     T(v0,v2)\n") in out
    # A body grounded naively has no root: no join tree is printed for it.
    rc = main(["ground", "--program", prog, "--facts", facts,
               "--semiring", "tropical", "--strategy", "naive", "--explain"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out.startswith("% rule T body 0:\n%   strategy naive\n"
                          "% rule T body 1:\n%   strategy naive\nx_T_")


def test_ground_explain_goes_to_stderr_under_structured(tmp_path, capsys):
    """A cyclic body's explanation names its GYO residue; under `structured`
    the explanation moves to stderr and stdout is one JSON document."""
    prog = tmp_path / "cyclic.dl"
    prog.write_text("T(x) :- R(x, y), R(y, z), R(z, x).\nT(x) :- R(x, x).\n@target T.\n")
    facts = tmp_path / "facts.txt"
    facts.write_text("R(a,b).\nR(b,c).\nR(c,a).\n")
    args = ["ground", "--program", str(prog), "--facts", str(facts), "--explain"]
    assert main(args) == 0
    out, _ = capsys.readouterr()
    explained = [line for line in out.splitlines() if line.startswith("%")]
    assert explained[:2] == ["% rule T body 0:", "%   cyclic; residue edges: [0, 1, 2]"]
    assert main(args + ["--output", "structured"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["equations"]["x_T_a"]
    assert err.splitlines() == explained


def test_check_agrees(tc_files, capsys):
    prog, facts = tc_files
    rc = main(["check", "--program", prog, "--facts", facts,
               "--semiring", "tropical"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "DISAGREE" not in out and "agree" in out


TRIANGLE = "T(x) :- R(x, y), R(y, z), R(z, x).\n@target T.\n"


@pytest.fixture
def triangle_files(tmp_path):
    prog = tmp_path / "triangle.dl"
    prog.write_text(TRIANGLE)
    facts = tmp_path / "facts.txt"
    facts.write_text("R(a,b).\nR(b,c).\nR(c,a).\n")
    return str(prog), str(facts)


def test_run_acyclic_strategy_on_a_cyclic_body_exits_2(triangle_files, capsys):
    prog, facts = triangle_files
    rc = main(["run", "--program", prog, "--facts", facts, "--strategy", "acyclic"])
    _, err = capsys.readouterr()
    assert rc == 2 and err == "error: rule T body 0 is cyclic\n"


def test_check_reports_a_cyclic_body_under_acyclic(triangle_files, capsys):
    prog, facts = triangle_files
    assert main(["check", "--program", prog, "--facts", facts]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "acyclic\t-\tcyclic" in rows
    assert [r for r in rows if r.startswith("naive\t")] == [
        "naive\trank\tagree", "naive\tabsorptive\tagree", "naive\tkleene\tagree"
    ]


def test_check_disagreement_exits_6(tc_files, monkeypatch, capsys):
    """A solver that loses every answer disagrees with the oracle."""
    prog, facts = tc_files
    solve = cli.solve_grounding

    def lossy(g, **kwargs):
        sol = solve(g, **kwargs)
        sol.values = [g.semiring.zero] * len(sol.values)
        return sol

    monkeypatch.setattr(cli, "solve_grounding", lossy)
    rc = main(["check", "--program", prog, "--facts", facts, "--semiring", "tropical"])
    out, err = capsys.readouterr()
    assert rc == 6 and "DISAGREE" in out
    assert err == "first differing atom: T(a,b)\n"


def test_check_refuses_more_than_12_constants(tmp_path, tc_files, capsys):
    prog, _ = tc_files
    facts = tmp_path / "chain.txt"
    facts.write_text("".join(f"R(v{i},v{i + 1}) = 1.\n" for i in range(12)))
    rc = main(["check", "--program", prog, "--facts", str(facts), "--semiring", "tropical"])
    _, err = capsys.readouterr()
    assert rc == 2 and err.startswith("check requires n <= 12 (got 13)")


def test_ground_structured(tc_files, capsys):
    prog, facts = tc_files
    rc = main(["ground", "--program", prog, "--facts", facts,
               "--semiring", "tropical", "--output", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["semiring"] == "tropical" and doc["size"] > 0
    assert ["e_R_a_b"] in doc["equations"]["x_T_a_b"]


def test_classify(tc_files, capsys):
    prog, _ = tc_files
    rc = main(["classify", "--program", prog])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "linear\ttrue" in out and "chain\ttrue" in out


def test_flag_unread_by_subcommand_is_rejected(tc_files, capsys):
    prog, _ = tc_files
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--program", prog, "--semiring", "tropical"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --semiring" in capsys.readouterr().err


def test_bad_program_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.dl"
    for text, message in [
        ("T(x) :- R(y).\n@target T.\n", "unsafe"),
        ("T(x) :- R(x) & S(x).\n@target T.\n", "1:14: unexpected character '&'"),
        ("% no rules\n@target T.\n", "program has no rules"),
    ]:
        bad.write_text(text)
        rc = main(["run", "--program", str(bad), "--facts", "/dev/null"])
        _, err = capsys.readouterr()
        assert rc == 2 and err.startswith("error: ") and message in err, text


def test_reserved_predicate_exits_2(tmp_path, capsys):
    prog = tmp_path / "andersen.dl"
    prog.write_text(semlog.corpus_text("andersen")
                    + "__u_r0b2_e0_1(v0, v1) :- AddressOf(v0, v1).\n")
    rc = main(["run", "--program", str(prog), "--facts", "/dev/null"])
    _, err = capsys.readouterr()
    assert rc == 2 and "reserved" in err


def test_missing_file_exits_2(capsys):
    rc = main(["run", "--program", "/nonexistent.dl", "--facts", "/dev/null"])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["run", "--program", "corpus:nope"],
    ["run", "--program", "corpus:eq2_tc", "--semiring", "bogus"],
    ["run", "--program", "corpus:eq2_tc", "--semiring", "set:"],
    ["bench", "--program", "corpus:eq2_tc", "--sizes", "8,x"],
    ["bench", "--program", "corpus:eq2_tc", "--sizes", "0"],
    ["bench", "--program", "corpus:eq1_pcomplete", "--sizes", "8"],
    ["bench", "--program", "corpus:eq2_tc", "--family", "random-graph", "--nodes", "-3"],
    ["bench", "--program", "corpus:eq2_tc", "--family", "random-graph", "--nodes", "0"],
], ids=["corpus", "semiring", "empty-set", "sizes", "zero-size", "bench-arity",
        "negative-nodes", "zero-nodes"])
def test_user_errors_exit_2(args, capsys):
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("fact", ["R(a, ) = 1.", "R(,) = 1.", 'R("a" b) = 1.'],
                         ids=["empty-last", "empty-both", "half-quoted"])
def test_empty_or_half_quoted_argument_exits_2(tmp_path, capsys, fact):
    facts = tmp_path / "facts.txt"
    facts.write_text(f"E(a, b) = 1.\n{fact}\n")
    args = ["run", "--program", "corpus:eq2_tc", "--facts", str(facts), "--semiring", "tropical"]
    assert main(args) == 2
    assert "line 2: malformed fact" in capsys.readouterr().err


def test_declared_arity_mismatch_exits_2(tmp_path, capsys):
    facts = tmp_path / "facts.txt"
    facts.write_text("R(a, b, c).\n")
    assert main(["run", "--program", "corpus:eq2_tc", "--facts", str(facts)]) == 2
    assert "arity 3 vs declared 2" in capsys.readouterr().err


def test_binary_facts_file_exits_2(tmp_path, capsys):
    facts = tmp_path / "facts.bin"
    facts.write_bytes(b"\xff\xfe\x00R(a,b).\n")
    assert main(["run", "--program", "corpus:eq2_tc", "--facts", str(facts)]) == 2
    assert "not a text file" in capsys.readouterr().err


def test_unknown_bench_family_is_a_user_error():
    with pytest.raises(UserInputError):
        build_bench_instance(semlog.corpus_program("eq2_tc"), "tree", 8, boolean(),
                             random.Random(0))


def test_bench_instance_over_the_naturals_annotates_each_fact_once():
    sr = naturals()
    inst = build_bench_instance(semlog.corpus_program("ex31_node_weights"), "path", 8, sr,
                                random.Random(0))
    assert len(inst.relations["R"]) == 8 and len(inst.relations["U"]) == 9
    assert {v for rel in inst.relations.values() for v in rel.values()} == {1}


def test_bench_row_of_a_capped_size_reads_cap_exceeded(capsys):
    rc = main(["bench", "--program", "corpus:eq2_tc", "--sizes", "4,32", "--cap-size", "100"])
    out, _ = capsys.readouterr()
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok", "cap-exceeded"]
    assert rows[1][:8] == ["1", "path", "32", "32", "33", "", "", ""]


def test_internal_error_is_not_a_user_error(tc_files, monkeypatch):
    """A bug raising KeyError or ValueError propagates with its traceback."""
    prog, facts = tc_files
    for exc in (KeyError("atom 7"), ValueError("bad state")):
        def broken(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve_grounding", broken)
        with pytest.raises(type(exc)):
            main(["run", "--program", prog, "--facts", facts, "--semiring", "tropical"])


def test_bench_skips_a_slope_over_one_size(capsys):
    # random-graph keeps n = 4 for both sizes, so there is no slope in n
    rc = main(["bench", "--program", "corpus:eq2_tc", "--family", "random-graph",
               "--sizes", "4,8"])
    err = capsys.readouterr().err
    assert rc == 0
    assert "slope |G| vs m:" in err and "slope |G| vs n:" not in err


def test_rank_on_tropical_exits_3(tc_files, capsys):
    prog, facts = tc_files
    rc = main(["run", "--program", prog, "--facts", facts,
               "--semiring", "tropical", "--solver", "rank"])
    _, err = capsys.readouterr()
    assert rc == 3 and "capability" in err


def test_cap_size_exits_4(tc_files, capsys):
    prog, facts = tc_files
    rc = main(["run", "--program", prog, "--facts", facts,
               "--semiring", "tropical", "--cap-size", "3"])
    _, err = capsys.readouterr()
    assert rc == 4 and "cap exceeded" in err


def test_ground_cap_size_exits_4_on_the_join_tree_path(tmp_path, capsys):
    facts = tmp_path / "edges.txt"
    facts.write_text("E(a, b) = 1.\nE(b, c) = 2.\nE(c, a) = 3.\n")
    argv = ["ground", "--program", "corpus:apsp", "--facts", str(facts),
            "--semiring", "tropical"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--cap-size", "10"]) == 4
    _, err = capsys.readouterr()
    assert "cap exceeded" in err


def test_divergent_naturals_exits_5(tmp_path, capsys):
    prog = tmp_path / "tc.dl"
    prog.write_text(TC)
    facts = tmp_path / "loop.txt"
    facts.write_text("R(a,a) = 2.\n")
    rc = main(["run", "--program", str(prog), "--facts", str(facts),
               "--semiring", "naturals", "--max-iters", "30"])
    assert rc == 5


def test_bench_csv(capsys):
    strip = lambda s: ["," .join(l.split(",")[:8]) for l in s.splitlines()]
    for family in ("path", "grid"):
        args = ["bench", "--program", "corpus:sssp", "--semiring", "tropical",
                "--family", family, "--sizes", "8,16,32", "--seed", "1"]
        rc = main(args)
        out1, err1 = capsys.readouterr()
        assert rc == 0
        lines = out1.splitlines()
        assert lines[0] == ("index,family,size,m,n,grounding_size,"
                            "canonical_size,solver,wall_time,status")
        assert len(lines) == 4 and all(f",{family}," in l for l in lines[1:])
        assert "slope" in err1
        # identical seeds give identical measurements (modulo wall time)
        main(args)
        out2, _ = capsys.readouterr()
        assert strip(out1) == strip(out2)


ANDERSEN_FACTS = {
    "boolean": "AddressOf(p,a).\nAddressOf(q,b).\nAssign(p,q).\nLoad(b,p).\nStore(q,a).\n",
    "access": (
        "AddressOf(p,a) = S.\nAddressOf(q,b) = C.\nAssign(p,q) = T.\n"
        "Load(b,p) = S.\nStore(q,a) = C.\n"
    ),
}


@pytest.mark.parametrize("semiring", list(ANDERSEN_FACTS))
def test_run_andersen_solver_choice(semiring, tmp_path, capsys):
    """`auto` solves boolean and access without the 2-canonical rewrite."""
    facts = tmp_path / "facts.txt"
    facts.write_text(ANDERSEN_FACTS[semiring])
    args = ["run", "--program", "corpus:andersen", "--facts", str(facts),
            "--semiring", semiring]
    answers = {}
    for solver, canonical in (("auto", False), ("rank", True)):
        assert main(args + ["--solver", solver]) == 0
        out, err = capsys.readouterr()
        stats = err.splitlines()
        want = "absorptive" if solver == "auto" else "rank"
        assert f"solver\t{want}" in stats
        assert any(s.startswith("canonical_size\t") for s in stats) == canonical
        answers[solver] = out
    assert answers["auto"] == answers["rank"] != ""
