"""Self-tests of the benchmark: tiny smoke runs, metric names and units,
count determinism, the answer check, and failure without the program.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small enough for a test, large enough that a query (a few ms) dwarfs the
# benchmark's own glue between layer spans.
TINY = {
    "apsp-dense": dict(nodes=10, facts=40),
    "andersen-points-to": dict(nodes=8, facts=12),
    "star-wide": dict(nodes=24, facts=96),
}
DETERMINISTIC = ("grounding.size", "solver.canonical_size", "solver.pops", "solver.equation_evals")


def tiny_workloads():
    return {name: dataclasses.replace(w, **TINY[name]) for name, w in WORKLOADS.items()}


def run_main(monkeypatch, tmp_path, capsys, workload, trace):
    monkeypatch.setattr(run, "WORKLOADS", tiny_workloads())
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    return code, out[:-1], json.loads(out[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(monkeypatch, tmp_path, capsys, workload, trace):
    code, lines, result = run_main(monkeypatch, tmp_path, capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[-1] for line in lines if line and line[0] != " "}
    ungated = {} if trace else {"query_s.p50": "s", "facts_per_s": "1/s"}
    for name, unit in {**wanted, **ungated, "error_rate": "ratio"}.items():
        assert printed.get(name) == unit, name
    if trace:
        spans = (tmp_path / f"spans-{workload}-7.jsonl").read_text().splitlines()
        assert {json.loads(s)["name"] for s in spans} >= {"query", "frontend.parse_facts", "extract"}


def test_end_to_end_metrics_are_never_zero(monkeypatch, tmp_path, capsys):
    for workload in WORKLOADS:
        _, _, result = run_main(monkeypatch, tmp_path, capsys, workload, 0)
        assert all(v["value"] > 0 for v in result["metrics"].values()), workload


def test_counts_repeat_exactly_across_processes(tmp_path):
    """The named counts repeat for a fixed seed, whatever the string hash seed."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import run, test_perfbench as t; run.WORKLOADS = t.tiny_workloads();"
        "import pathlib; run.OUT_DIR = pathlib.Path(sys.argv[2]);"
        "[run.main(['--workload', w, '--seed', '3', '--seconds', '0.1', '--trace', '1'])"
        " for w in run.WORKLOADS]"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(tmp_path)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True,
        )
        results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
        outputs.append([{k: r["metrics"][k]["value"] for k in DETERMINISTIC} for r in results])
    assert len(outputs[0]) == len(WORKLOADS)
    assert outputs[0] == outputs[1]


def test_answer_check_rejects_a_wrong_value():
    w = dataclasses.replace(WORKLOADS["apsp-dense"], **TINY["apsp-dense"])
    text = w.generate(w, random.Random(1))
    reference = w.reference(text)
    answer = {t: format(float(v), "g") for t, v in reference.items()}
    assert run.matches(answer, reference)
    first = next(iter(answer))
    assert not run.matches({**answer, first: format(reference[first] + 1.0, "g")}, reference)
    assert not run.matches({k: v for k, v in answer.items() if k != first}, reference)


def test_percentile_matches_statistics_inclusive():
    xs = [0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.5, 0.8, 0.6, 1.0, 0.05]
    assert run.percentile(xs, 90) == pytest.approx(statistics.quantiles(xs, n=10, method="inclusive")[-1])
    assert run.percentile(xs, 50) == pytest.approx(statistics.median(xs))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, it exits
    non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "apsp-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
