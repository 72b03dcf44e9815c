"""Pin `ground_program`'s output: sha256 of `to_text()`, the strategy report
and the coefficient atoms' values in atom-id order.

`grounding_digests.json` holds one digest per program x semiring x random
instance x strategy.  The programs are the corpus plus `CYCLIC`, whose
bodies ground naively under `auto` and raise `CyclicRuleError` under
`acyclic`.  A change that alters a grounding on purpose
regenerates the file, says so in CHANGES.md, and runs

    PYTHONPATH=src python tests/test_grounding_digests.py
"""

import hashlib
import json
import random
from pathlib import Path

import semlog
from semlog.frontend import parse_program
from semlog.grounding import KIND_COEFF, CyclicRuleError, ground_program
from semlog.semirings import access, boolean, tropical

from conftest import random_instance

DIGESTS = Path(__file__).with_name("grounding_digests.json")
SEEDS = range(3)

# Kept out of `semlog.CORPUS`: every corpus program must ground under
# `acyclic`, and these raise `CyclicRuleError` there.
CYCLIC = {
    "triangle": "T(x, z) :- R(x, y), S(y, z), U(z, x).\n@target T.\n",
    "cyclic-idb": (
        "T(x, y) :- E(x, y).\n"
        "T(x, y) :- R(x, x, y), E(y, z), T(z, x).\n@target T.\n"
    ),
}


def programs():
    for name in semlog.CORPUS:
        yield name, semlog.corpus_program(name)
    for name, text in CYCLIC.items():
        yield name, parse_program(text)


def grounding_digests() -> dict[str, str]:
    out = {}
    for name, program in programs():
        for sr in (tropical(), boolean(), access()):
            for seed in SEEDS:
                rng = random.Random(f"digest:{name}:{sr.name}:{seed}")
                inst = random_instance(program, sr, rng)
                for strategy in ("naive", "acyclic", "auto"):
                    try:
                        g, report = ground_program(program, inst, strategy=strategy)
                    except CyclicRuleError:
                        text = "CyclicRuleError"
                    else:
                        coeffs = [v for k, v in zip(g.kinds, g.values) if k == KIND_COEFF]
                        text = g.to_text() + repr(report) + repr(coeffs)
                    key = f"{name}/{sr.name}/{seed}/{strategy}"
                    out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_groundings_match_pinned_digests():
    want = json.loads(DIGESTS.read_text())
    got = grounding_digests()
    assert got.keys() == want.keys()
    changed = sorted(k for k in got if got[k] != want[k])
    assert not changed, changed


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(grounding_digests(), indent=1, sort_keys=True) + "\n")
