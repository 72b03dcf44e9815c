"""Pin `ground_program`'s output: sha256 of `to_text()`, the strategy report
and the coefficient atoms' values in atom-id order.

`grounding_digests.json` holds one digest per program x semiring x random
instance x strategy.  The programs are the corpus plus `CYCLIC`, whose
bodies ground naively under `auto` and raise `CyclicRuleError` under
`acyclic`, plus `DENSE`, grounded on denser instances.  A change that alters a grounding on purpose
regenerates the file, says so in CHANGES.md, and runs

    PYTHONPATH=src python tests/test_grounding_digests.py
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import semlog
from semlog import build_instance
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

# Grounded on `dense_instance`.  Over `random_instance`'s sparse relations
# most triangle instances have no triangle, and so no monomial.  The
# recursive body of "idb-pair" joins its IDB atom first, binding u and v
# at once: an equation's monomials then follow the order in which the
# naive join enumerates them.
DENSE = {
    "triangle-dense": CYCLIC["triangle"],
    "idb-pair": (
        "T(x, y) :- E(x, y).\n"
        "T(x, y) :- T(u, v), E(u, x), E(v, y).\n@target T.\n"
    ),
}


def dense_instance(program, sr, rng, n=4):
    """Each EDB tuple over n constants holds with probability 1/2."""
    dom = [f"c{i}" for i in range(n)]
    value = {
        "tropical": lambda: float(rng.randint(1, 10)),
        "boolean": lambda: True,
        "access": lambda: rng.choice(["P", "C", "S", "T"]),
    }[sr.name]
    rels = {}
    for pred, arity in program.edb_schema.items():
        rel = {t: value() for t in itertools.product(dom, repeat=arity) if rng.random() < 0.5}
        if rel:
            rels[pred] = rel
    return build_instance(rels, sr)


def programs():
    for name in semlog.CORPUS:
        yield name, semlog.corpus_program(name), random_instance
    for name, text in CYCLIC.items():
        yield name, parse_program(text), random_instance
    for name, text in DENSE.items():
        yield name, parse_program(text), dense_instance


def grounding_digests() -> dict[str, str]:
    out = {}
    for name, program, make_instance in programs():
        for sr in (tropical(), boolean(), access()):
            for seed in SEEDS:
                rng = random.Random(f"digest:{name}:{sr.name}:{seed}")
                inst = make_instance(program, sr, rng)
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
