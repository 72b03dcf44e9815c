import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from semlog.semirings import (
    SemiringTypeError,
    access,
    axiom_suite,
    boolean,
    naturals,
    semiring_from_token,
    set_semiring,
    tropical,
)

INF = math.inf

SAMPLES = {
    "boolean": [False, True],
    "tropical": [INF, 0.0, 1.0, 3.0, 5.0],
    "naturals": [0, 1, 2, 3],
    "set": [frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})],
    "access": ["P", "C", "S", "T", "0"],
}


def all_instances():
    return [
        (boolean(), SAMPLES["boolean"]),
        (tropical(), SAMPLES["tropical"]),
        (naturals(), SAMPLES["naturals"]),
        (set_semiring(["a", "b"]), SAMPLES["set"]),
        (access(), SAMPLES["access"]),
    ]


def test_tropical_ops():
    sr = tropical()
    assert sr.plus(3.0, 5.0) == 3.0
    assert sr.times(3.0, 5.0) == 8.0
    assert sr.plus(sr.zero, 7.0) == 7.0
    assert sr.times(sr.zero, 7.0) == INF


def test_tropical_natural_order():
    sr = tropical()
    assert sr.nat_leq(INF, 5.0)  # zero is the bottom
    assert not sr.nat_leq(3.0, 5.0)
    assert sr.nat_leq(5.0, 3.0)


def test_naturals_order():
    assert naturals().nat_leq(2, 7)


def test_set_ops():
    sr = set_semiring(["1", "2", "3"])
    assert sr.plus(frozenset({"1"}), frozenset({"2"})) == frozenset({"1", "2"})
    assert sr.times(frozenset({"1", "2"}), frozenset({"2"})) == frozenset({"2"})
    assert sr.finite_rank == 3


def test_access_ops():
    sr = access()
    assert sr.times("C", "S") == "S"
    assert sr.plus("C", "S") == "C"
    assert sr.plus(sr.one, "T") == sr.one  # absorptive
    assert sr.nat_leq("0", "T") and sr.nat_leq("T", "P")
    assert not sr.nat_leq("P", "T")


def test_domain_check_rejects_foreign_values():
    with pytest.raises(SemiringTypeError):
        boolean().plus(True, 1.0)
    with pytest.raises(SemiringTypeError):
        tropical().times(-1.0, 2.0)
    with pytest.raises(SemiringTypeError):
        naturals().plus(1, True)
    with pytest.raises(SemiringTypeError):
        set_semiring(["a"]).plus(frozenset({"a"}), frozenset({"z"}))


@pytest.mark.parametrize("sr,samples", all_instances(), ids=lambda x: getattr(x, "name", ""))
def test_axiom_suite_passes(sr, samples):
    report = axiom_suite(sr, samples)
    assert report.passed, report.failures()


def test_axiom_suite_catches_bogus_absorptive_flag():
    bogus = dataclasses.replace(naturals(), is_absorptive=True)
    report = axiom_suite(bogus, SAMPLES["naturals"])
    r = report.result("absorptive-one")
    assert not r.passed and r.witness is not None


def test_axiom_suite_catches_bogus_rank():
    bogus = dataclasses.replace(access(), finite_rank=2)
    report = axiom_suite(bogus, SAMPLES["access"])
    assert not report.result("finite-rank").passed


def test_axiom_suite_needs_identities():
    with pytest.raises(ValueError):
        axiom_suite(tropical(), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        axiom_suite(boolean(), [True])


@pytest.mark.parametrize("sr,samples", all_instances(), ids=lambda x: getattr(x, "name", ""))
def test_leq_matches_definitional_order(sr, samples):
    # a <= b iff exists z with a (+) z = b, z drawn from the sample closure
    for a in samples:
        for b in samples:
            witnesses = [sr.plus_fn(a, z) == b for z in samples + [a, b]]
            assert sr.nat_leq(a, b) == any(witnesses), (sr.name, a, b)


def test_rank_declarations():
    assert boolean().finite_rank == 1
    assert access().finite_rank == 4
    assert tropical().finite_rank is None
    assert naturals().finite_rank is None


def test_token_parsing():
    assert semiring_from_token("tropical").name == "tropical"
    assert semiring_from_token("set:a,b").one == frozenset({"a", "b"})
    with pytest.raises(ValueError):
        semiring_from_token("lattice")


def test_literal_round_trip():
    sr = tropical()
    assert sr.parse_literal("inf") == INF
    assert sr.format_value(INF) == "inf"
    assert sr.format_value(1234567.0) == "1234567"
    assert sr.parse_literal("2.5") == 2.5
    sset = set_semiring(["a", "b"])
    assert sset.parse_literal("{a}") == frozenset({"a"})
    assert sset.parse_literal("{}") == frozenset()
    with pytest.raises(ValueError):
        sset.parse_literal("{z}")
    assert access().parse_literal("S") == "S"
    with pytest.raises(ValueError):
        access().parse_literal("Q")


# Values a lossy printer would get wrong, on top of the axiom samples.
EXTRA_PRINTED = {"tropical": [1.5, 0.1, 1 / 3, 1234567.0, 1e16, 2.5e-7], "naturals": [10**20]}


@pytest.mark.parametrize("sr,samples", all_instances(), ids=lambda x: getattr(x, "name", ""))
def test_format_parse_round_trip(sr, samples):
    for v in samples + EXTRA_PRINTED.get(sr.name, []):
        assert sr.parse_literal(sr.format_value(v)) == v, v


trop_vals = st.one_of(
    st.just(INF), st.integers(min_value=0, max_value=50).map(float)
)


@given(trop_vals, trop_vals, trop_vals)
def test_tropical_distributivity(a, b, c):
    sr = tropical()
    assert sr.times(a, sr.plus(b, c)) == sr.plus(sr.times(a, b), sr.times(a, c))


@given(trop_vals, trop_vals)
def test_tropical_absorption(a, b):
    sr = tropical()
    assert sr.nat_leq(sr.times(a, b), a)


@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
def test_naturals_laws(a, b, c):
    sr = naturals()
    assert sr.plus(a, b) == sr.plus(b, a)
    assert sr.times(a, sr.plus(b, c)) == sr.plus(sr.times(a, b), sr.times(a, c))
