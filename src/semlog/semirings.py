"""Naturally-ordered commutative semirings and the law-checking suite.

A semiring is described by its two operations, identities, natural order,
and capability flags.  Values are plain Python scalars (bool, int, float,
frozenset, str); the descriptor owns the domain check, so mixing values
from different instances raises ``SemiringTypeError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

Value = Any


class SemiringTypeError(TypeError):
    """Operand outside the semiring's domain (e.g. mixed instances)."""


class UserInputError(ValueError):
    """A name or setting given by the user that semlog does not know.

    The CLI exits with code 2 on it; any other `ValueError` is a bug.
    """


@dataclass(frozen=True)
class Semiring:
    """Operations, identities, natural order and capability flags.

    ``leq_fn`` decides the natural order x <= y (i.e. exists z: x (+) z = y)
    directly per instance.  ``key_fn`` is only set for totally ordered
    instances: ascending key equals *descending* natural order, which is the
    pop order of the priority-queue solver.
    """

    name: str
    zero: Value
    one: Value
    plus_fn: Callable[[Value, Value], Value]
    times_fn: Callable[[Value, Value], Value]
    leq_fn: Callable[[Value, Value], bool]
    contains: Callable[[Value], bool]
    is_dioid: bool = False
    is_absorptive: bool = False
    is_total_order: bool = False
    finite_rank: Optional[int] = None
    key_fn: Optional[Callable[[Value], Any]] = None
    parse_fn: Optional[Callable[[str], Value]] = None
    format_fn: Callable[[Value], str] = field(default=str)
    # Boolean facts may omit the annotation literal.
    default_value: Optional[Value] = None

    def check(self, v: Value) -> Value:
        if not self.contains(v):
            raise SemiringTypeError(f"{v!r} is not a value of semiring {self.name}")
        return v

    def plus(self, a: Value, b: Value) -> Value:
        self.check(a)
        self.check(b)
        return self.plus_fn(a, b)

    def times(self, a: Value, b: Value) -> Value:
        self.check(a)
        self.check(b)
        return self.times_fn(a, b)

    def nat_leq(self, a: Value, b: Value) -> bool:
        self.check(a)
        self.check(b)
        return self.leq_fn(a, b)

    def parse_literal(self, text: str) -> Value:
        if self.parse_fn is None:
            raise SemiringTypeError(f"semiring {self.name} has no literal syntax")
        v = self.parse_fn(text)
        return self.check(v)

    def format_value(self, v: Value) -> str:
        return self.format_fn(v)


# ---------------------------------------------------------------------------
# Shipped instances
# ---------------------------------------------------------------------------


def boolean() -> Semiring:
    """({false, true}, or, and); rank 1, absorptive, totally ordered."""
    return Semiring(
        name="boolean",
        zero=False,
        one=True,
        plus_fn=lambda a, b: a or b,
        times_fn=lambda a, b: a and b,
        leq_fn=lambda a, b: (not a) or b,
        contains=lambda v: isinstance(v, bool),
        is_dioid=True,
        is_absorptive=True,
        is_total_order=True,
        finite_rank=1,
        key_fn=lambda v: 0 if v else 1,
        parse_fn=_parse_boolean,
        format_fn=lambda v: "true" if v else "false",
        default_value=True,
    )


def _parse_boolean(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"bad boolean literal {text!r}")


def tropical() -> Semiring:
    """(R+ u {inf}, min, +, inf, 0); absorptive with total order.

    Values are 64-bit floats compared exactly; integer-weighted inputs keep
    all sums exact, so no epsilon handling is needed.
    """

    def contains(v: Value) -> bool:
        return (
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and (v == math.inf or v >= 0)
        )

    return Semiring(
        name="tropical",
        zero=math.inf,
        one=0.0,
        plus_fn=min,
        times_fn=lambda a, b: a + b,
        # a <= b in the natural order iff min(a, b) = b, i.e. b <= a as reals.
        leq_fn=lambda a, b: b <= a,
        contains=contains,
        is_dioid=True,
        is_absorptive=True,
        is_total_order=True,
        finite_rank=None,
        key_fn=lambda v: v,
        parse_fn=_parse_tropical,
        format_fn=_format_tropical,
    )


def _format_tropical(v: float) -> str:
    """Shortest text that parses back to `v`; integral values drop the ".0"."""
    if v == math.inf:
        return "inf"
    text = repr(float(v))
    return text[:-2] if text.endswith(".0") else text


def _parse_tropical(text: str) -> float:
    if text == "inf":
        return math.inf
    return float(text)


def naturals() -> Semiring:
    """(N, +, *, 0, 1).

    Neither a dioid nor of finite rank, so only the bounded Kleene oracle
    accepts it; the specialized solvers reject it by capability.
    """
    return Semiring(
        name="naturals",
        zero=0,
        one=1,
        plus_fn=lambda a, b: a + b,
        times_fn=lambda a, b: a * b,
        leq_fn=lambda a, b: a <= b,
        contains=lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
        is_dioid=False,
        is_absorptive=False,
        is_total_order=True,
        finite_rank=None,
        key_fn=None,  # total order but not absorptive: no PQ solver anyway
        parse_fn=_parse_natural,
        format_fn=str,
    )


def _parse_natural(text: str) -> int:
    if not text.isdigit():
        raise ValueError(f"bad natural literal {text!r}")
    return int(text)


def set_semiring(universe: Iterable[str]) -> Semiring:
    """(2^K, union, intersection, {}, K) over a fixed finite universe K."""
    k = frozenset(universe)
    if not k:
        raise UserInputError("set semiring needs a non-empty universe")

    def parse(text: str) -> frozenset:
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"bad set literal {text!r}")
        inner = text[1:-1].strip()
        items = frozenset(s.strip() for s in inner.split(",")) if inner else frozenset()
        if not items <= k:
            raise ValueError(f"set literal {text!r} outside universe {sorted(k)}")
        return items

    return Semiring(
        name="set:" + ",".join(sorted(k)),
        zero=frozenset(),
        one=k,
        plus_fn=lambda a, b: a | b,
        times_fn=lambda a, b: a & b,
        leq_fn=lambda a, b: a <= b,
        contains=lambda v: isinstance(v, frozenset) and v <= k,
        is_dioid=True,
        is_absorptive=True,
        is_total_order=len(k) <= 1,
        finite_rank=len(k),
        key_fn=None,
        parse_fn=parse,
        format_fn=lambda v: "{" + ",".join(sorted(v)) + "}",
    )


_ACCESS_LEVELS = ("P", "C", "S", "T", "0")
_ACCESS_RANK = {lvl: i for i, lvl in enumerate(_ACCESS_LEVELS)}


def access() -> Semiring:
    """Access-control chain ({P, C, S, T, 0}, min, max, 0, P).

    Clearance order P < C < S < T < 0; the natural order is its reverse,
    so the level "0" is the additive identity and P the multiplicative one.
    """
    return Semiring(
        name="access",
        zero="0",
        one="P",
        plus_fn=lambda a, b: min(a, b, key=_ACCESS_RANK.__getitem__),
        times_fn=lambda a, b: max(a, b, key=_ACCESS_RANK.__getitem__),
        leq_fn=lambda a, b: _ACCESS_RANK[b] <= _ACCESS_RANK[a],
        contains=lambda v: isinstance(v, str) and v in _ACCESS_RANK,
        is_dioid=True,
        is_absorptive=True,
        is_total_order=True,
        finite_rank=4,
        key_fn=_ACCESS_RANK.__getitem__,
        parse_fn=_parse_access,
        format_fn=str,
    )


def _parse_access(text: str) -> str:
    if text not in _ACCESS_RANK:
        raise ValueError(f"bad access level {text!r}")
    return text


def semiring_from_token(token: str) -> Semiring:
    """Resolve a name token: boolean | tropical | naturals | set:<k1,...> | access."""
    if token == "boolean":
        return boolean()
    if token == "tropical":
        return tropical()
    if token == "naturals":
        return naturals()
    if token == "access":
        return access()
    if token.startswith("set:"):
        items = [s for s in token[4:].split(",") if s.strip()]
        return set_semiring(s.strip() for s in items)
    raise UserInputError(f"unknown semiring token {token!r}")


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LawResult:
    law: str
    passed: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class AxiomReport:
    semiring: str
    results: tuple[LawResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[LawResult]:
        return [r for r in self.results if not r.passed]

    def result(self, law: str) -> LawResult:
        for r in self.results:
            if r.law == law:
                return r
        raise KeyError(law)


def axiom_suite(sr: Semiring, samples: Iterable[Value]) -> AxiomReport:
    """Check the semiring laws plus declared capabilities on sampled values.

    Requires at least 2 distinct samples (the full boolean domain) including
    both identities.  Returns per-law pass/fail with a witness tuple on the
    first failure of each law.
    """
    vals = list(dict.fromkeys(samples))
    if len(vals) < 2:
        raise ValueError("need at least 2 distinct sample values")
    if sr.zero not in vals or sr.one not in vals:
        raise ValueError("samples must include the additive and multiplicative identities")
    for v in vals:
        sr.check(v)

    p, t, leq = sr.plus_fn, sr.times_fn, sr.leq_fn
    results: list[LawResult] = []

    def law(name: str, arity: int, pred: Callable[..., bool]) -> None:
        for combo in itertools.product(vals, repeat=arity):
            if not pred(*combo):
                results.append(LawResult(name, False, combo))
                return
        results.append(LawResult(name, True))

    law("plus-associative", 3, lambda a, b, c: p(p(a, b), c) == p(a, p(b, c)))
    law("plus-commutative", 2, lambda a, b: p(a, b) == p(b, a))
    law("plus-identity", 1, lambda a: p(sr.zero, a) == a)
    law("times-associative", 3, lambda a, b, c: t(t(a, b), c) == t(a, t(b, c)))
    law("times-commutative", 2, lambda a, b: t(a, b) == t(b, a))
    law("times-identity", 1, lambda a: t(sr.one, a) == a)
    law("distributivity", 3, lambda a, b, c: t(a, p(b, c)) == p(t(a, b), t(a, c)))
    law("annihilation", 1, lambda a: t(a, sr.zero) == sr.zero)
    law("leq-plus-compatible", 2, lambda a, b: leq(a, p(a, b)))
    law("leq-reflexive", 1, lambda a: leq(a, a))
    law(
        "leq-transitive",
        3,
        lambda a, b, c: not (leq(a, b) and leq(b, c)) or leq(a, c),
    )
    law("leq-antisymmetric", 2, lambda a, b: not (leq(a, b) and leq(b, a)) or a == b)

    if sr.is_dioid:
        law("dioid-idempotent", 1, lambda a: p(a, a) == a)
    if sr.is_absorptive:
        law("absorptive-one", 1, lambda a: p(sr.one, a) == sr.one)
        # Equivalent characterization: a (x) b <= a for all a, b.
        law("absorptive-product", 2, lambda a, b: leq(t(a, b), a))
    if sr.is_total_order:
        law("order-total", 2, lambda a, b: leq(a, b) or leq(b, a))
    if sr.finite_rank is not None:
        results.append(_check_rank(sr, vals))

    return AxiomReport(semiring=sr.name, results=tuple(results))


def _check_rank(sr: Semiring, vals: list[Value]) -> LawResult:
    """Chains v <- v (+) s over sampled values may strictly increase <= r times."""
    r = sr.finite_rank
    for order in (vals, list(reversed(vals))):
        v = sr.zero
        increases = 0
        for s in itertools.chain.from_iterable(itertools.repeat(order, r + 2)):
            nv = sr.plus_fn(v, s)
            if nv != v:
                increases += 1
                v = nv
            if increases > r:
                return LawResult("finite-rank", False, (s, v))
    return LawResult("finite-rank", True)
