"""Program AST, parser, fact ingestion and program classification.

Concrete syntax uses ``:-`` rules with comma conjunction; rules sharing a
head symbol are merged into one rule whose body is a sum of sum-prod
queries.  Variables are canonicalized per rule to integer indices, head
variables first.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import asdict, dataclass

from .semirings import Semiring, SemiringTypeError


class FrontendError(Exception):
    """Base for parse/validation failures."""


class ProgramSyntaxError(FrontendError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ValidationError(FrontendError):
    pass


class DuplicateFactWarning(UserWarning):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A predicate applied to canonical variable indices (repeats allowed)."""

    pred: str
    args: tuple[int, ...]
    is_idb: bool

    @property
    def vars(self) -> frozenset[int]:
        return frozenset(self.args)


@dataclass(frozen=True)
class SumProdQuery:
    """One sum-prod body: sum over non-head variables of a product of atoms.

    Head variables are indices 0..k-1; the query's variable universe is
    0..num_vars-1.
    """

    head_vars: tuple[int, ...]
    atoms: tuple[Atom, ...]
    num_vars: int

    @property
    def head_set(self) -> frozenset[int]:
        return frozenset(self.head_vars)

    def idb_atoms(self) -> list[Atom]:
        return [a for a in self.atoms if a.is_idb]


@dataclass(frozen=True)
class Rule:
    head_pred: str
    head_vars: tuple[int, ...]
    bodies: tuple[SumProdQuery, ...]


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]
    target: str
    edb_schema: dict[str, int]
    idb_schema: dict[str, int]
    arity_bound: int


@dataclass(frozen=True)
class Instance:
    """EDB facts as per-predicate maps tuple -> annotation (never the zero)."""

    relations: dict[str, dict[tuple[str, ...], object]]
    active_domain: tuple[str, ...]
    m: int
    n: int
    semiring: Semiring


@dataclass(frozen=True)
class Classification:
    monadic: bool
    linear: bool
    chain: bool
    rulewise_acyclic: bool
    rulewise_free_connex: bool

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<implies>:-)
  | (?P<sym>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<at>@[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(),.])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    pos = 0
    line = 1
    line_start = 0
    toks = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ProgramSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind not in ("ws", "comment"):
            toks.append((kind, val, line, pos - line_start + 1))
        nl = val.count("\n")
        if nl:
            line += nl
            line_start = m.start() + val.rfind("\n") + 1
        pos = m.end()
    toks.append(("eof", "", line, pos - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self, kind=None, val=None):
        tok = self.toks[self.i]
        if (kind and tok[0] != kind) or (val and tok[1] != val):
            want = val or kind
            raise ProgramSyntaxError(f"expected {want!r}, got {tok[1]!r}", tok[2], tok[3])
        self.i += 1
        return tok

    def parse_atom(self):
        _, pred, line, col = self.next("sym")
        self.next("punct", "(")
        args = []
        if self.peek()[1] != ")":
            args.append(self.next("sym")[1])
            while self.peek()[1] == ",":
                self.next()
                args.append(self.next("sym")[1])
        self.next("punct", ")")
        return pred, tuple(args), line, col

    def parse(self):
        raw_rules = []
        targets = []
        while self.peek()[0] != "eof":
            tok = self.peek()
            if tok[0] == "at":
                if tok[1] != "@target":
                    raise ProgramSyntaxError(f"unknown declaration {tok[1]!r}", tok[2], tok[3])
                self.next()
                targets.append(self.next("sym")[1])
                self.next("punct", ".")
                continue
            head = self.parse_atom()
            self.next("implies")
            body = [self.parse_atom()]
            while self.peek()[1] == ",":
                self.next()
                body.append(self.parse_atom())
            self.next("punct", ".")
            raw_rules.append((head, body))
        return raw_rules, targets


def parse_program(text: str) -> Program:
    """Parse and validate a program; merge same-head rules into sums."""
    raw_rules, targets = _Parser(text).parse()
    if not raw_rules:
        raise ValidationError("program has no rules")

    arities: dict[str, int] = {}
    # Every head symbol is an IDB, also where a body uses it before its rule.
    idb_syms = list(dict.fromkeys(head[0] for head, _ in raw_rules))
    for (hp, hargs, line, col), body in raw_rules:
        for pred, args, aline, acol in [(hp, hargs, line, col)] + body:
            if pred.startswith("__"):
                raise ValidationError(
                    f"{aline}:{acol}: predicate {pred}: names starting with __ "
                    "are reserved for the grounder's fresh predicates"
                )
            if pred in arities and arities[pred] != len(args):
                raise ValidationError(
                    f"{aline}:{acol}: arity mismatch for {pred}: "
                    f"{len(args)} vs {arities[pred]}"
                )
            arities.setdefault(pred, len(args))
    idb_set = set(idb_syms)

    if not targets:
        raise ValidationError("missing @target declaration")
    if len(targets) > 1:
        raise ValidationError("multiple @target declarations")
    target = targets[0]
    if target not in idb_set:
        raise ValidationError(f"@target {target} is not an IDB predicate")

    # Canonicalize variables per source rule and merge bodies per head symbol.
    bodies_by_head: dict[str, list[SumProdQuery]] = {h: [] for h in idb_syms}
    for (hp, hargs, line, col), body in raw_rules:
        if len(set(hargs)) != len(hargs):
            raise ValidationError(f"{line}:{col}: repeated variable in head of {hp}")
        varmap = {name: i for i, name in enumerate(hargs)}
        atoms = []
        for pred, args, _, _ in body:
            idx = []
            for name in args:
                if name not in varmap:
                    varmap[name] = len(varmap)
                idx.append(varmap[name])
            atoms.append(Atom(pred, tuple(idx), pred in idb_set))
        body_vars = set().union(*(a.vars for a in atoms))
        missing = [name for name in hargs if varmap[name] not in body_vars]
        if missing:
            raise ValidationError(
                f"{line}:{col}: unsafe rule for {hp}: head variable(s) "
                f"{', '.join(missing)} not in the body"
            )
        bodies_by_head[hp].append(
            SumProdQuery(tuple(range(len(hargs))), tuple(atoms), len(varmap))
        )

    rules = tuple(
        Rule(h, tuple(range(arities[h])), tuple(bodies_by_head[h])) for h in idb_syms
    )
    idb_schema = {h: arities[h] for h in idb_syms}
    edb_schema = {p: a for p, a in arities.items() if p not in idb_set}
    return Program(
        rules=rules,
        target=target,
        edb_schema=edb_schema,
        idb_schema=idb_schema,
        arity_bound=max(idb_schema.values()),
    )


def pretty_print(program: Program) -> str:
    """Render a program back to concrete syntax with canonical variable names."""
    lines = []
    for rule in program.rules:
        for body in rule.bodies:
            head = f"{rule.head_pred}({', '.join(f'v{i}' for i in rule.head_vars)})"
            atoms = ", ".join(
                f"{a.pred}({', '.join(f'v{i}' for i in a.args)})" for a in body.atoms
            )
            lines.append(f"{head} :- {atoms}.")
    lines.append(f"@target {program.target}.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------

# One match per line: an optional fact, then an optional `%` comment.  A
# quoted argument may hold commas, parentheses and `%`.  Bare arguments
# separated by exactly ", " match `plain`, which splits without stripping;
# any other argument list matches `args`.
_FACT_RE = re.compile(
    r"\s*(?:(?P<pred>[A-Za-z_][A-Za-z0-9_']*)\s*\("
    r'(?:(?P<plain>[^\s(),"%]+(?:, [^\s(),"%]+)*)|(?P<args>[^()"%]*(?:"[^"]*"[^()"%]*)*))'
    r"\)\s*(?:=\s*(?P<lit>[^%]+?)\s*)?\.\s*)?(?:%|$)"
)


def _split_args(text: str) -> tuple[str, ...]:
    """Split on the commas outside double quotes, then unquote.

    An empty or partly quoted argument comes back as ''.
    """
    if '"' not in text:
        args = tuple(map(str.strip, text.split(",")))
        return () if args == ("",) else args
    parts = [""]
    for i, piece in enumerate(text.split('"')):  # odd pieces are quoted
        first, *rest = (f'"{piece}"',) if i % 2 else piece.split(",")
        parts[-1] += first
        parts.extend(rest)
    args = []
    for part in map(str.strip, parts):
        arg = part[1:-1] if len(part) > 1 and part[0] == part[-1] == '"' else part
        args.append("" if '"' in arg else arg)
    return tuple(args)


def parse_facts(text: str, semiring: Semiring) -> Instance:
    """Read one annotated fact per line into an Instance.

    A line is ``Pred(c1, ..., ck) = literal.``, blank, or a comment from
    ``%`` to its end; a fact may end in a comment too.  Lines break where
    ``str.splitlines`` breaks them (``\\n``, ``\\r\\n``, ``\\r`` and the other
    Unicode line boundaries), and errors name the line by that count.
    Whitespace around names, arguments and the literal is ignored.

    - A constant is a bare word (inner spaces kept) or a double-quoted
      string, which may hold ``,``, ``%``, parentheses and spaces.  An empty
      argument (``R(a, )``, ``R(,)``, ``R("")``) or one only partly quoted
      (``R("a" b)``) is a malformed fact.  ``R()`` is a nullary fact.
    - The literal uses the semiring's syntax; semirings with a default
      value (boolean: true) may omit ``= literal``.
    - A predicate keeps the arity of its first fact.
    - Duplicate tuples are combined with the semiring's sum, with a
      ``DuplicateFactWarning``; facts whose value is the additive identity
      are dropped.

    Raises ValidationError, naming the line, on the first bad fact.
    """
    relations: dict[str, dict[tuple[str, ...], object]] = {}
    # Each distinct literal text is parsed once per call; the key None stands
    # for an omitted annotation.  Values are immutable scalars, so facts may
    # share them.  A literal that fails to parse is never stored.
    values: dict[str | None, object] = {}
    if semiring.default_value is not None:
        values[None] = semiring.default_value
    match = _FACT_RE.match
    last = rel = arity = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = match(line)
        if m is None:
            raise ValidationError(f"line {lineno}: malformed fact {line.strip()!r}")
        pred, plain, args, lit = m.groups()
        if plain is not None:
            args = tuple(plain.split(", "))
        elif pred is None:  # blank or comment-only line
            continue
        else:
            args = _split_args(args)
        value = values.get(lit)
        if value is None:
            if lit is None:
                raise ValidationError(
                    f"line {lineno}: missing annotation for semiring {semiring.name}"
                )
            try:
                value = values[lit] = semiring.parse_literal(lit.strip())
            except (ValueError, SemiringTypeError) as exc:
                raise ValidationError(f"line {lineno}: {exc}") from exc
        if pred != last:  # facts usually come grouped by predicate
            last = pred
            rel = relations.get(pred)
            if rel is None:
                rel = relations[pred] = {}
                arity = len(args)
            else:
                arity = len(next(iter(rel)))
        if len(args) != arity:
            raise ValidationError(
                f"line {lineno}: arity mismatch for {pred}: {len(args)} vs {arity}"
            )
        if plain is None and "" in args:
            raise ValidationError(f"line {lineno}: malformed fact {line.strip()!r}")
        if args in rel:
            warnings.warn(
                f"duplicate fact {pred}{args}: annotations combined",
                DuplicateFactWarning,
                stacklevel=2,
            )
            value = semiring.plus(rel[args], value)
        rel[args] = value

    # In a naturally ordered semiring a sum is zero only when a summand is,
    # so a zero can be stored only if some literal read is zero.
    if semiring.zero in values.values():
        for pred in list(relations):
            rel = relations[pred]
            for key in [k for k, v in rel.items() if v == semiring.zero]:
                del rel[key]
            if not rel:
                del relations[pred]

    return _instance(relations, semiring)


def build_instance(
    relations: dict[str, dict[tuple[str, ...], object]], semiring: Semiring
) -> Instance:
    """An instance of `relations`; each relation's tuples share one arity."""
    for pred, rel in relations.items():
        if len(set(map(len, rel))) > 1:
            raise ValidationError(f"relation {pred} mixes arities")
    return _instance(relations, semiring)


def _instance(relations, semiring: Semiring) -> Instance:
    domain = sorted({c for rel in relations.values() for t in rel for c in t})
    m = sum(len(rel) for rel in relations.values())
    return Instance(
        relations=relations,
        active_domain=tuple(domain),
        m=m,
        n=len(domain),
        semiring=semiring,
    )


def check_instance_against(program: Program, instance: Instance) -> None:
    """Reject fact files whose symbols clash with the program's schema."""
    for pred, rel in instance.relations.items():
        if pred in program.idb_schema:
            raise ValidationError(f"symbol {pred} used both as EDB (facts) and IDB")
        # An Instance holds each relation to one arity, so one tuple shows it.
        arity = program.edb_schema.get(pred)
        t = next(iter(rel), None)
        if arity is not None and t is not None and len(t) != arity:
            raise ValidationError(f"fact {pred}{t}: arity {len(t)} vs declared {arity}")


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(program: Program) -> Classification:
    from . import decomposition

    monadic = program.arity_bound == 1
    linear = all(
        len(body.idb_atoms()) <= 1 for rule in program.rules for body in rule.bodies
    )
    chain = all(
        _is_chain_query(body) for rule in program.rules for body in rule.bodies
    )
    acyclic = True
    free_connex = True
    for rule in program.rules:
        for body in rule.bodies:
            tree = decomposition.gyo_join_tree(decomposition.build_hypergraph(body))
            if isinstance(tree, decomposition.CyclicVerdict):
                acyclic = False
                free_connex = False
            elif decomposition.free_connex_root(tree, body.head_set) is None:
                free_connex = False
    return Classification(monadic, linear, chain, acyclic, free_connex)


def _is_chain_query(body: SumProdQuery) -> bool:
    """A chain query is T1(v1,v2) x T2(v2,v3) x ... with head (v1, v_{k+1})."""
    if len(body.head_vars) != 2:
        return False
    if any(len(a.args) != 2 or a.args[0] == a.args[1] for a in body.atoms):
        return False
    start, end = body.head_vars
    # Follow the unique outgoing atom from `start`; each atom used once.
    remaining = list(body.atoms)
    cur = start
    seen = {cur}
    while remaining:
        nxt = [a for a in remaining if a.args[0] == cur]
        if len(nxt) != 1:
            return False
        atom = nxt[0]
        remaining.remove(atom)
        cur = atom.args[1]
        if cur in seen and remaining:
            return False
        seen.add(cur)
    return cur == end and len(seen) == len(body.atoms) + 1
