"""Decision rules over message fields, plus their text serialization.

A condition is a conjunction of integer comparisons against named fields.
A rule set is an ordered list of rules for the minority class followed by
a default rule; the default fires exactly when no minority rule does.

The text format is line oriented and round-trips bit-exactly:

    IF version >= 6 AND length >= 10 THEN class=presence (t=88, f=7, confidence=0.9204545454545454)
    ELSE class=absence (t=112, f=3, confidence=0.9732142857142857)
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass

# The one definition of comparator semantics: sampler, learner and oracle
# all compare through this table.  It works on ints and numpy arrays alike.
OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}

_ATOM_RE = re.compile(r"^\s*(\w+)\s*(<=|>=|!=|=|<|>)\s*(-?\d+)\s*$")
_RULE_RE = re.compile(
    r"^IF (?P<cond>.+) THEN class=(?P<cls>\w+)"
    r" \(t=(?P<t>\d+), f=(?P<f>\d+), confidence=(?P<conf>[^)]+)\)$"
)
_DEFAULT_RE = re.compile(
    r"^ELSE class=(?P<cls>\w+)"
    r"(?: \(t=(?P<t>\d+), f=(?P<f>\d+), confidence=(?P<conf>[^)]+)\))?$"
)


class RuleParseError(Exception):
    """Text does not conform to the rule-set format."""


@dataclass(frozen=True)
class Atom:
    field: str
    op: str
    value: int

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown comparator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.field} {self.op} {self.value}"


@dataclass(frozen=True)
class Condition:
    """Conjunction of atoms; the empty conjunction is vacuously true."""

    atoms: tuple[Atom, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.atoms

    def fields(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for a in self.atoms:
            seen.setdefault(a.field, None)
        return tuple(seen)

    def __str__(self) -> str:
        return " AND ".join(str(a) for a in self.atoms)


@dataclass(frozen=True)
class DecisionRule:
    """Condition -> class prediction, annotated with dataset statistics.

    t is the number of samples matching the condition, f the mismatched
    ones among them; confidence is (t - f) / t, or 0 when t == 0.
    """

    condition: Condition
    prediction: str
    t: int = 0
    f: int = 0
    confidence: float = 0.0

    @classmethod
    def build(cls, condition: Condition, prediction: str, t: int, f: int) -> "DecisionRule":
        conf = 0.0 if t == 0 else (t - f) / t
        return cls(condition, prediction, t, f, conf)


@dataclass(frozen=True)
class RuleSet:
    """Ordered minority rules plus a default; first match wins."""

    minority_rules: tuple[DecisionRule, ...]
    default_rule: DecisionRule

    @property
    def is_degenerate(self) -> bool:
        return not self.minority_rules

    def minority_conditions(self) -> tuple[Condition, ...]:
        return tuple(r.condition for r in self.minority_rules)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

def parse_condition(text: str) -> Condition:
    """Parse 'field OP const AND field OP const ...' into a Condition."""
    text = text.strip()
    if not text:
        return Condition()
    atoms = []
    for part in text.split(" AND "):
        m = _ATOM_RE.match(part)
        if m is None:
            raise RuleParseError(f"bad atom {part!r}")
        atoms.append(Atom(m.group(1), m.group(2), int(m.group(3))))
    return Condition(tuple(atoms))


def format_rule(rule: DecisionRule) -> str:
    if rule.condition.is_empty:
        raise ValueError("minority rules must have a nonempty condition")
    return (
        f"IF {rule.condition} THEN class={rule.prediction} "
        f"(t={rule.t}, f={rule.f}, confidence={rule.confidence!r})"
    )


def format_default(rule: DecisionRule) -> str:
    return (
        f"ELSE class={rule.prediction} "
        f"(t={rule.t}, f={rule.f}, confidence={rule.confidence!r})"
    )


def format_ruleset(ruleset: RuleSet) -> str:
    lines = [format_rule(r) for r in ruleset.minority_rules]
    lines.append(format_default(ruleset.default_rule))
    return "\n".join(lines) + "\n"


def _parse_rule_line(line: str) -> DecisionRule:
    m = _RULE_RE.match(line)
    if m is None:
        raise RuleParseError(f"bad rule line {line!r}")
    return DecisionRule(
        condition=parse_condition(m.group("cond")),
        prediction=m.group("cls"),
        t=int(m.group("t")),
        f=int(m.group("f")),
        confidence=float(m.group("conf")),
    )


def parse_ruleset(text: str) -> RuleSet:
    """Inverse of format_ruleset.

    The final line must be the default; a default without statistics
    (bare 'ELSE class=c') is accepted and reads as t=f=0.  Lines starting
    with '#' are comments and are ignored.
    """
    lines = [
        ln
        for ln in (raw.strip() for raw in text.splitlines())
        if ln and not ln.startswith("#")
    ]
    if not lines:
        raise RuleParseError("empty rule-set text")
    m = _DEFAULT_RE.match(lines[-1])
    if m is None:
        raise RuleParseError(f"last line is not a default rule: {lines[-1]!r}")
    default = DecisionRule(
        condition=Condition(),
        prediction=m.group("cls"),
        t=int(m.group("t") or 0),
        f=int(m.group("f") or 0),
        confidence=float(m.group("conf")) if m.group("conf") else 0.0,
    )
    minority = tuple(_parse_rule_line(ln) for ln in lines[:-1])
    return RuleSet(minority, default)
