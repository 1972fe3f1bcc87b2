"""Satisfying-assignment sampling for per-field conjunctive conditions.

Rule conditions produced by the learner are conjunctions of single-field
integer comparisons, so exact interval arithmetic over each field's raw
range replaces a general constraint solver: every atom intersects the
field's allowed set with the values it admits, which are worked out from
rules.OPS, the one definition of comparator semantics.  Draws are uniform
over the remaining set.

Intervals live in the raw width of the field ([0, 2^w - 1]), not the
declared valid domain -- a guiding rule is allowed to pin invalid values.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .codec import MessageSchema
from .rules import OPS, Condition

_MAX_AVOID_ATTEMPTS = 1000


class UnsatisfiableError(Exception):
    """The condition admits no assignment within the schema's raw ranges."""


class MissingFieldError(Exception):
    """A condition references a field absent from the given values/schema."""


@dataclass(frozen=True)
class FieldInterval:
    """Allowed values for one field as sorted disjoint inclusive intervals."""

    field: str
    allowed: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.allowed)


def _pieces(op: str, v: int, raw_max: int) -> list[tuple[int, int]]:
    """The raw values x in [0, raw_max] with `x op v`, as sorted disjoint intervals.

    Every comparator in OPS answers alike across each of the pieces
    [0, v-1], [v, v] and [v+1, raw_max], each clipped to [0, raw_max], so
    testing a piece's first member decides the whole piece; adjacent kept
    pieces merge into one interval.
    """
    holds = OPS[op]
    out: list[tuple[int, int]] = []
    for lo, hi in ((0, min(v - 1, raw_max)), (v, v), (max(v + 1, 0), raw_max)):
        if not (0 <= lo <= hi <= raw_max and holds(lo, v)):
            continue
        if out and out[-1][1] == lo - 1:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def intervals_for(cond: Condition, schema: MessageSchema) -> list[FieldInterval]:
    """Intersect all atoms per referenced field; empty sets are reported as-is."""
    per_field: dict[str, list[tuple[int, int]]] = {}
    for atom in cond.atoms:
        if atom.field not in schema:
            raise MissingFieldError(
                f"{schema.type_name} has no field {atom.field!r}"
            )
        pieces = _pieces(atom.op, atom.value, schema.field(atom.field).raw_max)
        current = per_field.get(atom.field)
        # a field's first atom needs no intersection: its pieces lie in [0, raw_max]
        per_field[atom.field] = pieces if current is None else [
            (max(a, lo), min(b, hi))
            for a, b in current
            for lo, hi in pieces
            if max(a, lo) <= min(b, hi)
        ]
    return [FieldInterval(name, tuple(ivs)) for name, ivs in per_field.items()]


def _draw(interval: FieldInterval, rng: random.Random) -> int:
    idx = rng.randrange(interval.size)
    for lo, hi in interval.allowed:
        span = hi - lo + 1
        if idx < span:
            return lo + idx
        idx -= span
    raise AssertionError("index out of interval range")


def solve(cond: Condition, schema: MessageSchema, rng: random.Random) -> dict[str, int]:
    """One uniform satisfying assignment for the fields the condition names.

    Fields the condition does not mention are not assigned.  Raises
    UnsatisfiableError when any field's allowed set is empty.
    """
    assignment: dict[str, int] = {}
    for interval in intervals_for(cond, schema):
        if not interval.allowed:
            raise UnsatisfiableError(
                f"no admissible value for field {interval.field!r} in: {cond}"
            )
        assignment[interval.field] = _draw(interval, rng)
    return assignment


def solve_avoiding(
    conditions: Sequence[Condition],
    schema: MessageSchema,
    rng: random.Random,
) -> dict[str, int]:
    """Assignment over the union of referenced fields satisfying none of them.

    This is how the default rule of a rule set is solved: its condition is
    the negation of every minority condition, which is not a per-field
    conjunction, so rejection sampling over raw-uniform draws stands in
    for negation support.  The region left can be small: avoiding the rules
    learned on a 3-field planted oracle (ip_ecn <= 2, reason <= 199,
    oxm_field >= 6 on packet_in) accepts 0.26 % of draws, so about one
    such call in thirteen exhausts _MAX_AVOID_ATTEMPTS draws and raises
    UnsatisfiableError.
    """
    fields: dict[str, None] = {}
    for cond in conditions:
        for name in cond.fields():
            if name not in schema:
                raise MissingFieldError(f"{schema.type_name} has no field {name!r}")
            fields.setdefault(name, None)
    if not fields:
        return {}
    for _ in range(_MAX_AVOID_ATTEMPTS):
        candidate = {
            name: rng.randrange(schema.field(name).raw_max + 1) for name in fields
        }
        if not any(evaluate(cond, candidate) for cond in conditions):
            return candidate
    raise UnsatisfiableError(
        f"could not avoid {len(conditions)} conditions in {_MAX_AVOID_ATTEMPTS} attempts"
    )


def evaluate(cond: Condition, values: Mapping[str, int]) -> bool:
    """Conjunction semantics; the empty condition is vacuously true."""
    for atom in cond.atoms:
        try:
            v = values[atom.field]
        except KeyError:
            raise MissingFieldError(f"values lack field {atom.field!r}") from None
        if not OPS[atom.op](v, atom.value):
            return False
    return True
