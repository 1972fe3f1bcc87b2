"""Satisfying-assignment sampling for per-field conjunctive conditions.

Rule conditions produced by the learner are conjunctions of single-field
integer comparisons, so exact interval arithmetic over each field's raw
range replaces a general constraint solver: every atom intersects the
field's allowed set, != splits an interval, = collapses it to a point.
Draws are uniform over the remaining set.

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


def _intersect(intervals: list[tuple[int, int]], lo: int, hi: int) -> list[tuple[int, int]]:
    out = []
    for a, b in intervals:
        a2, b2 = max(a, lo), min(b, hi)
        if a2 <= b2:
            out.append((a2, b2))
    return out


def _remove_point(intervals: list[tuple[int, int]], v: int) -> list[tuple[int, int]]:
    out = []
    for a, b in intervals:
        if v < a or v > b:
            out.append((a, b))
            continue
        if a <= v - 1:
            out.append((a, v - 1))
        if v + 1 <= b:
            out.append((v + 1, b))
    return out


def _apply_atom(intervals: list[tuple[int, int]], op: str, v: int, raw_max: int) -> list[tuple[int, int]]:
    if op == "=":
        return _intersect(intervals, v, v)
    if op == "!=":
        return _remove_point(intervals, v)
    if op == "<=":
        return _intersect(intervals, 0, v)
    if op == "<":
        return _intersect(intervals, 0, v - 1)
    if op == ">=":
        return _intersect(intervals, v, raw_max)
    if op == ">":
        return _intersect(intervals, v + 1, raw_max)
    raise ValueError(f"unknown comparator {op!r}")


def intervals_for(cond: Condition, schema: MessageSchema) -> list[FieldInterval]:
    """Intersect all atoms per referenced field; empty sets are reported as-is."""
    per_field: dict[str, list[tuple[int, int]]] = {}
    for atom in cond.atoms:
        if atom.field not in schema:
            raise MissingFieldError(
                f"{schema.type_name} has no field {atom.field!r}"
            )
        spec = schema.field(atom.field)
        current = per_field.get(atom.field)
        if current is None:
            current = [(0, spec.raw_max)]
        per_field[atom.field] = _apply_atom(current, atom.op, atom.value, spec.raw_max)
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
    for negation support.  The complement region is normally large, making
    rejection cheap; a pathological rule set exhausts _MAX_AVOID_ATTEMPTS
    draws and raises UnsatisfiableError.
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
