"""Message fuzzing operators: random field replacement and rule guidance.

Initial fuzzing replaces a uniformly chosen nonempty subset of fields
with draws from their declared valid domains.  Guided fuzzing pins the
fields of a learned rule's condition to a satisfying assignment and then
mutates each remaining field independently with a small probability,
drawing over the field's full raw width.  Rule fields are never mutated,
so a guided message always satisfies the rule it was built from.

Both operators are pure functions of explicit rng state, which makes the
per-run draws safe to precompute and hand to parallel workers.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .codec import ControlMessage, MessageSchema
from .rules import Condition, DecisionRule
from . import sampler

MODE_INITIAL = "initial"
MODE_GUIDED = "guided"


@dataclass(frozen=True)
class FuzzAction:
    """What a single fuzz application did to a message."""

    mode: str
    applied_rule: DecisionRule | None
    replaced_fields: frozenset[str]
    mutated_fields: frozenset[str]
    before: ControlMessage
    after: ControlMessage


@dataclass(frozen=True)
class FuzzPlan:
    """Pre-drawn field assignments, ready to overlay on a sniffed message."""

    mode: str
    rule: DecisionRule | None
    replacements: dict[str, int]
    mutations: dict[str, int]


def draw_field_subset(schema: MessageSchema, rng: random.Random) -> list[str]:
    """Nonempty subset of field names, each included with probability 1/2."""
    while True:
        chosen = [f.name for f in schema.fields if rng.random() < 0.5]
        if chosen:
            return chosen


def make_initial_plan(
    schema: MessageSchema, rng: random.Random, valid_only: bool = True
) -> FuzzPlan:
    """Random-replacement plan; valid_only draws from the declared domains,
    otherwise from the full raw width of each field."""
    replacements = {}
    for name in draw_field_subset(schema, rng):
        spec = schema.field(name)
        if valid_only:
            replacements[name] = rng.randint(spec.domain_lo, spec.domain_hi)
        else:
            replacements[name] = rng.randrange(spec.raw_max + 1)
    return FuzzPlan(MODE_INITIAL, None, replacements, {})


def make_guided_plan(
    schema: MessageSchema,
    rule: DecisionRule,
    mutation_rate: float,
    rng: random.Random,
    avoid: Sequence[Condition] = (),
) -> FuzzPlan:
    """Plan for one rule-guided message.

    A rule with a condition gets a fresh satisfying assignment.  The
    default rule (empty condition) is guided by avoidance instead: its
    fields are the union of the minority conditions in `avoid`, assigned
    so that none of those conditions fire.  Raises UnsatisfiableError when
    no assignment exists.
    """
    if rule.condition.is_empty:
        replacements = sampler.solve_avoiding(avoid, schema, rng)
    else:
        replacements = sampler.solve(rule.condition, schema, rng)
    mutations = {}
    for spec in schema.fields:
        if spec.name in replacements:
            continue
        if rng.random() < mutation_rate:
            mutations[spec.name] = rng.randrange(spec.raw_max + 1)
    return FuzzPlan(MODE_GUIDED, rule, replacements, mutations)


def apply_plan(msg: ControlMessage, plan: FuzzPlan) -> tuple[ControlMessage, FuzzAction]:
    overlap = set(plan.replacements) & set(plan.mutations)
    if overlap:
        raise ValueError(f"plan touches fields twice: {sorted(overlap)}")
    after = msg.with_values({**plan.replacements, **plan.mutations})
    action = FuzzAction(
        mode=plan.mode,
        applied_rule=plan.rule,
        replaced_fields=frozenset(plan.replacements),
        mutated_fields=frozenset(plan.mutations),
        before=msg,
        after=after,
    )
    return after, action

