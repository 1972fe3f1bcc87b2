"""Fuzzing operators: subset draws, domain replacement, and rule guidance."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefuzz.codec import ControlMessage
from rulefuzz.fuzzer import (
    MODE_GUIDED,
    MODE_INITIAL,
    FuzzPlan,
    apply_plan,
    draw_field_subset,
    make_guided_plan,
    make_initial_plan,
)
from rulefuzz.rules import Condition, DecisionRule, parse_condition
from rulefuzz.sampler import UnsatisfiableError, evaluate

from .conftest import make_schema

SCHEMA = make_schema(
    {"a": 8, "b": 8, "c": 8, "d": 8},
    domains={"a": (1, 6), "b": (0, 100)},
)


def base_message():
    return ControlMessage(SCHEMA, {"a": 4, "b": 2, "c": 0, "d": 9})


def rule(cond_text, conf_t=10, conf_f=1):
    return DecisionRule(parse_condition(cond_text), "presence", conf_t, conf_f)


def test_field_subset_nonempty_and_half_inclusion():
    rng = random.Random(1)
    counts = Counter()
    trials = 10_000
    for _ in range(trials):
        chosen = draw_field_subset(SCHEMA, rng)
        assert chosen
        counts.update(chosen)
    # inclusion probability per field is 1/2, conditioned on nonemptiness
    expected = trials * (0.5 / (1 - 0.5 ** len(SCHEMA.fields)))
    for name in ("a", "b", "c", "d"):
        assert abs(counts[name] - expected) < trials * 0.02


def test_single_field_schema_always_chosen():
    solo = make_schema({"x": 8})
    rng = random.Random(2)
    for _ in range(100):
        assert draw_field_subset(solo, rng) == ["x"]


def test_initial_plan_respects_domains():
    rng = random.Random(3)
    for _ in range(2000):
        plan = make_initial_plan(SCHEMA, rng)
        assert plan.mode == MODE_INITIAL
        assert plan.rule is None
        assert plan.replacements and not plan.mutations
        for name, value in plan.replacements.items():
            spec = SCHEMA.field(name)
            assert spec.domain_lo <= value <= spec.domain_hi


def test_initial_plan_raw_mode_escapes_domains():
    rng = random.Random(4)
    seen_invalid = False
    for _ in range(500):
        plan = make_initial_plan(SCHEMA, rng, valid_only=False)
        for name, value in plan.replacements.items():
            spec = SCHEMA.field(name)
            assert 0 <= value <= spec.raw_max
            if not (spec.domain_lo <= value <= spec.domain_hi):
                seen_invalid = True
    assert seen_invalid  # a: domain [1,6] inside raw [0,255]


def test_apply_plan_replaces_exactly_named_fields():
    msg = base_message()
    plan = FuzzPlan(None, {"b": 8}, {})
    fuzzed, action = apply_plan(msg, plan)
    assert fuzzed.values == {"a": 4, "b": 8, "c": 0, "d": 9}
    assert action.plan is plan and plan.mode == MODE_INITIAL
    assert set(action.plan.replacements) == {"b"}
    assert set(action.plan.mutations) == set()
    assert action.before is msg and action.after is fuzzed
    assert msg.values["b"] == 2  # input untouched


def test_apply_plan_rejects_overlap():
    with pytest.raises(ValueError):
        apply_plan(base_message(), FuzzPlan(rule("a >= 1"), {"b": 1}, {"b": 2}))


def test_initial_fuzz_changes_subset_only():
    rng = random.Random(5)
    msg = base_message()
    for _ in range(200):
        fuzzed, _ = apply_plan(msg, make_initial_plan(SCHEMA, rng))
        assert set(fuzzed.values) == set(msg.values)
        for name, value in fuzzed.values.items():
            spec = SCHEMA.field(name)
            if value != msg.values[name]:
                assert spec.domain_lo <= value <= spec.domain_hi


def test_guided_plan_satisfies_rule_and_never_mutates_rule_fields():
    rng = random.Random(6)
    r = rule("a >= 5 AND c <= 10")
    for _ in range(2000):
        plan = make_guided_plan(SCHEMA, r, mutation_rate=0.5, rng=rng)
        assert plan.mode == MODE_GUIDED
        assert set(plan.replacements) == {"a", "c"}
        assert not set(plan.replacements) & set(plan.mutations)
        fuzzed, action = apply_plan(base_message(), plan)
        assert evaluate(r.condition, fuzzed.values)
        assert not action.plan.mutations.keys() & {"a", "c"}


def test_guided_mutation_rate_frequency():
    rng = random.Random(7)
    r = rule("a >= 5")
    trials = 8000
    mutated = Counter()
    for _ in range(trials):
        plan = make_guided_plan(SCHEMA, r, mutation_rate=0.25, rng=rng)
        mutated.update(plan.mutations.keys())
    for name in ("b", "c", "d"):
        assert abs(mutated[name] - trials * 0.25) < trials * 0.02
    assert mutated["a"] == 0


def test_guided_default_rule_avoids_minority_conditions():
    rng = random.Random(8)
    default = DecisionRule(Condition(), "absence", 50, 2)
    avoid = [parse_condition("a >= 5"), parse_condition("b <= 20 AND d >= 200")]
    for _ in range(1000):
        plan = make_guided_plan(SCHEMA, default, 0.3, rng, avoid=avoid)
        fuzzed, _ = apply_plan(base_message(), plan)
        assert not any(evaluate(c, fuzzed.values) for c in avoid)


def test_guided_plan_solves_over_raw_width_not_domain():
    # learned thresholds may exceed the declared domain; guidance honors them
    rng = random.Random(9)
    plan = make_guided_plan(SCHEMA, rule("a >= 200"), 0.1, rng)
    assert plan.replacements["a"] >= 200  # domain_hi for a is 6


def test_guided_plan_unsatisfiable_propagates():
    rng = random.Random(9)
    with pytest.raises(UnsatisfiableError):
        make_guided_plan(SCHEMA, rule("a >= 5 AND a <= 2"), 0.1, rng)


def test_plans_are_deterministic_per_seed():
    r = rule("a >= 5 AND b <= 50")
    p1 = make_guided_plan(SCHEMA, r, 0.3, random.Random("seed/1"))
    p2 = make_guided_plan(SCHEMA, r, 0.3, random.Random("seed/1"))
    p3 = make_guided_plan(SCHEMA, r, 0.3, random.Random("seed/2"))
    assert p1 == p2
    assert p1 != p3 or p2 == p3  # different stream rarely collides


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rate=st.floats(0.0, 1.0))
def test_guided_output_always_satisfies_rule_property(seed, rate):
    rng = random.Random(seed)
    r = rule("a >= 3 AND d >= 100")
    plan = make_guided_plan(SCHEMA, r, rate, rng)
    fuzzed, action = apply_plan(base_message(), plan)
    assert evaluate(r.condition, fuzzed.values)
    assert not action.plan.mutations.keys() & set(r.condition.fields())
