"""Sampler correctness against exhaustive enumeration on small domains."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefuzz.rules import Atom, Condition, parse_condition
from rulefuzz.sampler import (
    MissingFieldError,
    UnsatisfiableError,
    evaluate,
    intervals_for,
    solve,
    solve_avoiding,
)

from .conftest import make_schema

# two 4-bit fields -> 256 joint states, cheap to enumerate
TINY = make_schema({"a": 4, "b": 4})


def brute_force(cond, schema):
    """Reference solver: all satisfying assignments by enumeration."""
    names = [f.name for f in schema.fields]
    out = []
    for combo in itertools.product(*(range(f.raw_max + 1) for f in schema.fields)):
        values = dict(zip(names, combo))
        if evaluate(cond, values):
            out.append(values)
    return out


def brute_per_field(cond, schema):
    """Satisfying raw values per referenced field, independently."""
    result = {}
    for name in cond.fields():
        spec = schema.field(name)
        atoms = [a for a in cond.atoms if a.field == name]
        result[name] = [
            v
            for v in range(spec.raw_max + 1)
            if all(evaluate(Condition((a,)), {name: v}) for a in atoms)
        ]
    return result


def random_condition(rng, schema):
    atoms = []
    for _ in range(rng.randint(1, 3)):
        spec = rng.choice(schema.fields)
        op = rng.choice(["<=", ">=", "=", "!=", "<", ">"])
        # thresholds past either end of the raw range reach the sampler
        # through parsed conditions, saved rule sets and oracle files
        atoms.append(Atom(spec.name, op, rng.randint(-2, spec.raw_max + 2)))
    return Condition(tuple(atoms))


def test_interval_sizes_match_enumeration():
    # intervals_for reports empty allowed sets as-is; solve raises
    rng = random.Random(11)
    for _ in range(300):
        cond = random_condition(rng, TINY)
        per_field = brute_per_field(cond, TINY)
        intervals = {iv.field: iv for iv in intervals_for(cond, TINY)}
        assert set(intervals) == set(per_field)
        for name, iv in intervals.items():
            allowed = sorted(
                v for lo, hi in iv.allowed for v in range(lo, hi + 1)
            )
            assert allowed == per_field[name]
            assert iv.size == len(per_field[name])


def test_solve_produces_satisfying_values():
    rng = random.Random(5)
    for _ in range(300):
        cond = random_condition(rng, TINY)
        per_field = brute_per_field(cond, TINY)
        if any(len(v) == 0 for v in per_field.values()):
            with pytest.raises(UnsatisfiableError):
                solve(cond, TINY, rng)
            continue
        values = solve(cond, TINY, rng)
        assert set(values) == set(cond.fields())
        assert evaluate(cond, values)


def test_solve_uniform_over_allowed_set():
    # a != 3 AND a != 9 AND a >= 2 AND a <= 9 -> allowed {2,4,5,6,7,8}
    cond = parse_condition("a != 3 AND a != 9 AND a >= 2 AND a <= 9")
    allowed = [2, 4, 5, 6, 7, 8]
    rng = random.Random(42)
    n = 6000
    counts = {v: 0 for v in allowed}
    for _ in range(n):
        counts[solve(cond, TINY, rng)["a"]] += 1
    expected = n / len(allowed)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square critical value, 5 dof, p=0.001
    assert chi2 < 20.52, counts


def test_solve_spec_example(packet_in, rng):
    cond = parse_condition("version > 5 AND length >= 10")
    for _ in range(50):
        values = solve(cond, packet_in, rng)
        assert values["version"] > 5
        assert values["length"] >= 10


def test_equality_collapses_and_inequality_splits():
    (iv,) = intervals_for(parse_condition("a = 7"), TINY)
    assert iv.allowed == ((7, 7),)
    (iv,) = intervals_for(parse_condition("a != 7"), TINY)
    assert iv.allowed == ((0, 6), (8, 15))
    assert iv.size == 15
    # the allowed values at and to one side of a threshold form one interval
    below, above = intervals_for(parse_condition("a <= 7 AND b >= 7"), TINY)
    assert (below.allowed, above.allowed) == (((0, 7),), ((7, 15),))
    # a threshold outside the raw range [0, 15]
    for text in ("a = 16", "a = -1"):
        (iv,) = intervals_for(parse_condition(text), TINY)
        assert iv.allowed == ()
    for text in ("a != 16", "a != -1"):
        (iv,) = intervals_for(parse_condition(text), TINY)
        assert iv.allowed == ((0, 15),)


def test_contradiction_unsatisfiable():
    with pytest.raises(UnsatisfiableError):
        solve(parse_condition("a >= 9 AND a <= 3"), TINY, random.Random(0))
    with pytest.raises(UnsatisfiableError):
        solve(parse_condition("a = 4 AND a != 4"), TINY, random.Random(0))


def test_solve_avoiding_never_hits_avoided():
    rng = random.Random(9)
    avoid = [parse_condition("a >= 12"), parse_condition("b <= 2 AND a <= 3")]
    for _ in range(400):
        values = solve_avoiding(avoid, TINY, rng)
        assert set(values) == {"a", "b"}
        assert not any(evaluate(c, values) for c in avoid)


def test_solve_avoiding_empty_input():
    assert solve_avoiding([], TINY, random.Random(0)) == {}


def test_solve_avoiding_gives_up_when_impossible():
    # the avoided conditions jointly cover the whole plane
    avoid = [parse_condition("a <= 7"), parse_condition("a >= 8")]
    with pytest.raises(UnsatisfiableError):
        solve_avoiding(avoid, TINY, random.Random(0))


def test_evaluate_missing_field():
    with pytest.raises(MissingFieldError):
        evaluate(parse_condition("zz >= 1"), {"a": 1})


def test_evaluate_all_operators():
    values = {"x": 5}
    cases = [("x <= 5", True), ("x <= 4", False), ("x >= 5", True),
             ("x >= 6", False), ("x = 5", True), ("x = 4", False),
             ("x != 4", True), ("x != 5", False), ("x < 6", True),
             ("x < 5", False), ("x > 4", True), ("x > 5", False)]
    for text, want in cases:
        assert evaluate(parse_condition(text), values) is want, text


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_solve_agrees_with_enumeration_property(seed):
    rng = random.Random(seed)
    cond = random_condition(rng, TINY)
    sat = brute_force(cond, TINY)
    if not sat:
        with pytest.raises(UnsatisfiableError):
            solve(cond, TINY, rng)
    else:
        values = solve(cond, TINY, rng)
        full = {f.name: values.get(f.name, 0) for f in TINY.fields}
        assert evaluate(cond, full)
