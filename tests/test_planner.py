"""Iteration planning: class targets, quota splits, and stopping rules."""

import logging
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefuzz.dataset import ABSENCE, PRESENCE, LabeledDataset
from rulefuzz.planner import (
    distribute_quotas,
    estimate_class_targets,
    plan,
    should_stop,
)
from rulefuzz.rules import Condition, DecisionRule, RuleSet, parse_condition


def dataset_with_counts(presence, absence):
    ds = LabeledDataset(("a", "b"))
    for i in range(presence):
        ds.append({"a": i % 16, "b": 1}, PRESENCE)
    for i in range(absence):
        ds.append({"a": i % 16, "b": 2}, ABSENCE)
    return ds


def ruleset_with_confidences(minority_confs, default_conf=0.8):
    rules = []
    for i, c in enumerate(minority_confs):
        t = 100
        f = round(t * (1 - c))
        rules.append(
            DecisionRule(parse_condition(f"a >= {i + 1}"), PRESENCE, t, f)
        )
    t_def = 100
    f_def = round(t_def * (1 - default_conf))
    default = DecisionRule(Condition(), ABSENCE, t_def, f_def)
    return RuleSet(tuple(rules), default)


def test_class_target_trajectory_without_clamping():
    rows = [
        (200, 10, 190, 10),
        (400, 125, 175, 25),
        (600, 248, 152, 48),
        (800, 380, 120, 80),
        (1000, 495, 105, 95),
        (1200, 600, 100, 100),
    ]
    for total, minor, want_minor, want_major in rows:
        minor_next, major_next, clamp = estimate_class_targets(total, minor, 200)
        assert (minor_next, major_next) == (want_minor, want_major)
        assert clamp is None


def test_class_target_clamps_both_ways():
    minor_next, major_next, clamp = estimate_class_targets(600, 16, 200)
    assert (minor_next, major_next, clamp) == (200, 0, "upper")
    minor_next, major_next, clamp = estimate_class_targets(600, 410, 200)
    assert (minor_next, major_next, clamp) == (0, 200, "lower")


def test_quota_worked_example():
    assert distribute_quotas([0.8, 0.7], 190) == [101, 89]
    assert distribute_quotas([0.8], 10) == [10]


def test_quota_zero_confidences_fall_back_to_equal_split(caplog):
    with caplog.at_level(logging.WARNING, logger="rulefuzz.planner"):
        assert distribute_quotas([0.0, 0.0, 0.0], 9) == [3, 3, 3]
    assert any("zero" in r.message for r in caplog.records)


def test_quota_empty_rules():
    assert distribute_quotas([], 10) == []


@settings(max_examples=300, deadline=None)
@given(
    confs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    share=st.integers(0, 500),
)
def test_quota_conservation_property(confs, share):
    quotas = distribute_quotas(confs, share)
    assert sum(quotas) == share
    assert all(q >= 0 for q in quotas)
    total = sum(confs)
    if total > 0:
        for q, c in zip(quotas, confs):
            assert abs(q - share * c / total) < 1.0


def class_shares(budget, minority):
    """(minority, majority) message totals of a plan() budget."""
    minor = sum(q for r, q in budget if r.prediction == minority)
    return minor, sum(q for _, q in budget) - minor


def test_plan_splits_minority_and_majority_shares():
    ds = dataset_with_counts(10, 190)
    rs = ruleset_with_confidences([0.8, 0.7])
    budget, clamp = plan(ds, rs, 200)
    assert clamp is None
    assert class_shares(budget, PRESENCE) == (190, 10)
    assert budget == [
        (rs.minority_rules[0], 101),
        (rs.minority_rules[1], 89),
        (rs.default_rule, 10),
    ]


def test_plan_drops_zero_quota_entries():
    ds = dataset_with_counts(100, 100)
    rs = ruleset_with_confidences([0.9, 0.0])
    budget, _ = plan(ds, rs, 10)
    assert rs.minority_rules[1] not in [r for r, _ in budget]
    assert all(q > 0 for _, q in budget)
    assert sum(q for _, q in budget) == 10


def test_plan_when_minority_is_absence():
    # rules predicting absence share the minority target
    ds = dataset_with_counts(220, 180)
    rules = (DecisionRule(parse_condition("b <= 4"), ABSENCE, 50, 5),)
    rs = RuleSet(rules, DecisionRule(Condition(), PRESENCE, 350, 50))
    budget, clamp = plan(ds, rs, 100)
    assert clamp is None
    minor_next = 250 - 180  # (400+100)/2 - 180
    assert class_shares(budget, ABSENCE) == (minor_next, 100 - minor_next)
    assert budget == [(rules[0], minor_next), (rs.default_rule, 100 - minor_next)]


def test_plan_upper_clamp_gives_whole_budget_to_minority():
    ds = dataset_with_counts(16, 584)
    rs = ruleset_with_confidences([0.9])
    budget, clamp = plan(ds, rs, 200)
    assert clamp == "upper"
    assert class_shares(budget, PRESENCE) == (200, 0)
    assert budget == [(rs.minority_rules[0], 200)]


def test_should_stop_budget_beats_everything():
    deadline = time.monotonic()  # already passed
    stop, reason = should_stop(
        [(1.0, 1.0)] * 5, deadline, precision_target=0.5, recall_target=0.5
    )
    assert (stop, reason) == (True, "budget")


def test_should_stop_target():
    deadline = None
    stop, reason = should_stop(
        [(0.96, 0.85)], deadline, precision_target=0.95, recall_target=0.80
    )
    assert (stop, reason) == (True, "target")
    stop, reason = should_stop(
        [(0.96, 0.70)], deadline, precision_target=0.95, recall_target=0.80
    )
    assert (stop, reason) == (False, None)


def test_should_stop_requires_both_targets():
    deadline = None
    stop, _ = should_stop([(0.99, 0.99)], deadline, precision_target=0.95,
                          recall_target=None)
    assert not stop


def test_should_stop_plateau():
    deadline = None
    # window=3 compares the last entry with the one three iterations back
    flat = [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (0.5, 0.5)]
    stop, reason = should_stop(flat, deadline, window=3)
    assert (stop, reason) == (True, "plateau")
    rising = [(0.5, 0.5), (0.6, 0.6), (0.8, 0.8), (0.8, 0.8)]
    stop, reason = should_stop(rising, deadline, window=3)
    assert (stop, reason) == (False, None)
    # improvement on one metric alone keeps the loop alive
    rising_p = [(0.5, 0.5), (0.6, 0.5), (0.8, 0.5), (0.8, 0.5)]
    assert should_stop(rising_p, deadline, window=3) == (False, None)


def test_should_stop_plateau_of_one_iteration():
    deadline = None
    # one entry has nothing one iteration back to compare with
    assert should_stop([(0.5, 0.5)], deadline, window=1) == (False, None)
    assert should_stop([(0.5, 0.5), (0.5, 0.5)], deadline, window=1) == (True, "plateau")
    assert should_stop([(0.5, 0.5), (0.6, 0.6)], deadline, window=1) == (False, None)
    assert should_stop([(0.6, 0.6), (0.5, 0.5)], deadline, window=1) == (True, "plateau")


def test_should_stop_plateau_disabled_and_short_history():
    deadline = None
    flat = [(0.5, 0.5)] * 10
    assert should_stop(flat, deadline, window=0) == (False, None)
    assert should_stop(flat[:2], deadline, window=3) == (False, None)
    # three entries hold only two iterations of change
    assert should_stop(flat[:3], deadline, window=3) == (False, None)
    assert should_stop(flat[:4], deadline, window=3) == (True, "plateau")


def test_budget_clock():
    # a budget is one time.monotonic() deadline, and None never passes
    assert should_stop([], None) == (False, None)
    assert should_stop([], time.monotonic()) == (True, "budget")
    assert should_stop([], time.monotonic() + 3600.0) == (False, None)


@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(1, 5000),
    n=st.integers(1, 500),
    seed=st.integers(0, 10_000),
)
def test_class_targets_always_partition_n(total, n, seed):
    minor = random.Random(seed).randint(0, total)
    minor_next, major_next, clamp = estimate_class_targets(total, minor, n)
    assert minor_next + major_next == n
    assert 0 <= minor_next <= n
    raw = (total + n) / 2 - minor
    if clamp is None:
        assert minor_next == int(raw)
        assert 0 < raw < n
    elif clamp == "upper":
        assert raw >= n and minor_next == n
    else:
        assert raw <= 0 and minor_next == 0
