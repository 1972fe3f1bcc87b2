"""Imbalance-aware planning of the next fuzzing iteration.

Given the accumulated dataset and the current rule set, the planner
decides how many of the next n messages should target the minority class
that the rule set was learned for (driving the dataset toward a 50/50
label balance), splits that share across the minority rules
proportionally to rule confidence, and gives the rest to the default.
It also owns the campaign stopping decision, whose wall-clock budget is
one time.monotonic() deadline.
"""
from __future__ import annotations

import logging
import time
from typing import Sequence

from .dataset import LabeledDataset
from .learner import cross_validate
from .rules import DecisionRule, RuleSet

log = logging.getLogger(__name__)


def estimate_class_targets(total: int, minor: int, n: int) -> tuple[int, int, str | None]:
    """How many of the next n samples should be minority vs majority.

    The raw estimate (total + n) / 2 - minor aims the accumulated dataset
    at an even split; it is clamped into [0, n].  Returns (minor_next,
    major_next, clamp) where clamp records which bound was hit, if any.
    """
    raw = (total + n) / 2 - minor
    clamp = None
    if raw <= 0:
        minor_next, clamp = 0, "lower"
    elif raw >= n:
        minor_next, clamp = n, "upper"
    else:
        minor_next = int(raw)
    return minor_next, n - minor_next, clamp


def distribute_quotas(confidences: Sequence[float], share: int) -> list[int]:
    """Split share across rules proportionally to confidence.

    Largest-remainder rounding keeps the sum exactly equal to share.  If
    every confidence is zero the split falls back to equal parts (logged).
    """
    if not confidences:
        return []
    total_conf = sum(confidences)
    if total_conf <= 0:
        log.warning(
            "all %d rule confidences are zero; falling back to an equal split",
            len(confidences),
        )
        weights = [1.0 for _ in confidences]
        total_conf = float(len(confidences))
    else:
        weights = list(confidences)
    shares = [share * w / total_conf for w in weights]
    quotas = [int(s) for s in shares]
    leftover = share - sum(quotas)
    remainders = sorted(
        range(len(shares)), key=lambda i: (-(shares[i] - quotas[i]), i)
    )
    for i in remainders[:leftover]:
        quotas[i] += 1
    return quotas


def plan(
    dataset: LabeledDataset, ruleset: RuleSet, n: int
) -> tuple[list[tuple[DecisionRule, int]], str | None]:
    """Split the next iteration's n messages into per-rule quotas.

    The rule set names the minority class, as learn() wrote it: its
    minority rules predict that class and its default the other.  The
    minority rules share the minority target by confidence, and the
    default takes the majority target.  Returns (budget, clamp): budget
    lists the nonzero (rule, quota) pairs, minority rules first in rule
    order; clamp is None, "lower" (estimate <= 0) or "upper" (>= n).
    """
    majority = ruleset.default_rule.prediction
    minor = len(dataset) - dataset.class_counts()[majority]
    minor_next, major_next, clamp = estimate_class_targets(len(dataset), minor, n)

    rules = ruleset.minority_rules
    # an empty share would still warn on zero confidences
    quotas = distribute_quotas([r.confidence for r in rules], minor_next) if minor_next else []
    budget = [(rule, quota) for rule, quota in zip(rules, quotas) if quota > 0]
    if major_next:
        budget.append((ruleset.default_rule, major_next))
    return budget, clamp


# the loop's model-quality estimate: k-fold (P, R) of the accumulated data,
# small-data rule included
progress = cross_validate


def should_stop(
    history: Sequence[tuple[float, float]],
    deadline: float | None,
    epsilon: float = 0.01,
    window: int = 3,
    precision_target: float | None = None,
    recall_target: float | None = None,
) -> tuple[bool, str | None]:
    """Stop on budget exhaustion, metric targets, or a metric plateau.

    The budget is spent once time.monotonic() reaches `deadline`, the
    campaign's start plus its budget; None, no budget, never passes.  The
    plateau check compares the latest precision and recall against the
    values window iterations back, so it needs window + 1 entries; both
    improving by less than epsilon means the loop stalled.  window=0
    disables the plateau check.
    """
    if deadline is not None and time.monotonic() >= deadline:
        return True, "budget"
    if history:
        precision, recall = history[-1]
        if (
            precision_target is not None
            and recall_target is not None
            and precision >= precision_target
            and recall >= recall_target
        ):
            return True, "target"
    if window > 0 and len(history) > window:
        prev_p, prev_r = history[-1 - window]
        cur_p, cur_r = history[-1]
        if cur_p - prev_p < epsilon and cur_r - prev_r < epsilon:
            return True, "plateau"
    return False, None
