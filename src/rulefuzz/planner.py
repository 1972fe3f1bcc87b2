"""Imbalance-aware planning of the next fuzzing iteration.

Given the accumulated dataset and the current rule set, the planner
decides how many of the next n messages should target the minority class
(driving the dataset toward a 50/50 label balance) and splits each class
share across that class's rules proportionally to rule confidence.
It also owns the campaign stopping decision.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Sequence

from .dataset import LabeledDataset
from .learner import RipperParams, cross_validate
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

    Rules predicting the dataset's minority label share the minority
    target; the remaining rules (normally just the default) share the
    majority target.  Returns (budget, clamp): budget lists the nonzero
    (rule, quota) pairs, minority group first and rule order within each
    group; clamp is None, "lower" (estimate <= 0) or "upper" (>= n).
    """
    minority = dataset.minority_label()
    minor = dataset.class_counts()[minority]
    minor_next, major_next, clamp = estimate_class_targets(len(dataset), minor, n)

    minority_rules = [r for r in ruleset.minority_rules if r.prediction == minority]
    majority_rules = [r for r in ruleset.minority_rules if r.prediction != minority]
    if ruleset.default_rule.prediction == minority:
        minority_rules.append(ruleset.default_rule)
    else:
        majority_rules.append(ruleset.default_rule)

    budget: list[tuple[DecisionRule, int]] = []
    for rules_group, share in ((minority_rules, minor_next), (majority_rules, major_next)):
        if share <= 0:
            continue  # an empty share would still warn on zero confidences
        quotas = distribute_quotas([r.confidence for r in rules_group], share)
        budget.extend(
            (rule, quota) for rule, quota in zip(rules_group, quotas) if quota > 0
        )
    return budget, clamp


def progress(
    dataset: LabeledDataset,
    k: int = 10,
    params: RipperParams | None = None,
    seed: int | None = None,
) -> tuple[float, float]:
    """Model quality estimate on the accumulated data: k-fold (P, R).

    Early iterations may hold fewer samples than the requested fold
    count; `cross_validate` owns that small-data rule (k shrinks to the
    row count, and under two rows both metrics are zero).
    """
    return cross_validate(dataset, k=k, params=params, seed=seed)


@dataclass
class BudgetClock:
    """Wall-clock budget; budget_seconds=None never expires."""

    budget_seconds: float | None
    started: float = field(default_factory=time.monotonic)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def expired(self) -> bool:
        return self.budget_seconds is not None and self.elapsed() >= self.budget_seconds


def should_stop(
    history: Sequence[tuple[float, float]],
    clock: BudgetClock,
    epsilon: float = 0.01,
    window: int = 3,
    precision_target: float | None = None,
    recall_target: float | None = None,
) -> tuple[bool, str | None]:
    """Stop on budget exhaustion, metric targets, or a metric plateau.

    The plateau check compares the latest precision and recall against the
    values window iterations back; both improving by less than epsilon
    means the loop stalled.  window=0 disables the plateau check.
    """
    if clock.expired():
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
    if window > 0 and len(history) >= window:
        prev_p, prev_r = history[-window]
        cur_p, cur_r = history[-1]
        if cur_p - prev_p < epsilon and cur_r - prev_r < epsilon:
            return True, "plateau"
    return False, None
