"""Campaign orchestration: the fuzz, learn, plan loop end to end.

A campaign repeatedly drives scripted sessions against the simulated
system under test through the intercept proxy.  Iteration one replaces
random field subsets; every later iteration (in guided mode) spends a
planned per-rule budget so that the growing dataset stays balanced and
the rule model sharpens.  All randomness is pre-drawn into per-run fuzz
plans before any session starts, which makes results byte-identical for
a given seed regardless of worker count, CPU count or scheduling.
The loop stops after `iterations` iterations, or after the first one
that ends past the budget's time.monotonic() deadline, meets both metric
targets or shows a metric plateau (planner.should_stop).

Sessions run on every core the process may use.  Each iteration's rows
are dealt round-robin into one share per process (at most `workers`):
the caller runs share 0 and each of the process pool's workers one
other share, all through one share function.  A share opens a loop, the
mock controller and the proxy in front of it on that loop, and dials
each row's session on it too, so every role of its sessions runs in the
thread that runs the share; it closes them when its rows are done.
`workers` bounds the sessions in flight across all processes.  A row's
label depends only on (seed, iteration, index), and the rows are merged
back by index.

Each row gets a few session attempts; a row that exhausts them stops its
share from starting new rows (the rows in flight finish) and fails the
campaign with the lowest failed row, keeping the artifacts of the last
whole iteration.  A pool worker that dies fails it the same way.

Outputs under the campaign directory, which a run first clears of
these names (and of nothing else), so that it holds one campaign:
  dataset.csv           every labeled sample, appended per iteration
  rulesets/iter_NNN.txt rule set learned after each iteration
  plans/iter_NNN.json   the fuzz plans executed in each iteration
  ruleset.txt           final rule set (with a message-type header)
  report.json           deterministic campaign summary, no wall-clock data
A replay corpus (msg_*.bin, manifest.json) and a compare root
(comparison.json) are cleared of their own files the same way.  Every
whole file is written atomically, so a failed write leaves the old one.
"""
from __future__ import annotations

import collections
import contextlib
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, replace
from operator import itemgetter
from pathlib import Path
from random import Random
from typing import Sequence

from . import pool
from .codec import (
    ControlMessage,
    MessageSchema,
    SchemaRegistry,
    builtin_registry,
    decode_as,
    encode,
)
from .dataset import PRESENCE, LabeledDataset
from .fuzzer import (
    MODE_GUIDED,
    MODE_INITIAL,
    FuzzAction,
    FuzzPlan,
    apply_plan,
    make_guided_plan,
    make_initial_plan,
)
from .learner import RipperParams, cross_validate, learn
from .planner import plan, should_stop
from .proxy import InterceptConfig, InterceptProxy
from .reactor import Loop
from .rules import DecisionRule, RuleSet, format_ruleset, parse_ruleset
from .sampler import UnsatisfiableError, intervals_for, solve
from .sut import (
    SWITCH,
    FailureOracle,
    MockController,
    Script,
    SutUnavailableError,
    SwitchSession,
    build_procedure,
    default_oracle,
    observe_label,
)

log = logging.getLogger(__name__)

MODES = ("guided", "random", "schema_random")

_TYPE_HEADER = "# message_type: "
_MAX_RETRIES = 3  # session attempts per planned row before the campaign fails


class PersistenceFailureError(Exception):
    """A campaign artifact could not be written."""


@dataclass(frozen=True)
class CampaignConfig:
    out_dir: Path
    mode: str = "guided"
    message_type: str = "packet_in"
    procedure: str = "ping_exchange"
    n: int = 200
    iterations: int | None = 10
    mutation_rate: float | None = None  # None: 1 / field count
    budget_seconds: float | None = None
    seed: int = 0
    workers: int = 4
    cv_folds: int = 10
    precision_target: float | None = None
    recall_target: float | None = None
    plateau_window: int = 3
    plateau_epsilon: float = 0.01
    oracle: FailureOracle | None = None  # None: packaged default
    registry: SchemaRegistry | None = None  # None: builtin schemas

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be positive or None")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")
        # "not x >= 0" also rejects NaN, which would never expire or plateau
        if self.budget_seconds is not None and not self.budget_seconds >= 0:
            raise ValueError(f"budget_seconds must not be negative, got {self.budget_seconds}")
        if (self.precision_target is None) != (self.recall_target is None):
            raise ValueError("precision_target and recall_target are set together")
        for name in ("precision_target", "recall_target"):
            target = getattr(self, name)
            if target is not None and not 0.0 <= target <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {target}")
        if self.plateau_window < 0:
            raise ValueError(f"plateau_window must not be negative, got {self.plateau_window}")
        if not self.plateau_epsilon >= 0:
            raise ValueError(f"plateau_epsilon must not be negative, got {self.plateau_epsilon}")


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration campaign facts, all deterministic for a given seed."""

    iteration: int
    fuzz_mode: str
    rows: int
    presence: int
    absence: int
    cumulative_presence: int
    cumulative_absence: int
    precision: float
    recall: float
    rule_count: int
    clamp: str | None


@dataclass
class CampaignReport:
    """What a campaign found; run_campaign fills it in as the iterations end."""

    out_dir: Path
    dataset: LabeledDataset
    ruleset: RuleSet | None  # the last one learned; None before the first
    iterations: list[IterationRecord]
    stop_reason: str

    @property
    def history(self) -> list[tuple[float, float]]:
        """(precision, recall) after each iteration."""
        return [(r.precision, r.recall) for r in self.iterations]


class PlannedHook:
    """Proxy hook that rewrites the sniffed target frame per one plan."""

    def __init__(self, fuzz_plan: FuzzPlan, schema: MessageSchema):
        self.fuzz_plan = fuzz_plan
        self.schema = schema
        self.action: FuzzAction | None = None

    def __call__(self, frame: bytes) -> bytes:
        msg = decode_as(frame, self.schema)
        after, action = apply_plan(msg, self.fuzz_plan)
        frame = encode(after)
        self.action = action  # not before encode: a hook that raises leaves its row unfuzzed
        return frame


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------

def _plan_rng(seed: int, iteration: int, index: int) -> Random:
    return Random(f"{seed}/plan/{iteration}/{index}")


def build_iteration_plans(
    config: CampaignConfig,
    schema: MessageSchema,
    dataset: LabeledDataset,
    ruleset: RuleSet | None,
    iteration: int,
    mutation_rate: float,
) -> tuple[list[FuzzPlan], str, str | None]:
    """Pre-draw the n fuzz plans for one iteration.

    Returns (plans, fuzz mode used, clamp marker of the budget estimate).
    Guided mode needs a usable rule set from the previous iteration;
    otherwise the iteration falls back to random field replacement, drawn
    from declared domains except in the protocol-blind "random" mode.
    """
    guided = (
        config.mode == "guided"
        and iteration > 1
        and ruleset is not None
        and not ruleset.is_degenerate
    )
    if not guided:
        valid_only = config.mode != "random"
        plans = [
            make_initial_plan(schema, _plan_rng(config.seed, iteration, j), valid_only)
            for j in range(config.n)
        ]
        return plans, MODE_INITIAL, None

    budget, clamp = plan(dataset, ruleset, config.n)
    budget_rng = Random(f"{config.seed}/budget/{iteration}")
    avoid = ruleset.minority_conditions()
    plans: list[FuzzPlan] = []
    for j in range(config.n):
        rng = _plan_rng(config.seed, iteration, j)
        if budget:
            i = budget_rng.randrange(len(budget))
            rule, quota = budget[i]
            if quota > 1:
                budget[i] = (rule, quota - 1)
            else:
                del budget[i]
            try:
                plans.append(make_guided_plan(schema, rule, mutation_rate, rng, avoid=avoid))
                continue
            except UnsatisfiableError:
                # the rule describes an empty region; release its quota
                budget = [entry for entry in budget if entry[0] != rule]
                log.warning(
                    "iteration %d: rule %s is unsatisfiable, quota released",
                    iteration, _rule_text(rule),
                )
        plans.append(make_initial_plan(schema, rng, True))
    return plans, MODE_GUIDED, clamp


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Sessions:
    """What every session of a campaign runs with; pickled to the pool's workers."""

    registry: SchemaRegistry
    procedure: tuple
    oracle: FailureOracle
    schema: MessageSchema
    seed: int


_Row = tuple[int, dict, str]  # (index in the iteration, fuzzed field values, label)
_Failure = tuple[int, SutUnavailableError]  # (index in the iteration, why it failed)
_DIALS = 64  # a share's unaccepted connections: one accepted per wait, no backlog of 128 fills


class _Share:
    """One share's rows, driven on its loop with at most `in_flight` rows in flight.

    Each attempt at a row is a SwitchSession dialled through the proxy,
    its PlannedHook paired by the session's address, and is settled as
    its session closes.  A row whose attempt failed goes to the front of
    the queue to be dialled again, up to _MAX_RETRIES attempts; a row
    that exhausts them stops the share from starting new rows, and the
    rows in flight finish.
    """

    def __init__(self, sessions, proxy, loop, in_flight, iteration, indices, plans):
        self._sessions, self._proxy, self._loop = sessions, proxy, loop
        self._endpoint = proxy.endpoint
        self._script = Script(sessions.procedure, sessions.registry, SWITCH)
        self._in_flight, self._iteration = in_flight, iteration
        # (index, plan, attempts made); a row to dial again goes to the front
        self._todo = collections.deque((j, plan, 0) for j, plan in zip(indices, plans))
        self._running = 0  # attempts in flight
        self.rows: list[_Row] = []
        self.failures: list[_Failure] = []

    def advance(self) -> bool:
        """Dial the next attempts; True once the share is done."""
        while self._todo and self._running < self._in_flight and self._proxy.waiting() < _DIALS:
            index, plan, attempts = self._todo[0]
            if self.failures and not attempts:
                break  # rows already started finish, no new row starts
            self._todo.popleft()
            self._running += 1
            self._dial(index, plan, attempts + 1)
        return not self._running and (not self._todo or bool(self.failures))

    def _dial(self, index: int, plan: FuzzPlan, attempts: int) -> None:
        sessions = self._sessions
        hook = PlannedHook(plan, sessions.schema)
        switch = SwitchSession(
            self._loop, self._endpoint, self._script, sessions.oracle,
            lambda s: self._settle(index, plan, attempts, hook, s),
        )
        if not switch.closed:
            self._proxy.expect(switch.address, hook)

    def _settle(
        self, index: int, plan: FuzzPlan, attempts: int, hook: PlannedHook, switch: SwitchSession
    ) -> None:
        self._running -= 1
        self._proxy.forget(switch.address)  # a connection the proxy never accepted
        outcome = switch.outcome
        if outcome.error is not None:
            last = outcome.error
        elif hook.action is None:
            last = "target frame never intercepted"
        else:
            sessions = self._sessions
            noise = sessions.oracle.noise_rate
            # a noise-free label draws nothing from its row's stream
            rng = Random(f"{sessions.seed}/noise/{self._iteration}/{index}") if noise else None
            label = observe_label(outcome, noise, rng)
            self.rows.append((index, hook.action.after.values, label))
            return
        if attempts < _MAX_RETRIES:
            self._todo.appendleft((index, plan, attempts))
        else:
            self.failures.append((index, SutUnavailableError(
                f"iteration {self._iteration} run {index} failed "
                f"{_MAX_RETRIES} times; last: {last}"
            )))


def _run_share(
    sessions: _Sessions,
    in_flight: int,
    iteration: int,
    indices: Sequence[int],
    plans: Sequence[FuzzPlan],
) -> tuple[list[_Row], _Failure | None]:
    """Run one share's rows: the rows, and the lowest row that exhausted its retries.

    The share's mock controller, the proxy in front of it and every
    session's switch side run on one loop in the calling thread, and
    are closed when the share ends.
    """
    with (
        Loop() as loop,
        MockController(sessions.registry, sessions.procedure, sessions.oracle, loop=loop)
        as controller,
        InterceptProxy(
            InterceptConfig(
                "127.0.0.1", 0, *controller.endpoint, target_type=sessions.schema.type_name
            ),
            sessions.registry,
            loop=loop,
        ) as proxy,
    ):
        share = _Share(sessions, proxy, loop, in_flight, iteration, indices, plans)
        loop.run(share.advance)
    return share.rows, min(share.failures, key=itemgetter(0), default=None)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _rule_text(rule: DecisionRule) -> str:
    """A rule's condition, or `<default>` for the default rule's empty one."""
    return str(rule.condition) or "<default>"


def _plan_entry(index: int, fuzz_plan: FuzzPlan) -> dict:
    return {
        "index": index,
        "mode": fuzz_plan.mode,
        "rule": None if fuzz_plan.rule is None else _rule_text(fuzz_plan.rule),
        "replacements": dict(sorted(fuzz_plan.replacements.items())),
        "mutations": dict(sorted(fuzz_plan.mutations.items())),
    }


def _prepare(out: Path, patterns: Sequence[str]) -> None:
    """Make out and every subdirectory its patterns name, then remove the
    files an earlier run left under those patterns, and nothing else."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        for pattern in patterns:
            (out / pattern).parent.mkdir(exist_ok=True)
            for stale in out.glob(pattern):
                stale.unlink()
    except OSError as exc:
        raise PersistenceFailureError(f"cannot prepare {out}: {exc}") from exc


def _write(path: Path, data: str | bytes) -> None:
    """Replace path's content at once: a failed or interrupted write leaves
    the old file, and no temp file."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as exc:
        raise PersistenceFailureError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)  # already gone if the replace ran


def _write_json(path: Path, doc) -> None:
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _ruleset_text(ruleset: RuleSet, message_type: str) -> str:
    return _TYPE_HEADER + message_type + "\n" + format_ruleset(ruleset)


# ---------------------------------------------------------------------------
# The campaign loop
# ---------------------------------------------------------------------------

def run_campaign(config: CampaignConfig) -> CampaignReport:
    registry = config.registry or builtin_registry()
    oracle = config.oracle or default_oracle()
    oracle.validate_against(registry)
    if oracle.message_type != config.message_type:
        raise ValueError(
            f"oracle watches {oracle.message_type!r} but the campaign "
            f"fuzzes {config.message_type!r}"
        )
    schema = registry.by_name(config.message_type)
    mutation_rate = (
        config.mutation_rate
        if config.mutation_rate is not None
        else 1.0 / len(schema.fields)
    )
    procedure = build_procedure(config.procedure, config.message_type)
    params = RipperParams(seed=config.seed)

    out = Path(config.out_dir)
    _prepare(out, ("dataset.csv", "ruleset.txt", "report.json",
                   "rulesets/iter_*.txt", "plans/iter_*.json"))

    dataset = LabeledDataset(schema.field_names())
    deadline = None if config.budget_seconds is None else time.monotonic() + config.budget_seconds
    report = CampaignReport(out, dataset, ruleset=None, iterations=[], stop_reason="iterations")

    # one share of each iteration's rows per process (share 0 is the
    # caller's), and config.workers rows in flight dealt between them
    sessions = _Sessions(registry, procedure, oracle, schema, config.seed)
    shares = min(config.workers, pool.processes(), config.n)
    in_flight = [config.workers // shares + (s < config.workers % shares) for s in range(shares)]
    iteration = 0
    while config.iterations is None or iteration < config.iterations:
        iteration += 1
        plans, fuzz_mode, clamp = build_iteration_plans(
            config, schema, dataset, report.ruleset, iteration, mutation_rate
        )
        replies = pool.run([
            (_run_share, (sessions, in_flight[s], iteration, range(len(plans))[s::shares],
                          plans[s::shares]))
            for s in range(shares)
        ])
        failures = [failure for _, failure in replies if failure is not None]
        if failures:  # the lowest failed row is the one reported
            raise min(failures, key=itemgetter(0))[1]
        results = sorted((row for rows, _ in replies for row in rows), key=itemgetter(0))
        start_row = len(dataset)
        presence = 0
        for _, values, label in results:
            dataset.append(values, label, iteration=iteration)
            presence += int(label == PRESENCE)

        report.ruleset = ruleset = learn(dataset, params)
        precision, recall = cross_validate(dataset, k=config.cv_folds, seed=config.seed)
        counts = dataset.class_counts()
        report.iterations.append(
            IterationRecord(
                iteration=iteration,
                fuzz_mode=fuzz_mode,
                rows=len(results),
                presence=presence,
                absence=len(results) - presence,
                cumulative_presence=counts[PRESENCE],
                cumulative_absence=len(dataset) - counts[PRESENCE],
                precision=precision,
                recall=recall,
                rule_count=len(ruleset.minority_rules),
                clamp=clamp,
            )
        )
        log.info(
            "iteration %d (%s): +%d rows, %d presence, P=%.3f R=%.3f, %d rules",
            iteration, fuzz_mode, len(results), presence,
            precision, recall, len(ruleset.minority_rules),
        )

        try:
            dataset.append_csv(out / "dataset.csv", start=start_row)
        except OSError as exc:
            raise PersistenceFailureError(f"dataset.csv: {exc}") from exc
        _write(
            out / "rulesets" / f"iter_{iteration:03d}.txt",
            _ruleset_text(ruleset, config.message_type),
        )
        _write_json(
            out / "plans" / f"iter_{iteration:03d}.json",
            [_plan_entry(j, p) for j, p in enumerate(plans)],
        )

        stop, reason = should_stop(
            report.history,
            deadline,
            epsilon=config.plateau_epsilon,
            window=config.plateau_window,
            precision_target=config.precision_target,
            recall_target=config.recall_target,
        )
        if stop:
            report.stop_reason = reason or "stopped"
            break

    _write(out / "ruleset.txt", _ruleset_text(ruleset, config.message_type))
    report_doc = {
        "config": {
            "mode": config.mode,
            "message_type": config.message_type,
            "procedure": config.procedure,
            "n": config.n,
            "iterations": config.iterations,
            "mutation_rate": mutation_rate,
            "budget_seconds": config.budget_seconds,
            "seed": config.seed,
            "cv_folds": config.cv_folds,
            "precision_target": config.precision_target,
            "recall_target": config.recall_target,
            "plateau_window": config.plateau_window,
            "plateau_epsilon": config.plateau_epsilon,
            "oracle": {
                "message_type": oracle.message_type,
                "predicate": str(oracle.condition),
                "failure_mode": oracle.failure_mode,
                "noise_rate": oracle.noise_rate,
            },
        },
        "iterations": [asdict(r) for r in report.iterations],
        "stop_reason": report.stop_reason,
        "totals": {
            "rows": len(dataset),
            "presence": dataset.class_counts()[PRESENCE],
            "absence": len(dataset) - dataset.class_counts()[PRESENCE],
        },
        "final": {
            "precision": report.iterations[-1].precision,
            "recall": report.iterations[-1].recall,
            "rule_count": len(ruleset.minority_rules),
            "ruleset_file": "ruleset.txt",
        },
    }
    _write_json(out / "report.json", report_doc)
    return report


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def load_saved_ruleset(path: str | Path) -> tuple[RuleSet, str | None]:
    """Read a saved rule set plus its message-type header, if present."""
    text = Path(path).read_text(encoding="utf-8")
    message_type = None
    for line in text.splitlines():
        if line.startswith(_TYPE_HEADER):
            message_type = line[len(_TYPE_HEADER):].strip()
            break
    return parse_ruleset(text), message_type


def replay(
    ruleset_path: str | Path,
    out_dir: str | Path,
    count: int = 100,
    seed: int = 0,
    message_type: str | None = None,
    registry: SchemaRegistry | None = None,
) -> Path:
    """Regenerate a corpus of rule-satisfying messages from a saved model.

    Each corpus message picks a learned rule with probability proportional
    to its confidence, solves the rule's condition, and fills every other
    field with a fresh domain draw.  Writes msg_NNNNN.bin files plus a
    manifest, after removing those an earlier replay left there, so the
    corpus directory holds one corpus; returns it.  A rule that admits no
    message raises ValueError before the directory is made.
    """
    if count < 0:
        raise ValueError(f"count must not be negative, got {count}")
    registry = registry or builtin_registry()
    ruleset, header_type = load_saved_ruleset(ruleset_path)
    message_type = message_type or header_type
    if message_type is None:
        raise ValueError(
            "rule-set file has no message-type header; pass message_type"
        )
    if ruleset.is_degenerate:
        raise ValueError("rule set has no predictive rules to replay")
    schema = registry.by_name(message_type)
    rules = list(ruleset.minority_rules)
    missing = sorted({f for r in rules for f in r.condition.fields() if f not in schema})
    if missing:
        raise ValueError(f"rule set uses fields {missing} that {message_type!r} lacks")
    for rule in rules:
        if not all(interval.allowed for interval in intervals_for(rule.condition, schema)):
            raise ValueError(f"rule {rule.condition} admits no {message_type!r} message")

    rng = Random(f"{seed}/replay")
    weights = [r.confidence for r in rules]
    if sum(weights) <= 0:
        weights = None  # uniform fallback

    out = Path(out_dir)
    _prepare(out, ("msg_*.bin", "manifest.json"))
    entries = []
    for idx in range(count):
        rule = rng.choices(rules, weights=weights, k=1)[0]
        values = {
            f.name: rng.randint(f.domain_lo, f.domain_hi) for f in schema.fields
        }
        values.update(solve(rule.condition, schema, rng))
        name = f"msg_{idx:05d}.bin"
        _write(out / name, encode(ControlMessage(schema, values)))
        entries.append(
            {
                "file": name,
                "rule": str(rule.condition),
                "prediction": rule.prediction,
                "values": dict(sorted(values.items())),
            }
        )
    _write_json(
        out / "manifest.json",
        {
            "message_type": message_type,
            "count": count,
            "seed": seed,
            "source": str(ruleset_path),
            "messages": entries,
        },
    )
    return out


# ---------------------------------------------------------------------------
# Mode comparison
# ---------------------------------------------------------------------------

def compare(
    base_config: CampaignConfig, modes: tuple[str, ...] = ("guided", "random")
) -> dict:
    """Run one campaign per mode with identical settings and summarize.

    Every campaign shares seed, iteration count, and per-iteration budget,
    so failure counts are directly comparable.  Results land in
    mode_<name>/ subdirectories of base_config.out_dir, each a campaign
    directory, plus a combined comparison.json, which is removed first.
    """
    root = Path(base_config.out_dir)
    _prepare(root, ("comparison.json",))

    summary: dict[str, dict] = {}
    for mode in modes:
        config = replace(base_config, mode=mode, out_dir=root / f"mode_{mode}")
        report = run_campaign(config)
        counts = report.dataset.class_counts()
        summary[mode] = {
            "out_dir": f"mode_{mode}",
            "rows": len(report.dataset),
            "presence": counts[PRESENCE],
            "absence": len(report.dataset) - counts[PRESENCE],
            "presence_by_iteration": [r.presence for r in report.iterations],
            "final_precision": report.iterations[-1].precision,
            "final_recall": report.iterations[-1].recall,
            "stop_reason": report.stop_reason,
        }
    _write_json(root / "comparison.json", summary)
    return summary
