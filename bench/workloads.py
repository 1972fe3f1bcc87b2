"""The three benchmark workloads, their output checks and their reports.

Each workload loads one layer group and leaves the other idle:

  live_guided     run_campaign in guided mode: every layer, live sessions
  live_sessions   proxy + sut + codec only: random plans driven through
                  reserve -> connect_sut -> run_procedure_on -> observe_label
  offline_guided  the guided loop with no sockets: planner, sampler,
                  fuzzer, learner, dataset only

A workload runs in units (one campaign, or one batch of sessions).  Each
unit returns a Unit: its wall time, the sha256 of its artifacts, the
checks it failed, and the facts the report needs.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random

import rulefuzz.codec as codec
import rulefuzz.dataset as dataset_mod
import rulefuzz.fuzzer as fuzzer
import rulefuzz.learner as learner
import rulefuzz.orchestrator as orchestrator
import rulefuzz.planner as planner
import rulefuzz.proxy as proxy_mod
import rulefuzz.rules as rules
import rulefuzz.sut as sut

WORKLOADS = ("live_guided", "live_sessions", "offline_guided")

MESSAGE_TYPE = "packet_in"
PROCEDURE = "ping_exchange"
LOOP_NOISE = 0.02
CV_FOLDS = 10

# The acceptance campaign's yield and model quality at seed 8, 20x200.
ACCEPTANCE = {"seed": 8, "n": 200, "iterations": 20,
              "presence_rows": 2001, "precision": 0.9775, "recall": 0.9775}

# Both loops replay the acceptance campaign's seed, whatever the run's
# seed; only live_sessions draws its inputs from it.  A loop's work
# depends on its seed: the learner's on the rules each seed's data
# induces (learner._best_atom calls ranged 5276-9083 over seeds 1-5 of
# offline_guided), the sessions' on when the rare failure is first found
# (live_guided at 4x200 yielded 27-400 presence rows over seeds 1-5).
# Across seeds either loop's time spread by a quarter or more.
LOOP_SEED = ACCEPTANCE["seed"]


@dataclass(frozen=True)
class Shape:
    n: int = 200            # rows per loop iteration
    iterations: int = 20    # loop iterations
    sessions: int = 500     # sessions per live_sessions batch


SHAPES = {
    "live_guided": Shape(n=200, iterations=4),
    "live_sessions": Shape(sessions=500),
    "offline_guided": Shape(n=200, iterations=20),
}
SMOKE_SHAPES = {
    "live_guided": Shape(n=20, iterations=2),
    "live_sessions": Shape(sessions=12),
    "offline_guided": Shape(n=20, iterations=3),
}


@dataclass
class Unit:
    wall_s: float
    rows: int
    hashes: dict[str, str]
    failures: list[str] = field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    facts: dict = field(default_factory=dict)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def ruleset_text(ruleset) -> str:
    """Same bytes as the campaign's ruleset.txt."""
    return f"# message_type: {MESSAGE_TYPE}\n" + rules.format_ruleset(ruleset)


def csv_lines(ds) -> list[str]:
    """The dataset as CSV lines, in the format of the campaign's dataset.csv."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(ds.header())
    for sample in ds:
        writer.writerow(
            [sample.iteration, *(sample.values[f] for f in ds.field_names), sample.label]
        )
    return buf.getvalue().splitlines(keepends=True)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def row_mismatches(live: list[str], reference: list[str]) -> list[int]:
    """Indices of CSV lines (0 = header) where live differs from reference.

    A length difference counts every missing or extra line.
    """
    bad = [i for i, (a, b) in enumerate(zip(live, reference)) if a != b]
    bad.extend(range(min(len(live), len(reference)), max(len(live), len(reference))))
    return bad


def expected_label(oracle, base, fuzz_plan) -> str:
    """Ground truth of one session, with no label noise."""
    after, _ = fuzzer.apply_plan(base, fuzz_plan)
    return dataset_mod.PRESENCE if oracle.matches(after.values) else dataset_mod.ABSENCE


def session_failures(outcomes: list[dict], expected: list[str]) -> dict[int, str]:
    """Sessions whose hook did not fire or whose label is not the oracle's."""
    out = {}
    for j, (o, want) in enumerate(zip(outcomes, expected)):
        if o["error"] is not None:
            out[j] = o["error"]
        elif not o["hook_fired"]:
            out[j] = "target frame never intercepted"
        elif o["label"] != want:
            out[j] = f"label {o['label']} != oracle {want}"
    for j in range(len(outcomes), len(expected)):
        out[j] = "no outcome"
    return out


# ---------------------------------------------------------------------------
# The in-process loop
# ---------------------------------------------------------------------------

def loop_config(seed: int, shape: Shape, out_dir: Path, workers: int):
    oracle = replace(sut.default_oracle(), noise_rate=LOOP_NOISE)
    return orchestrator.CampaignConfig(
        out_dir=out_dir,
        mode="guided",
        message_type=MESSAGE_TYPE,
        procedure=PROCEDURE,
        n=shape.n,
        iterations=shape.iterations,
        seed=seed,
        workers=workers,
        cv_folds=CV_FOLDS,
        plateau_window=0,
        oracle=oracle,
    )


def in_process_loop(config, cv: bool = True) -> dict:
    """The guided loop of run_campaign with sessions replaced by the oracle.

    Each row's label is oracle.matches on the planned message, flipped by
    the campaign's own per-row noise stream, so the rows equal those of a
    live campaign of the same config.  cv=False skips progress(), which
    changes no row or rule.
    """
    registry = codec.builtin_registry()
    oracle = config.oracle
    schema = registry.by_name(MESSAGE_TYPE)
    base = sut.default_message(schema)
    mutation_rate = 1.0 / len(schema.fields)
    params = learner.RipperParams(seed=config.seed)
    ds = dataset_mod.LabeledDataset(schema.field_names())
    ruleset = None
    iterations = []
    for it in range(1, config.iterations + 1):
        plans, fuzz_mode, _ = orchestrator.build_iteration_plans(
            config, schema, ds, ruleset, it, mutation_rate
        )
        presence = 0
        for j, fuzz_plan in enumerate(plans):
            after, _ = fuzzer.apply_plan(base, fuzz_plan)
            truth = dataset_mod.PRESENCE if oracle.matches(after.values) else dataset_mod.ABSENCE
            label = sut.apply_noise(truth, oracle.noise_rate, Random(f"{config.seed}/noise/{it}/{j}"))
            ds.append(after.values, label, iteration=it)
            presence += label == dataset_mod.PRESENCE
        ruleset = learner.learn(ds, params)
        p = r = None
        if cv:
            p, r = planner.progress(ds, k=config.cv_folds, params=params, seed=config.seed)
        iterations.append({"iteration": it, "fuzz_mode": fuzz_mode, "rows": len(plans),
                           "presence": presence, "precision": p, "recall": r,
                           "rule_count": len(ruleset.minority_rules)})
    return {"dataset": ds, "ruleset": ruleset, "iterations": iterations}


# ---------------------------------------------------------------------------
# Workload units
# ---------------------------------------------------------------------------

class LiveGuided:
    """run_campaign in guided mode at LOOP_SEED, checked row for row
    against the in-process loop of the same config."""

    def __init__(self, seed: int, shape: Shape, work: Path, workers: int):
        self.shape, self.work, self.workers = shape, work, workers
        self.count = 0
        ref = in_process_loop(loop_config(LOOP_SEED, shape, work, workers), cv=False)
        self.ref_lines = csv_lines(ref["dataset"])
        self.ref_ruleset = ruleset_text(ref["ruleset"])

    def run(self) -> Unit:
        self.count += 1
        out = self.work / f"live_guided_{self.count}"
        config = loop_config(LOOP_SEED, self.shape, out, self.workers)
        failures = []
        start = time.perf_counter()
        try:
            report = orchestrator.run_campaign(config)
        except Exception as exc:  # a failed campaign is counted, not fatal
            traceback.print_exc()
            wall = time.perf_counter() - start
            shutil.rmtree(out, ignore_errors=True)
            return Unit(wall, 0, {}, [f"campaign raised {exc!r}"], failed=1)
        wall = time.perf_counter() - start
        files = {n: (out / n).read_bytes() for n in ("dataset.csv", "ruleset.txt", "report.json")}
        shutil.rmtree(out, ignore_errors=True)
        live_lines = files["dataset.csv"].decode("utf-8").splitlines(keepends=True)
        bad = row_mismatches(live_lines, self.ref_lines)
        if bad:
            failures.append(f"dataset.csv differs from the in-process loop at lines {bad[:5]}"
                            f" ({len(bad)} in all)")
        if files["ruleset.txt"].decode("utf-8") != self.ref_ruleset:
            failures.append("ruleset.txt differs from the in-process loop")
        precision, recall = report.history[-1]
        counts = report.dataset.class_counts()
        return Unit(
            wall, len(report.dataset), {n: sha256(b) for n, b in files.items()},
            failures, failed=int(bool(failures)),
            facts={"presence_rows": counts[dataset_mod.PRESENCE],
                   "cv_precision": precision, "cv_recall": recall},
        )


class OfflineGuided:
    """The in-process guided loop at LOOP_SEED and the acceptance shape, with CV."""

    def __init__(self, seed: int, shape: Shape, work: Path, workers: int):
        self.config = loop_config(LOOP_SEED, shape, work, workers)

    def run(self) -> Unit:
        failures = []
        start = time.perf_counter()
        try:
            loop = in_process_loop(self.config, cv=True)
        except Exception as exc:  # a failed campaign is counted, not fatal
            traceback.print_exc()
            return Unit(time.perf_counter() - start, 0, {}, [f"loop raised {exc!r}"], failed=1)
        wall = time.perf_counter() - start
        ds = loop["dataset"]
        last = loop["iterations"][-1]
        report = {"iterations": loop["iterations"],
                  "presence": ds.class_counts()[dataset_mod.PRESENCE], "rows": len(ds)}
        artifacts = {
            "dataset.csv": "".join(csv_lines(ds)),
            "ruleset.txt": ruleset_text(loop["ruleset"]),
            "report.json": json.dumps(report, sort_keys=True),
        }
        cfg = self.config
        if len(ds) != cfg.n * cfg.iterations:
            failures.append(f"{len(ds)} rows, expected {cfg.n * cfg.iterations}")
        facts = {"presence_rows": report["presence"],
                 "cv_precision": last["precision"], "cv_recall": last["recall"]}
        if (cfg.seed, cfg.n, cfg.iterations) == (
            ACCEPTANCE["seed"], ACCEPTANCE["n"], ACCEPTANCE["iterations"]
        ):
            got = (facts["presence_rows"], round(facts["cv_precision"], 4),
                   round(facts["cv_recall"], 4))
            want = (ACCEPTANCE["presence_rows"], ACCEPTANCE["precision"], ACCEPTANCE["recall"])
            if got != want:
                failures.append(f"acceptance numbers {got} != {want}")
        return Unit(wall, len(ds), {n: sha256(t) for n, t in artifacts.items()},
                    failures, failed=int(bool(failures)), facts=facts)


def start_servers(registry, oracle):
    """MockController plus InterceptProxy in front of it, both listening."""
    procedure = sut.build_procedure(PROCEDURE, MESSAGE_TYPE)
    controller = sut.MockController(registry, procedure, oracle)
    controller.start()
    try:
        proxy = proxy_mod.InterceptProxy(
            proxy_mod.InterceptConfig("127.0.0.1", 0, *controller.endpoint,
                                      target_type=MESSAGE_TYPE),
            registry,
        )
        proxy.start()
    except BaseException:
        controller.stop()
        raise
    return procedure, controller, proxy


class LiveSessions:
    """Pre-drawn protocol-blind plans driven by `clients` closed-loop clients."""

    def __init__(self, seed: int, shape: Shape, work: Path, workers: int):
        self.seed, self.clients = seed, workers
        self.registry = codec.builtin_registry()
        self.oracle = sut.default_oracle()  # noise 0
        self.schema = self.registry.by_name(MESSAGE_TYPE)
        base = sut.default_message(self.schema)
        self.plans = [
            fuzzer.make_initial_plan(self.schema, Random(f"{seed}/sessions/{j}"), valid_only=False)
            for j in range(shape.sessions)
        ]
        self.expected = [expected_label(self.oracle, base, p) for p in self.plans]

    def _session(self, proxy, procedure, j: int) -> dict:
        hook = orchestrator.PlannedHook(self.plans[j], self.schema)
        start = time.perf_counter()
        try:
            with proxy.reserve(hook) as endpoint:
                sock = sut.connect_sut(endpoint, timeout=10.0)
            outcome = sut.run_procedure_on(sock, procedure, self.registry, oracle=self.oracle)
            label = sut.observe_label(outcome, self.oracle.noise_rate,
                                      Random(f"{self.seed}/noise/sessions/{j}"))
        except Exception as exc:  # counted as a failed session
            traceback.print_exc()
            return {"label": None, "hook_fired": False, "error": repr(exc),
                    "latency_s": time.perf_counter() - start}
        latency = time.perf_counter() - start
        return {"label": label, "hook_fired": hook.action is not None,
                "error": outcome.error, "latency_s": latency}

    def run(self) -> Unit:
        procedure, controller, proxy = start_servers(self.registry, self.oracle)
        try:
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=self.clients) as pool:
                outcomes = list(pool.map(
                    lambda j: self._session(proxy, procedure, j), range(len(self.plans))
                ))
            wall = time.perf_counter() - start
        finally:
            t_stop = time.perf_counter()
            proxy.stop()
            controller.stop()
            teardown = time.perf_counter() - t_stop
        bad = session_failures(outcomes, self.expected)
        failures = [f"session {j}: {why}" for j, why in sorted(bad.items())]
        labels = "".join("P" if o["label"] == dataset_mod.PRESENCE else "A" for o in outcomes)
        return Unit(
            wall, len(outcomes), {"labels": sha256(labels)}, failures,
            attempted=len(self.plans), failed=len(bad),
            facts={
                "latencies_s": [o["latency_s"] for o in outcomes],
                "teardown_s": teardown,
                "presence_rows": labels.count("P"),
            },
        )


UNITS = {"live_guided": LiveGuided, "live_sessions": LiveSessions,
         "offline_guided": OfflineGuided}


def setup(workload: str):
    """What a user pays before the first call into the workload.

    Returns the servers started, so the caller can stop them.
    """
    registry = codec.builtin_registry()
    oracle = sut.default_oracle()
    oracle.validate_against(registry)
    if workload == "live_sessions":
        return start_servers(registry, oracle)[1:]
    return ()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
