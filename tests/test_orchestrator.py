"""End-to-end campaign loop tests on small budgets.

Every campaign here drives the real TCP stack (driver, proxy, mock
controller), so iteration counts and n stay tiny to keep the suite fast.
"""
import contextlib
import csv
import errno
import gc
import hashlib
import itertools
import json
import logging
import math
import os
import pickle
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

import rulefuzz.orchestrator as orchestrator
import rulefuzz.pool as pool
import rulefuzz.reactor as reactor
import rulefuzz.sut as sut
from rulefuzz.codec import MessageSchema, builtin_registry, decode_as
from rulefuzz.orchestrator import (
    CampaignConfig,
    PersistenceFailureError,
    PlannedHook,
    build_iteration_plans,
    compare,
    load_saved_ruleset,
    replay,
    run_campaign,
)
from rulefuzz.dataset import ABSENCE, PRESENCE, LabeledDataset
from rulefuzz.fuzzer import FuzzPlan, apply_plan, make_initial_plan
from rulefuzz.planner import plan
from rulefuzz.rules import (
    Condition,
    DecisionRule,
    RuleSet,
    format_ruleset,
    parse_condition,
)
from rulefuzz.sampler import evaluate
from rulefuzz.sut import (
    FailureOracle,
    RunOutcome,
    SutUnavailableError,
    default_message,
    default_oracle,
    detect,
)

REGISTRY = builtin_registry()
PACKET_IN = REGISTRY.by_name("packet_in")

# matches three quarters of the cookie_hi range: plenty of presence labels
# even in a handful of runs, so the learner latches on immediately
EASY_ORACLE = FailureOracle("packet_in", parse_condition("cookie_hi >= 1073741824"))


def small_config(tmp_path, **overrides):
    base = dict(
        out_dir=tmp_path / "out",
        mode="guided",
        n=8,
        iterations=2,
        seed=5,
        workers=4,
        plateau_window=0,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_campaign_writes_all_artifacts(tmp_path):
    config = small_config(tmp_path)
    report = run_campaign(config)
    out = report.out_dir
    assert (out / "dataset.csv").is_file()
    assert (out / "ruleset.txt").is_file()
    assert (out / "report.json").is_file()
    for i in (1, 2):
        assert (out / "rulesets" / f"iter_{i:03d}.txt").is_file()
        assert (out / "plans" / f"iter_{i:03d}.json").is_file()

    rows = read_rows(out / "dataset.csv")
    assert rows[0] == ["iteration"] + list(PACKET_IN.field_names()) + ["label"]
    assert len(rows) - 1 == config.n * config.iterations

    doc = json.loads((out / "report.json").read_text())
    assert doc["totals"]["rows"] == len(rows) - 1
    assert doc["totals"]["presence"] + doc["totals"]["absence"] == doc["totals"]["rows"]
    by_iter = [r["presence"] for r in doc["iterations"]]
    assert sum(by_iter) == doc["totals"]["presence"]
    assert (out / "rulesets" / "iter_002.txt").read_text().startswith(
        "# message_type: packet_in\n"
    )


def directory_bytes(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_a_rerun_into_a_campaign_directory_holds_only_the_rerun(tmp_path):
    # a shorter rerun must neither append to the last run's dataset.csv
    # nor leave its later iterations' rule sets and plans behind
    again = small_config(tmp_path, out_dir=tmp_path / "again", iterations=3)
    run_campaign(again)
    (again.out_dir / "notes.txt").write_text("kept\n")
    run_campaign(replace(again, iterations=1))
    run_campaign(small_config(tmp_path, out_dir=tmp_path / "fresh", iterations=1))
    rerun = directory_bytes(again.out_dir)
    assert rerun.pop("notes.txt") == b"kept\n"  # what is not a campaign artifact stays
    assert rerun == directory_bytes(tmp_path / "fresh")


def test_campaign_rejects_oracle_type_mismatch(tmp_path):
    config = small_config(tmp_path, message_type="hello", procedure="handshake_only")
    with pytest.raises(ValueError, match="oracle watches"):
        run_campaign(config)


def test_random_mode_never_goes_guided(tmp_path):
    config = small_config(
        tmp_path, mode="random", n=30, iterations=2, oracle=EASY_ORACLE
    )
    report = run_campaign(config)
    assert [r.fuzz_mode for r in report.iterations] == ["initial", "initial"]
    # protocol-blind draws ignore declared domains; version spills past 6
    versions = {sample.values["version"] for sample in report.dataset}
    assert any(v > 6 for v in versions)


def test_guided_mode_switches_after_learning(tmp_path):
    config = small_config(tmp_path, n=60, iterations=2, seed=1, oracle=EASY_ORACLE)
    report = run_campaign(config)
    assert report.iterations[0].fuzz_mode == "initial"
    assert report.iterations[1].fuzz_mode == "guided"
    assert report.iterations[0].rule_count >= 1

    plans = json.loads(
        (report.out_dir / "plans" / "iter_002.json").read_text()
    )
    ruled = [p for p in plans if p["rule"] is not None]
    assert ruled, "guided iteration recorded no rule-driven plans"
    # replacements carry the solved rule fields for plain minority rules
    for entry in ruled:
        if entry["rule"] not in (None, "<default>"):
            cond = parse_condition(entry["rule"])
            assert set(cond.fields()).issubset(entry["replacements"].keys())


def test_an_explicit_mutation_rate_reaches_the_plans(tmp_path):
    config = small_config(tmp_path, n=60, seed=1, oracle=EASY_ORACLE, mutation_rate=0.0)
    report = run_campaign(config)
    assert report.iterations[1].fuzz_mode == "guided"
    plans = json.loads((report.out_dir / "plans" / "iter_002.json").read_text())
    guided = [entry for entry in plans if entry["mode"] == "guided"]
    assert guided
    assert not any(entry["mutations"] for entry in guided)
    doc = json.loads((report.out_dir / "report.json").read_text())
    assert doc["config"]["mutation_rate"] == 0.0


def test_degenerate_ruleset_falls_back_to_initial():
    config = CampaignConfig(out_dir=Path("/nonexistent-unused"), n=4, seed=9)
    dataset = LabeledDataset(PACKET_IN.field_names())
    empty = RuleSet(
        minority_rules=(),
        default_rule=DecisionRule.build(Condition(), "absence", 0, 0),
    )
    plans, mode, clamp = build_iteration_plans(
        config, PACKET_IN, dataset, empty, iteration=2, mutation_rate=0.1
    )
    assert mode == "initial"
    assert clamp is None
    assert len(plans) == 4


def guided_iteration(ruleset, n=60):
    """Dataset of 10 presence and 30 absence rows, and iteration 2's plans."""
    dataset = LabeledDataset(PACKET_IN.field_names())
    for i in range(40):
        dataset.append(default_message(PACKET_IN).values, PRESENCE if i < 10 else ABSENCE)
    config = CampaignConfig(out_dir=Path("/nonexistent-unused"), n=n, seed=9)
    plans, mode, clamp = build_iteration_plans(
        config, PACKET_IN, dataset, ruleset, iteration=2, mutation_rate=0.1
    )
    assert mode == "guided"
    assert len(plans) == n
    budget, want_clamp = plan(dataset, ruleset, n)
    assert clamp == want_clamp
    return dict(budget), plans


GUIDED_RULES = ("cookie_hi >= 1073741824", "table_id <= 100 AND reason >= 7")


def hand_built_ruleset(*conditions):
    """Presence rules of falling confidence (0.9, 0.85, ...) and an absence default."""
    rules = tuple(
        DecisionRule.build(parse_condition(text), PRESENCE, 40, 4 + 2 * i)
        for i, text in enumerate(conditions)
    )
    return RuleSet(rules, DecisionRule.build(Condition(), ABSENCE, 30, 3))


def test_guided_plans_spend_each_rule_quota():
    ruleset = hand_built_ruleset(*GUIDED_RULES)
    quotas, plans = guided_iteration(ruleset)
    assert len(quotas) == 3  # both minority rules and the default
    assert Counter(p.rule for p in plans) == quotas


def test_guided_plans_satisfy_their_rules():
    ruleset = hand_built_ruleset(*GUIDED_RULES)
    _, plans = guided_iteration(ruleset)
    base = default_message(PACKET_IN)
    for fuzz_plan in plans:
        after, action = apply_plan(base, fuzz_plan)
        assert action.applied_rule in ruleset.minority_rules + (ruleset.default_rule,)
        if action.applied_rule is not ruleset.default_rule:
            assert evaluate(action.applied_rule.condition, after.values)


def test_guided_default_rule_plans_avoid_minority_conditions():
    ruleset = hand_built_ruleset(*GUIDED_RULES)
    quotas, plans = guided_iteration(ruleset)
    base = default_message(PACKET_IN)
    defaults = [p for p in plans if p.rule is ruleset.default_rule]
    assert len(defaults) == quotas[ruleset.default_rule] > 0
    for fuzz_plan in defaults:
        after, _ = apply_plan(base, fuzz_plan)
        assert not any(evaluate(c, after.values) for c in ruleset.minority_conditions())


def test_unsatisfiable_rule_quota_goes_to_initial_plans(caplog):
    contradiction = hand_built_ruleset("cookie_hi >= 5 AND cookie_hi <= 2", GUIDED_RULES[0])
    # presence rules that cover the whole plane leave the default rule no
    # value to draw; the log names it as the plans file does
    covered = hand_built_ruleset("cookie_hi <= 2147483647", "cookie_hi >= 2147483648")
    for ruleset, bad, text in (
        (contradiction, contradiction.minority_rules[0], "cookie_hi >= 5 AND cookie_hi <= 2"),
        (covered, covered.default_rule, "<default>"),
    ):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="rulefuzz.orchestrator"):
            quotas, plans = guided_iteration(ruleset)
        assert quotas[bad] > 0
        assert all(p.rule != bad for p in plans)
        assert sum(p.mode == "initial" for p in plans) == quotas[bad]
        assert [r.message for r in caplog.records] == [
            f"iteration 2: rule {text} is unsatisfiable, quota released"
        ]
    # the last case: all 20 of the default rule's rows became initial plans
    assert quotas[covered.default_rule] == 20


def test_identical_seeds_reproduce_artifacts_across_worker_counts(tmp_path):
    a = run_campaign(small_config(tmp_path, out_dir=tmp_path / "a", workers=1))
    b = run_campaign(small_config(tmp_path, out_dir=tmp_path / "b", workers=6))
    for name in ("dataset.csv", "ruleset.txt", "report.json"):
        assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes()


def test_artifacts_are_identical_for_any_cpu_and_worker_count(tmp_path, cpus):
    # labels, noise flips included, follow the row index, not the process
    # or thread that ran the row's session
    artifacts = set()
    for n_cpus in (1, 2, 3):
        cpus(n_cpus)
        for workers in (1, 4):
            out = tmp_path / f"cpus{n_cpus}_workers{workers}"
            run_campaign(small_config(
                tmp_path, out_dir=out, n=20, iterations=3, workers=workers,
                oracle=replace(EASY_ORACLE, noise_rate=0.1),
            ))
            artifacts.add(tuple(
                (out / name).read_bytes() for name in ("dataset.csv", "ruleset.txt", "report.json")
            ))
    assert len(artifacts) == 1


def test_longer_run_extends_shorter_one_byte_for_byte(tmp_path):
    short = run_campaign(small_config(tmp_path, out_dir=tmp_path / "s", iterations=2))
    long = run_campaign(small_config(tmp_path, out_dir=tmp_path / "l", iterations=3))
    short_csv = (short.out_dir / "dataset.csv").read_bytes()
    long_csv = (long.out_dir / "dataset.csv").read_bytes()
    assert long_csv.startswith(short_csv)
    assert long.iterations[:2] == short.iterations


# sha256 of the artifacts of a small guided campaign: seed 8, 3 iterations
# of 40 sessions, 2 % label noise.  Any change to plans, labels, learned
# rules or report layout shows up here.
GOLDEN = {
    "dataset.csv": "37bf8c20de1a0455accb202f7c670fbfb723e405769605d9e4c4968ee6b6b8d7",
    "ruleset.txt": "6e6ea16a19baaf167cbffd32828ab46c61e44de84618b6ee70f1ec6d74dafe57",
    "report.json": "3a9a9e8a0a736be39b3d3fce24a206153bfd7ebdd0a7a7b3d2ea5fe7d24b7d47",
}


def test_golden_artifacts(tmp_path):
    config = CampaignConfig(
        out_dir=tmp_path,
        mode="guided",
        n=40,
        iterations=3,
        seed=8,
        plateau_window=0,
        oracle=replace(default_oracle(), noise_rate=0.02),
    )
    run_campaign(config)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }
    assert got == GOLDEN


@pytest.fixture
def one_cpu(cpus):
    """Every session runs in this process, the only one a monkeypatch reaches."""
    cpus(1)


def run_faulty_campaign(tmp_path, calls):
    """A noise-free campaign whose rows must all carry the oracle's label.

    `calls` counts the calls that an injected fault wraps, or the switch
    dials; one of them failed and was made again, so there are more calls
    than sessions.
    """
    config = small_config(tmp_path, n=20, iterations=2, oracle=EASY_ORACLE)
    report = run_campaign(config)
    assert next(calls) > config.n * config.iterations
    rows = read_rows(report.out_dir / "dataset.csv")
    assert len(rows) - 1 == config.n * config.iterations
    names = rows[0][1:-1]
    for row in rows[1:]:
        values = {name: int(cell) for name, cell in zip(names, row[1:-1])}
        assert row[-1] == ("presence" if EASY_ORACLE.matches(values) else "absence")


def fail_switch_connects(monkeypatch, fails):
    """Refuse the k-th switch connect to the campaign's live proxy whenever fails(k).

    Returns the counter of those connects.  Sessions run in this process
    only (one_cpu), one share at a time, so the live proxy is the last
    one built.
    """
    live = []
    real_proxy = orchestrator.InterceptProxy

    def recording_proxy(*args, **kwargs):
        proxy = real_proxy(*args, **kwargs)
        live[:] = [proxy.endpoint]
        return proxy

    real_connect_ex = socket.socket.connect_ex
    calls = itertools.count()

    def flaky_connect_ex(sock, address):
        # the switch dials the proxy; the proxy dials the controller
        if tuple(address) in live and fails(next(calls)):
            return errno.ECONNREFUSED
        return real_connect_ex(sock, address)

    monkeypatch.setattr(orchestrator, "InterceptProxy", recording_proxy)
    monkeypatch.setattr(socket.socket, "connect_ex", flaky_connect_ex)
    return calls


def test_failed_connect_never_mislabels_a_row(tmp_path, monkeypatch, one_cpu):
    # one injected connect failure mid-campaign: the run is retried, and
    # every row still carries the label of the session that ran its plan
    calls = fail_switch_connects(monkeypatch, lambda k: k == 2)
    run_faulty_campaign(tmp_path, calls)


def test_raising_hook_never_mislabels_a_row(tmp_path, monkeypatch, one_cpu):
    # the proxy relays the unfuzzed frame of the session whose hook raised;
    # that session's outcome must not become the row of its plan
    real_call = PlannedHook.__call__
    calls = itertools.count()

    def flaky_call(self, frame):
        if next(calls) == 2:
            raise RuntimeError("injected hook failure")
        return real_call(self, frame)

    monkeypatch.setattr(PlannedHook, "__call__", flaky_call)
    run_faulty_campaign(tmp_path, calls)


def test_refused_upstream_never_mislabels_a_row(tmp_path, monkeypatch, one_cpu):
    # the controller refuses the proxy's upstream connect for one session
    upstreams = []
    real_proxy = orchestrator.InterceptProxy

    def recording_proxy(config, *args, **kwargs):
        upstreams.append((config.upstream_host, config.upstream_port))
        return real_proxy(config, *args, **kwargs)

    real_connect_ex = socket.socket.connect_ex
    calls = itertools.count()

    def flaky_connect_ex(sock, address):
        # the switch connects to the proxy; only the proxy dials upstream
        if tuple(address) in upstreams and next(calls) == 2:
            return errno.ECONNREFUSED
        return real_connect_ex(sock, address)

    monkeypatch.setattr(orchestrator, "InterceptProxy", recording_proxy)
    monkeypatch.setattr(socket.socket, "connect_ex", flaky_connect_ex)
    run_faulty_campaign(tmp_path, calls)


def test_timed_out_session_never_mislabels_a_row(tmp_path, monkeypatch, one_cpu):
    # the first session whose row is presence reports a timeout after its
    # hook fired, with what a switch that timed out saw (no close, no
    # flood, no ack), which reads as absence; its plan must run again
    calls = itertools.count()
    presence_calls = itertools.count()

    class FlakySwitch(orchestrator.SwitchSession):
        def __init__(self, *args, **kwargs):
            next(calls)
            super().__init__(*args, **kwargs)

        def close(self, reset=False):
            if (
                not self.closed
                and detect(self.outcome.observations) == PRESENCE
                and next(presence_calls) == 0
            ):
                quiet = {"closed_early": False, "ping_ok": False, "flood_count": 0}
                self.outcome = RunOutcome(observations=quiet, error="timeout")
            super().close(reset)

    monkeypatch.setattr(orchestrator, "SwitchSession", FlakySwitch)
    run_faulty_campaign(tmp_path, calls)


def test_controller_reset_after_the_target_frame_never_mislabels_a_row(
    tmp_path, monkeypatch, one_cpu
):
    # the controller resets the first session whose target frame the oracle
    # does not match, right after reading it; passed on as a clean close,
    # that reset would read as the switch being dropped: a presence label
    calls = itertools.count()  # controller sessions
    resets = itertools.count()

    class ResettingSession(sut.PlayerSession):
        def __init__(self, *args):
            next(calls)
            super().__init__(*args)

        def _play(self, out):
            if (
                self.done
                and not self.outcome.observations["closed_early"]
                and next(resets) == 0
            ):
                self.conn.close(reset=True)
                self.close()
                return
            super()._play(out)

    monkeypatch.setattr(sut, "PlayerSession", ResettingSession)
    run_faulty_campaign(tmp_path, calls)


def count_dials(monkeypatch):
    """Count the switch sessions the campaign dials: one more than its rows per retry."""
    calls = itertools.count()
    real_switch = orchestrator.SwitchSession

    def dial(*args, **kwargs):
        next(calls)
        return real_switch(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "SwitchSession", dial)
    return calls


@pytest.mark.parametrize("fault", range(12))
def test_failed_send_to_the_controller_never_mislabels_a_row(
    fault, tmp_path, monkeypatch, one_cpu
):
    # the proxy's fault-th send toward the controller fails, as it would
    # once the controller is gone; ending only that leg would pass a clean
    # close on to the switch, which reads as a disconnect: a presence label
    controllers = record_constructions(monkeypatch, "MockController")
    real_send = reactor.Connection.send
    sends = itertools.count()

    def flaky_send(conn, data):
        peer = None
        with contextlib.suppress(OSError):  # a socket already reset has no peer
            peer = conn.sock.getpeername()
        if peer == controllers[-1].endpoint and next(sends) == fault:
            raise BrokenPipeError(errno.EPIPE, "injected")
        return real_send(conn, data)

    monkeypatch.setattr(reactor.Connection, "send", flaky_send)
    run_faulty_campaign(tmp_path, count_dials(monkeypatch))


@pytest.mark.parametrize("fault", range(12))
def test_raising_controller_step_never_mislabels_a_row(fault, tmp_path, monkeypatch, one_cpu):
    # the controller's fault-th step raises, as a bug in it would; a clean
    # close of that session would read as a disconnect: a presence label
    real_receive = sut.PlayerSession.receive
    steps = itertools.count()

    def flaky_receive(session, data):
        if session._script.role == sut.CONTROLLER and next(steps) == fault:
            raise RuntimeError("injected controller failure")
        return real_receive(session, data)

    monkeypatch.setattr(sut.PlayerSession, "receive", flaky_receive)
    run_faulty_campaign(tmp_path, count_dials(monkeypatch))


def record_constructions(monkeypatch, *names):
    """Wrap each orchestrator.<name> so that every object it builds is kept."""
    made = []

    def recording(build):
        def make(*args, **kwargs):
            made.append(build(*args, **kwargs))
            return made[-1]
        return make

    for name in names:
        monkeypatch.setattr(orchestrator, name, recording(getattr(orchestrator, name)))
    return made


def assert_stopped(server):
    # a campaign's servers run on their share's loop, which no thread
    # serves in the background, and which is closed
    assert server._listener.fileno() == -1
    assert server._loop.thread is None
    assert not server._sessions and server._loop.epoll.closed


def test_exhausted_retries_fail_the_campaign_after_its_last_whole_iteration(
    tmp_path, monkeypatch, one_cpu
):
    # every connect after iteration 1's sessions fails: the campaign stops
    # on the first row of iteration 2 and keeps iteration 1's artifacts
    config = small_config(tmp_path, n=40, workers=4, oracle=EASY_ORACLE)

    def failing(k):
        if k >= config.n:
            time.sleep(0.05)
            return True
        return False

    calls = fail_switch_connects(monkeypatch, failing)
    servers = record_constructions(monkeypatch, "MockController", "InterceptProxy")
    # rows start in order, so run 0 is the failure reported
    with pytest.raises(SutUnavailableError, match="iteration 2 run 0 failed 3 times"):
        run_campaign(config)
    # the failed row cancels the rows not yet started: only the rows that
    # were running then try all their attempts, not every row of the iteration
    assert next(calls) - config.n < config.n * 3 // 2
    out = config.out_dir
    rows = read_rows(out / "dataset.csv")
    assert len(rows) - 1 == config.n
    assert {row[0] for row in rows[1:]} == {"1"}
    assert (out / "rulesets" / "iter_001.txt").is_file()
    assert not (out / "rulesets" / "iter_002.txt").exists()
    assert not (out / "report.json").exists()
    # a controller and a proxy for each iteration's one share
    assert len(servers) == 4
    for server in servers:
        assert_stopped(server)


def test_killed_pool_worker_fails_the_campaign_after_its_last_whole_iteration(
    tmp_path, monkeypatch, cpus
):
    # The worker is stopped before iteration 2's rows are dealt and killed
    # once the caller's share is running, so it dies with its share unrun.
    cpus(2)
    config = small_config(tmp_path, n=40, workers=2, oracle=EASY_ORACLE)
    real_plans, real_switch = orchestrator.build_iteration_plans, orchestrator.SwitchSession
    killed = []

    def stopping_plans(*args):
        if args[4] == 2:  # the iteration
            [worker] = pool._workers
            os.kill(worker.pid, signal.SIGSTOP)
            killed.append(worker)
        return real_plans(*args)

    def killing_switch(*args, **kwargs):
        # the first session of iteration 2 in the caller, before any other
        if len(killed) == 1:
            os.kill(killed[0].pid, signal.SIGKILL)
            killed.append(None)
        return real_switch(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "build_iteration_plans", stopping_plans)
    monkeypatch.setattr(orchestrator, "SwitchSession", killing_switch)
    servers = record_constructions(monkeypatch, "MockController", "InterceptProxy")
    with pytest.raises(RuntimeError, match="exited with code -9") as failed:
        run_campaign(config)
    assert str(failed.value).startswith(f"pool worker {killed[0].pid} ")
    assert pool._workers is None
    out = config.out_dir
    rows = read_rows(out / "dataset.csv")
    assert len(rows) - 1 == config.n
    assert {row[0] for row in rows[1:]} == {"1"}
    assert (out / "rulesets" / "iter_001.txt").is_file()
    assert not (out / "rulesets" / "iter_002.txt").exists()
    assert not (out / "report.json").exists()
    # the caller's share of each iteration had a controller and a proxy
    assert len(servers) == 4
    for server in servers:
        assert_stopped(server)
    # the next campaign starts a fresh worker
    monkeypatch.setattr(orchestrator, "build_iteration_plans", real_plans)
    monkeypatch.setattr(orchestrator, "SwitchSession", real_switch)
    again = run_campaign(replace(config, out_dir=tmp_path / "again"))
    assert len(again.dataset) == config.n * config.iterations
    [fresh] = pool._workers
    assert fresh.pid != killed[0].pid


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_the_lowest_failed_row_is_the_one_reported(tmp_path, monkeypatch, cpus, n_cpus):
    # Rows 5 and 6 of iteration 2 carry a plan that apply_plan rejects, so
    # their hooks raise on every attempt and both rows exhaust their
    # retries.  On 2 and 3 CPUs row 5 runs in a worker, row 6 in the caller.
    cpus(n_cpus)
    real_plans = orchestrator.build_iteration_plans

    def poisoned_plans(*args):
        plans, fuzz_mode, clamp = real_plans(*args)
        if args[4] == 2:  # the iteration
            for j in (5, 6):
                plans[j] = FuzzPlan("initial", None, {"cookie_hi": 1}, {"cookie_hi": 2})
        return plans, fuzz_mode, clamp

    monkeypatch.setattr(orchestrator, "build_iteration_plans", poisoned_plans)
    config = small_config(tmp_path, n=20, workers=4, oracle=EASY_ORACLE)
    with pytest.raises(SutUnavailableError, match="iteration 2 run 5 failed 3 times"):
        run_campaign(config)
    assert {row[0] for row in read_rows(config.out_dir / "dataset.csv")[1:]} == {"1"}


def test_ctrl_c_during_an_iteration_returns_promptly_and_kills_the_workers(tmp_path):
    # the child prints its worker's pid when the first iteration deals it
    # a share, and runs iterations until it is interrupted
    script = (
        "import rulefuzz.pool as pool\n"
        "from rulefuzz.orchestrator import CampaignConfig, run_campaign\n"
        "pool.processes = lambda: 2\n"
        "start = pool._start_workers\n"
        "def started(n):\n"
        "    workers = start(n)\n"
        "    print(*(w.pid for w in workers), flush=True)\n"
        "    return workers\n"
        "pool._start_workers = started\n"
        "config = CampaignConfig(out_dir=%r, n=200, iterations=None, workers=2,\n"
        "                        plateau_window=0)\n"
        "try:\n"
        "    run_campaign(config)\n"
        "except KeyboardInterrupt:\n"
        "    print('interrupted', flush=True)\n"
    ) % str(tmp_path / "out")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    child = subprocess.Popen(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        [worker_pid] = [int(p) for p in child.stdout.readline().split()]
        time.sleep(0.5)  # into a later iteration's sessions or CV
        start = time.monotonic()
        os.killpg(child.pid, signal.SIGINT)  # what Ctrl-C sends the terminal's group
        assert child.wait(timeout=10) == 0
        assert time.monotonic() - start < 5
        assert child.stdout.read() == "interrupted\n"
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    with pytest.raises(ProcessLookupError):
        os.kill(worker_pid, 0)


def test_failed_proxy_construction_stops_the_controller(tmp_path, monkeypatch):
    controllers = record_constructions(monkeypatch, "MockController")

    def broken_proxy(*args, **kwargs):
        raise OSError("injected bind failure")

    monkeypatch.setattr(orchestrator, "InterceptProxy", broken_proxy)
    with pytest.raises(OSError, match="injected bind failure"):
        run_campaign(small_config(tmp_path))
    assert len(controllers) == 1
    assert_stopped(controllers[0])


def test_a_campaign_starts_no_thread(tmp_path, monkeypatch):
    # every role of every session runs on its share's loop, in the thread
    # that runs the share: the caller's for share 0
    before = threading.active_count()
    seen = []
    real_call = PlannedHook.__call__

    def counting_call(self, frame):
        seen.append(threading.active_count())
        return real_call(self, frame)

    monkeypatch.setattr(PlannedHook, "__call__", counting_call)
    report = run_campaign(small_config(tmp_path, iterations=3))
    assert len(report.iterations) == 3
    assert seen and set(seen) == {before}


def test_many_sessions_in_flight_on_one_loop(tmp_path, one_cpu):
    # more rows in flight than the listeners' backlog of 128: every hook
    # must still reach the session of its own row
    config = small_config(tmp_path, n=300, iterations=1, workers=256, oracle=EASY_ORACLE)
    start = time.perf_counter()
    report = run_campaign(config)
    # a connect whose handshake meets a full accept queue is only retried
    # after a second; this campaign takes about 0.15 s
    assert time.perf_counter() - start < 1
    rows = read_rows(report.out_dir / "dataset.csv")
    assert len(rows) - 1 == config.n
    names = rows[0][1:-1]
    for row in rows[1:]:
        values = {name: int(cell) for name, cell in zip(names, row[1:-1])}
        assert row[-1] == ("presence" if EASY_ORACLE.matches(values) else "absence")
    one = run_campaign(replace(config, out_dir=tmp_path / "one", workers=1))
    for name in ("dataset.csv", "ruleset.txt", "report.json"):
        assert (report.out_dir / name).read_bytes() == (one.out_dir / name).read_bytes()


def share_sessions():
    procedure = sut.build_procedure("ping_exchange", "packet_in")
    return orchestrator._Sessions(REGISTRY, procedure, default_oracle(), PACKET_IN, 5)


def run_share(sessions, rows):
    """Run `rows` random rows through one share, one row in flight."""
    plans = [make_initial_plan(PACKET_IN, Random(f"share/{j}"), True) for j in range(rows)]
    got, failure = orchestrator._run_share(sessions, 1, 1, range(rows), plans)
    assert failure is None and len(got) == rows


def test_a_share_on_unpickled_sessions_compares_no_schema_per_session(monkeypatch):
    # a pool worker unpickles a fresh copy of the sessions every iteration:
    # its schemas equal those whose default frames are cached, but are not
    # them, so each lookup of a frame compares two schemas field by field
    sessions = share_sessions()
    run_share(sessions, 1)
    compared = []
    real_eq = MessageSchema.__eq__

    def eq(schema, other):
        compared.append(schema.type_name)
        return real_eq(schema, other)

    monkeypatch.setattr(MessageSchema, "__eq__", eq)
    counts = []
    for rows in (1, 20):
        compared.clear()
        run_share(pickle.loads(pickle.dumps(sessions)), rows)
        counts.append(len(compared))
    assert counts[0] == counts[1]  # the frames are looked up once per share


def test_a_share_leaves_no_reference_cycle():
    # a closed session, its sockets and its buffers are freed at once; a
    # cycle through a session would hold them until the cyclic collector
    # runs, and make it run more often
    sessions = share_sessions()
    run_share(sessions, 1)
    gc.collect()
    gc.disable()
    try:
        run_share(sessions, 20)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_socket_work_of_a_session_is_counted(monkeypatch):
    # these counts do not depend on timing: a session at one row in flight
    # makes each call the same number of times, as listed
    counts = Counter()
    real_epoll = select.epoll

    class CountingEpoll:
        def __init__(self):
            self._epoll = real_epoll()

        def __getattr__(self, name):
            call = getattr(self._epoll, name)
            if name not in ("register", "modify", "unregister"):
                return call

            def counted(*args):
                counts[name] += 1
                return call(*args)
            return counted

    def counting(name, real):
        def counted(sock, *args, **kwargs):
            try:
                return real(sock, *args, **kwargs)
            except BlockingIOError:
                counts["failed " + name] += 1
                raise
            finally:
                counts[name] += 1
        return counted

    monkeypatch.setattr(select, "epoll", CountingEpoll)
    for name in ("__init__", "setblocking", "shutdown", "_accept"):
        monkeypatch.setattr(socket.socket, name, counting(name, getattr(socket.socket, name)))
    rows = 50
    run_share(share_sessions(), rows)
    per_session = {
        "register": 4, "modify": 2, "unregister": 1,  # the proxy's upstream, once its EOF is read
        "__init__": 4, "setblocking": 2,  # the accepted sockets; a dialled one is made non-blocking
        "shutdown": 3,  # none before a close whose peer's EOF was read
        "_accept": 2,  # one per ready report: none fails
    }
    per_share = {"register": 2, "__init__": 2, "setblocking": 2}  # the two listeners
    assert counts == {
        name: rows * count + per_share.get(name, 0) for name, count in per_session.items()
    }


def test_a_campaign_logs_the_same_records_on_any_cpu_count(tmp_path, cpus, caplog):
    # a pool worker configures no logging, so a line logged per session
    # would show for the sessions of the caller's share alone
    logged = []
    for n_cpus in (1, 2):
        cpus(n_cpus)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="rulefuzz"):
            run_campaign(small_config(tmp_path, out_dir=tmp_path / str(n_cpus), n=20, workers=2))
        logged.append([(r.name, r.levelname, r.getMessage()) for r in caplog.records])
    assert logged[0] == logged[1]
    assert [name for name, _, _ in logged[0]] == ["rulefuzz.orchestrator"] * 2


def test_failed_write_keeps_previous_artifact(tmp_path):
    # a write that stops partway, here at the process's file size limit,
    # leaves the artifact it was replacing whole and no temp file behind
    resource = pytest.importorskip("resource")
    path = tmp_path / "report.json"
    orchestrator._write_text(path, "previous\n")
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # EFBIG, not a kill
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, hard))
    try:
        with pytest.raises(PersistenceFailureError):
            orchestrator._write_text(path, "x" * (4 << 20))
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("field", ["iterations", "workers"])
def test_config_rejects_nonpositive_counts(tmp_path, field):
    with pytest.raises(ValueError, match=field):
        small_config(tmp_path, **{field: 0})
    small_config(tmp_path, iterations=None)  # no iteration cap stays valid


@pytest.mark.parametrize("folds", [0, 1])
def test_config_rejects_fewer_than_two_cv_folds(tmp_path, folds):
    with pytest.raises(ValueError, match="cv_folds"):
        small_config(tmp_path, cv_folds=folds)
    small_config(tmp_path, cv_folds=2)


def test_config_rejects_a_negative_budget(tmp_path):
    # a NaN budget would never expire
    for budget in (-1.0, math.nan):
        with pytest.raises(ValueError, match="budget_seconds"):
            small_config(tmp_path, budget_seconds=budget)
    small_config(tmp_path, budget_seconds=0.0)


def test_config_rejects_a_negative_seed(tmp_path):
    # the learner seeds numpy with it, which takes no negative seed
    with pytest.raises(ValueError, match="seed"):
        small_config(tmp_path, seed=-1)
    small_config(tmp_path, seed=0)


@pytest.mark.parametrize("rate", [1.5, -0.1])
def test_config_rejects_mutation_rate_outside_unit_interval(tmp_path, rate):
    with pytest.raises(ValueError, match="mutation_rate"):
        small_config(tmp_path, mutation_rate=rate)
    small_config(tmp_path, mutation_rate=1.0)


@pytest.mark.parametrize("target", ["precision_target", "recall_target"])
def test_config_rejects_a_lone_metric_target(tmp_path, target):
    with pytest.raises(ValueError, match="set together"):
        small_config(tmp_path, **{target: 0.9})


@pytest.mark.parametrize("name, setting", [
    ("plateau_window", {"plateau_window": -1}),
    ("precision_target", {"precision_target": 1.5, "recall_target": 0.9}),
    ("recall_target", {"precision_target": 0.9, "recall_target": -0.1}),
    ("plateau_epsilon", {"plateau_epsilon": -0.5}),
    ("plateau_epsilon", {"plateau_epsilon": math.nan}),
])
def test_config_rejects_unusable_campaign_settings(tmp_path, name, setting):
    # a target outside [0, 1] is never met, and a negative window or a
    # negative or NaN epsilon would turn the plateau check off
    with pytest.raises(ValueError, match=name):
        small_config(tmp_path, **setting)
    small_config(tmp_path, precision_target=1.0, recall_target=0.0)  # the bounds stay valid
    small_config(tmp_path, plateau_epsilon=0.0)


def test_target_stop_reason(tmp_path):
    config = small_config(
        tmp_path,
        n=60,
        iterations=6,
        seed=1,
        oracle=EASY_ORACLE,
        precision_target=0.9,
        recall_target=0.9,
    )
    report = run_campaign(config)
    assert report.stop_reason == "target"
    assert len(report.iterations) < 6


def test_a_spent_budget_stops_the_campaign_after_one_iteration(tmp_path):
    # no iteration cap and no plateau check: only the budget can stop it
    config = small_config(tmp_path, iterations=None, budget_seconds=0.0, plateau_window=0)
    report = run_campaign(config)
    out = report.out_dir
    assert report.stop_reason == "budget"
    assert [r.iteration for r in report.iterations] == [1]
    doc = json.loads((out / "report.json").read_text())
    assert doc["stop_reason"] == "budget"
    assert [r["iteration"] for r in doc["iterations"]] == [1]
    rows = read_rows(out / "dataset.csv")[1:]
    assert len(rows) == config.n
    assert {row[0] for row in rows} == {"1"}
    assert [p.name for p in (out / "rulesets").iterdir()] == ["iter_001.txt"]
    assert [p.name for p in (out / "plans").iterdir()] == ["iter_001.json"]


def test_persistence_failure_surfaces(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    with pytest.raises(PersistenceFailureError):
        run_campaign(small_config(tmp_path, out_dir=blocker))


def test_replay_corpus_satisfies_saved_rules(tmp_path):
    rule = DecisionRule.build(
        parse_condition("cookie_hi >= 4211081216 AND table_id <= 100"),
        "presence",
        10,
        0,
    )
    ruleset = RuleSet(
        minority_rules=(rule,),
        default_rule=DecisionRule.build(Condition(), "absence", 90, 2),
    )
    saved = tmp_path / "ruleset.txt"
    saved.write_text("# message_type: packet_in\n" + format_ruleset(ruleset))

    loaded, header_type = load_saved_ruleset(saved)
    assert header_type == "packet_in"
    assert loaded.minority_rules[0].condition == rule.condition

    corpus = replay(saved, tmp_path / "corpus", count=40, seed=3)
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["count"] == 40
    assert manifest["message_type"] == "packet_in"
    assert len(manifest["messages"]) == 40
    for entry in manifest["messages"]:
        frame = (corpus / entry["file"]).read_bytes()
        assert len(frame) == PACKET_IN.total_bytes
        values = decode_as(frame, PACKET_IN).values
        assert evaluate(rule.condition, values)
        assert values == entry["values"]


def test_replay_requires_message_type(tmp_path):
    rule = DecisionRule.build(parse_condition("cookie_hi >= 10"), "presence", 3, 0)
    ruleset = RuleSet(
        minority_rules=(rule,),
        default_rule=DecisionRule.build(Condition(), "absence", 5, 0),
    )
    bare = tmp_path / "bare.txt"
    bare.write_text(format_ruleset(ruleset))
    with pytest.raises(ValueError, match="message-type"):
        replay(bare, tmp_path / "c")
    # explicit override fills the gap
    corpus = replay(bare, tmp_path / "c2", count=3, message_type="packet_in")
    assert len(list(corpus.glob("msg_*.bin"))) == 3


def test_replay_rejects_degenerate_ruleset(tmp_path):
    empty = RuleSet(
        minority_rules=(),
        default_rule=DecisionRule.build(Condition(), "absence", 5, 0),
    )
    path = tmp_path / "empty.txt"
    path.write_text("# message_type: packet_in\n" + format_ruleset(empty))
    with pytest.raises(ValueError, match="no predictive rules"):
        replay(path, tmp_path / "c")


def test_compare_summarizes_modes(tmp_path):
    base = small_config(tmp_path, out_dir=tmp_path / "cmp", n=6, iterations=2)
    summary = compare(base, modes=("guided", "random"))
    assert set(summary) == {"guided", "random"}
    for mode, entry in summary.items():
        assert entry["rows"] == 12
        assert entry["presence"] + entry["absence"] == 12
        assert len(entry["presence_by_iteration"]) == 2
        assert (tmp_path / "cmp" / f"mode_{mode}" / "report.json").is_file()
    on_disk = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
    assert on_disk == summary


def test_default_oracle_campaign_mostly_absence(tmp_path):
    # the stock failure is rare; a tiny unguided campaign should see none
    report = run_campaign(small_config(tmp_path, iterations=1, n=12))
    counts = report.dataset.class_counts()
    assert counts["absence"] >= 10
    assert default_oracle().noise_rate == 0.0
