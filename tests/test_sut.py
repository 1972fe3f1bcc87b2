"""Simulated system under test: oracles, procedures, detection, fidelity."""

import collections
import contextlib
import errno
import gc
import logging
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import rulefuzz.reactor
from rulefuzz.codec import SchemaRegistry, builtin_registry, encode
from rulefuzz.dataset import ABSENCE, PRESENCE
from rulefuzz.rules import parse_condition
from rulefuzz.sut import (
    CONTROLLER,
    MARK_ACK,
    MARK_TARGET,
    STORM_FRAMES,
    SWITCH,
    FailureOracle,
    MockController,
    OracleConfigError,
    Script,
    SutUnavailableError,
    SwitchSession,
    apply_noise,
    build_procedure,
    connect_sut,
    default_frame,
    default_message,
    default_oracle,
    detect,
    load_oracle_document,
    observe_label,
    run_procedure_on,
)
from rulefuzz.proxy import InterceptConfig, InterceptProxy, StreamSegmenter
from rulefuzz.reactor import Loop

from .conftest import make_schema

REGISTRY = builtin_registry()


# ---------------------------------------------------------------------------
# Pure pieces: detection, noise, oracle plumbing
# ---------------------------------------------------------------------------

def test_detect_truth_table():
    assert detect({"flood_count": 3}) == PRESENCE
    assert detect({"flood_count": 1, "closed_early": False, "ping_ok": True}) == PRESENCE
    assert detect({"closed_early": True, "ping_ok": False}) == PRESENCE
    assert detect({"closed_early": True, "ping_ok": True}) == ABSENCE
    assert detect({"closed_early": False, "ping_ok": True}) == ABSENCE
    assert detect({}) == ABSENCE


def test_apply_noise_rate_zero_never_flips():
    rng = random.Random(0)
    assert all(apply_noise(PRESENCE, 0.0, rng) == PRESENCE for _ in range(500))


def test_apply_noise_frequency():
    rng = random.Random(1)
    flips = sum(apply_noise(PRESENCE, 0.05, rng) == ABSENCE for _ in range(2000))
    assert abs(flips / 2000 - 0.05) < 0.02


def test_oracle_validation_errors():
    cond = parse_condition("version >= 5")
    with pytest.raises(OracleConfigError):
        FailureOracle("packet_in", cond, failure_mode="meltdown")
    with pytest.raises(OracleConfigError):
        FailureOracle("packet_in", cond, noise_rate=1.0)
    with pytest.raises(OracleConfigError):
        FailureOracle("packet_in", cond, noise_rate=-0.1)
    bogus = FailureOracle("packet_in", parse_condition("nonexistent >= 1"))
    with pytest.raises(OracleConfigError):
        bogus.validate_against(REGISTRY)
    with pytest.raises(OracleConfigError):
        load_oracle_document({"predicate": "version >= 5"})


def test_default_oracle_shape():
    oracle = default_oracle()
    assert oracle.message_type == "packet_in"
    assert oracle.failure_mode == "switch_disconnect"
    assert oracle.noise_rate == 0.0
    oracle.validate_against(REGISTRY)
    assert oracle.matches({"cookie_hi": 4211081216})
    assert oracle.matches({"cookie_hi": 2**32 - 1})
    assert not oracle.matches({"cookie_hi": 4211081215})
    assert not oracle.matches({"cookie_hi": 0})


def test_default_oracle_is_rare_under_domain_draws():
    # the planted failure must be hard to hit by unguided valid fuzzing
    from fractions import Fraction

    oracle = default_oracle()
    schema = REGISTRY.by_name(oracle.message_type)
    rate = Fraction(1)
    for atom in oracle.condition.atoms:
        spec = schema.field(atom.field)
        width = spec.domain_hi - spec.domain_lo + 1
        hits = max(0, spec.domain_hi - max(atom.value, spec.domain_lo) + 1)
        rate *= Fraction(1, 2) * Fraction(hits, width)
    assert rate <= Fraction(1, 100)


def test_default_messages_are_well_formed_and_negative():
    oracle = default_oracle()
    for schema in REGISTRY.schemas:
        msg = default_message(schema)
        data = encode(msg)
        assert len(data) == schema.total_bytes
        assert msg.values["type"] == schema.header_type_code
        assert msg.values["length"] == schema.total_bytes
        if schema.type_name == oracle.message_type:
            assert not oracle.matches(msg.values)


PROBE = [(SWITCH, "barrier_request", None), (CONTROLLER, "barrier_reply", MARK_ACK)]

# (procedure, target type) -> every step's (sender, message, mark)
PROCEDURE_SHAPES = {
    ("ping_exchange", "hello"): [
        (SWITCH, "hello", MARK_TARGET), (CONTROLLER, "hello", None), *PROBE,
    ],
    ("ping_exchange", "packet_in"): [
        (SWITCH, "hello", None), (CONTROLLER, "hello", None),
        (SWITCH, "packet_in", MARK_TARGET), *PROBE,
    ],
    ("switch_connect", "hello"): [
        (SWITCH, "hello", None), (CONTROLLER, "hello", MARK_TARGET), *PROBE,
    ],
    ("switch_connect", "packet_in"): [
        (SWITCH, "hello", None), (CONTROLLER, "hello", None),
        (CONTROLLER, "packet_in", MARK_TARGET), *PROBE,
    ],
}


def test_build_procedure_shapes():
    for (name, target), shape in PROCEDURE_SHAPES.items():
        procedure = build_procedure(name, target)
        assert [(s.sender, s.message, s.mark) for s in procedure] == shape, name
    with pytest.raises(ValueError):
        build_procedure("teleport", "packet_in")


# ---------------------------------------------------------------------------
# Live sessions
# ---------------------------------------------------------------------------

def drive(controller, procedure, oracle=None):
    """Connect to the controller and play the switch half once."""
    sock = connect_sut(controller.endpoint, timeout=5.0)
    return run_procedure_on(sock, procedure, REGISTRY, oracle=oracle)


def run_once(procedure_name="ping_exchange", target="packet_in", oracle=None,
             driver_oracle=None):
    procedure = build_procedure(procedure_name, target)
    with MockController(REGISTRY, procedure, oracle) as controller:
        return drive(controller, procedure, driver_oracle)


def test_unfuzzed_session_is_absence():
    outcome = run_once(oracle=default_oracle())
    assert outcome.observations["ping_ok"]
    assert outcome.error is None
    assert detect(outcome.observations) == ABSENCE


def test_connect_sut_unavailable():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    dead = probe.getsockname()[1]
    probe.close()
    with pytest.raises(SutUnavailableError):
        connect_sut(("127.0.0.1", dead), timeout=0.5)



def test_controller_ends_a_session_whose_peer_goes_quiet(monkeypatch):
    # the one step timeout is read at call time, so one patch reaches it
    monkeypatch.setattr(rulefuzz.reactor, "STEP_TIMEOUT", 0.3)
    procedure = build_procedure("ping_exchange", "packet_in")
    with MockController(REGISTRY, procedure, None) as controller:
        with socket.create_connection(controller.endpoint, timeout=5) as sock:
            sock.sendall(encode(default_message(REGISTRY.by_name("hello"))))
            assert len(sock.recv(8, socket.MSG_WAITALL)) == 8
            start = time.perf_counter()
            sock.settimeout(1)
            assert sock.recv(1) == b""
            assert time.perf_counter() - start < 1
        deadline = time.monotonic() + 1
        while controller._sessions and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not controller._sessions

def handshake_then_send(endpoint, values):
    """Raw byte-level exchange, independent of the switch driver code."""
    schema = REGISTRY.by_name("packet_in")
    sock = socket.create_connection(endpoint, timeout=5)
    sock.settimeout(5)
    try:
        sock.sendall(encode(default_message(REGISTRY.by_name("hello"))))
        hello_reply = sock.recv(8)
        assert len(hello_reply) == 8
        sock.sendall(encode(default_message(schema).with_values(values)))
        sock.sendall(encode(default_message(REGISTRY.by_name("barrier_request"))))
        buf = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
        return StreamSegmenter().feed(buf)
    finally:
        sock.close()


def test_controller_disconnects_on_matching_message_byte_level():
    oracle = default_oracle()
    procedure = build_procedure("ping_exchange", "packet_in")
    bad = {"cookie_hi": 4211081216}
    good = {"cookie_hi": 4211081215}
    reply_code = REGISTRY.by_name("barrier_reply").header_type_code
    with MockController(REGISTRY, procedure, oracle) as controller:
        assert handshake_then_send(controller.endpoint, bad) == []
        frames = handshake_then_send(controller.endpoint, good)
        assert [f[1] for f in frames] == [reply_code]


def test_storm_mode_floods_and_continues():
    from dataclasses import replace

    oracle = replace(default_oracle(), failure_mode="broadcast_storm")
    procedure = build_procedure("ping_exchange", "packet_in")
    request_code = REGISTRY.by_name("barrier_request").header_type_code
    reply_code = REGISTRY.by_name("barrier_reply").header_type_code
    with MockController(REGISTRY, procedure, oracle) as controller:
        frames = handshake_then_send(controller.endpoint, {"cookie_hi": 2**32 - 1})
    codes = [f[1] for f in frames]
    assert codes == [request_code] * STORM_FRAMES + [reply_code]


def test_driver_tolerates_storm_and_reports_flood():
    from dataclasses import replace

    oracle = replace(default_oracle(), failure_mode="broadcast_storm")
    procedure = build_procedure("ping_exchange", "packet_in")
    with MockController(REGISTRY, procedure, oracle) as controller:
        sock = connect_sut(controller.endpoint, timeout=5.0)
        schema = REGISTRY.by_name("packet_in")
        # drive manually so the fuzzed slot can carry a matching message
        sock.sendall(encode(default_message(REGISTRY.by_name("hello"))))
        assert len(sock.recv(8)) == 8
        sock.sendall(
            encode(default_message(schema).with_values({"cookie_hi": 2**32 - 1}))
        )
        outcome = run_procedure_on(sock, procedure[3:], REGISTRY)
    assert outcome.observations["ping_ok"]
    assert outcome.error is None
    assert outcome.observations["flood_count"] == STORM_FRAMES
    assert detect(outcome.observations) == PRESENCE


def test_switch_connect_check_is_driver_side():
    # oracle matching the controller's stock hello: the driver must enact
    # the failure on its own side of the channel
    oracle = FailureOracle("hello", parse_condition("version >= 4"))
    procedure = build_procedure("switch_connect", "hello")
    with MockController(REGISTRY, procedure, oracle) as controller:
        outcome = drive(controller, procedure, oracle)
    assert outcome.observations["closed_early"]
    assert not outcome.observations["ping_ok"]
    assert detect(outcome.observations) == PRESENCE


def test_switch_connect_non_matching_is_absence():
    oracle = FailureOracle("hello", parse_condition("version <= 2"))
    procedure = build_procedure("switch_connect", "hello")
    with MockController(REGISTRY, procedure, oracle) as controller:
        outcome = drive(controller, procedure, oracle)
    assert outcome.observations["ping_ok"]
    assert outcome.error is None
    assert detect(outcome.observations) == ABSENCE


def test_ground_truth_fidelity_at_zero_noise():
    # spec of the harness: with no noise, the observed label must equal
    # the oracle predicate evaluated on the injected message, always
    from rulefuzz.sampler import solve

    oracle = default_oracle()
    schema = REGISTRY.by_name("packet_in")
    rng = random.Random(99)
    cases = []
    for _ in range(12):
        cases.append({f.name: rng.randrange(f.raw_max + 1) for f in schema.fields})
    for _ in range(12):
        values = {f.name: rng.randrange(f.raw_max + 1) for f in schema.fields}
        values.update(solve(oracle.condition, schema, rng))
        cases.append(values)
    procedure = build_procedure("ping_exchange", "packet_in")
    reply_code = REGISTRY.by_name("barrier_reply").header_type_code
    with MockController(REGISTRY, procedure, oracle) as controller:
        for values in cases:
            frames = handshake_then_send(controller.endpoint, values)
            failed = reply_code not in [f[1] for f in frames]
            assert failed == oracle.matches(values), values


def test_observe_label_pipeline():
    rng = random.Random(5)
    outcome = run_once(oracle=default_oracle())
    assert observe_label(outcome, 0.0, rng) == ABSENCE
    flips = sum(
        observe_label(outcome, 0.5, random.Random(i)) == PRESENCE for i in range(400)
    )
    assert abs(flips / 400 - 0.5) < 0.1


# ---------------------------------------------------------------------------
# The two switch drivers
# ---------------------------------------------------------------------------

def loop_drive(endpoint, procedure, oracle=None):
    """Play the switch half once as a SwitchSession, on a loop of its own."""
    ended = []
    with Loop() as loop:
        switch = SwitchSession(loop, endpoint, Script(procedure, REGISTRY, SWITCH), oracle, ended.append)
        loop.run(lambda: bool(ended))
    assert ended == [switch] and not switch.conn.connecting  # the connect succeeded
    return switch.outcome


@contextlib.contextmanager
def controller_peer(oracle):
    procedure = build_procedure("ping_exchange", "packet_in")
    with MockController(REGISTRY, procedure, oracle) as controller:
        yield controller.endpoint


@contextlib.contextmanager
def raw_peer(serve, rcvbuf=None):
    """A peer that serves its connections one at a time on a thread.

    `rcvbuf` sets the receive buffer of every connection it accepts.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    if rcvbuf is not None:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)

    def accept_loop():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(5)
                serve(conn)

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        with contextlib.suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        thread.join(timeout=5)


def reset_after_hello(conn):
    assert len(conn.recv(8, socket.MSG_WAITALL)) == 8
    # closing with a zero linger time sends a reset, not a FIN
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


def read_until_eof(conn):
    with contextlib.suppress(OSError):
        while conn.recv(65536):
            pass


# the stock packet_in has version 4, so this oracle matches every session
EVERY_SESSION = FailureOracle("packet_in", parse_condition("version >= 4"))

PEERS = {
    "clean": lambda: controller_peer(default_oracle()),
    "switch_disconnect": lambda: controller_peer(EVERY_SESSION),
    "broadcast_storm": lambda: controller_peer(
        replace(EVERY_SESSION, failure_mode="broadcast_storm")
    ),
    "reset": lambda: raw_peer(reset_after_hello),
    "quiet": lambda: raw_peer(read_until_eof),
}


@pytest.mark.parametrize("peer", PEERS)
def test_both_switch_drivers_report_the_same_outcome(peer, monkeypatch):
    monkeypatch.setattr(rulefuzz.reactor, "STEP_TIMEOUT", 0.3)
    procedure = build_procedure("ping_exchange", "packet_in")
    with PEERS[peer]() as endpoint:
        blocking = run_procedure_on(connect_sut(endpoint), procedure, REGISTRY)
        on_loop = loop_drive(endpoint, procedure)
        # and behind the proxy, which must pass a reset on as an error
        config = InterceptConfig("127.0.0.1", 0, *endpoint, target_type="packet_in")
        with InterceptProxy(config, REGISTRY) as proxy:
            proxied = loop_drive(proxy.endpoint, procedure)
    assert on_loop == blocking == proxied
    obs = on_loop.observations
    if peer == "clean":
        assert obs["ping_ok"] and on_loop.error is None
        assert detect(obs) == ABSENCE
    elif peer == "switch_disconnect":
        assert obs["closed_early"] and not obs["ping_ok"] and on_loop.error is None
        assert detect(obs) == PRESENCE
    elif peer == "broadcast_storm":
        assert obs["flood_count"] == STORM_FRAMES and on_loop.error is None
        assert detect(obs) == PRESENCE
    elif peer == "reset":
        # an error, so the campaign runs the row again: never a presence label
        assert "reset" in on_loop.error
        assert "reset" in proxy.records[0].error
    else:
        assert on_loop.error == "timeout" and not obs["closed_early"]


def broken_pipe(*_args):
    raise BrokenPipeError(errno.EPIPE, "injected")


def fail_a_send(monkeypatch, fault, front_port):
    """Make one kind of send fail, as a peer that is gone fails it.

    "switch_send": the switch's second write (its target and probe).
    "switch_flush": that write is queued whole, and its flush fails.
    "to_switch": every send toward the switch, by the server at
    `front_port` that it dialled.  The switch's loop runs on this
    thread, and the servers' on the process loop's.
    """
    Connection = rulefuzz.reactor.Connection
    send, switch, writes = Connection.send, threading.current_thread(), collections.Counter()

    def queue(conn, data):  # a full socket takes none of it
        conn.out += data
        return 0

    def faulty_send(conn, data):
        if fault == "to_switch":
            if conn.sock.getsockname()[1] == front_port:
                broken_pipe()
        elif threading.current_thread() is switch:
            writes[conn] += 1
            if writes[conn] == 2:
                return (broken_pipe if fault == "switch_send" else queue)(conn, data)
        return send(conn, data)

    monkeypatch.setattr(Connection, "send", faulty_send)
    if fault == "switch_flush":
        monkeypatch.setattr(Connection, "flush", broken_pipe)


@pytest.mark.parametrize("fault", ["switch_send", "switch_flush", "to_switch"])
def test_a_failed_send_ends_the_session_alike_direct_and_proxied(fault, monkeypatch, caplog):
    procedure = build_procedure("ping_exchange", "packet_in")
    outcomes = []
    with (
        caplog.at_level(logging.ERROR, logger="rulefuzz.reactor"),
        MockController(REGISTRY, procedure, default_oracle()) as controller,
        InterceptProxy(
            InterceptConfig("127.0.0.1", 0, *controller.endpoint, target_type="packet_in"),
            REGISTRY,
        ) as proxy,
    ):
        for front in (controller, proxy):
            with monkeypatch.context() as patch:
                fail_a_send(patch, fault, front.endpoint[1])
                outcomes.append(loop_drive(front.endpoint, procedure))
                deadline = time.monotonic() + 2
                while (proxy._sessions or controller._sessions) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not proxy._sessions and not controller._sessions
    direct, proxied = outcomes
    assert direct == proxied
    # a failed send fails the session on either side: the switch reads the
    # peer closing early with an error, so the campaign runs the row again
    assert direct.observations["closed_early"] and not direct.observations["ping_ok"]
    assert direct.error is not None and proxied.error is not None
    assert "session step failed" not in caplog.text


def test_run_procedure_on_a_socket_without_a_timeout_still_times_out(monkeypatch):
    # a socket with no timeout of its own gets STEP_TIMEOUT for each step
    monkeypatch.setattr(rulefuzz.reactor, "STEP_TIMEOUT", 0.3)
    procedure = build_procedure("ping_exchange", "packet_in")
    got = []
    with raw_peer(read_until_eof) as endpoint:
        sock = socket.create_connection(endpoint)
        assert sock.gettimeout() is None
        driver = threading.Thread(
            target=lambda: got.append(run_procedure_on(sock, procedure, REGISTRY)), daemon=True
        )
        driver.start()
        driver.join(timeout=3)
        assert not driver.is_alive(), "a step with no deadline waited for ever"
    assert got[0].error == "timeout" and not got[0].observations["closed_early"]


def test_switch_session_reports_a_refused_connect():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    dead = probe.getsockname()[:2]
    probe.close()
    ended = []
    procedure = build_procedure("ping_exchange", "packet_in")
    with Loop() as loop:
        switch = SwitchSession(loop, dead, Script(procedure, REGISTRY, SWITCH), None, ended.append)
        loop.run(lambda: bool(ended))
    assert ended == [switch]
    assert switch.outcome.error.startswith(f"connect to {dead}: ")


def test_switch_and_proxy_dials_time_out(monkeypatch):
    # a listener that never accepts and whose accept queue is full drops
    # every later handshake, so a connect to it neither succeeds nor fails
    monkeypatch.setattr(rulefuzz.reactor, "STEP_TIMEOUT", 0.3)
    procedure = build_procedure("ping_exchange", "packet_in")
    ended = []
    with contextlib.ExitStack() as stack:
        listener = stack.enter_context(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        full = listener.getsockname()[:2]
        for _ in range(3):
            filler = stack.enter_context(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
            filler.setblocking(False)
            filler.connect_ex(full)
        time.sleep(0.05)  # let the fillers' handshakes fill the queue
        loop = stack.enter_context(Loop())
        config = InterceptConfig("127.0.0.1", 0, *full, target_type="packet_in")
        proxy = stack.enter_context(InterceptProxy(config, REGISTRY, loop=loop))
        start = time.monotonic()
        switch = SwitchSession(loop, full, Script(procedure, REGISTRY, SWITCH), None, ended.append)
        client = stack.enter_context(socket.create_connection(proxy.endpoint, timeout=5))
        loop.run(lambda: bool(ended and proxy.records) and not loop.sessions, start + 1)
        took = time.monotonic() - start
        assert not loop.sessions
        with pytest.raises(ConnectionResetError):  # the proxy reset its client
            client.recv(1)
    assert took < 1
    assert ended == [switch]
    assert switch.outcome.error == f"connect to {full}: timed out"
    assert [r.error for r in proxy.records] == ["upstream unreachable: timed out"]


def test_blocking_switches_on_many_threads_share_the_process_loop():
    # 8 client threads each run 25 sessions through one proxy; every hook
    # must reach its own session, whose storm shows whether it matched
    oracle = replace(default_oracle(), failure_mode="broadcast_storm")
    procedure = build_procedure("ping_exchange", "packet_in")
    matching = encode(
        default_message(REGISTRY.by_name("packet_in")).with_values({"cookie_hi": 2**32 - 1})
    )
    before = set(threading.enumerate())
    seen = set()
    results = {}

    def client(tag):
        for j in range(25):
            storm = (tag + j) % 2 == 0
            fired = []

            def hook(frame, storm=storm, fired=fired):
                fired.append(frame)
                return matching if storm else frame

            with proxy.reserve(hook) as endpoint:
                sock = connect_sut(endpoint, 5.0)
            outcome = run_procedure_on(sock, procedure, REGISTRY)
            results[tag, j] = (storm, len(fired), outcome)
            seen.update(threading.enumerate())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # frequent thread switches shake out hand-off races
    try:
        with MockController(REGISTRY, procedure, oracle) as controller:
            config = InterceptConfig(
                "127.0.0.1", 0, *controller.endpoint, target_type="packet_in"
            )
            with InterceptProxy(config, REGISTRY) as proxy:
                clients = [threading.Thread(target=client, args=(tag,)) for tag in range(8)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8 * 25
    for storm, fired, outcome in results.values():
        assert fired == 1
        assert outcome.error is None and outcome.observations["ping_ok"]
        assert outcome.observations["flood_count"] == (STORM_FRAMES if storm else 0)
    assert [r.hook_fired for r in proxy.records] == [True] * len(results)
    # the threads grew by the clients and the process's one loop thread only
    assert seen - before <= set(clients) | {rulefuzz.reactor.process_loop().thread}


def test_a_blocking_session_leaves_no_reference_cycle():
    # the blocking front hands its session's outcome over without a cycle
    # through the session, so each one is freed as it closes
    procedure = build_procedure("ping_exchange", "packet_in")
    with MockController(REGISTRY, procedure, default_oracle()) as controller:
        run_procedure_on(connect_sut(controller.endpoint, 5.0), procedure, REGISTRY)
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                run_procedure_on(connect_sut(controller.endpoint, 5.0), procedure, REGISTRY)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_run_procedure_on_the_loop_thread_raises():
    procedure = build_procedure("ping_exchange", "packet_in")
    loop = rulefuzz.reactor.process_loop()
    ours, theirs = socket.socketpair()
    with ours, theirs, pytest.raises(RuntimeError, match="loop thread"):
        loop.call(lambda: run_procedure_on(ours, procedure, REGISTRY))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_serves_sessions_on_a_process_loop_of_its_own():
    # no thread serves the child's copy of the parent's process loop, so
    # a child that kept it would hang at its first server's start()
    procedure = build_procedure("ping_exchange", "packet_in")
    with MockController(REGISTRY, procedure, None):
        parent_loop = rulefuzz.reactor.process_loop()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # forking with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                loop = rulefuzz.reactor.process_loop()
                code = 2
                if loop is not parent_loop and loop.thread.is_alive():
                    with MockController(REGISTRY, procedure, None) as controller:
                        sock = connect_sut(controller.endpoint, 5.0)
                        outcome = run_procedure_on(sock, procedure, REGISTRY)
                    code = 0 if outcome.error is None and outcome.observations["ping_ok"] else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10
        while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung")
            time.sleep(0.01)
    # 2: the child has no new process loop with a live thread; 3: its session failed
    assert os.waitstatus_to_exitcode(waited[1]) == 0


def test_the_system_under_test_imports_the_reactor_not_the_proxy():
    # the simulated switch and controller know nothing of the fuzzer in
    # between, and the reactor knows nothing of either
    script = (
        "import ast, pathlib, sys\n"
        "import rulefuzz.sut\n"
        "print('rulefuzz.proxy' in sys.modules)\n"
        "import rulefuzz.reactor\n"
        "tree = ast.parse(pathlib.Path(rulefuzz.reactor.__file__).read_text('utf-8'))\n"
        "for node in ast.walk(tree):\n"
        "    if isinstance(node, ast.ImportFrom):\n"
        "        print('.' * node.level + (node.module or ''))\n"
        "    elif isinstance(node, ast.Import):\n"
        "        print(*(alias.name for alias in node.names))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    proxy_loaded, *imported = done.stdout.split()
    assert proxy_loaded == "False", "importing rulefuzz.sut imports rulefuzz.proxy"
    assert [name for name in imported if name.startswith((".", "rulefuzz"))] == []


def test_a_frame_larger_than_the_socket_buffers_leaves_through_flush(monkeypatch):
    # 48 KB is more than the switch's send buffer and the peer's receive
    # buffer hold, and the peer reads nothing for 0.2 s: the switch queues
    # what the socket does not take and sends it as the socket drains
    widths = {"version": 8, "type": 8, "length": 16, "xid": 32, "payload": 48 * 1024 * 8 - 64}
    bulk = make_schema(widths, type_name="bulk", code=200)
    registry = SchemaRegistry((*REGISTRY.schemas, bulk))
    procedure = build_procedure("ping_exchange", "bulk")
    hello, request, reply = (
        default_frame(registry.by_name(name))
        for name in ("hello", "barrier_request", "barrier_reply")
    )
    target = default_frame(bulk)
    flushed = []
    flush = rulefuzz.reactor.Connection.flush

    def counting_flush(conn):
        flushed.append(len(conn.out))
        return flush(conn)

    monkeypatch.setattr(rulefuzz.reactor.Connection, "flush", counting_flush)
    got = []

    def slow_reader(conn):
        assert conn.recv(len(hello), socket.MSG_WAITALL) == hello
        conn.sendall(hello)
        time.sleep(0.2)
        # a socket with a timeout does not wait for MSG_WAITALL
        data = b""
        while len(data) < len(target) + len(request) and (chunk := conn.recv(65536)):
            data += chunk
        got.append(data)
        conn.sendall(reply)

    with raw_peer(slow_reader, rcvbuf=4096) as endpoint:
        sock = connect_sut(endpoint, 5.0)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        outcome = run_procedure_on(sock, procedure, registry)
    assert outcome.error is None and outcome.observations["ping_ok"]
    assert got == [target + request]
    assert flushed, "the switch never queued output"
