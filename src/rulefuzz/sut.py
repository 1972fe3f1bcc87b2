"""Simulated system under test: a scripted controller and switch driver.

The pair plays fixed message-exchange procedures over real TCP so the
intercept proxy can sit in between.  A failure oracle (a rule over the
fields of one message type) defines the hidden ground truth: when the
receiving side decodes a target message whose field values satisfy the
oracle predicate, it enacts the configured failure mode.  The switch
driver records channel-level observations and a pure detector maps them
to a presence/absence label; optional label noise is applied on top by
the caller, never inside the deterministic endpoints.

A procedure is a tuple of steps, one message each.  Its target step is
the slot the proxy fuzzes and the one whose receiver checks the oracle.
One procedure player serves both roles: `PlayerSession`, on a
`reactor.Loop`, sends the steps of its role, reads the peer's, and
enacts the failure when it receives a target that matches.  It plays a
`Script`, its role's half of the procedure with the frames encoded once,
by the mock controller and by a campaign share for all their sessions.
The mock controller, a `reactor.TcpServer`, runs one per accepted
connection, and the switch driver `SwitchSession` dials its peer without
blocking, so every role of a session can share one loop.  A step makes
one read, plays it (receive() does no I/O), makes at most one send,
changes what the loop watches only when that changes, and reads the
clock once, for its deadline.  `run_procedure_on` is the blocking front of the same switch
half for a caller on another thread: it hands the connection to the
process loop and waits until the session closes.  Each step waits at
most `reactor.STEP_TIMEOUT` for the peer, or the timeout of the socket
handed to `run_procedure_on`.  A session fails one way, as every
`reactor.Session` does: a connect, read or send that fails, or a step
that raises, resets the connection, so the peer's read fails too, and
the role's outcome reads the peer closing early with an `error`, which
a campaign retries instead of labelling.

Both endpoints read the fuzzed slot as a fixed-size byte span dictated
by the procedure script rather than trusting the (possibly corrupted)
length field, so the predicate is always evaluated on exactly the field
values that were injected.
"""
from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from random import Random
from typing import Callable, Mapping

import yaml

from . import reactor
from .codec import HEADER_BYTES, ControlMessage, MessageSchema, SchemaRegistry, decode_as, encode
from .dataset import ABSENCE, PRESENCE
from .reactor import Loop, Session, TcpServer
from .rules import Condition, parse_condition
from .sampler import evaluate

FAILURE_MODES = ("switch_disconnect", "broadcast_storm")
STORM_FRAMES = 3

SWITCH = "switch"
CONTROLLER = "controller"

MARK_TARGET = "target"  # the slot the proxy fuzzes; its receiver checks the oracle
MARK_ACK = "ack"        # completing this read means the liveness probe passed


class OracleConfigError(Exception):
    """The oracle document is malformed or inconsistent."""


class SutUnavailableError(Exception):
    """The system under test could not be reached."""


# ---------------------------------------------------------------------------
# Failure oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FailureOracle:
    """Hidden ground-truth predicate plus the failure it provokes."""

    message_type: str
    condition: Condition
    failure_mode: str = "switch_disconnect"
    noise_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.failure_mode not in FAILURE_MODES:
            raise OracleConfigError(
                f"unknown failure mode {self.failure_mode!r}; "
                f"expected one of {FAILURE_MODES}"
            )
        if not 0.0 <= self.noise_rate < 1.0:
            raise OracleConfigError(
                f"noise rate must be in [0, 1), got {self.noise_rate}"
            )

    def matches(self, values: Mapping[str, int]) -> bool:
        return evaluate(self.condition, values)

    def validate_against(self, registry: SchemaRegistry) -> None:
        """Check every referenced field exists on the target message type."""
        schema = registry.by_name(self.message_type)
        for name in self.condition.fields():
            if name not in schema.field_names():
                raise OracleConfigError(
                    f"oracle references unknown field "
                    f"{self.message_type}.{name}"
                )


def load_oracle_document(doc: Mapping) -> FailureOracle:
    try:
        message_type = doc["message_type"]
        predicate = doc["predicate"]
    except (KeyError, TypeError) as exc:
        raise OracleConfigError(f"oracle document missing key: {exc}") from exc
    condition = parse_condition(predicate)
    return FailureOracle(
        message_type=message_type,
        condition=condition,
        failure_mode=doc.get("failure_mode", "switch_disconnect"),
        noise_rate=float(doc.get("noise_rate", 0.0)),
    )


def load_oracle(path: str | Path) -> FailureOracle:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    return load_oracle_document(doc)


def default_oracle() -> FailureOracle:
    ref = resources.files("rulefuzz.data").joinpath("default_oracle.yaml")
    return load_oracle_document(yaml.safe_load(ref.read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# Message templates
# ---------------------------------------------------------------------------

# Realistic baseline values; every field not listed falls back to its
# domain minimum.  None of these satisfy the packaged default oracle.
_COMMON_OVERRIDES = {"version": 4, "xid": 0}

_TEMPLATE_OVERRIDES: dict[str, dict[str, int]] = {
    "hello": {},
    "barrier_request": {},
    "barrier_reply": {},
    "packet_in": {
        "buffer_id": 0xFFFFFFFF,
        "total_len": 60,
        "reason": 2,
        "table_id": 0,
        "match_type": 1,
        "match_length": 12,
        "oxm_class": 0x8000,
        "oxm_field": 0,
        "oxm_length": 4,
        "in_port": 1,
        "eth_dst_hi": 0xFFFFFF,
        "eth_dst_lo": 0xFFFFFF,
        "eth_src_lo": 1,
        "eth_type": 0x0800,
        "ip_version": 4,
        "ip_ihl": 5,
        "ip_total_len": 46,
    },
    "flow_removed": {
        "priority": 1,
        "reason": 0,
        "table_id": 0,
        "duration_sec": 30,
        "idle_timeout": 10,
        "packet_count_lo": 42,
        "byte_count_lo": 4242,
        "match_type": 1,
        "match_length": 4,
        "oxm_class": 0x8000,
    },
}


def default_message(schema: MessageSchema) -> ControlMessage:
    """A valid, oracle-negative message of the given type."""
    overrides = _TEMPLATE_OVERRIDES.get(schema.type_name, {})
    values: dict[str, int] = {}
    for f in schema.fields:
        if f.name in overrides:
            values[f.name] = overrides[f.name]
        elif f.name in _COMMON_OVERRIDES:
            values[f.name] = _COMMON_OVERRIDES[f.name]
        elif f.name == "type":
            values[f.name] = schema.header_type_code
        elif f.name == "length":
            values[f.name] = schema.total_bytes
        else:
            values[f.name] = f.domain_lo
    return ControlMessage(schema, values)


@lru_cache(maxsize=None)
def default_frame(schema: MessageSchema) -> bytes:
    """The wire bytes of default_message(schema), encoded once per schema."""
    return encode(default_message(schema))


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    sender: str
    message: str
    mark: str | None = None  # MARK_TARGET, MARK_ACK or None


# procedure name -> the role that sends its target message
_TARGET_SENDERS = {"ping_exchange": SWITCH, "switch_connect": CONTROLLER}
PROCEDURES = tuple(_TARGET_SENDERS)


def build_procedure(name: str, target_type: str) -> tuple[Step, ...]:
    """Assemble the scripted exchange that carries one target message.

    ping_exchange fuzzes a switch-to-controller message and lets the
    controller enact failures; switch_connect fuzzes a controller-to-
    switch message and lets the driver enact them.  A hello target is
    the sender's own handshake hello; any other target follows the
    handshake.  Both end with a barrier probe/ack pair serving as the
    liveness check.
    """
    try:
        sender = _TARGET_SENDERS[name]
    except KeyError:
        raise ValueError(f"unknown procedure {name!r}; expected one of {PROCEDURES}") from None
    steps = [
        Step(role, "hello", MARK_TARGET if role == sender and target_type == "hello" else None)
        for role in (SWITCH, CONTROLLER)
    ]
    if target_type != "hello":
        steps.append(Step(sender, target_type, MARK_TARGET))
    return (
        *steps,
        Step(SWITCH, "barrier_request"),
        Step(CONTROLLER, "barrier_reply", MARK_ACK),
    )


# ---------------------------------------------------------------------------
# Procedure sessions on a loop
# ---------------------------------------------------------------------------

@dataclass
class RunOutcome:
    """Channel-level observations from one driven procedure."""

    observations: dict = field(default_factory=dict)
    error: str | None = None


class Script:
    """One role's half of a procedure, its frames encoded once.

    `opening` is what the role sends before its first read.  Each of
    `reads` is one slot of the peer's, in order: (its size, mark and
    schema, whether unsolicited barrier requests ahead of it are dropped,
    and what the role sends once it is read, its steps in one write).
    """

    def __init__(self, procedure: tuple[Step, ...], registry: SchemaRegistry, role: str):
        flood = registry.by_name("barrier_request")
        self.role, self.flood_code = role, flood.header_type_code
        self.storm = default_frame(flood) * STORM_FRAMES
        sends, reads = [b""], []  # what the role sends before each read, and after the last
        for step in procedure:
            schema = registry.by_name(step.message)
            if step.sender == role:
                sends[-1] += default_frame(schema)
                continue
            drops = step.mark != MARK_TARGET and schema.header_type_code != self.flood_code
            reads.append((schema.total_bytes, step.mark, schema, drops))
            sends.append(b"")
        self.opening = sends[0]
        self.reads = tuple((*read, then) for read, then in zip(reads, sends[1:]))


class PlayerSession(Session):
    """One role of a procedure, played from its Script on a reactor.Loop.

    begin() sends what the role sends before its first read.  Each step
    then reads what the peer sent, plays it through receive(), which
    does no I/O, and sends what the role sends next; it waits at most
    `timeout` seconds for the peer.  `done` is set once the role has
    nothing left to send or read, and `outcome` holds what it observed.
    The oracle is consulted only for a received target step; on a match
    this side enacts the failure itself, by ending the session or by
    flooding the peer with unsolicited barrier requests, which are
    counted and dropped ahead of any slot but a target, read verbatim.
    Output the socket does not take at once is flushed as it drains.
    The session ends once the role is done and its output has left, or
    when it fails: a failed send or read, or a step that raises, fails it
    as every `reactor.Session` fails, and the role reads it as the peer
    closing early, with `outcome.error` saying why, or "timeout".
    """

    def __init__(
        self,
        loop: Loop,
        sock: socket.socket,
        script: Script,
        oracle: FailureOracle | None,
        timeout: float,
    ):
        super().__init__(loop, sock)
        self._script, self._oracle, self._timeout = script, oracle, timeout
        self._next = 0  # index of the next read in the script
        self._received = bytearray()
        self.done = False
        self.outcome = RunOutcome({"closed_early": False, "ping_ok": False, "flood_count": 0})

    def begin(self) -> None:
        """Send what the role sends before its first read; a failed send fails the session."""
        self.done = not self._script.reads
        try:
            self._play(self._script.opening)
        except OSError as exc:
            self.fail(str(exc))

    def ready(self) -> None:
        out = b""
        if self.conn.out:
            self.conn.flush()
        if not self.done:
            data = self.conn.recv()
            if data is not None:
                out = self.receive(data)
        self._play(out)

    def receive(self, data: bytes) -> bytes:
        """Play `data` read from the peer (b"" at EOF); the bytes the role sends next."""
        obs = self.outcome.observations
        if not data:
            if not self.done:
                obs["closed_early"] = True
                self.done = True
            return b""
        buf = self._received
        buf += data
        script = self._script
        reads = script.reads
        out = b""
        while self._next < len(reads):
            size, mark, schema, drops, then = reads[self._next]
            if drops:
                while len(buf) >= HEADER_BYTES and buf[1] == script.flood_code:
                    del buf[:HEADER_BYTES]
                    obs["flood_count"] += 1
            if len(buf) < size:
                return out
            slot = bytes(buf[:size]) if mark == MARK_TARGET else None
            del buf[:size]
            self._next += 1
            if mark == MARK_ACK:
                obs["ping_ok"] = True
            elif (
                mark == MARK_TARGET
                and self._oracle is not None
                and self._oracle.matches(decode_as(slot, schema).values)
            ):
                if self._oracle.failure_mode == "switch_disconnect":
                    obs["closed_early"] = True
                    break
                out += script.storm
                obs["flood_count"] += STORM_FRAMES
            out += then
        self.done = True
        return out

    def expire(self) -> None:
        self.outcome.error = "timeout"
        self.close()

    def fail(self, why: str) -> None:
        self.outcome.observations["closed_early"] = True
        self.outcome.error = why
        super().fail(why)

    def _play(self, out: bytes) -> None:
        if out:
            self.conn.send(out)
        if self.done and not self.conn.out:
            self.close()
            return
        self.conn.watch(not self.done)
        self.deadline = time.monotonic() + self._timeout


class SwitchSession(PlayerSession):
    """The switch half of a procedure, dialled without blocking on a loop.

    `script` is the procedure's Script for the switch role.  The connect
    and each step get `reactor.STEP_TIMEOUT`.  A connect that fails or
    times out fails the session, and `outcome.error` names the endpoint.
    `address` is the local address the connect was made from, and
    on_close(session) runs once the session closes.
    """

    def __init__(
        self,
        loop: Loop,
        endpoint: tuple[str, int],
        script: Script,
        oracle: FailureOracle | None,
        on_close: Callable[[SwitchSession], None],
    ):
        dial = socket.socket(socket.AF_INET, socket.SOCK_STREAM | socket.SOCK_NONBLOCK)
        super().__init__(loop, dial, script, oracle, reactor.STEP_TIMEOUT)
        self._endpoint, self.on_close = endpoint, on_close
        self.address: tuple[str, int] | None = None
        try:
            self.deadline = self.conn.connect(endpoint)
            self.address = self.conn.sock.getsockname()[:2]
        except OSError as exc:
            self.fail(str(exc))

    def fail(self, why: str) -> None:
        if self.conn.connecting:
            why = f"connect to {self._endpoint}: {why}"
        super().fail(why)

    def ready(self) -> None:
        if not self.conn.connecting:
            super().ready()
            return
        self.conn.connected()
        self.begin()

    def expire(self) -> None:
        if self.conn.connecting:
            self.fail("timed out")
        else:
            super().expire()


# ---------------------------------------------------------------------------
# Mock controller
# ---------------------------------------------------------------------------

class MockController(TcpServer):
    """Scripted controller bound to a local port, one session per connection."""

    def __init__(
        self,
        registry: SchemaRegistry,
        procedure: tuple[Step, ...],
        oracle: FailureOracle | None,
        host: str = "127.0.0.1",
        port: int = 0,
        loop: Loop | None = None,
    ):
        self._script = Script(procedure, registry, CONTROLLER)
        self._oracle = oracle
        super().__init__(host, port, loop)

    def open(self, sock: socket.socket, peer: tuple[str, int]) -> Session:
        session = PlayerSession(self._loop, sock, self._script, self._oracle, reactor.STEP_TIMEOUT)
        session.begin()
        return session


# ---------------------------------------------------------------------------
# Switch driver
# ---------------------------------------------------------------------------

def connect_sut(endpoint: tuple[str, int], timeout: float | None = None) -> socket.socket:
    """Open the switch-side connection; SutUnavailableError on failure.

    `timeout` bounds the connect and each later step; it defaults to
    `reactor.STEP_TIMEOUT`.
    """
    if timeout is None:
        timeout = reactor.STEP_TIMEOUT
    try:
        sock = socket.create_connection(endpoint, timeout=timeout)
    except OSError as exc:
        raise SutUnavailableError(f"connect to {endpoint}: {exc}") from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def run_procedure_on(
    sock: socket.socket,
    procedure: tuple[Step, ...],
    registry: SchemaRegistry,
    oracle: FailureOracle | None = None,
) -> RunOutcome:
    """Drive the switch half of a procedure over an open connection, then close it.

    The session runs on the process loop while the caller waits.  Each
    step waits for the peer at most the socket's timeout, or
    `reactor.STEP_TIMEOUT` if it has none.  A caller on the loop's own
    thread gets RuntimeError: its wait would stop the loop.
    """
    loop = reactor.process_loop()
    if threading.current_thread() is loop.thread:
        raise RuntimeError("run_procedure_on cannot wait on the loop thread that serves it")
    script = Script(procedure, registry, SWITCH)
    timeout = sock.gettimeout() or reactor.STEP_TIMEOUT
    ended: Future = Future()

    def begin() -> None:
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = PlayerSession(loop, sock, script, oracle, timeout)
            session.on_close = lambda closed: ended.set_result(closed.outcome)
            session.begin()
        except BaseException as exc:  # the caller's wait raises it
            sock.close()
            ended.set_exception(exc)

    loop.submit(begin)
    return ended.result()


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def detect(observations: Mapping) -> str:
    """Pure mapping from channel observations to a failure label.

    Any unsolicited directive flood marks a failure, as does the peer
    closing before the liveness probe was acknowledged.  A session that
    closed after a successful probe is healthy.
    """
    if observations.get("flood_count", 0) >= 1:
        return PRESENCE
    if observations.get("closed_early") and not observations.get("ping_ok"):
        return PRESENCE
    return ABSENCE


def apply_noise(label: str, noise_rate: float, rng: Random | None) -> str:
    """Flip the label with probability noise_rate; `rng` may be None at rate 0."""
    if noise_rate > 0.0 and rng.random() < noise_rate:
        return ABSENCE if label == PRESENCE else PRESENCE
    return label


def observe_label(outcome: RunOutcome, noise_rate: float, rng: Random | None) -> str:
    return apply_noise(detect(outcome.observations), noise_rate, rng)
