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
One procedure player serves both roles: the mock controller and the
switch driver run the same step loop, each sending the steps of its own
role and reading the peer's, and each enacting the failure when it
receives a target that matches.  The mock controller is a
`proxy.TcpServer` that plays the controller half once per accepted
connection, on that connection's own thread.  The controller waits at
most `proxy.STEP_TIMEOUT` for each step of its peer, and so does the
switch driver unless `connect_sut` is given another timeout.

Both endpoints read the fuzzed slot as a fixed-size byte span dictated
by the procedure script rather than trusting the (possibly corrupted)
length field, so the predicate is always evaluated on exactly the field
values that were injected.
"""
from __future__ import annotations

import contextlib
import socket
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from random import Random
from typing import Mapping

import yaml

from .codec import HEADER_BYTES, ControlMessage, MessageSchema, SchemaRegistry, decode_as, encode
from .dataset import ABSENCE, PRESENCE
from .proxy import STEP_TIMEOUT, TcpServer
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
# Socket helpers
# ---------------------------------------------------------------------------

def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly n bytes; None on clean EOF before n bytes arrive."""
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _read_slot(
    sock: socket.socket, schema: MessageSchema, registry: SchemaRegistry
) -> tuple[bytes | None, int]:
    """Read one expected fixed-size slot, skipping unsolicited directives.

    Unsolicited barrier_request frames (the storm failure mode) are
    counted and discarded when they arrive ahead of the expected message.
    The target slot itself is read verbatim with no classification since
    its header bytes may be arbitrary.
    """
    floods = 0
    flood_code = None
    if "barrier_request" in registry:
        flood_code = registry.by_name("barrier_request").header_type_code
    while True:
        head = _recv_exact(sock, HEADER_BYTES)
        if head is None:
            return None, floods
        if (
            flood_code is not None
            and head[1] == flood_code
            and schema.header_type_code != flood_code
        ):
            floods += 1
            continue
        rest_len = schema.total_bytes - HEADER_BYTES
        if rest_len == 0:
            return head, floods
        rest = _recv_exact(sock, rest_len)
        if rest is None:
            return None, floods
        return head + rest, floods


# ---------------------------------------------------------------------------
# Procedure player
# ---------------------------------------------------------------------------

@dataclass
class RunOutcome:
    """Channel-level observations from one driven procedure."""

    observations: dict = field(default_factory=dict)
    error: str | None = None


def _play(
    sock: socket.socket,
    procedure: tuple[Step, ...],
    registry: SchemaRegistry,
    oracle: FailureOracle | None,
    role: str,
) -> RunOutcome:
    """Play `role`'s half of a procedure over an open connection.

    The role sends its own steps and reads the peer's.  The oracle is
    consulted only for a received target step; on a match this side
    enacts the failure itself, by dropping the session or by flooding
    the peer with unsolicited barrier requests.
    """
    obs = {"closed_early": False, "ping_ok": False, "flood_count": 0}
    outcome = RunOutcome(observations=obs)
    try:
        for step in procedure:
            schema = registry.by_name(step.message)
            if step.sender == role:
                try:
                    sock.sendall(encode(default_message(schema)))
                except OSError:
                    obs["closed_early"] = True
                    return outcome
                continue
            if step.mark == MARK_TARGET:
                data, floods = _recv_exact(sock, schema.total_bytes), 0
            else:
                data, floods = _read_slot(sock, schema, registry)
            obs["flood_count"] += floods
            if data is None:
                obs["closed_early"] = True
                return outcome
            if step.mark == MARK_ACK:
                obs["ping_ok"] = True
            if (
                step.mark == MARK_TARGET
                and oracle is not None
                and oracle.matches(decode_as(data, schema).values)
            ):
                if oracle.failure_mode == "switch_disconnect":
                    obs["closed_early"] = True
                    return outcome
                frame = encode(default_message(registry.by_name("barrier_request")))
                with contextlib.suppress(OSError):
                    sock.sendall(frame * STORM_FRAMES)
                obs["flood_count"] += STORM_FRAMES
    except socket.timeout:
        outcome.error = "timeout"
    except OSError as exc:
        outcome.error = str(exc)
        obs["closed_early"] = True
    return outcome


# ---------------------------------------------------------------------------
# Mock controller
# ---------------------------------------------------------------------------

class MockController(TcpServer):
    """Threaded scripted controller bound to an ephemeral local port."""

    def __init__(
        self,
        registry: SchemaRegistry,
        procedure: tuple[Step, ...],
        oracle: FailureOracle | None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._registry = registry
        self._procedure = procedure
        self._oracle = oracle
        super().__init__(host, port)

    def serve(self, sock: socket.socket) -> None:
        sock.settimeout(STEP_TIMEOUT)
        _play(sock, self._procedure, self._registry, self._oracle, CONTROLLER)


# ---------------------------------------------------------------------------
# Switch driver
# ---------------------------------------------------------------------------

def connect_sut(endpoint: tuple[str, int], timeout: float = STEP_TIMEOUT) -> socket.socket:
    """Open the switch-side connection; SutUnavailableError on failure."""
    try:
        sock = socket.create_connection(endpoint, timeout=timeout)
    except OSError as exc:
        raise SutUnavailableError(f"connect to {endpoint}: {exc}") from exc
    sock.settimeout(timeout)
    return sock


def run_procedure_on(
    sock: socket.socket,
    procedure: tuple[Step, ...],
    registry: SchemaRegistry,
    oracle: FailureOracle | None = None,
) -> RunOutcome:
    """Drive the switch half of a procedure over an open connection, then close it."""
    try:
        return _play(sock, procedure, registry, oracle, SWITCH)
    finally:
        with contextlib.suppress(OSError):
            sock.close()


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


def apply_noise(label: str, noise_rate: float, rng: Random) -> str:
    """Flip the label with probability noise_rate."""
    if noise_rate > 0.0 and rng.random() < noise_rate:
        return ABSENCE if label == PRESENCE else PRESENCE
    return label


def observe_label(outcome: RunOutcome, noise_rate: float, rng: Random) -> str:
    return apply_noise(detect(outcome.observations), noise_rate, rng)
