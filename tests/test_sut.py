"""Simulated system under test: oracles, procedures, detection, fidelity."""

import random
import socket

import pytest

from rulefuzz.codec import builtin_registry, encode
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
    SutUnavailableError,
    apply_noise,
    build_procedure,
    connect_sut,
    default_message,
    default_oracle,
    detect,
    load_oracle_document,
    observe_label,
    run_procedure_on,
)
from rulefuzz.proxy import StreamSegmenter

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
