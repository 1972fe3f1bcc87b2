"""Codec tests against an independent bit-string packing oracle."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefuzz.codec import (
    ControlMessage,
    FieldSpec,
    MessageSchema,
    SchemaRegistry,
    SchemaValidationError,
    TruncatedMessageError,
    UnknownMessageTypeError,
    ValueOverflowError,
    builtin_registry,
    decode_as,
    encode,
    load_schema_file,
    load_schemas,
)

from .conftest import make_schema, random_values


def oracle_encode(schema, values):
    """Reference packing: concatenate zero-padded binary strings."""
    bits = "".join(
        format(values[f.name], f"0{f.width_bits}b") for f in schema.fields
    )
    assert len(bits) == 8 * schema.total_bytes
    return int(bits, 2).to_bytes(schema.total_bytes, "big")


def oracle_decode(schema, data):
    bits = format(
        int.from_bytes(data[: schema.total_bytes], "big"), f"0{8 * schema.total_bytes}b"
    )
    out = {}
    offset = 0
    for f in schema.fields:
        out[f.name] = int(bits[offset : offset + f.width_bits], 2)
        offset += f.width_bits
    return out


# ---------------------------------------------------------------------------
# Shipped schema census
# ---------------------------------------------------------------------------

CENSUS = {
    "hello": (0, 8, 4),
    "barrier_request": (20, 8, 4),
    "barrier_reply": (21, 8, 4),
    "packet_in": (10, 57, 30),
    "flow_removed": (11, 55, 22),
}


def test_builtin_census(registry):
    assert len(registry) == len(CENSUS)
    for name, (code, nbytes, nfields) in CENSUS.items():
        schema = registry.by_name(name)
        assert schema.header_type_code == code
        assert schema.total_bytes == nbytes
        assert len(schema.fields) == nfields


def test_common_header_layout(registry):
    # version u8 at 0, type u8 at 1, length u16 at 2, xid u32 at 4
    for schema in registry:
        names = schema.field_names()[:4]
        assert names == ("version", "type", "length", "xid")
        widths = [f.width_bits for f in schema.fields[:4]]
        assert widths == [8, 8, 16, 32]


def test_header_bytes_on_wire(registry, rng):
    schema = registry.by_name("packet_in")
    values = random_values(schema, rng)
    values.update({"version": 4, "type": 10, "length": 57, "xid": 0xDEADBEEF})
    data = encode(ControlMessage(schema, values))
    assert data[0] == 4
    assert data[1] == 10
    assert int.from_bytes(data[2:4], "big") == 57
    assert int.from_bytes(data[4:8], "big") == 0xDEADBEEF


# ---------------------------------------------------------------------------
# Round trips vs the oracle
# ---------------------------------------------------------------------------

def test_encode_matches_oracle_all_schemas(registry, rng):
    for schema in registry:
        for _ in range(200):
            values = random_values(schema, rng, valid=False)
            msg = ControlMessage(schema, values)
            assert encode(msg) == oracle_encode(schema, values)


def test_decode_matches_oracle(registry, rng):
    for schema in registry:
        for _ in range(200):
            data = bytes(rng.randrange(256) for _ in range(schema.total_bytes))
            assert decode_as(data, schema).values == oracle_decode(schema, data)


def test_round_trip_all_schemas(registry, rng):
    for schema in registry:
        for _ in range(500):
            values = random_values(schema, rng, valid=False)
            msg = ControlMessage(schema, values)
            back = decode_as(encode(msg), schema)
            assert back.values == values


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    rng = random.Random(seed)
    schema = make_schema({"version": 8, "type": 8, "length": 16, "xid": 32, "a": 3, "b": 5})
    values = random_values(schema, rng, valid=False)
    assert decode_as(encode(ControlMessage(schema, values)), schema).values == values


def test_field_isolation(packet_in, rng):
    """Changing one field flips only that field's bit span."""
    values = random_values(packet_in, rng)
    base = encode(ControlMessage(packet_in, values))
    shift = 8 * packet_in.total_bytes  # fields fill the message from its top bit down
    for spec in packet_in.fields:
        new = (values[spec.name] + 1) % (spec.raw_max + 1)
        changed = encode(
            ControlMessage(packet_in, {**values, spec.name: new})
        )
        diff = int.from_bytes(base, "big") ^ int.from_bytes(changed, "big")
        shift -= spec.width_bits
        span = spec.raw_max << shift
        assert diff != 0
        assert diff & ~span == 0


def test_decode_tolerates_trailing_bytes(registry, rng):
    schema = registry.by_name("hello")
    values = random_values(schema, rng)
    data = encode(ControlMessage(schema, values)) + b"\xff" * 9
    assert decode_as(data, schema).values == values


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

def test_decode_needs_header(registry):
    with pytest.raises(TruncatedMessageError):
        decode_as(b"\x04\x00\x00", registry.by_name("hello"))


def test_decode_truncated_body(registry):
    # packet_in is 57 bytes but only the header arrives
    data = bytes([4, 10, 0, 57, 0, 0, 0, 1])
    with pytest.raises(TruncatedMessageError):
        decode_as(data, registry.by_name("packet_in"))


def test_encode_rejects_overflow():
    schema = make_schema({"a": 4, "b": 4})
    with pytest.raises(ValueOverflowError):
        encode(ControlMessage(schema, {"a": 16, "b": 0}))
    with pytest.raises(ValueOverflowError):
        encode(ControlMessage(schema, {"a": 1}))  # missing b


def test_schema_rejects_width_mismatch():
    with pytest.raises(SchemaValidationError):
        MessageSchema("bad", 1, 3, (FieldSpec("a", 8, 0, 255),))


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaValidationError):
        MessageSchema(
            "bad", 1, 2,
            (FieldSpec("a", 8, 0, 255), FieldSpec("a", 8, 0, 255)),
        )


def test_schema_rejects_domain_overflow():
    with pytest.raises(SchemaValidationError):
        MessageSchema("bad", 1, 1, (FieldSpec("a", 8, 0, 256),))


def test_schema_rejects_unaligned_total():
    # 12 bits of fields fill no whole number of bytes
    with pytest.raises(SchemaValidationError):
        MessageSchema("bad", 1, 2, (FieldSpec("a", 12, 0, 4095),))
    with pytest.raises(SchemaValidationError):
        MessageSchema("bad", 1, 1, (FieldSpec("a", 12, 0, 4095),))


def test_registry_rejects_duplicate_type_codes():
    # the proxy and the switch driver recognise frames by the type byte
    one = make_schema({"a": 8}, type_name="one", code=7)
    two = make_schema({"b": 8}, type_name="two", code=7)
    with pytest.raises(SchemaValidationError, match="header_type_code"):
        SchemaRegistry((one, two))


def test_values_must_fit_domain_vs_raw():
    # domain narrower than raw width is fine; raw values outside the
    # domain still encode (the wire does not know about domains)
    schema = make_schema({"v": 8}, domains={"v": (1, 6)})
    assert encode(ControlMessage(schema, {"v": 200})) == bytes([200])


# ---------------------------------------------------------------------------
# Schema documents
# ---------------------------------------------------------------------------

def test_load_schemas_empty():
    assert len(load_schemas(None)) == 0
    assert len(load_schemas({})) == 0


def test_load_schema_file_round_trip(tmp_path, registry):
    import importlib.resources as resources

    text = resources.files("rulefuzz.data").joinpath("openflow13.yaml").read_text()
    p = tmp_path / "schemas.yaml"
    p.write_text(text)
    loaded = load_schema_file(p)
    assert len(loaded) == len(registry)
    for schema in registry:
        other = loaded.by_name(schema.type_name)
        assert other.fields == schema.fields


def test_registry_lookup_errors(registry):
    with pytest.raises(UnknownMessageTypeError, match="'nope'"):
        registry.by_name("nope")
    assert "packet_in" in registry
    assert "nope" not in registry
