"""Bit-exact codec for fixed-size control messages.

Message layouts are declarative: a schema lists ordered fields with bit
widths, and the byte offsets follow from the order.  Encoding packs field
values big-endian (network order) into a single contiguous bit string;
decoding is the exact inverse.  Nothing here knows about fuzzing or the
wire protocol semantics -- retargeting to another message family is a
matter of shipping a different schema document.

Every message starts with the common 8-byte header (version, type,
length, xid).  The proxy and the switch driver recognise frames by the
type byte, so a registry gives each schema its own type code.  Decoding
always names its schema: a fuzzed header may carry any type byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping

import yaml

HEADER_BYTES = 8


class SchemaValidationError(Exception):
    """A schema document violates a structural invariant."""


class UnknownMessageTypeError(LookupError):
    """No schema is registered under the message type name."""


class TruncatedMessageError(Exception):
    """Fewer bytes than the schema requires."""


class ValueOverflowError(Exception):
    """A field value does not fit in the field's declared width."""


@dataclass(frozen=True)
class FieldSpec:
    """One contiguous big-endian unsigned integer field."""

    name: str
    width_bits: int
    domain_lo: int
    domain_hi: int

    @property
    def raw_max(self) -> int:
        """Largest value representable in width_bits."""
        return (1 << self.width_bits) - 1


@dataclass(frozen=True)
class MessageSchema:
    """Ordered field layout for one message type.

    Each field starts where the one before it ends.  Validated on
    construction: widths summing to 8 * total_bytes, unique names, and
    domains that fit their widths.
    """

    type_name: str
    header_type_code: int
    total_bytes: int
    fields: tuple[FieldSpec, ...]

    def __post_init__(self) -> None:
        self._validate()
        object.__setattr__(self, "_by_name", {f.name: f for f in self.fields})
        # the wire layout that encode and decode_as read: (name, shift, mask) per field
        layout = []
        shift = 8 * self.total_bytes
        for f in self.fields:
            shift -= f.width_bits
            layout.append((f.name, shift, f.raw_max))
        object.__setattr__(self, "_layout", tuple(layout))

    def _validate(self) -> None:
        if not self.type_name:
            raise SchemaValidationError("schema needs a nonempty type_name")
        if not 0 <= self.header_type_code <= 0xFF:
            raise SchemaValidationError(
                f"{self.type_name}: header_type_code {self.header_type_code} not a byte"
            )
        seen: set[str] = set()
        for f in self.fields:
            if f.name in seen:
                raise SchemaValidationError(f"{self.type_name}: duplicate field {f.name!r}")
            seen.add(f.name)
            if f.width_bits < 1:
                raise SchemaValidationError(f"{self.type_name}.{f.name}: width must be >= 1 bit")
            if not 0 <= f.domain_lo <= f.domain_hi <= f.raw_max:
                raise SchemaValidationError(
                    f"{self.type_name}.{f.name}: domain [{f.domain_lo}, {f.domain_hi}] "
                    f"invalid for width {f.width_bits}"
                )
        bits = sum(f.width_bits for f in self.fields)
        if bits == 0 or bits != 8 * self.total_bytes:
            raise SchemaValidationError(
                f"{self.type_name}: field widths sum to {bits} bits, "
                f"schema says {self.total_bytes} bytes"
            )

    def field(self, name: str) -> FieldSpec:
        return self._by_name[name]  # type: ignore[attr-defined]

    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        # equal schemas share these two; hashing every field on each
        # lookup would cost a cache keyed by schema more than it saves
        return hash((self.type_name, self.header_type_code))


@dataclass(frozen=True, eq=True)
class ControlMessage:
    """A decoded message: schema plus a full field-name -> value map."""

    schema: MessageSchema
    values: dict[str, int]

    def with_values(self, updates: Mapping[str, int]) -> "ControlMessage":
        """Copy with some fields replaced; unknown names are rejected."""
        by_name = self.schema._by_name  # type: ignore[attr-defined]
        for name in updates:
            if name not in by_name:
                raise KeyError(f"{self.schema.type_name} has no field {name!r}")
        merged = dict(self.values)
        merged.update(updates)
        return ControlMessage(self.schema, merged)


@dataclass(frozen=True)
class SchemaRegistry:
    """Immutable lookup of schemas by type name; type codes are unique."""

    schemas: tuple[MessageSchema, ...]

    def __post_init__(self) -> None:
        by_name: dict[str, MessageSchema] = {}
        code_owner: dict[int, str] = {}
        for s in self.schemas:
            if s.type_name in by_name:
                raise SchemaValidationError(f"duplicate type_name {s.type_name!r}")
            if s.header_type_code in code_owner:
                raise SchemaValidationError(
                    f"duplicate header_type_code {s.header_type_code} "
                    f"({code_owner[s.header_type_code]!r} vs {s.type_name!r})"
                )
            by_name[s.type_name] = s
            code_owner[s.header_type_code] = s.type_name
        object.__setattr__(self, "_by_name", by_name)

    def by_name(self, type_name: str) -> MessageSchema:
        try:
            return self._by_name[type_name]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownMessageTypeError(f"no schema for message type {type_name!r}") from None

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._by_name  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[MessageSchema]:
        return iter(self.schemas)

    def __len__(self) -> int:
        return len(self.schemas)


def encode(msg: ControlMessage) -> bytes:
    """Pack field values into big-endian bytes, most significant field first."""
    schema, values = msg.schema, msg.values
    acc = 0
    for name, shift, mask in schema._layout:  # type: ignore[attr-defined]
        try:
            value = values[name]
        except KeyError:
            raise ValueOverflowError(f"{schema.type_name}.{name}: missing value") from None
        if not 0 <= value <= mask:
            raise ValueOverflowError(
                f"{schema.type_name}.{name}: value {value} does not fit "
                f"in {mask.bit_length()} bits"
            )
        acc |= value << shift
    return acc.to_bytes(schema.total_bytes, "big")


def decode_as(data: bytes, schema: MessageSchema) -> ControlMessage:
    """Decode one message against a known schema, ignoring the type byte.

    Useful when the expected layout is fixed by protocol context and the
    header may carry arbitrary (possibly corrupted) values.  Trailing
    bytes beyond the schema span are ignored.
    """
    if len(data) < schema.total_bytes:
        raise TruncatedMessageError(
            f"{schema.type_name} needs {schema.total_bytes} bytes, got {len(data)}"
        )
    acc = int.from_bytes(data[: schema.total_bytes], "big")
    layout = schema._layout  # type: ignore[attr-defined]
    return ControlMessage(schema, {name: (acc >> shift) & mask for name, shift, mask in layout})


# ---------------------------------------------------------------------------
# Schema documents
# ---------------------------------------------------------------------------

def load_schemas(document: Mapping | None) -> SchemaRegistry:
    """Build a registry from a parsed schema document.

    An empty or None document yields an empty registry.  Structural
    problems raise SchemaValidationError.
    """
    if not document:
        return SchemaRegistry(())
    entries = document.get("schemas") or ()
    schemas = []
    for entry in entries:
        try:
            fields = tuple(
                FieldSpec(
                    name=str(fd["name"]),
                    width_bits=int(fd["width_bits"]),
                    domain_lo=int(fd["domain_lo"]),
                    domain_hi=int(fd["domain_hi"]),
                )
                for fd in entry["fields"]
            )
            schemas.append(
                MessageSchema(
                    type_name=str(entry["type_name"]),
                    header_type_code=int(entry["header_type_code"]),
                    total_bytes=int(entry["total_bytes"]),
                    fields=fields,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaValidationError(f"malformed schema entry: {exc}") from exc
    return SchemaRegistry(tuple(schemas))


def load_schema_file(path: str | Path) -> SchemaRegistry:
    """Load a YAML schema document from disk."""
    text = Path(path).read_text(encoding="utf-8")
    return load_schemas(yaml.safe_load(text))


@lru_cache(maxsize=1)
def builtin_registry() -> SchemaRegistry:
    """The OpenFlow-1.3-flavored schemas bundled with the package."""
    text = resources.files("rulefuzz.data").joinpath("openflow13.yaml").read_text("utf-8")
    return load_schemas(yaml.safe_load(text))
