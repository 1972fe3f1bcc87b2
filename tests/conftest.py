import random

import numpy as np
import pytest

import rulefuzz.pool as pool
from rulefuzz.codec import FieldSpec, MessageSchema, SchemaRegistry, builtin_registry
from rulefuzz.dataset import PRESENCE
from rulefuzz.sampler import evaluate


@pytest.fixture(scope="session")
def registry() -> SchemaRegistry:
    return builtin_registry()


@pytest.fixture(scope="session")
def packet_in(registry) -> MessageSchema:
    return registry.by_name("packet_in")


def make_schema(widths, domains=None, type_name="tiny", code=200):
    """Convenience builder for synthetic schemas in tests.

    widths: {name: bits}; domains: {name: (lo, hi)} with raw range default.
    A schema must be byte-aligned, so pick widths accordingly.
    """
    domains = domains or {}
    fields = []
    for name, width in widths.items():
        lo, hi = domains.get(name, (0, (1 << width) - 1))
        fields.append(FieldSpec(name, width, lo, hi))
    return MessageSchema(type_name, code, sum(widths.values()) // 8, tuple(fields))


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the process pool share calls between n CPUs, with fresh
    workers; the workers are stopped again after the test."""
    def use(n):
        pool._stop_workers()
        monkeypatch.setattr(pool, "processes", lambda: n)
    yield use
    pool._stop_workers()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_values(schema, rng, valid=True):
    if valid:
        return {f.name: rng.randint(f.domain_lo, f.domain_hi) for f in schema.fields}
    return {f.name: rng.randrange(f.raw_max + 1) for f in schema.fields}


def classify(ruleset, values):
    """Scalar first-match prediction: the first matching minority rule wins."""
    for rule in ruleset.minority_rules:
        if evaluate(rule.condition, values):
            return rule.prediction
    return ruleset.default_rule.prediction


def predict_rows(ruleset, rows):
    """classify over a list of value dicts, as an array; True means presence."""
    return np.array([classify(ruleset, values) == PRESENCE for values in rows], dtype=bool)
