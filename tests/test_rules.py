"""Rule text round trips must be bit-exact for floats."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefuzz.dataset import LABELS
from rulefuzz.rules import (
    OPS,
    Atom,
    Condition,
    DecisionRule,
    RuleParseError,
    RuleSet,
    format_default,
    format_rule,
    format_ruleset,
    parse_condition,
    parse_ruleset,
)


def test_parse_condition_operators():
    for text in (
        "a <= 5 AND b >= 3 AND c = 1 AND d != 0 AND e < 9 AND f > 2",
        "a<=5 AND b>=3 AND c=1 AND d!=0 AND e<9 AND f>2",
    ):
        cond = parse_condition(text)
        assert [a.op for a in cond.atoms] == ["<=", ">=", "=", "!=", "<", ">"]
        assert [a.field for a in cond.atoms] == list("abcdef")
        assert [a.value for a in cond.atoms] == [5, 3, 1, 0, 9, 2]
    assert parse_condition("a >= -3").atoms == (Atom("a", ">=", -3),)
    for op in OPS:
        cond = Condition((Atom("a", op, 7), Atom("b", op, -2)))
        assert parse_condition(str(cond)) == cond


def test_parse_condition_rejects_garbage():
    for bad in ("a ~ 5", "a <=", "AND a <= 5", "a <= 5 AND", "a 5", "<= 5"):
        with pytest.raises(RuleParseError):
            parse_condition(bad)


def test_parse_condition_empty_is_empty_condition():
    # blank text is the always-true condition used by default rules
    assert parse_condition("") == Condition()
    assert parse_condition("  ") == Condition()


def test_condition_fields_ordered_unique():
    cond = parse_condition("b >= 1 AND a <= 2 AND b <= 9")
    assert cond.fields() == ("b", "a")


def test_empty_condition_is_vacuous():
    assert Condition().is_empty
    assert str(Condition()) == ""


def test_confidence_formula():
    rule = DecisionRule(parse_condition("a >= 1"), "presence", t=88, f=7)
    assert rule.confidence == (88 - 7) / 88
    zero = DecisionRule(Condition(), "absence", t=0, f=0)
    assert zero.confidence == 0.0


def test_format_rule_shape():
    rule = DecisionRule(parse_condition("reason >= 8"), "presence", t=10, f=1)
    text = format_rule(rule)
    assert text == "IF reason >= 8 THEN class=presence (t=10, f=1, confidence=0.9)"


def test_round_trip_is_bit_exact():
    # confidences that do not print prettily must survive the round trip
    rules = (
        DecisionRule(parse_condition("version >= 6 AND reason >= 8"), "presence", 10, 8),
        DecisionRule(parse_condition("table_id <= 3"), "presence", 3, 1),
    )
    default = DecisionRule(Condition(), "absence", 977, 13)
    rs = RuleSet(rules, default)
    back = parse_ruleset(format_ruleset(rs))
    assert back == rs
    for orig, parsed in zip(rs.minority_rules, back.minority_rules):
        assert parsed.confidence == orig.confidence  # no precision loss


def test_parse_ruleset_bare_default():
    rs = parse_ruleset("ELSE class=absence\n")
    assert rs.is_degenerate
    assert rs.default_rule == DecisionRule(Condition(), "absence", t=0, f=0)
    assert rs.default_rule.confidence == 0.0
    # only the default may leave its statistics out
    with pytest.raises(RuleParseError):
        parse_ruleset("IF a >= 1 THEN class=presence\nELSE class=absence\n")


def test_parse_ruleset_skips_comments_and_blanks():
    text = (
        "# message_type: packet_in\n"
        "\n"
        "IF a >= 1 THEN class=presence (t=5, f=0, confidence=1.0)\n"
        "ELSE class=absence (t=20, f=2, confidence=0.9)\n"
    )
    rs = parse_ruleset(text)
    assert len(rs.minority_rules) == 1
    assert rs.default_rule.f == 2


def test_parse_ruleset_requires_default_last():
    with pytest.raises(RuleParseError):
        parse_ruleset("IF a >= 1 THEN class=presence (t=5, f=0, confidence=1.0)\n")
    with pytest.raises(RuleParseError):
        parse_ruleset("")


def test_format_default_shape():
    default = DecisionRule(Condition(), "absence", 100, 0)
    assert format_default(default) == "ELSE class=absence (t=100, f=0, confidence=1.0)"


def test_minority_conditions():
    rules = (
        DecisionRule(parse_condition("a >= 1"), "presence", 5, 0),
        DecisionRule(parse_condition("b <= 2"), "presence", 4, 0),
    )
    rs = RuleSet(rules, DecisionRule(Condition(), "absence", 10, 0))
    assert rs.minority_conditions() == (rules[0].condition, rules[1].condition)


def test_atom_str():
    assert str(Atom("version", ">=", 6)) == "version >= 6"


_CONSTANTS = st.one_of(
    st.integers(-(2**70), -1), st.integers(0, 2**64 - 1), st.integers(2**64, 2**80)
)
_CONDITIONS = st.builds(
    Condition,
    st.lists(
        st.builds(Atom, st.sampled_from(("a", "b", "cookie_hi", "f2")),
                  st.sampled_from(tuple(OPS)), _CONSTANTS),
        min_size=1, max_size=4,
    ).map(tuple),
)


@st.composite
def _rules(draw, condition):
    t = draw(st.integers(0, 10**6) | st.just(0))
    return DecisionRule(draw(condition), draw(st.sampled_from(LABELS)),
                        t, draw(st.integers(0, t)))


@settings(max_examples=300, deadline=None)
@given(st.builds(RuleSet, st.lists(_rules(_CONDITIONS), max_size=4).map(tuple),
                 _rules(st.just(Condition()))))
def test_format_then_parse_is_identity_property(rs):
    back = parse_ruleset(format_ruleset(rs))
    assert back == rs
    for rule in (*back.minority_rules, back.default_rule):
        assert rule.confidence == (0.0 if rule.t == 0 else (rule.t - rule.f) / rule.t)


@pytest.mark.parametrize("line, why", [
    ("IF   THEN class=presence (t=1, f=0, confidence=1.0)", "empty condition"),
    ("IF a >= 1 THEN class=bogus (t=1, f=0, confidence=1.0)", "class must be one of"),
    ("ELSE class=bogus", "class must be one of"),
    ("IF a >= 1 THEN class=presence (t=1, f=2, confidence=-1.0)", "f exceeds t"),
    ("ELSE class=absence (t=3, f=4, confidence=-0.3333333333333333)", "f exceeds t"),
    ("IF a >= 1 THEN class=presence (t=40, f=2, confidence=0.9)", "confidence must be 0.95"),
    ("ELSE class=absence (t=20, f=2, confidence=0.95)", "confidence must be 0.9"),
    ("IF a >= 1 THEN class=presence (t=4, f=0, confidence=nan)", "confidence must be 1.0"),
])
def test_parse_ruleset_rejects_what_format_ruleset_cannot_write(line, why):
    default = "ELSE class=absence (t=5, f=1, confidence=0.8)"
    text = f"{line}\n" if line.startswith("ELSE") else f"{line}\n{default}\n"
    with pytest.raises(RuleParseError, match=re.escape(why)) as caught:
        parse_ruleset(text)
    assert repr(line) in str(caught.value)  # the error names its line
