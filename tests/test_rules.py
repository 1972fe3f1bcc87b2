"""Rule text round trips must be bit-exact for floats."""
import pytest

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
    rule = DecisionRule.build(parse_condition("a >= 1"), "presence", t=88, f=7)
    assert rule.confidence == (88 - 7) / 88
    zero = DecisionRule.build(Condition(), "absence", t=0, f=0)
    assert zero.confidence == 0.0


def test_format_rule_shape():
    rule = DecisionRule.build(parse_condition("reason >= 8"), "presence", t=10, f=1)
    text = format_rule(rule)
    assert text == "IF reason >= 8 THEN class=presence (t=10, f=1, confidence=0.9)"


def test_round_trip_is_bit_exact():
    # confidences that do not print prettily must survive the round trip
    rules = (
        DecisionRule.build(parse_condition("version >= 6 AND reason >= 8"), "presence", 10, 8),
        DecisionRule.build(parse_condition("table_id <= 3"), "presence", 3, 1),
    )
    default = DecisionRule.build(Condition(), "absence", 977, 13)
    rs = RuleSet(rules, default)
    back = parse_ruleset(format_ruleset(rs))
    assert back == rs
    for orig, parsed in zip(rs.minority_rules, back.minority_rules):
        assert parsed.confidence == orig.confidence  # no precision loss


def test_parse_ruleset_bare_default():
    rs = parse_ruleset("ELSE class=absence\n")
    assert rs.is_degenerate
    assert rs.default_rule == DecisionRule(Condition(), "absence", t=0, f=0, confidence=0.0)
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
    default = DecisionRule.build(Condition(), "absence", 100, 0)
    assert format_default(default) == "ELSE class=absence (t=100, f=0, confidence=1.0)"


def test_minority_conditions():
    rules = (
        DecisionRule.build(parse_condition("a >= 1"), "presence", 5, 0),
        DecisionRule.build(parse_condition("b <= 2"), "presence", 4, 0),
    )
    rs = RuleSet(rules, DecisionRule.build(Condition(), "absence", 10, 0))
    assert rs.minority_conditions() == (rules[0].condition, rules[1].condition)


def test_atom_str():
    assert str(Atom("version", ">=", 6)) == "version >= 6"
