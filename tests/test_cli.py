"""Command-line behavior: argument validation, exit codes, artifacts."""
import json
from pathlib import Path

import pytest
import yaml

import rulefuzz
from rulefuzz.cli import main
from rulefuzz.rules import Condition, DecisionRule, RuleSet, format_ruleset, parse_condition

PACKAGED_SCHEMAS = Path(rulefuzz.__file__).parent / "data" / "openflow13.yaml"


def test_campaign_runs_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "campaign", "--n", "10", "--iterations", "2", "--seed", "3",
        "--plateau-window", "0", "--out", str(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "iteration   1" in text
    assert "stop reason: iterations" in text
    assert (out / "report.json").is_file()
    assert (out / "dataset.csv").is_file()
    assert (out / "ruleset.txt").is_file()


def test_campaign_rejects_tiny_n(capsys):
    with pytest.raises(SystemExit) as err:
        main(["campaign", "--n", "5"])
    assert err.value.code == 2
    assert "at least 10 samples" in capsys.readouterr().err


def test_campaign_rejects_bad_mutation_rate(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["campaign", "--mutation-rate", "1.5", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--iterations", "--workers"])
def test_campaign_rejects_nonpositive_counts_before_starting(tmp_path, capsys, flag):
    out = tmp_path / "run"
    assert main(["campaign", flag, "0", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_campaign_rejects_a_negative_budget_before_starting(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["campaign", "--budget-seconds", "-1", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--precision-target", "--recall-target"])
def test_campaign_rejects_a_lone_metric_target_before_starting(tmp_path, capsys, flag):
    # should_stop stops on targets only when both are set
    out = tmp_path / "run"
    assert main(["campaign", flag, "0.9", "--out", str(out)]) == 1
    assert "set together" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--plateau-window", "-1"],
    ["--precision-target", "1.5", "--recall-target", "0.9"],
    ["--budget-seconds", "nan"],
    ["--plateau-epsilon", "nan"],
    ["--seed", "-1"],
])
def test_campaign_rejects_unusable_settings_before_starting(tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert main(["campaign", *flags, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RULEFUZZ_OUT", str(tmp_path / "from_env"))
    monkeypatch.chdir(tmp_path)
    rc = main([
        "campaign", "--n", "10", "--iterations", "1", "--plateau-window", "0",
    ])
    assert rc == 0
    assert (tmp_path / "from_env" / "report.json").is_file()


def test_compare_writes_comparison(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main([
        "compare", "--n", "10", "--iterations", "2", "--seed", "3",
        "--plateau-window", "0", "--out", str(out),
        "--modes", "guided", "random", "guided",
    ])
    assert rc == 0
    summary = json.loads((out / "comparison.json").read_text())
    assert set(summary) == {"guided", "random"}  # duplicate mode collapsed
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("guided") for line in lines)
    assert any(line.startswith("random") for line in lines)


def test_replay_cli_round_trip(tmp_path, capsys):
    rule = DecisionRule.build(parse_condition("cookie_hi >= 99"), "presence", 4, 0)
    ruleset = RuleSet(
        minority_rules=(rule,),
        default_rule=DecisionRule.build(Condition(), "absence", 7, 1),
    )
    saved = tmp_path / "model.txt"
    saved.write_text("# message_type: packet_in\n" + format_ruleset(ruleset))
    out = tmp_path / "corpus"
    rc = main(["replay", str(saved), "--count", "5", "--out", str(out)])
    assert rc == 0
    assert len(list(out.glob("msg_*.bin"))) == 5
    assert json.loads((out / "manifest.json").read_text())["count"] == 5


def test_replay_rejects_a_negative_count(tmp_path, capsys):
    rule = DecisionRule.build(parse_condition("cookie_hi >= 99"), "presence", 4, 0)
    ruleset = RuleSet((rule,), DecisionRule.build(Condition(), "absence", 7, 1))
    saved = tmp_path / "model.txt"
    saved.write_text("# message_type: packet_in\n" + format_ruleset(ruleset))
    out = tmp_path / "corpus"
    assert main(["replay", str(saved), "--count", "-2", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert not out.exists()


def schemas_without_packet_in(tmp_path):
    doc = yaml.safe_load(PACKAGED_SCHEMAS.read_text())
    doc["schemas"] = [s for s in doc["schemas"] if s["type_name"] != "packet_in"]
    path = tmp_path / "schemas.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_campaign_unknown_message_type_is_reported(tmp_path, capsys):
    out = tmp_path / "run"
    schemas = schemas_without_packet_in(tmp_path)
    assert main(["campaign", "--schemas", str(schemas), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_replay_unknown_message_type_is_reported(tmp_path, capsys):
    rule = DecisionRule.build(parse_condition("cookie_hi >= 99"), "presence", 4, 0)
    ruleset = RuleSet((rule,), DecisionRule.build(Condition(), "absence", 7, 1))
    saved = tmp_path / "model.txt"
    saved.write_text("# message_type: packet_in\n" + format_ruleset(ruleset))
    out = tmp_path / "corpus"
    schemas = schemas_without_packet_in(tmp_path)
    assert main(["replay", str(saved), "--schemas", str(schemas), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("header, flags", [
    ("hello", []),
    ("packet_in", ["--message-type", "hello"]),
])
def test_replay_fields_the_message_type_lacks_are_reported(tmp_path, capsys, header, flags):
    rule = DecisionRule.build(parse_condition("cookie_hi >= 99"), "presence", 4, 0)
    ruleset = RuleSet((rule,), DecisionRule.build(Condition(), "absence", 7, 1))
    saved = tmp_path / "model.txt"
    saved.write_text(f"# message_type: {header}\n" + format_ruleset(ruleset))
    out = tmp_path / "corpus"
    assert main(["replay", str(saved), *flags, "--out", str(out)]) == 1
    assert "error: rule set uses fields ['cookie_hi']" in capsys.readouterr().err
    assert not out.exists()


def test_replay_missing_file_is_reported(tmp_path, capsys):
    rc = main(["replay", str(tmp_path / "nope.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_schemas_validate_packaged_document(capsys):
    rc = main(["schemas", "validate", str(PACKAGED_SCHEMAS)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "packet_in: code 10, 57 bytes, 30 fields" in text
    assert "5 message types ok" in text


def test_schemas_validate_rejects_broken_document(tmp_path, capsys):
    doc = yaml.safe_load(PACKAGED_SCHEMAS.read_text())
    # corrupt one declared width so the byte total no longer lines up
    doc["schemas"][0]["fields"][0]["width_bits"] = 3
    broken = tmp_path / "broken.yaml"
    broken.write_text(yaml.safe_dump(doc))
    rc = main(["schemas", "validate", str(broken)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_campaign_with_custom_oracle_file(tmp_path, capsys):
    oracle_doc = {
        "message_type": "packet_in",
        "predicate": "table_id >= 250",
        "failure_mode": "switch_disconnect",
        "noise_rate": 0.0,
    }
    path = tmp_path / "oracle.yaml"
    path.write_text(yaml.safe_dump(oracle_doc))
    out = tmp_path / "run"
    rc = main([
        "campaign", "--n", "10", "--iterations", "1", "--plateau-window", "0",
        "--oracle", str(path), "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["oracle"]["predicate"] == "table_id >= 250"
