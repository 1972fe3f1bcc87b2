"""Self-tests of the benchmark: smoke runs, planted defects, the contract.

    python3 -m pytest bench -q

The smoke runs use the tiny shapes of --smoke; the acceptance test runs
the full offline_guided loop once (about 20 s on two cores).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import report  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_cmd(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), *args]


def last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# The contract
# ---------------------------------------------------------------------------

def test_spec_names_match_the_report():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == report.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        bench_cmd("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", trace, "--smoke"),
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = last_line(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    names = report.PER_LAYER if trace == "1" else report.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == names
    if trace == "0":
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "live_sessions", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# Planted defects
# ---------------------------------------------------------------------------

def _corrupt_dataset(monkeypatch, corrupt):
    """Make every campaign's dataset.csv pass through `corrupt` once written."""
    real = workloads.orchestrator.run_campaign

    def planted(config):
        result = real(config)
        path = Path(config.out_dir) / "dataset.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(corrupt(lines)), encoding="utf-8")
        return result

    monkeypatch.setattr(workloads.orchestrator, "run_campaign", planted)


def _flip_label(lines):
    row = lines[5]
    head, label = row.rstrip("\r\n").rsplit(",", 1)
    other = "absence" if label == "presence" else "presence"
    return lines[:5] + [f"{head},{other}\r\n"] + lines[6:]


def _swap_rows(lines):
    i = next(k for k in range(1, len(lines) - 1) if lines[k] != lines[k + 1])
    return lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]


@pytest.fixture(scope="module")
def live_guided(tmp_path_factory):
    work = tmp_path_factory.mktemp("live_guided")
    return workloads.LiveGuided(3, workloads.SMOKE_SHAPES["live_guided"], work, 2)


def test_live_guided_matches_the_in_process_loop(live_guided):
    unit = live_guided.run()
    assert unit.failures == [] and unit.failed == 0
    assert unit.rows == 40


@pytest.mark.parametrize("corrupt", [_flip_label, _swap_rows])
def test_planted_row_defect_fails_the_row_check(live_guided, monkeypatch, corrupt):
    _corrupt_dataset(monkeypatch, corrupt)
    unit = live_guided.run()
    assert unit.failed == 1
    assert any("dataset.csv differs" in f for f in unit.failures)


def test_row_mismatches_names_the_planted_lines():
    lines = ["h\r\n", "1,5,absence\r\n", "1,6,presence\r\n", "1,7,absence\r\n"]
    assert workloads.row_mismatches(lines, lines) == []
    assert workloads.row_mismatches(_flip_label(lines + lines[1:]), lines + lines[1:]) == [5]
    assert workloads.row_mismatches(_swap_rows(lines), lines) == [1, 2]
    assert workloads.row_mismatches(lines[:3], lines) == [3]


def test_planted_flipped_session_label_fails_the_label_check(tmp_path, monkeypatch):
    runner = workloads.LiveSessions(4, workloads.SMOKE_SHAPES["live_sessions"], tmp_path, 2)
    assert runner.run().failed == 0
    real = workloads.sut.observe_label
    flipped = []

    def planted(outcome, noise_rate, rng):
        label = real(outcome, noise_rate, rng)
        if flipped:
            return label
        flipped.append(True)
        return "absence" if label == "presence" else "presence"

    monkeypatch.setattr(workloads.sut, "observe_label", planted)
    unit = runner.run()
    assert unit.failed == 1
    assert any("!= oracle" in f for f in unit.failures)


def test_artifacts_that_differ_across_repeats_fail_the_run():
    args = type("Args", (), {"workload": "offline_guided", "seed": 1, "seconds": 0.0,
                             "trace": 0})()
    a = workloads.Unit(1.0, 10, {"dataset.csv": "a"}, facts={"presence_rows": 1})
    b = workloads.Unit(1.0, 10, {"dataset.csv": "b"}, facts={"presence_rows": 1})
    env = {"nproc": 1, "peak_rss_mb": 1.0}
    full = report.build(args, workloads.Shape(), [a, a], None, [0.1], env)
    assert full["correct"] and full["failed"] == 0
    full = report.build(args, workloads.Shape(), [a, b], None, [0.1], env)
    assert not full["correct"] and full["failed"] == 1


# ---------------------------------------------------------------------------
# Tracing and acceptance numbers
# ---------------------------------------------------------------------------

def test_tracer_restores_every_original():
    orch = workloads.orchestrator
    before = (orch.learn, workloads.learner.learn, orch.InterceptProxy.reserve,
              workloads.dataset_mod.LabeledDataset.to_arrays)
    tracer = Tracer()
    with tracer.active():
        assert orch.learn is not before[0]
        assert orch.learn is workloads.learner.learn
    after = (orch.learn, workloads.learner.learn, orch.InterceptProxy.reserve,
             workloads.dataset_mod.LabeledDataset.to_arrays)
    assert after == before


def test_offline_guided_reproduces_the_acceptance_numbers(tmp_path):
    # any run seed replays the acceptance campaign (seed 8)
    runner = workloads.OfflineGuided(1, workloads.SHAPES["offline_guided"], tmp_path, 2)
    unit = runner.run()
    assert unit.failures == []
    assert unit.facts["presence_rows"] == 2001
    assert round(unit.facts["cv_precision"], 4) == 0.9775
    assert round(unit.facts["cv_recall"], 4) == 0.9775
