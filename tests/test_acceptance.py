"""Acceptance gate: one test per release criterion.

Each test prints a single ``[criterion NN] name: PASS|FAIL`` line so the
suite output doubles as the release checklist.  The three campaign-backed
criteria share module-scoped fixtures; everything else runs standalone in
a few seconds.
"""
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from rulefuzz.codec import ControlMessage, builtin_registry, decode_as, encode
from rulefuzz.dataset import LabeledDataset
from rulefuzz.fuzzer import apply_plan, make_guided_plan
from rulefuzz.learner import RipperParams, learn
from rulefuzz.orchestrator import CampaignConfig, run_campaign
from rulefuzz.planner import distribute_quotas, estimate_class_targets
from rulefuzz.rules import Atom, Condition, DecisionRule, parse_condition
from rulefuzz.sampler import UnsatisfiableError, intervals_for, solve
from rulefuzz.sut import default_message, default_oracle

from .conftest import make_schema, predict_rows

REGISTRY = builtin_registry()
PACKET_IN = REGISTRY.by_name("packet_in")

ACCEPT_SEED = 8
ITERATIONS = 20
N_PER_ITERATION = 200
LABEL_NOISE = 0.02
HOLDOUT_SIZE = 5000


@pytest.fixture
def check(capsys):
    """Verdict printer that bypasses output capture, so the checklist line
    shows up in plain ``pytest -v`` output."""

    def _check(num: int, name: str, ok: bool, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}"
        with capsys.disabled():
            print(f"\n{line}")
        assert ok, f"criterion {num} ({name}) failed{suffix}"

    return _check


def campaign_config(out_dir, mode):
    return CampaignConfig(
        out_dir=out_dir,
        mode=mode,
        n=N_PER_ITERATION,
        iterations=ITERATIONS,
        seed=ACCEPT_SEED,
        plateau_window=0,
        oracle=replace(default_oracle(), noise_rate=LABEL_NOISE),
    )


@pytest.fixture(scope="module")
def guided_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("guided")
    start = time.monotonic()
    report = run_campaign(campaign_config(out, "guided"))
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def guided_rerun(tmp_path_factory):
    out = tmp_path_factory.mktemp("guided_again")
    return run_campaign(campaign_config(out, "guided"))


@pytest.fixture(scope="module")
def random_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("random")
    return run_campaign(campaign_config(out, "random"))


def holdout_quality(ruleset):
    """Precision and recall of presence predictions on fresh uniform draws,
    scored against the noise-free ground truth."""
    oracle = default_oracle()
    rng = Random("acceptance/holdout")
    rows = [
        {f.name: rng.randrange(f.raw_max + 1) for f in PACKET_IN.fields}
        for _ in range(HOLDOUT_SIZE)
    ]
    tp = fp = fn = 0
    for values, predicted in zip(rows, predict_rows(ruleset, rows)):
        truth = oracle.matches(values)
        tp += predicted and truth
        fp += predicted and not truth
        fn += (not predicted) and truth
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, tp + fn


def test_criterion_01_planner_trajectory(check):
    table = [
        (200, 10, 190, 10),
        (400, 125, 175, 25),
        (600, 248, 152, 48),
        (800, 380, 120, 80),
        (1000, 495, 105, 95),
        (1200, 600, 100, 100),
    ]
    ok = True
    for total, minor, want_minor, want_major in table:
        got = estimate_class_targets(total, minor, n=200)
        ok = ok and got == (want_minor, want_major, None)
    check(1, "planner_trajectory", ok)


def test_criterion_02_quota_distribution(check):
    minority = distribute_quotas([0.8, 0.7], 190)
    majority = distribute_quotas([0.8], 10)
    check(
        2,
        "quota_distribution",
        minority == [101, 89] and majority == [10],
        f"minority={minority} majority={majority}",
    )


def test_criterion_03_rule_confidence(check):
    rule = DecisionRule(parse_condition("a >= 1"), "presence", t=88, f=7)
    delta = abs(rule.confidence - 81 / 88)
    check(3, "rule_confidence", delta <= 1e-12, f"delta={delta:.2e}")


def test_criterion_04_codec_census_round_trip(check):
    census = {
        "hello": (0, 8, 4),
        "barrier_request": (20, 8, 4),
        "barrier_reply": (21, 8, 4),
        "packet_in": (10, 57, 30),
        "flow_removed": (11, 55, 22),
    }
    ok = {s.type_name for s in REGISTRY.schemas} == set(census)
    for schema in REGISTRY.schemas:
        code, total_bytes, field_count = census[schema.type_name]
        ok = ok and (
            schema.header_type_code == code
            and schema.total_bytes == total_bytes
            and len(schema.fields) == field_count
        )
    rng = Random("acceptance/roundtrip")
    trips = 0
    for schema in REGISTRY.schemas:
        for _ in range(10_000):
            values = {f.name: rng.randrange(f.raw_max + 1) for f in schema.fields}
            frame = encode(ControlMessage(schema, values))
            ok = ok and len(frame) == schema.total_bytes
            ok = ok and decode_as(frame, schema).values == values
            trips += 1
            if not ok:
                break
    check(4, "codec_census_round_trip", ok, f"{trips} round trips")


def test_criterion_05_sampler_exhaustive_equivalence(check):
    schema = make_schema({"a": 4, "b": 4, "c": 4, "d": 4})
    names = ("a", "b", "c", "d")
    rng = Random("acceptance/sampler")
    start = time.monotonic()
    ok = True
    for _ in range(1000):
        atoms = tuple(
            Atom(rng.choice(names), rng.choice(("<=", ">=")), rng.randrange(16))
            for _ in range(rng.randrange(5))
        )
        cond = Condition(atoms)
        # independent oracle: scan every field value against every atom
        allowed = {
            name: [
                v
                for v in range(16)
                if all(
                    (v <= a.value if a.op == "<=" else v >= a.value)
                    for a in atoms
                    if a.field == name
                )
            ]
            for name in names
        }
        expected_count = 1
        for name in names:
            expected_count *= len(allowed[name])

        sizes = {iv.field: iv.size for iv in intervals_for(cond, schema)}
        got_count = 1
        for name in names:
            got_count *= sizes.get(name, 16)
        ok = ok and got_count == expected_count

        if expected_count == 0:
            try:
                solve(cond, schema, rng)
                ok = False
            except UnsatisfiableError:
                pass
        else:
            constrained = {a.field for a in atoms}
            for _ in range(3):
                solution = solve(cond, schema, rng)
                ok = ok and set(solution) == constrained
                ok = ok and all(v in allowed[n] for n, v in solution.items())
    elapsed = time.monotonic() - start
    check(
        5,
        "sampler_exhaustive_equivalence",
        ok and elapsed < 60,
        f"1000 conditions in {elapsed:.1f}s",
    )


def test_criterion_06_learner_planted_rule_recovery(check):
    schema = make_schema({"a": 8, "b": 8, "c": 8})
    truth = parse_condition("a >= 200 AND b <= 40")

    def matches(values):
        return values["a"] >= 200 and values["b"] <= 40

    rng = Random("acceptance/learner")
    dataset = LabeledDataset(("a", "b", "c"))
    want = {True: 1000, False: 1000}
    while want[True] or want[False]:
        values = {n: rng.randrange(256) for n in ("a", "b", "c")}
        hit = matches(values)
        if want[hit]:
            want[hit] -= 1
            dataset.append(values, "presence" if hit else "absence")

    ruleset = learn(dataset, RipperParams(seed=0))
    rows = [{n: rng.randrange(256) for n in ("a", "b", "c")} for _ in range(5000)]
    tp = fp = fn = 0
    for values, predicted in zip(rows, predict_rows(ruleset, rows)):
        hit = matches(values)
        tp += predicted and hit
        fp += predicted and not hit
        fn += (not predicted) and hit
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    check(
        6,
        "learner_planted_rule_recovery",
        precision >= 0.99 and recall >= 0.99,
        f"precision={precision:.4f} recall={recall:.4f}",
    )


def test_criterion_07_guided_campaign_quality(check, guided_run):
    report, elapsed = guided_run
    # the planted failure must be rare under unguided domain-valid fuzzing:
    # each field is fuzzed with probability 1/2, then drawn from its domain
    rate = Fraction(1)
    for atom in default_oracle().condition.atoms:
        spec = PACKET_IN.field(atom.field)
        width = spec.domain_hi - spec.domain_lo + 1
        hits = max(0, spec.domain_hi - max(atom.value, spec.domain_lo) + 1)
        rate *= Fraction(1, 2) * Fraction(hits, width)
    precision, recall, positives = holdout_quality(report.ruleset)
    ok = (
        rate <= Fraction(1, 100)
        and len(report.dataset) == ITERATIONS * N_PER_ITERATION
        and precision >= 0.95
        and recall >= 0.80
        and elapsed < 600
    )
    check(
        7,
        "guided_campaign_quality",
        ok,
        f"hit_rate={float(rate):.4%} precision={precision:.3f} "
        f"recall={recall:.3f} positives={positives} elapsed={elapsed:.0f}s",
    )


def test_criterion_08_guided_vs_random_yield(check, guided_run, random_run):
    guided_presence = guided_run[0].dataset.class_counts()["presence"]
    random_presence = random_run.dataset.class_counts()["presence"]
    ratio = guided_presence / max(random_presence, 1)
    check(
        8,
        "guided_vs_random_yield",
        ratio >= 10.0,
        f"guided={guided_presence} random={random_presence} ratio={ratio:.1f}x",
    )


def test_criterion_09_balanced_accumulation_after_clamp(check, guided_run):
    report, _ = guided_run
    first_clamp = next((r.iteration for r in report.iterations if r.clamp), None)
    if first_clamp is None:
        final = report.iterations[-1]
        total = final.cumulative_presence + final.cumulative_absence
        share = min(final.cumulative_presence, final.cumulative_absence) / total
        check(
            9,
            "balanced_accumulation_after_clamp",
            True,
            "no clamp activated; unclamped targets held the minority share "
            f"at {share:.3f}",
        )
        return
    fractions = []
    for record in report.iterations:
        if record.iteration >= first_clamp:
            total = record.cumulative_presence + record.cumulative_absence
            minority = min(record.cumulative_presence, record.cumulative_absence)
            fractions.append(minority / total)
    ok = all(0.45 <= f <= 0.55 for f in fractions)
    check(
        9,
        "balanced_accumulation_after_clamp",
        ok,
        f"first_clamp=iteration {first_clamp} "
        f"shares={[round(f, 3) for f in fractions]}",
    )


def test_criterion_10_guided_fuzz_rule_adherence(check):
    rule = DecisionRule(
        parse_condition("cookie_hi >= 4211081216 AND version >= 5"),
        "presence",
        t=10,
        f=0,
    )
    rule_fields = set(rule.condition.fields())
    template = default_message(PACKET_IN)
    rng = Random("acceptance/guided")
    mutation_rate = 1.0 / len(PACKET_IN.fields)
    ok = True
    for _ in range(10_000):
        plan = make_guided_plan(PACKET_IN, rule, mutation_rate, rng)
        ok = ok and rule_fields.issubset(plan.replacements)
        ok = ok and not (rule_fields & set(plan.mutations))
        fuzzed, _ = apply_plan(template, plan)
        ok = ok and (
            fuzzed.values["cookie_hi"] >= 4211081216 and fuzzed.values["version"] >= 5
        )
        if not ok:
            break
    check(10, "guided_fuzz_rule_adherence", ok, "10000 plans")


def test_criterion_11_campaign_reproducibility(check, guided_run, guided_rerun):
    first = guided_run[0].out_dir
    second = guided_rerun.out_dir
    same = {
        name: (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("dataset.csv", "report.json", "ruleset.txt")
    }
    check(
        11,
        "campaign_reproducibility",
        all(same.values()),
        "byte-identical: " + ", ".join(sorted(same)),
    )
