"""Rule induction: recovery of planted predicates, stats, and cross-validation."""

import itertools
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rulefuzz.learner as learner
from rulefuzz.dataset import ABSENCE, PRESENCE, LabeledDataset
from rulefuzz.learner import (
    _GAIN_EPS,
    RipperParams,
    _best_atom,
    _encode,
    _rule_mask,
    cross_validate,
    learn,
)
from rulefuzz.rules import (
    OPS,
    Atom,
    Condition,
    DecisionRule,
    RuleSet,
    format_ruleset,
    parse_condition,
)
from rulefuzz.sampler import evaluate, intervals_for

from .conftest import classify, make_schema, predict_rows

WIDE = make_schema({"a": 8, "b": 8, "c": 8})
PLANTED = parse_condition("a >= 200 AND b <= 40")


def draw(schema, rng):
    return {f.name: rng.randrange(f.raw_max + 1) for f in schema.fields}


def balanced_dataset(schema, cond, per_class, rng, flip=0.0):
    ds = LabeledDataset(tuple(f.name for f in schema.fields))
    need = {PRESENCE: per_class, ABSENCE: per_class}
    while any(v > 0 for v in need.values()):
        values = draw(schema, rng)
        label = PRESENCE if evaluate(cond, values) else ABSENCE
        if flip and rng.random() < flip:
            label = ABSENCE if label == PRESENCE else PRESENCE
        if need[label] > 0:
            need[label] -= 1
            ds.append(values, label)
    return ds


def holdout_metrics(ruleset, schema, cond, count, rng):
    rows = [draw(schema, rng) for _ in range(count)]
    tp = fp = fn = 0
    for values, pred in zip(rows, predict_rows(ruleset, rows)):
        truth = evaluate(cond, values)
        tp += pred and truth
        fp += pred and not truth
        fn += (not pred) and truth
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def test_recovers_planted_two_atom_predicate():
    rng = random.Random(101)
    ds = balanced_dataset(WIDE, PLANTED, 1000, rng)
    model = learn(ds)
    assert model.minority_rules, format_ruleset(model)
    precision, recall = holdout_metrics(model, WIDE, PLANTED, 5000, rng)
    assert precision >= 0.99
    assert recall >= 0.99


def test_exact_on_exhaustive_grid():
    # small enough to enumerate every point of the plane
    tiny = make_schema({"a": 4, "b": 4})
    cond = parse_condition("a >= 10 AND b <= 3")
    rng = random.Random(7)
    ds = balanced_dataset(tiny, cond, 300, rng)
    model = learn(ds)
    grid = [{"a": a, "b": b} for a, b in itertools.product(range(16), range(16))]
    mismatches = [
        values
        for values, pred in zip(grid, predict_rows(model, grid))
        if pred != evaluate(cond, values)
    ]
    assert mismatches == []


@st.composite
def labeled_datasets(draw):
    """Datasets over 1-, 8- and 64-bit columns with many tied values.

    Columns may be constant and may hold 0 and 2**64 - 1.  Labels mostly
    follow a median threshold on the column with the most distinct
    values, about 1 in 10 flipped; the rest are random.
    """
    n = draw(st.integers(2, 80))
    columns = {}
    for i, bits in enumerate(draw(st.lists(st.sampled_from((1, 8, 64)),
                                           min_size=1, max_size=4))):
        top = (1 << bits) - 1
        value = st.sampled_from((0, top)) | st.integers(0, top)
        pool = draw(st.lists(value, min_size=1, max_size=5))
        columns[f"f{i}"] = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    noise = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    if draw(st.integers(0, 3)):
        planted = max(columns.values(), key=lambda col: len(set(col)))
        cut = sorted(planted)[n // 2]
        labels = [(v >= cut) != (r == 0) for v, r in zip(planted, noise)]
    else:
        labels = [r % 2 == 0 for r in noise]
    ds = LabeledDataset(tuple(columns))
    for j, label in enumerate(labels):
        ds.append({k: col[j] for k, col in columns.items()}, PRESENCE if label else ABSENCE)
    return ds


@settings(max_examples=200, deadline=None)
@given(ds=labeled_datasets(), seed=st.integers(0, 2**32))
@example(ds=balanced_dataset(WIDE, PLANTED, 400, random.Random(31), flip=0.05), seed=0)
def test_rule_stats_recompute_from_dataset(ds, seed):
    # rule stats come from bin-code masks; a recount through evaluate over
    # the rows' values must give the same integers
    model = learn(ds, RipperParams(seed=seed))
    samples = list(ds)
    minority = ds.minority_label()
    observed = {name: {s.values[name] for s in samples} for name in ds.field_names}
    matched = [False] * len(samples)
    for rule in model.minority_rules:
        hits = [evaluate(rule.condition, s.values) for s in samples]
        t = sum(hits)
        f = sum(hit and s.label != minority for hit, s in zip(hits, samples))
        assert (rule.t, rule.f) == (t, f)
        assert rule.confidence == (t - f) / t
        for atom in rule.condition.atoms:
            assert atom.value in observed[atom.field], atom
        matched = [m or hit for m, hit in zip(matched, hits)]
    # default stats cover exactly the samples no minority rule matched
    uncovered = [s for s, m in zip(samples, matched) if not m]
    assert model.default_rule.t == len(uncovered)
    assert model.default_rule.f == sum(s.label == minority for s in uncovered)


def test_single_class_and_tiny_datasets_degenerate():
    ds = LabeledDataset(("a", "b"))
    for i in range(50):
        ds.append({"a": i % 16, "b": (i * 3) % 16}, ABSENCE)
    model = learn(ds)
    assert model.minority_rules == ()
    assert model.default_rule.prediction == ABSENCE

    one = LabeledDataset(("a",))
    one.append({"a": 1}, PRESENCE)
    assert learn(one).minority_rules == ()

    assert learn(LabeledDataset(("a",))).minority_rules == ()


def test_classify_first_match_order():
    rules = (
        DecisionRule.build(parse_condition("a <= 5"), PRESENCE, 10, 0),
        DecisionRule.build(parse_condition("b >= 2"), PRESENCE, 8, 1),
    )
    rs = RuleSet(rules, DecisionRule.build(Condition(), ABSENCE, 20, 2))
    rows = [{"a": 3, "b": 9}, {"a": 9, "b": 9}, {"a": 9, "b": 0}]
    assert predict_rows(rs, rows).tolist() == [True, True, False]


U64_MAX = 2**64 - 1
SPAN64 = make_schema({"a": 64})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bin_atoms_select_the_rows_their_values_do(data):
    # Fold scoring rests on this: an atom over bin codes holds on exactly
    # the rows whose values satisfy it with the bin's value as constant.
    width = data.draw(st.integers(1, 3))
    value = st.sampled_from((0, U64_MAX)) | st.integers(0, 4) | st.integers(0, U64_MAX)
    rows = data.draw(st.lists(st.lists(value, min_size=width, max_size=width),
                              min_size=1, max_size=12))
    bins = _encode(np.array(rows, dtype=np.uint64))
    drawn = data.draw(st.lists(
        st.tuples(st.integers(0, bins.field.size - 1), st.sampled_from(sorted(OPS))),
        max_size=4,
    ))
    atoms = [(int(bins.field[b]), op, b) for b, op in drawn]
    names = [f"f{i}" for i in range(width)]
    cond = Condition(tuple(Atom(names[f], op, int(bins.value[b])) for f, op, b in atoms))
    mask = _rule_mask(atoms, bins.codes)
    assert mask.tolist() == [evaluate(cond, dict(zip(names, row))) for row in rows]


@settings(max_examples=300, deadline=None)
@given(
    op=st.sampled_from(sorted(OPS)),
    value=st.one_of(
        st.integers(max_value=-1),
        st.just(0),
        st.integers(1, U64_MAX - 1),
        st.just(U64_MAX),
        st.integers(min_value=2**64),
    ),
    rows=st.lists(st.integers(0, U64_MAX), max_size=6),
)
def test_comparators_agree_on_any_constant(op, value, rows):
    # evaluate and the sampler's intervals give one answer, also for
    # constants outside the uint64 range of a field's values
    rows = rows + [0, U64_MAX] + [min(max(value + d, 0), U64_MAX) for d in (-1, 0, 1)]
    cond = Condition((Atom("a", op, value),))
    (interval,) = intervals_for(cond, SPAN64)
    for v in rows:
        want = evaluate(cond, {"a": v})
        assert any(lo <= v <= hi for lo, hi in interval.allowed) == want, (v, op, value)


def test_minority_class_may_be_absence():
    # when absences are rarer the induced rules must predict absence
    rng = random.Random(77)
    ds = LabeledDataset(tuple(f.name for f in WIDE.fields))
    cond = parse_condition("c >= 128")
    added = {PRESENCE: 0, ABSENCE: 0}
    while added[ABSENCE] < 100 or added[PRESENCE] < 300:
        values = draw(WIDE, rng)
        label = ABSENCE if evaluate(cond, values) else PRESENCE
        if added[label] < (100 if label == ABSENCE else 300):
            added[label] += 1
            ds.append(values, label)
    model = learn(ds)
    assert ds.minority_label() == ABSENCE
    assert model.minority_rules
    assert all(r.prediction == ABSENCE for r in model.minority_rules)
    assert model.default_rule.prediction == PRESENCE


def test_cross_validate_separable_and_edge_cases():
    rng = random.Random(13)
    ds = balanced_dataset(WIDE, PLANTED, 300, rng)
    precision, recall = cross_validate(ds, k=10)
    assert precision >= 0.97
    assert recall >= 0.97

    empty_pos = LabeledDataset(("a",))
    for i in range(40):
        empty_pos.append({"a": i % 16}, ABSENCE)
    assert cross_validate(empty_pos, k=10) == (0.0, 0.0)

    small = LabeledDataset(("a",))
    for i in range(5):
        small.append({"a": i}, PRESENCE if i % 2 else ABSENCE)
    # fewer rows than folds: k shrinks to the row count
    assert cross_validate(small, k=10) == cross_validate(small, k=5)
    tiny = LabeledDataset(("a",))
    tiny.append({"a": 1}, PRESENCE)
    assert cross_validate(tiny, k=10) == (0.0, 0.0)  # one row: nothing to hold out

    # k=0 runs no fold and k=1 trains on no row: both would score (0, 0)
    for k in (0, 1):
        with pytest.raises(ValueError, match="k >= 2"):
            cross_validate(ds, k=k)


def fisher_yates(seed, n):
    """Generator.permutation(n) written out over the raw 64-bit stream."""
    bit_generator = np.random.default_rng(seed).bit_generator
    halves = []

    def next_uint32():
        if not halves:
            draw = int(bit_generator.random_raw())
            halves.extend((draw >> 32, draw & 0xFFFFFFFF))  # pop() takes the low half first
        return halves.pop()

    perm = list(range(n))
    for i in reversed(range(1, n)):
        mask = (1 << i.bit_length()) - 1
        while (j := next_uint32() & mask) > i:
            pass
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def test_permutation_is_the_pinned_fisher_yates():
    # fold assignment, and so every CV figure in the artifacts, follows
    # Generator.permutation, whose stream numpy does not promise to keep
    # across releases (NEP 19); a change there fails here first
    for seed in (0, 8, 12345):
        for n in (0, 1, 2, 10, 1000):
            assert np.random.default_rng(seed).permutation(n).tolist() == fisher_yates(seed, n)


def test_cross_validate_uninformative_labels_score_low():
    # labels independent of fields: precision should hover near the prior
    rng = random.Random(97)
    ds = LabeledDataset(tuple(f.name for f in WIDE.fields))
    for _ in range(400):
        ds.append(draw(WIDE, rng), PRESENCE if rng.random() < 0.5 else ABSENCE)
    precision, recall = cross_validate(ds, k=10)
    assert precision <= 0.65
    assert recall <= 0.65


def test_learning_is_deterministic():
    rng = random.Random(211)
    ds = balanced_dataset(WIDE, PLANTED, 400, rng, flip=0.05)
    a = format_ruleset(learn(ds, RipperParams(seed=5)))
    b = format_ruleset(learn(ds, RipperParams(seed=5)))
    assert a == b


def test_noise_keeps_ruleset_small():
    rng = random.Random(303)
    ds = balanced_dataset(WIDE, PLANTED, 800, rng, flip=0.05)
    model = learn(ds)
    assert 1 <= len(model.minority_rules) <= 6
    precision, recall = holdout_metrics(model, WIDE, PLANTED, 3000, rng)
    assert precision >= 0.90
    assert recall >= 0.90


def test_learned_atoms_use_interval_operators_only():
    rng = random.Random(404)
    ds = balanced_dataset(WIDE, PLANTED, 400, rng)
    model = learn(ds)
    for rule in model.minority_rules:
        for atom in rule.condition.atoms:
            assert atom.op in ("<=", ">=")
            assert isinstance(atom, Atom)


# ---------------------------------------------------------------------------
# The bin-count split search against a per-field sort-based reference
# ---------------------------------------------------------------------------

def sorted_best_atom(x, y, mask):
    """Per-field sort and cumulative-sum FOIL-gain search over covered rows."""
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return None
    yy = y[idx]
    pos = int(yy.sum())
    neg = idx.size - pos
    if pos == 0:
        return None
    base = math.log2(pos / (pos + neg))
    best = None
    for f in range(x.shape[1]):
        v = x[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = yy[order]
        change = np.nonzero(vs[1:] != vs[:-1])[0]
        if change.size == 0:
            continue
        cp = np.cumsum(ys)
        cn = np.cumsum(~ys)
        for op, p_arr, n_arr, thr_arr in (
            ("<=", cp[change], cn[change], vs[change]),
            (">=", cp[-1] - cp[change], cn[-1] - cn[change], vs[change + 1]),
        ):
            p = p_arr.astype(np.float64)
            n = n_arr.astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = p * (np.log2(p / (p + n)) - base)
            gains = np.where(p > 0, gains, -np.inf)
            j = int(np.argmax(gains))
            g = float(gains[j])
            if g > _GAIN_EPS and (best is None or g > best[0]):
                best = (g, (f, op, int(thr_arr[j])))
    return best


@st.composite
def split_problems(draw):
    """(x, y, rows, mask): bins are encoded on x, searched on x[rows]."""
    n = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("draw", "constant", "copy", "mirror")))
        top = (1 << draw(st.sampled_from((1, 2, 8, 32)))) - 1
        if kind == "copy" and columns:  # ties between fields, same op
            col = list(columns[-1])
        elif kind == "mirror" and columns:  # ties between <= and >= of two fields
            col = [(1 << 32) - 1 - v for v in columns[-1]]
        elif kind == "constant":
            col = [draw(st.integers(0, top))] * n
        else:  # few distinct values, so many tied values
            pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
            col = draw(st.lists(st.sampled_from(pool) | st.integers(0, top),
                                min_size=n, max_size=n))
        columns.append(col)
    x = np.array(columns, dtype=np.uint64).T
    y = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    rows = np.nonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))[0]
    kind = draw(st.sampled_from(("random", "all", "positives", "none")))
    if kind == "random":
        mask = np.array(draw(st.lists(st.booleans(), min_size=rows.size,
                                      max_size=rows.size)), dtype=bool)
    elif kind == "all":
        mask = np.ones(rows.size, dtype=bool)
    elif kind == "positives":  # no negatives covered
        mask = y[rows].copy()
    else:
        mask = np.zeros(rows.size, dtype=bool)
    return x, y, rows, mask


def best_value_atom(bins, y, mask):
    """_best_atom with its (field, op, bin) atom mapped to (field, op, value)."""
    found = _best_atom(bins, y, mask)
    if found is None:
        return None
    gain, (f, op, b) = found
    assert bins.field[b] == f
    return gain, (f, op, int(bins.value[b]))


@settings(max_examples=400, deadline=None)
@given(split_problems())
def test_bin_count_search_matches_sorted_search(problem):
    x, y, rows, mask = problem
    got = best_value_atom(_encode(x).take(rows), y[rows], mask)
    assert got == sorted_best_atom(x[rows], y[rows], mask)


def test_bin_count_search_tie_order():
    y = np.array([True, False, True])
    # one field: "a <= 0" and "a >= 2" both isolate one positive; <= wins
    a = np.array([[0], [1], [2]], dtype=np.uint64)
    assert best_value_atom(_encode(a), y, np.ones(3, bool))[1] == (0, "<=", 0)
    # a copied and a mirrored field tie with field 0; the first field wins
    x = np.array([[2, 2, 7], [1, 1, 8], [0, 0, 9]], dtype=np.uint64)
    for mask in (np.ones(3, bool), np.array([True, True, False])):
        got = best_value_atom(_encode(x), y, mask)
        assert got == sorted_best_atom(x, y, mask)
        assert got[1][0] == 0
    assert _best_atom(_encode(x), y, np.zeros(3, bool)) is None
    assert _best_atom(_encode(x), y, y) is None  # no negatives: nothing to gain


# ---------------------------------------------------------------------------
# Cross-validation on array folds against a subset-and-learn reference
# ---------------------------------------------------------------------------

def rows_of(dataset, indices):
    """A new dataset holding the given rows of dataset, in that order."""
    samples = list(dataset)
    out = LabeledDataset(dataset.field_names)
    for i in indices:
        out.append(samples[i].values, samples[i].label, samples[i].iteration)
    return out


def subset_cross_validate(dataset, k, params):
    """cross_validate's folds, each fit by learn() on a fold dataset and
    scored by scalar first-match classification of its test rows."""
    rng = np.random.default_rng(params.seed)
    _, y = dataset.to_arrays()
    pos_idx = rng.permutation(np.nonzero(y)[0])
    neg_idx = rng.permutation(np.nonzero(~y)[0])
    tp = fp = fn = 0
    for fold in range(k):
        test_idx = np.concatenate((pos_idx[fold::k], neg_idx[fold::k]))
        if test_idx.size == 0:
            continue
        test_set = set(test_idx.tolist())
        train_idx = [i for i in range(len(dataset)) if i not in test_set]
        fold_params = replace(params, seed=(params.seed * 1000003 + fold) % (2**63))
        model = learn(rows_of(dataset, train_idx), fold_params)
        for sample in rows_of(dataset, test_idx.tolist()):
            pred = classify(model, sample.values) == PRESENCE
            truth = sample.label == PRESENCE
            tp += pred and truth
            fp += pred and not truth
            fn += (not pred) and truth
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


MIXED = make_schema({"a": 8, "b": 8, "c": 32, "d": 1, "e": 7})


def mixed_dataset(seed, per_class):
    rng = random.Random(seed)
    cond = parse_condition("a >= 100 AND c <= 2000000000")
    ds = balanced_dataset(MIXED, cond, per_class, rng, flip=0.05)
    # a few extra absences so the classes are not balanced
    for _ in range(15):
        ds.append(draw(MIXED, rng), ABSENCE)
    return ds


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes cross_validate fold on n CPUs, with fresh workers; the
    workers are stopped again after the test."""
    def use(n):
        learner._stop_workers()
        monkeypatch.setattr(learner, "_cpu_count", lambda: n)
    yield use
    learner._stop_workers()


@pytest.mark.parametrize("seed", [1, 2, 3, 8, 11])
def test_cross_validate_matches_subset_folds(seed, cpus):
    ds = mixed_dataset(seed, 60 * seed)
    params = RipperParams(seed=seed)
    expected = {k: subset_cross_validate(ds, k, params) for k in (2, 3, 10)}
    # One CPU fits every fold in-process, as does the call that starts the
    # workers; on four, k = 2 and 3 leave a share empty.
    for n in (1, 4):
        cpus(n)
        for k, want in [*expected.items(), *expected.items()]:
            assert cross_validate(ds, k=k, params=params) == want, (n, k)


@pytest.mark.parametrize("seed", [3, 8])
def test_cross_validate_matches_subset_folds_for_an_absence_minority(seed, cpus):
    # swapped labels make absence the minority, so folds predict presence
    # on the test rows their rules leave uncovered
    mixed = mixed_dataset(seed, 60 * seed)
    ds = LabeledDataset(mixed.field_names)
    for s in mixed:
        ds.append(s.values, ABSENCE if s.label == PRESENCE else PRESENCE, s.iteration)
    assert ds.minority_label() == ABSENCE
    params = RipperParams(seed=seed)
    cpus(1)
    for k in (2, 3, 10):
        assert cross_validate(ds, k=k, params=params) == subset_cross_validate(ds, k, params)


def test_fold_workers_end_with_their_caller():
    script = (
        "import rulefuzz.learner as learner\n"
        "from tests.test_learner import mixed_dataset\n"
        "learner._cpu_count = lambda: 3\n"
        "for _ in range(2):\n"
        "    learner.cross_validate(mixed_dataset(1, 40), k=4)\n"
        "print(*(w.pid for w in learner._workers))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    pids = [int(p) for p in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:  # reaped at exit, not left to a later reaper
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_fold_workers_import_this_rulefuzz_from_any_cwd(cpus, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", "src")  # relative, as the tier-1 command sets it
    cpus(2)
    ds = mixed_dataset(1, 40)
    params = RipperParams(seed=1)
    want = subset_cross_validate(ds, 4, params)
    for _ in range(2):  # the second call has the worker fit a share
        assert cross_validate(ds, k=4, params=params) == want


def test_concurrent_calls_get_their_own_counts(cpus):
    # more threads than CPUs; an exchange that interleaves on a pipe swaps counts
    cpus(2)
    datasets = [mixed_dataset(seed, 30 + 10 * seed) for seed in range(1, 5)]
    want = [cross_validate(ds, k=4) for ds in datasets]
    got = [[] for _ in datasets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=lambda i=i: got[i].extend(
                cross_validate(datasets[i], k=4) for _ in range(3)))
            for i in range(len(datasets))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [[w] * 3 for w in want]


def test_killed_fold_worker_fails_one_call(cpus):
    cpus(2)
    ds = mixed_dataset(2, 60)
    want = cross_validate(ds, k=4)
    assert cross_validate(ds, k=4) == want  # the worker's first share
    [worker] = learner._workers
    os.kill(worker.pid, signal.SIGINT)  # ignored: Ctrl-C is the caller's
    assert cross_validate(ds, k=4) == want
    os.kill(worker.pid, signal.SIGKILL)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=f"worker {worker.pid} exited with code -9"):
        cross_validate(ds, k=4)
    assert time.monotonic() - start < 5
    assert learner._workers is None
    for _ in range(2):
        assert cross_validate(ds, k=4) == want
    assert learner._workers[0].pid != worker.pid
