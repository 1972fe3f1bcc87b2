"""Rule induction: recovery of planted predicates, stats, and cross-validation."""

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefuzz.dataset import ABSENCE, PRESENCE, LabeledDataset
from rulefuzz.learner import (
    _GAIN_EPS,
    RipperParams,
    TooFewSamplesError,
    _best_atom,
    _encode,
    cross_validate,
    learn,
    predict_mask,
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

from .conftest import make_schema, predict_rows

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


def test_rule_stats_recompute_from_dataset():
    rng = random.Random(31)
    ds = balanced_dataset(WIDE, PLANTED, 400, rng, flip=0.05)
    model = learn(ds)
    assert model.minority_rules
    minority = ds.minority_label()
    for rule in model.minority_rules:
        t = sum(1 for s in ds if evaluate(rule.condition, s.values))
        f = sum(
            1
            for s in ds
            if evaluate(rule.condition, s.values) and s.label != minority
        )
        assert (rule.t, rule.f) == (t, f)
        assert rule.confidence == (t - f) / t
    # default stats cover exactly the samples no minority rule matched
    uncovered = [
        s
        for s in ds
        if not any(evaluate(r.condition, s.values) for r in model.minority_rules)
    ]
    assert model.default_rule.t == len(uncovered)
    assert model.default_rule.f == sum(
        1 for s in uncovered if s.label == minority
    )


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


def classify(ruleset, values):
    """Scalar first-match reference: the first matching minority rule wins."""
    for rule in ruleset.minority_rules:
        if evaluate(rule.condition, values):
            return rule.prediction
    return ruleset.default_rule.prediction


def test_predict_mask_matches_scalar_classify():
    rng = random.Random(55)
    ds = balanced_dataset(WIDE, PLANTED, 150, rng, flip=0.1)
    model = learn(ds)
    mask = predict_mask(model, ds)
    for i, sample in enumerate(ds):
        assert mask[i] == (classify(model, sample.values) == PRESENCE)


U64_MAX = 2**64 - 1
SPAN64 = make_schema({"a": 64})


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
    # evaluate, predict_mask and the sampler's intervals give one answer,
    # also for constants outside the uint64 range of the value matrix
    rows = rows + [0, U64_MAX] + [min(max(value + d, 0), U64_MAX) for d in (-1, 0, 1)]
    cond = Condition((Atom("a", op, value),))
    ruleset = RuleSet(
        (DecisionRule.build(cond, PRESENCE, 1, 0),),
        DecisionRule.build(Condition(), ABSENCE, 1, 0),
    )
    (interval,) = intervals_for(cond, SPAN64)
    mask = predict_rows(ruleset, [{"a": v} for v in rows])
    for v, predicted in zip(rows, mask):
        want = evaluate(cond, {"a": v})
        assert predicted == want, (v, op, value)
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
    with pytest.raises(TooFewSamplesError):
        cross_validate(small, k=10)


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


@settings(max_examples=400, deadline=None)
@given(split_problems())
def test_bin_count_search_matches_sorted_search(problem):
    x, y, rows, mask = problem
    got = _best_atom(_encode(x).take(rows), y[rows], mask)
    assert got == sorted_best_atom(x[rows], y[rows], mask)


def test_bin_count_search_tie_order():
    y = np.array([True, False, True])
    # one field: "a <= 0" and "a >= 2" both isolate one positive; <= wins
    a = np.array([[0], [1], [2]], dtype=np.uint64)
    assert _best_atom(_encode(a), y, np.ones(3, bool))[1] == (0, "<=", 0)
    # a copied and a mirrored field tie with field 0; the first field wins
    x = np.array([[2, 2, 7], [1, 1, 8], [0, 0, 9]], dtype=np.uint64)
    for mask in (np.ones(3, bool), np.array([True, True, False])):
        got = _best_atom(_encode(x), y, mask)
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
    """cross_validate's folds run through learn() and predict_mask() on fold datasets."""
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
        test_ds = rows_of(dataset, test_idx.tolist())
        pred = predict_mask(model, test_ds)
        _, y_test = test_ds.to_arrays()
        tp += int((pred & y_test).sum())
        fp += int((pred & ~y_test).sum())
        fn += int((~pred & y_test).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


MIXED = make_schema({"a": 8, "b": 8, "c": 32, "d": 1, "e": 7})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cross_validate_matches_subset_folds(seed):
    rng = random.Random(seed)
    cond = parse_condition("a >= 100 AND c <= 2000000000")
    ds = balanced_dataset(MIXED, cond, 60 * seed, rng, flip=0.05)
    # a few extra absences so the classes are not balanced
    for _ in range(15):
        ds.append(draw(MIXED, rng), ABSENCE)
    params = RipperParams(seed=seed)
    assert cross_validate(ds, k=10, params=params) == subset_cross_validate(ds, 10, params)
