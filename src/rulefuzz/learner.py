"""Interpretable failure-model induction: a RIPPER-style rule learner.

Rules are grown for the minority class one at a time on a grow split
(atoms chosen by FOIL information gain), pruned on a prune split (metric
(p - n) / (p + n) over deletable suffixes), and accepted until a minimum
description length criterion says the rule set stopped paying for itself.
Accepted rule sets then go through optimization passes that reconsider
each rule against a freshly grown replacement and revision, again decided
by description length.  The learner only ever emits <= / >= atoms; the
split value sits between two observed adjacent values, snapped to the
integer on the covered side.

The split search sorts nothing per call.  learn() rank-encodes each
column once, so every (field, observed value) pair is one bin, numbered
by field and then by value.  Counting the covered rows and the covered
positives per bin (two bincounts) and taking running sums gives, for
every bin, how many covered rows and positives have a value <= the bin's
value in its field: the same integers a per-field sort and cumulative
sum would give, so the same FOIL gains, bit for bit.  Every covered row
sits in exactly one bin per field, so the running sum through field f
starts from f times the covered count.  Candidate splits are the
nonempty bins below a field's last nonempty bin; a ">=" split takes the
value of the next nonempty bin.  Among equal gains the first in the
order field, then "<=" before ">=", then ascending value wins.

Everything is deterministic under a fixed seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import ABSENCE, PRESENCE, U64_MAX, LabeledDataset, minority_of
from .rules import OPS, Atom, Condition, DecisionRule, RuleSet
from . import sampler

_GAIN_EPS = 1e-12
_DL_EPS = 1e-9
# the standard induction settings
_GROW_FRACTION = 2 / 3
_OPTIMIZATION_PASSES = 2
_MIN_RULE_COVERAGE = 2
_MDL_SLACK = 64.0


class TooFewSamplesError(Exception):
    """Not enough samples for the requested operation."""


@dataclass(frozen=True)
class RipperParams:
    """Induction knobs: the seed of every random split."""

    seed: int = 0


# An internal atom is (field_index, op, threshold) with op in {"<=", ">="}.
_IAtom = tuple[int, str, int]


def _atom_mask(atom: _IAtom, x: np.ndarray) -> np.ndarray:
    idx, op, thr = atom
    return OPS[op](x[:, idx], np.uint64(thr))


def _rule_mask(atoms: Sequence[_IAtom], x: np.ndarray) -> np.ndarray:
    mask = np.ones(len(x), dtype=bool)
    for atom in atoms:
        mask &= _atom_mask(atom, x)
    return mask


def _union_mask(rules: Sequence[Sequence[_IAtom]], x: np.ndarray) -> np.ndarray:
    mask = np.zeros(len(x), dtype=bool)
    for atoms in rules:
        mask |= _rule_mask(atoms, x)
    return mask


# ---------------------------------------------------------------------------
# Growing
# ---------------------------------------------------------------------------

class _Bins(NamedTuple):
    """A value matrix rank-encoded so that each (field, value) pair is one bin.

    Bins run by field, then by ascending value: codes[i, f] is the bin of
    row i's value in field f, and field[b], value[b] name bin b.
    """

    codes: np.ndarray
    field: np.ndarray
    value: np.ndarray

    def take(self, rows: np.ndarray) -> "_Bins":
        return self._replace(codes=self.codes[rows])


def _encode(x: np.ndarray) -> _Bins:
    codes = np.empty(x.shape, dtype=np.intp)
    uniques = []
    start = 0
    for f in range(x.shape[1]):
        uniq, inverse = np.unique(x[:, f], return_inverse=True)
        codes[:, f] = inverse + start
        start += uniq.size
        uniques.append(uniq)
    field = np.repeat(np.arange(x.shape[1]), [u.size for u in uniques])
    return _Bins(codes, field, np.concatenate([np.empty(0, np.uint64), *uniques]))


def _best_atom(bins: _Bins, y: np.ndarray, mask: np.ndarray) -> tuple[float, _IAtom] | None:
    """Highest-FOIL-gain threshold atom over the currently covered samples."""
    idx = np.nonzero(mask)[0]
    m = idx.size
    if m == 0:
        return None
    yy = y[idx]
    pos = int(yy.sum())
    neg = m - pos
    if pos == 0:
        return None
    base = math.log2(pos / (pos + neg))
    codes = bins.codes[idx]
    total = np.bincount(codes.ravel(), minlength=bins.field.size)
    nonempty = np.nonzero(total)[0]
    field = bins.field[nonempty]
    # Covered rows and positives with a value <= each nonempty bin's, per field.
    t_le = np.cumsum(total)[nonempty] - field * m
    p_le = (
        np.cumsum(np.bincount(codes[yy].ravel(), minlength=bins.field.size))[nonempty]
        - field * pos
    )
    split = t_le < m
    if not split.any():
        return None
    at = nonempty[split]
    above = nonempty[1:][split[:-1]]
    p_le, n_le = p_le[split], t_le[split] - p_le[split]
    p = np.concatenate((p_le, pos - p_le)).astype(np.float64)
    n = np.concatenate((n_le, neg - n_le)).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = p * (np.log2(p / (p + n)) - base)
    gains[p == 0] = -np.inf
    best = float(gains.max())
    if not best > _GAIN_EPS:
        return None
    k = at.size
    fields = np.tile(field[split], 2)
    thresholds = np.concatenate((bins.value[at], bins.value[above]))
    ties = np.nonzero(gains == best)[0]
    # Scan order of a per-field search: field, then "<=" before ">=", then value.
    w = ties[np.argmin(fields[ties] * 2 + ties // k)]
    return best, (int(fields[w]), "<=" if w < k else ">=", int(thresholds[w]))


def _grow(
    x: np.ndarray,
    bins: _Bins,
    y: np.ndarray,
    base_atoms: Sequence[_IAtom] = (),
) -> list[_IAtom]:
    """Add highest-gain atoms until no negatives are covered or gain dries up."""
    atoms = list(base_atoms)
    mask = _rule_mask(atoms, x)
    limit = 2 * x.shape[1] + len(atoms)
    while len(atoms) < limit:
        covered_y = y[mask]
        if covered_y.size == 0 or not (~covered_y).any():
            break
        found = _best_atom(bins, y, mask)
        if found is None:
            break
        _, atom = found
        atoms.append(atom)
        mask &= _atom_mask(atom, x)
    return atoms


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def _prefix_stats(atoms: Sequence[_IAtom], x: np.ndarray, y: np.ndarray):
    """Yield (j, p, n) for every prefix length j in 1..len(atoms)."""
    mask = np.ones(len(x), dtype=bool)
    for j, atom in enumerate(atoms, start=1):
        mask &= _atom_mask(atom, x)
        p = int(y[mask].sum())
        n = int(mask.sum()) - p
        yield j, p, n


def _prune(atoms: list[_IAtom], x: np.ndarray, y: np.ndarray) -> list[_IAtom]:
    """Keep the prefix maximizing (p - n) / (p + n) on the prune split."""
    if not atoms or len(x) == 0:
        return atoms
    best_j, best_v = None, -math.inf
    for j, p, n in _prefix_stats(atoms, x, y):
        v = (p - n) / (p + n) if p + n else 0.0
        if v > best_v + _DL_EPS:
            best_j, best_v = j, v
    return atoms[: best_j or len(atoms)]


def _prune_by_error(atoms: list[_IAtom], x: np.ndarray, y: np.ndarray) -> list[_IAtom]:
    """Optimization-phase pruning: minimize fp + fn of the candidate alone."""
    if not atoms or len(x) == 0:
        return atoms
    total_pos = int(y.sum())
    best_j, best_err = None, math.inf
    for j, p, n in _prefix_stats(atoms, x, y):
        err = n + (total_pos - p)
        if err < best_err - _DL_EPS:
            best_j, best_err = j, err
    return atoms[: best_j or len(atoms)]


# ---------------------------------------------------------------------------
# Description length
# ---------------------------------------------------------------------------

def _subset_dl(t: float, k: float, p: float) -> float:
    if t <= 0:
        return 0.0
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return -k * math.log2(p) - (t - k) * math.log2(1.0 - p)


def _data_dl(exp_fp: float, cover: int, uncover: int, fp: int, fn: int) -> float:
    total = math.log2(cover + uncover + 1)
    if cover >= uncover:
        exp_err = exp_fp * (fp + fn)
        c = _subset_dl(cover, fp, exp_err / cover) if cover else 0.0
        u = _subset_dl(uncover, fn, fn / uncover) if uncover else 0.0
    else:
        exp_err = (1.0 - exp_fp) * (fp + fn)
        c = _subset_dl(cover, fp, fp / cover) if cover else 0.0
        u = _subset_dl(uncover, fn, exp_err / uncover) if uncover else 0.0
    return total + c + u


def _theory_dl(n_atoms: int, n_possible: int) -> float:
    if n_atoms == 0:
        return 0.0
    tdl = math.log2(n_atoms)
    if n_atoms > 1:
        tdl += 2.0 * math.log2(max(tdl, 1.0))
    tdl += n_atoms * math.log2(max(n_possible, 2))
    return 0.5 * tdl  # halved for redundancy among candidate atoms


def _ruleset_dl(
    rules: Sequence[Sequence[_IAtom]],
    x: np.ndarray,
    y: np.ndarray,
    n_possible: int,
    exp_fp: float,
) -> float:
    union = _union_mask(rules, x)
    cover = int(union.sum())
    uncover = len(x) - cover
    fp = int((union & ~y).sum())
    fn = int((~union & y).sum())
    theory = sum(_theory_dl(len(atoms), n_possible) for atoms in rules)
    return theory + _data_dl(exp_fp, cover, uncover, fp, fn)


# ---------------------------------------------------------------------------
# Induction loop
# ---------------------------------------------------------------------------

def _stratified_split(
    indices: np.ndarray, y: np.ndarray, frac: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    grow_parts, prune_parts = [], []
    for cls_mask in (y[indices], ~y[indices]):
        cls_idx = rng.permutation(indices[cls_mask])
        cut = int(round(frac * cls_idx.size))
        grow_parts.append(cls_idx[:cut])
        prune_parts.append(cls_idx[cut:])
    return np.concatenate(grow_parts), np.concatenate(prune_parts)


def _induce(
    x: np.ndarray,
    bins: _Bins,
    y: np.ndarray,
    rng: np.random.Generator,
    n_possible: int,
    exp_fp: float,
    rules: list[list[_IAtom]] | None = None,
) -> list[list[_IAtom]]:
    rules = list(rules or [])
    covered = _union_mask(rules, x)
    dl_min = _ruleset_dl(rules, x, y, n_possible, exp_fp)
    while True:
        rem = np.nonzero(~covered)[0]
        if rem.size == 0 or not y[rem].any():
            break
        grow_idx, prune_idx = _stratified_split(rem, y, _GROW_FRACTION, rng)
        atoms = _grow(x[grow_idx], bins.take(grow_idx), y[grow_idx])
        if not atoms:
            break
        if prune_idx.size:
            atoms = _prune(atoms, x[prune_idx], y[prune_idx])
        rem_mask = _rule_mask(atoms, x[rem])
        t_cov = int(rem_mask.sum())
        p_cov = int(y[rem][rem_mask].sum())
        if t_cov < _MIN_RULE_COVERAGE or p_cov == 0:
            break
        if p_cov / t_cov <= 0.5:
            break
        dl = _ruleset_dl(rules + [atoms], x, y, n_possible, exp_fp)
        if dl > dl_min + _MDL_SLACK:
            break
        dl_min = min(dl_min, dl)
        rules.append(atoms)
        covered |= _rule_mask(atoms, x)
    return rules


def _optimize(
    rules: list[list[_IAtom]],
    x: np.ndarray,
    bins: _Bins,
    y: np.ndarray,
    rng: np.random.Generator,
    n_possible: int,
    exp_fp: float,
) -> list[list[_IAtom]]:
    for _ in range(_OPTIMIZATION_PASSES):
        for i in range(len(rules)):
            others = rules[:i] + rules[i + 1 :]
            ctx = np.nonzero(~_union_mask(others, x))[0]
            if ctx.size == 0 or not y[ctx].any():
                continue
            grow_idx, prune_idx = _stratified_split(ctx, y, _GROW_FRACTION, rng)
            candidates = []
            grow = (x[grow_idx], bins.take(grow_idx), y[grow_idx])
            replacement = _grow(*grow)
            if replacement and prune_idx.size:
                replacement = _prune_by_error(replacement, x[prune_idx], y[prune_idx])
            if replacement:
                candidates.append(replacement)
            revision = _grow(*grow, base_atoms=rules[i])
            if revision and prune_idx.size:
                revision = _prune_by_error(revision, x[prune_idx], y[prune_idx])
            if revision:
                candidates.append(revision)
            best, best_dl = rules[i], _ruleset_dl(rules, x, y, n_possible, exp_fp)
            for cand in candidates:
                trial = rules[:i] + [cand] + rules[i + 1 :]
                dl = _ruleset_dl(trial, x, y, n_possible, exp_fp)
                if dl < best_dl - _DL_EPS:
                    best, best_dl = cand, dl
            rules[i] = best
        rules = _induce(x, bins, y, rng, n_possible, exp_fp, rules=rules)
    # Drop rules whose removal shortens the description.
    changed = True
    while changed and rules:
        changed = False
        current_dl = _ruleset_dl(rules, x, y, n_possible, exp_fp)
        for i in range(len(rules) - 1, -1, -1):
            trial = rules[:i] + rules[i + 1 :]
            if _ruleset_dl(trial, x, y, n_possible, exp_fp) < current_dl - _DL_EPS:
                rules = trial
                changed = True
                break
    return rules


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

def learn(dataset: LabeledDataset, params: RipperParams | None = None) -> RuleSet:
    """Induce an ordered rule set for the dataset's minority class.

    Each returned rule carries (t, f, confidence) computed over the whole
    dataset.  A dataset with fewer than two samples, a single class, or no
    learnable structure yields a degenerate rule set (default rule only).
    """
    x, presence = dataset.to_arrays()
    seed = (params or RipperParams()).seed
    return _learn_arrays(x, presence, _encode(x), dataset.field_names, seed)


def _learn_arrays(
    x: np.ndarray,
    presence: np.ndarray,
    bins: _Bins,
    names: Sequence[str],
    seed: int,
) -> RuleSet:
    """learn() on a value matrix, its presence mask and the matching bins.

    The bins may come from a larger matrix that x was sliced from; only
    the bins x occupies count towards the theory description length.
    """
    n = len(x)
    counts = {PRESENCE: int(presence.sum())}
    counts[ABSENCE] = n - counts[PRESENCE]
    minority = minority_of(counts)
    majority = ABSENCE if minority == PRESENCE else PRESENCE

    def degenerate() -> RuleSet:
        default = DecisionRule.build(Condition(), majority, t=n, f=counts[minority])
        return RuleSet((), default)

    if n < 2 or counts[minority] == 0 or counts[majority] == 0:
        return degenerate()

    y = presence if minority == PRESENCE else ~presence
    rng = np.random.default_rng(seed)
    n_possible = 2 * np.count_nonzero(
        np.bincount(bins.codes.ravel(), minlength=bins.field.size)
    )
    exp_fp = counts[minority] / n
    rules = _induce(x, bins, y, rng, n_possible, exp_fp)
    if rules:
        rules = _optimize(rules, x, bins, y, rng, n_possible, exp_fp)
    if not rules:
        return degenerate()

    minority_rules = []
    union = np.zeros(n, dtype=bool)
    for atoms in rules:
        cond = Condition(tuple(Atom(names[f], op, thr) for f, op, thr in atoms))
        mask = _rule_mask(atoms, x)
        t = int(mask.sum())
        f_count = int((mask & ~y).sum())
        minority_rules.append(DecisionRule.build(cond, minority, t, f_count))
        union |= mask
    t_def = int((~union).sum())
    f_def = int((~union & y).sum())
    default = DecisionRule.build(Condition(), majority, t_def, f_def)
    return RuleSet(tuple(minority_rules), default)


def _condition_mask(cond: Condition, x: np.ndarray, index: Mapping[str, int]) -> np.ndarray:
    mask = np.ones(len(x), dtype=bool)
    for atom in cond.atoms:
        try:
            col = x[:, index[atom.field]]
        except KeyError:
            raise sampler.MissingFieldError(f"values lack field {atom.field!r}") from None
        if 0 <= atom.value <= U64_MAX:
            mask &= OPS[atom.op](col, np.uint64(atom.value))
        else:
            # every uint64 compares alike with a constant outside their range
            mask &= OPS[atom.op](0, atom.value)
    return mask


def predict_mask(ruleset: RuleSet, dataset: LabeledDataset) -> np.ndarray:
    """Vectorized first-match classification; True means presence."""
    x, _ = dataset.to_arrays()
    return _predict(ruleset, x, dataset.field_names)


def _predict(ruleset: RuleSet, x: np.ndarray, names: Sequence[str]) -> np.ndarray:
    index = {name: i for i, name in enumerate(names)}
    pred = np.full(len(x), ruleset.default_rule.prediction == PRESENCE)
    assigned = np.zeros(len(x), dtype=bool)
    for rule in ruleset.minority_rules:
        m = _condition_mask(rule.condition, x, index) & ~assigned
        pred[m] = rule.prediction == PRESENCE
        assigned |= m
    return pred


def cross_validate(
    dataset: LabeledDataset,
    k: int = 10,
    params: RipperParams | None = None,
    seed: int | None = None,
) -> tuple[float, float]:
    """Stratified k-fold precision and recall, presence as positive class.

    Counts are pooled across folds before computing the ratios; an empty
    denominator yields 0.0 for that metric.
    """
    params = params or RipperParams()
    if len(dataset) < k:
        raise TooFewSamplesError(f"need at least {k} samples, got {len(dataset)}")
    base_seed = params.seed if seed is None else seed
    rng = np.random.default_rng(base_seed)
    x, y = dataset.to_arrays()
    bins = _encode(x)
    pos_idx = rng.permutation(np.nonzero(y)[0])
    neg_idx = rng.permutation(np.nonzero(~y)[0])
    tp = fp = fn = 0
    for fold in range(k):
        test_idx = np.concatenate((pos_idx[fold::k], neg_idx[fold::k]))
        if test_idx.size == 0:
            continue
        train = np.ones(len(x), dtype=bool)
        train[test_idx] = False
        fold_seed = (base_seed * 1000003 + fold) % (2**63)
        model = _learn_arrays(
            x[train], y[train], bins.take(train), dataset.field_names, fold_seed
        )
        pred = _predict(model, x[test_idx], dataset.field_names)
        y_test = y[test_idx]
        tp += int((pred & y_test).sum())
        fp += int((pred & ~y_test).sum())
        fn += int((~pred & y_test).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall
