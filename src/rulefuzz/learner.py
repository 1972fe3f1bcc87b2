"""Interpretable failure-model induction: a RIPPER-style rule learner.

Rules are grown for the minority class one at a time on a grow split
(atoms chosen by FOIL information gain), pruned on a prune split (metric
(p - n) / (p + n) over deletable suffixes), and accepted until a minimum
description length criterion says the rule set stopped paying for itself.
Accepted rule sets then go through optimization passes that reconsider
each rule against a freshly grown replacement and revision, again decided
by description length.  The learner only ever emits <= / >= atoms whose
threshold is a value observed in the atom's field.

Induction works on one matrix of bin codes: the dataset's rank encoding,
in which every (field, observed value) pair is one bin, numbered by field
and then by value, and an induction atom is (field, op, bin).  The
dataset keeps that encoding and extends it by the rows appended since it
was last read, so learn() and cross_validate() on one dataset state
share one encoding, and a loop that appends rows sorts each row once.
Within a field codes rank like values, so code <= b holds exactly when
value <= value[b]: growing, pruning and description lengths compare bin
codes, and learn() turns a threshold into a value only when it emits a
rule; no atom is ever evaluated over values here.

The split search sorts nothing per call.  A grow holds the codes and
labels of the rows its rule covers, and narrows them by each chosen
atom's one column.  Counting those rows and their positives per bin (two
bincounts) and taking running sums over the nonempty bins gives, for
every bin, how many covered rows and positives have a value <= the bin's
value in its field: the same integers a per-field sort and cumulative
sum would give, so the same FOIL gains, bit for bit (an empty bin adds
nothing to a sum).  Every covered row sits in exactly one bin per field,
so the running sum through field f starts from f times the covered
count.  Candidate splits are the nonempty bins below a field's last
nonempty bin; a ">=" split takes the next nonempty bin.  Among equal
gains the first in the order field, then "<=" before ">=", then
ascending value wins.  Pruning reads each atom's own column of the prune
rows, and within one fit each rule's mask over the training rows is
computed once, however many candidate rule sets it is scored in; a new
rule's coverage of the rows left uncovered is read from that mask.

Cross-validation stays in bin space too.  cross_validate() reads the
dataset's encoding of all rows; each fold fits on its training rows'
codes and scores its test rows on their codes from that same encoding,
which is exact for the same reason.  The folds run on every core the
process may use: the caller fits one share itself and pool.run() sends
the encoding and each other share to one of the pool's worker processes;
on one CPU every fold runs in-process.  A fold's seed and rows do not
depend on where it runs, and each fold yields integer (tp, fp, fn)
counts that are summed, so (P, R) is the same for any CPU count.

Everything is deterministic under a fixed seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import pool
from .dataset import ABSENCE, PRESENCE, LabeledDataset, RankEncoding, minority_of
from .rules import OPS, Atom, Condition, DecisionRule, RuleSet

_GAIN_EPS = 1e-12
_DL_EPS = 1e-9
# the standard induction settings
_GROW_FRACTION = 2 / 3
_OPTIMIZATION_PASSES = 2
_MIN_RULE_COVERAGE = 2
_MDL_SLACK = 64.0


@dataclass(frozen=True)
class RipperParams:
    """Induction knobs: the seed of every random split."""

    seed: int = 0


# An induction atom is (field, op, bin) with op in {"<=", ">="}.
_IAtom = tuple[int, str, int]


def _rule_mask(atoms: Sequence[_IAtom], codes: np.ndarray) -> np.ndarray:
    """Rows of a bin-code matrix that satisfy every (field, op, bin) atom."""
    mask = np.ones(len(codes), dtype=bool)
    for f, op, b in atoms:
        mask &= OPS[op](codes[:, f], b)
    return mask


class _RuleMasks(dict):
    """Rule masks over one bin-code matrix, keyed by tuple(atoms), each computed once.

    Induction and optimization score many candidate rule sets that share
    most of their rules; a mask is read, never written in place.
    """

    def __init__(self, codes: np.ndarray):
        super().__init__()
        self.codes = codes

    def __missing__(self, atoms: tuple[_IAtom, ...]) -> np.ndarray:
        mask = self[atoms] = _rule_mask(atoms, self.codes)
        return mask

    def union(self, rules: Sequence[Sequence[_IAtom]]) -> np.ndarray:
        mask = np.zeros(len(self.codes), dtype=bool)
        for atoms in rules:
            mask |= self[tuple(atoms)]
        return mask


# ---------------------------------------------------------------------------
# Growing
# ---------------------------------------------------------------------------

def _best_atom(covered: RankEncoding, y: np.ndarray) -> tuple[float, _IAtom] | None:
    """Highest-FOIL-gain threshold atom over the covered rows and their labels."""
    m = y.size
    pos = int(np.count_nonzero(y))
    if pos == 0:
        return None
    base = math.log2(pos / m)
    codes = covered.codes
    total = np.bincount(codes.ravel(), minlength=covered.field.size)
    nonempty = (total > 0).nonzero()[0]
    field = covered.field[nonempty]
    # Covered rows and positives with a value <= each nonempty bin's, per field.
    t_le = total[nonempty].cumsum() - field * m
    p_le = np.bincount(codes[y].ravel(), minlength=total.size)[nonempty].cumsum() - field * pos
    # Row 0 holds the "<=" split at each nonempty bin and row 1 the ">=" split
    # at the next one; a field's last nonempty bin splits nothing off.
    p = np.array((p_le, pos - p_le))
    t = np.array((t_le, m - t_le))
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = p * (np.log2(p / t) - base)
    gains[p == 0] = -np.inf
    gains[0, t_le == m] = -np.inf
    w = int(gains.argmax())
    best = float(gains.flat[w])
    if not best > _GAIN_EPS:
        return None
    k = nonempty.size
    ties = (gains.ravel() == best).nonzero()[0]
    if ties.size > 1:
        # Scan order of a per-field search: field, then "<=" before ">=", then value.
        w = int(ties[np.argmin(field[ties % k] * 2 + ties // k)])
    i = w % k
    return best, (int(field[i]), "<=" if w < k else ">=", int(nonempty[i + w // k]))


def _grow(bins: RankEncoding, y: np.ndarray, base_atoms: Sequence[_IAtom] = ()) -> list[_IAtom]:
    """Add highest-gain atoms until no negatives are covered or gain dries up."""
    atoms = list(base_atoms)
    if atoms:
        keep = _rule_mask(atoms, bins.codes).nonzero()[0]
        bins, y = bins.take(keep), y[keep]
    limit = 2 * bins.codes.shape[1] + len(atoms)
    # the covered rows narrow by each chosen atom's one column
    while len(atoms) < limit and y.size and not y.all():
        found = _best_atom(bins, y)
        if found is None:
            break
        f, op, b = atom = found[1]
        atoms.append(atom)
        keep = OPS[op](bins.codes[:, f], b).nonzero()[0]
        bins, y = bins.take(keep), y[keep]
    return atoms


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def _purity(p: int, n: int) -> float:
    """Induction score of a rule covering p positives and n negatives."""
    return (p - n) / (p + n) if p + n else 0.0


def _accuracy(p: int, n: int) -> int:
    """Optimization score: the most p - n is the fewest errors n + (P - p)."""
    return p - n


def _prune(
    atoms: list[_IAtom],
    codes: np.ndarray,
    rows: np.ndarray,
    y: np.ndarray,
    score: Callable[[int, int], float],
) -> list[_IAtom]:
    """Keep the prefix of atoms scoring best on `rows` of codes and y; ties keep the shorter."""
    best_j, best = 0, -math.inf
    y = y[rows]
    for j, (f, op, b) in enumerate(atoms, start=1):
        keep = OPS[op](codes[rows, f], b)
        rows, y = rows[keep], y[keep]
        p = int(np.count_nonzero(y))
        v = score(p, rows.size - p)
        if v > best + _DL_EPS:
            best_j, best = j, v
    return atoms[:best_j]


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
    masks: _RuleMasks,
    y: np.ndarray,
    n_possible: int,
    n_pos: int,
) -> float:
    """Description length of a rule set over the fit's labels y, n_pos of them positive."""
    union = masks.union(rules)
    cover = int(np.count_nonzero(union))
    tp = int(np.count_nonzero(union & y))
    theory = sum(_theory_dl(len(atoms), n_possible) for atoms in rules)
    return theory + _data_dl(n_pos / len(y), cover, len(y) - cover, cover - tp, n_pos - tp)


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
    bins: RankEncoding,
    masks: _RuleMasks,
    y: np.ndarray,
    rng: np.random.Generator,
    n_possible: int,
    n_pos: int,
    rules: list[list[_IAtom]] | None = None,
) -> list[list[_IAtom]]:
    rules = list(rules or [])
    covered = masks.union(rules)
    dl_min = _ruleset_dl(rules, masks, y, n_possible, n_pos)
    while True:
        rem = np.nonzero(~covered)[0]
        if rem.size == 0 or not y[rem].any():
            break
        grow_idx, prune_idx = _stratified_split(rem, y, _GROW_FRACTION, rng)
        atoms = _grow(bins.take(grow_idx), y[grow_idx])
        if not atoms:
            break
        if prune_idx.size:
            atoms = _prune(atoms, bins.codes, prune_idx, y, _purity)
        rem_mask = masks[tuple(atoms)][rem]
        t_cov = int(np.count_nonzero(rem_mask))
        p_cov = int(np.count_nonzero(y[rem][rem_mask]))
        if t_cov < _MIN_RULE_COVERAGE or p_cov == 0:
            break
        if p_cov / t_cov <= 0.5:
            break
        dl = _ruleset_dl(rules + [atoms], masks, y, n_possible, n_pos)
        if dl > dl_min + _MDL_SLACK:
            break
        dl_min = min(dl_min, dl)
        rules.append(atoms)
        covered |= masks[tuple(atoms)]
    return rules


def _optimize(
    rules: list[list[_IAtom]],
    bins: RankEncoding,
    masks: _RuleMasks,
    y: np.ndarray,
    rng: np.random.Generator,
    n_possible: int,
    n_pos: int,
) -> list[list[_IAtom]]:
    for _ in range(_OPTIMIZATION_PASSES):
        for i in range(len(rules)):
            others = rules[:i] + rules[i + 1 :]
            ctx = np.nonzero(~masks.union(others))[0]
            if ctx.size == 0 or not y[ctx].any():
                continue
            grow_idx, prune_idx = _stratified_split(ctx, y, _GROW_FRACTION, rng)
            grow = bins.take(grow_idx)
            best, best_dl = rules[i], _ruleset_dl(rules, masks, y, n_possible, n_pos)
            # a replacement grown from scratch, then a revision of rules[i]
            for base_atoms in ((), rules[i]):
                cand = _grow(grow, y[grow_idx], base_atoms)
                if cand and prune_idx.size:
                    cand = _prune(cand, bins.codes, prune_idx, y, _accuracy)
                if not cand:
                    continue
                trial = rules[:i] + [cand] + rules[i + 1 :]
                dl = _ruleset_dl(trial, masks, y, n_possible, n_pos)
                if dl < best_dl - _DL_EPS:
                    best, best_dl = cand, dl
            rules[i] = best
        rules = _induce(bins, masks, y, rng, n_possible, n_pos, rules=rules)
    # Drop rules whose removal shortens the description.
    changed = True
    while changed and rules:
        changed = False
        current_dl = _ruleset_dl(rules, masks, y, n_possible, n_pos)
        for i in range(len(rules) - 1, -1, -1):
            trial = rules[:i] + rules[i + 1 :]
            if _ruleset_dl(trial, masks, y, n_possible, n_pos) < current_dl - _DL_EPS:
                rules = trial
                changed = True
                break
    return rules


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

def learn(dataset: LabeledDataset, params: RipperParams | None = None) -> RuleSet:
    """Induce an ordered rule set for the dataset's minority class.

    Each returned rule's (t, f), and so its confidence, count the whole
    dataset.  A dataset with fewer than two samples, a single class, or no
    learnable structure yields a degenerate rule set (default rule only).
    """
    _, presence = dataset.to_arrays()
    bins = dataset.encoding()
    minority, rules = _fit(bins, presence, (params or RipperParams()).seed)
    majority = ABSENCE if minority == PRESENCE else PRESENCE
    y = presence if minority == PRESENCE else ~presence
    masks = _RuleMasks(bins.codes)
    names = dataset.field_names
    minority_rules = []
    for atoms in rules:
        cond = Condition(
            tuple(Atom(names[f], op, int(bins.value[b])) for f, op, b in atoms)
        )
        mask = masks[tuple(atoms)]
        rule = DecisionRule(cond, minority, int(mask.sum()), int((mask & ~y).sum()))
        minority_rules.append(rule)
    uncovered = ~masks.union(rules)
    default = DecisionRule(Condition(), majority, int(uncovered.sum()), int((uncovered & y).sum()))
    return RuleSet(tuple(minority_rules), default)


def _fit(bins: RankEncoding, presence: np.ndarray, seed: int) -> tuple[str, list[list[_IAtom]]]:
    """The minority label of presence and the rules induced for it, as bin atoms.

    The bins may come from a larger matrix that these rows were taken
    from; only the bins the rows occupy count towards the theory
    description length.  Fewer than two rows, a single class or no
    learnable structure yield no rules.
    """
    n = len(presence)
    n_presence = int(presence.sum())
    minority = minority_of({PRESENCE: n_presence, ABSENCE: n - n_presence})
    y = presence if minority == PRESENCE else ~presence
    n_minority = int(y.sum())
    if n < 2 or n_minority in (0, n):
        return minority, []
    rng = np.random.default_rng(seed)
    n_possible = 2 * np.count_nonzero(
        np.bincount(bins.codes.ravel(), minlength=bins.field.size)
    )
    masks = _RuleMasks(bins.codes)
    rules = _induce(bins, masks, y, rng, n_possible, n_minority)
    if rules:
        rules = _optimize(rules, bins, masks, y, rng, n_possible, n_minority)
    return minority, rules


def cross_validate(
    dataset: LabeledDataset,
    k: int = 10,
    params: RipperParams | None = None,
    seed: int | None = None,
) -> tuple[float, float]:
    """Stratified k-fold precision and recall, presence as positive class.

    Counts are pooled across folds before computing the ratios; an empty
    denominator yields 0.0 for that metric.  The folds are fit on every
    core the process may use.  Small data is handled here: k shrinks to
    the row count, and under two rows (nothing to hold out) P = R = 0.0.
    """
    if k < 2:
        raise ValueError(f"k-fold cross-validation needs k >= 2, got {k}")
    if len(dataset) < 2:
        return 0.0, 0.0
    k = min(k, len(dataset))
    params = params or RipperParams()
    base_seed = params.seed if seed is None else seed
    rng = np.random.default_rng(base_seed)
    _, y = dataset.to_arrays()
    bins = dataset.encoding()
    pos_idx = rng.permutation(np.nonzero(y)[0])
    neg_idx = rng.permutation(np.nonzero(~y)[0])
    folds = []
    for fold in range(k):
        test_idx = np.concatenate((pos_idx[fold::k], neg_idx[fold::k]))
        if test_idx.size:
            folds.append((test_idx, (base_seed * 1000003 + fold) % (2**63)))
    # one share of the folds per CPU; the shares' integer counts sum the
    # same for any number of CPUs
    n = min(len(folds), pool.processes())
    counts = pool.run([(_fold_counts, (bins, y, folds[i::n])) for i in range(n)])
    tp, fp, fn = (sum(c) for c in zip(*counts))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


# ---------------------------------------------------------------------------
# Folds
# ---------------------------------------------------------------------------

_Fold = tuple[np.ndarray, int]  # (test row indices, fold seed)


def _fold_counts(
    bins: RankEncoding, presence: np.ndarray, folds: Sequence[_Fold]
) -> tuple[int, int, int]:
    """(tp, fp, fn) of the folds, each fit on the rows outside its test rows.

    A fold predicts its minority label on the test rows whose bin codes
    its rules cover, and the other label on the rest.
    """
    tp = fp = fn = 0
    for test_idx, fold_seed in folds:
        train = np.delete(np.arange(len(presence)), test_idx)
        minority, rules = _fit(bins.take(train), presence[train], fold_seed)
        covered = _RuleMasks(bins.codes[test_idx]).union(rules)
        pred = covered if minority == PRESENCE else ~covered
        y_test = presence[test_idx]
        tp += int((pred & y_test).sum())
        fp += int((pred & ~y_test).sum())
        fn += int((~pred & y_test).sum())
    return tp, fp, fn
