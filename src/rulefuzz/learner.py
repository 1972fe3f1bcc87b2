"""Interpretable failure-model induction: a RIPPER-style rule learner.

Rules are grown for the minority class one at a time on a grow split
(atoms chosen by FOIL information gain), pruned on a prune split (metric
(p - n) / (p + n) over deletable suffixes), and accepted until a minimum
description length criterion says the rule set stopped paying for itself.
Accepted rule sets then go through optimization passes that reconsider
each rule against a freshly grown replacement and revision, again decided
by description length.  The learner only ever emits <= / >= atoms whose
threshold is a value observed in the atom's field.

Induction works on one matrix of bin codes.  learn() rank-encodes each
column once, so every (field, observed value) pair is one bin, numbered
by field and then by value, and an induction atom is (field, op, bin).
Within a field codes rank like values, so code <= b holds exactly when
value <= value[b]: growing, pruning and description lengths compare bin
codes, and learn() turns a threshold into a value only when it emits a
rule; no atom is ever evaluated over values here.

The split search sorts nothing per call.  Counting the covered rows and
the covered positives per bin (two bincounts) and taking running sums
gives, for every bin, how many covered rows and positives have a value
<= the bin's value in its field: the same integers a per-field sort and
cumulative sum would give, so the same FOIL gains, bit for bit.  Every
covered row sits in exactly one bin per field, so the running sum
through field f starts from f times the covered count.  Candidate splits
are the nonempty bins below a field's last nonempty bin; a ">=" split
takes the next nonempty bin.  Among equal gains the first in the order
field, then "<=" before ">=", then ascending value wins.  Within one
fit each rule's mask over the training rows is computed once, however
many candidate rule sets it is scored in.

Cross-validation stays in bin space too.  cross_validate() encodes the
whole matrix once; each fold fits on its training rows' codes and scores
its test rows on their codes from that same encoding, which is exact for
the same reason.  The folds run on every core the process may use: the
caller fits one share itself and pipes the encoding and the other shares
to nproc - 1 worker processes, started on the first call (which fits
every fold in-process while they import) and ended when the caller
exits; on one CPU every fold runs in-process.  A fold's seed and rows do
not depend on where it runs, and each fold yields integer (tp, fp, fn)
counts that are summed, so (P, R) is the same for any CPU count.

Everything is deterministic under a fixed seed.
"""
from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dataset import ABSENCE, PRESENCE, LabeledDataset, minority_of
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
    candidates = np.concatenate((at, above))
    ties = np.nonzero(gains == best)[0]
    # Scan order of a per-field search: field, then "<=" before ">=", then value.
    w = ties[np.argmin(fields[ties] * 2 + ties // k)]
    return best, (int(fields[w]), "<=" if w < k else ">=", int(candidates[w]))


def _grow(bins: _Bins, y: np.ndarray, base_atoms: Sequence[_IAtom] = ()) -> list[_IAtom]:
    """Add highest-gain atoms until no negatives are covered or gain dries up."""
    atoms = list(base_atoms)
    mask = _rule_mask(atoms, bins.codes)
    limit = 2 * bins.codes.shape[1] + len(atoms)
    while len(atoms) < limit:
        covered_y = y[mask]
        if covered_y.size == 0 or not (~covered_y).any():
            break
        found = _best_atom(bins, y, mask)
        if found is None:
            break
        _, atom = found
        atoms.append(atom)
        mask &= _rule_mask((atom,), bins.codes)
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
    y: np.ndarray,
    score: Callable[[int, int], float],
) -> list[_IAtom]:
    """Keep the prefix scoring best on the prune split; ties keep the shorter."""
    best_j, best = 0, -math.inf
    mask = np.ones(len(codes), dtype=bool)
    for j, atom in enumerate(atoms, start=1):
        mask &= _rule_mask((atom,), codes)
        p = int(y[mask].sum())
        v = score(p, int(mask.sum()) - p)
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
    exp_fp: float,
) -> float:
    union = masks.union(rules)
    cover = int(union.sum())
    uncover = len(y) - cover
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
    bins: _Bins,
    masks: _RuleMasks,
    y: np.ndarray,
    rng: np.random.Generator,
    n_possible: int,
    exp_fp: float,
    rules: list[list[_IAtom]] | None = None,
) -> list[list[_IAtom]]:
    codes = bins.codes
    rules = list(rules or [])
    covered = masks.union(rules)
    dl_min = _ruleset_dl(rules, masks, y, n_possible, exp_fp)
    while True:
        rem = np.nonzero(~covered)[0]
        if rem.size == 0 or not y[rem].any():
            break
        grow_idx, prune_idx = _stratified_split(rem, y, _GROW_FRACTION, rng)
        atoms = _grow(bins.take(grow_idx), y[grow_idx])
        if not atoms:
            break
        if prune_idx.size:
            atoms = _prune(atoms, codes[prune_idx], y[prune_idx], _purity)
        rem_mask = _rule_mask(atoms, codes[rem])
        t_cov = int(rem_mask.sum())
        p_cov = int(y[rem][rem_mask].sum())
        if t_cov < _MIN_RULE_COVERAGE or p_cov == 0:
            break
        if p_cov / t_cov <= 0.5:
            break
        dl = _ruleset_dl(rules + [atoms], masks, y, n_possible, exp_fp)
        if dl > dl_min + _MDL_SLACK:
            break
        dl_min = min(dl_min, dl)
        rules.append(atoms)
        covered |= masks[tuple(atoms)]
    return rules


def _optimize(
    rules: list[list[_IAtom]],
    bins: _Bins,
    masks: _RuleMasks,
    y: np.ndarray,
    rng: np.random.Generator,
    n_possible: int,
    exp_fp: float,
) -> list[list[_IAtom]]:
    codes = bins.codes
    for _ in range(_OPTIMIZATION_PASSES):
        for i in range(len(rules)):
            others = rules[:i] + rules[i + 1 :]
            ctx = np.nonzero(~masks.union(others))[0]
            if ctx.size == 0 or not y[ctx].any():
                continue
            grow_idx, prune_idx = _stratified_split(ctx, y, _GROW_FRACTION, rng)
            grow = bins.take(grow_idx)
            best, best_dl = rules[i], _ruleset_dl(rules, masks, y, n_possible, exp_fp)
            # a replacement grown from scratch, then a revision of rules[i]
            for base_atoms in ((), rules[i]):
                cand = _grow(grow, y[grow_idx], base_atoms)
                if cand and prune_idx.size:
                    cand = _prune(cand, codes[prune_idx], y[prune_idx], _accuracy)
                if not cand:
                    continue
                trial = rules[:i] + [cand] + rules[i + 1 :]
                dl = _ruleset_dl(trial, masks, y, n_possible, exp_fp)
                if dl < best_dl - _DL_EPS:
                    best, best_dl = cand, dl
            rules[i] = best
        rules = _induce(bins, masks, y, rng, n_possible, exp_fp, rules=rules)
    # Drop rules whose removal shortens the description.
    changed = True
    while changed and rules:
        changed = False
        current_dl = _ruleset_dl(rules, masks, y, n_possible, exp_fp)
        for i in range(len(rules) - 1, -1, -1):
            trial = rules[:i] + rules[i + 1 :]
            if _ruleset_dl(trial, masks, y, n_possible, exp_fp) < current_dl - _DL_EPS:
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
    bins = _encode(x)
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
        minority_rules.append(
            DecisionRule.build(cond, minority, int(mask.sum()), int((mask & ~y).sum()))
        )
    uncovered = ~masks.union(rules)
    default = DecisionRule.build(
        Condition(), majority, int(uncovered.sum()), int((uncovered & y).sum())
    )
    return RuleSet(tuple(minority_rules), default)


def _fit(bins: _Bins, presence: np.ndarray, seed: int) -> tuple[str, list[list[_IAtom]]]:
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
    exp_fp = n_minority / n
    masks = _RuleMasks(bins.codes)
    rules = _induce(bins, masks, y, rng, n_possible, exp_fp)
    if rules:
        rules = _optimize(rules, bins, masks, y, rng, n_possible, exp_fp)
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
    x, y = dataset.to_arrays()
    bins = _encode(x)
    pos_idx = rng.permutation(np.nonzero(y)[0])
    neg_idx = rng.permutation(np.nonzero(~y)[0])
    folds = []
    for fold in range(k):
        test_idx = np.concatenate((pos_idx[fold::k], neg_idx[fold::k]))
        if test_idx.size:
            folds.append((test_idx, (base_seed * 1000003 + fold) % (2**63)))
    tp, fp, fn = _count_folds(bins, y, folds)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


# ---------------------------------------------------------------------------
# Fold workers
# ---------------------------------------------------------------------------

_Fold = tuple[np.ndarray, int]  # (test row indices, fold seed)


def _fold_counts(
    bins: _Bins, presence: np.ndarray, folds: Sequence[_Fold]
) -> tuple[int, int, int]:
    """(tp, fp, fn) of the folds, each fit on the rows outside its test rows.

    A fold predicts its minority label on the test rows whose bin codes
    its rules cover, and the other label on the rest.
    """
    tp = fp = fn = 0
    for test_idx, fold_seed in folds:
        train = np.ones(len(presence), dtype=bool)
        train[test_idx] = False
        minority, rules = _fit(bins.take(train), presence[train], fold_seed)
        covered = _RuleMasks(bins.codes[test_idx]).union(rules)
        pred = covered if minority == PRESENCE else ~covered
        y_test = presence[test_idx]
        tp += int((pred & y_test).sum())
        fp += int((pred & ~y_test).sum())
        fn += int((~pred & y_test).sum())
    return tp, fp, fn


def _serve_folds() -> None:
    """A fold worker's loop: read pickled _fold_counts arguments, write back the counts."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            share = pickle.load(stdin)
        except EOFError:  # the caller closed the pipe or exited
            return
        pickle.dump(_fold_counts(*share), stdout, pickle.HIGHEST_PROTOCOL)
        stdout.flush()


# Started on the first exchange and kept for the life of the process; the
# lock keeps two threads from interleaving pickles on one pipe.
_workers: list[subprocess.Popen] | None = None
_workers_lock = threading.Lock()


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _start_workers() -> list[subprocess.Popen]:
    # A worker imports the rulefuzz this process runs, whatever its cwd.
    env = dict(os.environ)
    root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    command = [sys.executable, "-c", "from rulefuzz.learner import _serve_folds; _serve_folds()"]
    return [
        subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        for _ in range(_cpu_count() - 1)
    ]


@atexit.register
def _stop_workers(kill: bool = False) -> None:
    """End the fold workers and wait for them; the next exchange starts new ones."""
    global _workers
    workers, _workers = _workers or [], None
    for worker in workers:
        if kill:
            worker.kill()
        with contextlib.suppress(OSError):  # a dead worker's pipe is broken
            worker.stdin.close()  # EOF ends an idle worker
    for worker in workers:
        worker.wait()
        worker.stdout.close()


def _count_folds(
    bins: _Bins, presence: np.ndarray, folds: Sequence[_Fold]
) -> tuple[int, int, int]:
    """_fold_counts over all folds: the caller fits one share, each worker another.

    The shares' counts are integers, so their sum is the same for any
    number of CPUs.  A worker that dies fails the call with its exit code.
    """
    global _workers
    with _workers_lock:
        if _workers is None:
            # The call that starts the workers fits every fold itself while they import.
            _workers, ready = _start_workers(), []
        else:
            ready = _workers
        shares = [folds[i :: len(ready) + 1] for i in range(len(ready) + 1)]
        busy = [(w, share) for w, share in zip(ready, shares[1:]) if share]
        worker = None
        try:
            for worker, share in busy:
                pickle.dump((bins, presence, share), worker.stdin, pickle.HIGHEST_PROTOCOL)
                worker.stdin.flush()
            counts = [_fold_counts(bins, presence, shares[0])]
            for worker, _ in busy:
                counts.append(pickle.load(worker.stdout))
        except BaseException as exc:
            _stop_workers(kill=True)  # an unfinished exchange leaves the pipes out of step
            if worker is not None and isinstance(exc, (OSError, EOFError)):
                raise RuntimeError(
                    f"cross-validation worker {worker.pid} exited with code {worker.returncode}"
                ) from exc
            raise
    tp, fp, fn = (sum(c) for c in zip(*counts))
    return tp, fp, fn
