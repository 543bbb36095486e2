"""Line-level evaluation measures, validation protocols, and paired statistics.

The confusion universe for a test release is every line of every test file;
lines of files a method never flagged count as predicted clean. That keeps
recall and false alarm rate comparable across methods that flag different
file subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtr

from .corpus import ReleaseDataset
from .util import write_csv

METRICS_CSV_COLUMNS = ("setting", "method", "unit_id", "recall", "far", "d2h", "mcc", "recall_top20loc", "ifa")
STATS_CSV_COLUMNS = ("setting", "metric", "baseline", "pct_diff", "p_value", "effect_r", "magnitude")

# metric name -> direction of the one-sided test when "ours" should be better
METRIC_DIRECTIONS = {
    "recall": "greater",
    "far": "less",
    "d2h": "less",
    "mcc": "greater",
    "recall_top20loc": "greater",
    "ifa": "less",
}


@dataclass(frozen=True)
class ConfusionCounts:
    """Line-level confusion counts; tp+fp+tn+fn equals the evaluated line total."""

    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class IfaResult:
    value: int
    saturated: bool


@dataclass
class MetricsReport:
    method: str
    unit_id: str
    recall: float | None
    far: float | None
    d2h: float | None
    mcc: float
    recall_at_20pct_loc: float | None
    ifa: int | None


@dataclass(frozen=True)
class StatTestResult:
    p_value: float
    z_score: float
    effect_r: float
    magnitude: str


def confusion_counts(predicted: set, truth: dict) -> ConfusionCounts:
    """Confusion over the full line universe given the predicted-defective line set.

    ``truth`` maps every line key in the universe to its actual label;
    ``predicted`` holds the keys of lines a method flagged.
    """
    tp = fp = tn = fn = 0
    for key, defective in truth.items():
        flagged = key in predicted
        if defective and flagged:
            tp += 1
        elif defective:
            fn += 1
        elif flagged:
            fp += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def recall(c: ConfusionCounts) -> float | None:
    if c.tp + c.fn == 0:
        return None
    return c.tp / (c.tp + c.fn)


def far(c: ConfusionCounts) -> float | None:
    if c.fp + c.tn == 0:
        return None
    return c.fp / (c.fp + c.tn)


def d2h(recall_value: float | None, far_value: float | None) -> float | None:
    """Root mean square distance from (recall, FAR) to the ideal point (1, 0)."""
    if recall_value is None or far_value is None:
        return None
    return math.sqrt(((1.0 - recall_value) ** 2 + (0.0 - far_value) ** 2) / 2.0)


def detection_rates(predicted: set, truth: dict) -> dict[str, float | None]:
    """Recall, FAR and d2h of a predicted-defective line set over the full line universe."""
    c = confusion_counts(predicted, truth)
    r, f = recall(c), far(c)
    return {"recall": r, "far": f, "d2h": d2h(r, f)}


def mcc(c: ConfusionCounts) -> float:
    denom_sq = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if denom_sq == 0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom_sq)


def _ranking_keys(ranked: Iterable) -> list[tuple[str, int]]:
    return [(line.file_path, line.line_number) for line in ranked]


def recall_at_top_kloc(
    ranked: Sequence,
    truth: dict[tuple[str, int], bool],
    file_probs: dict[str, float] | None = None,
    k_pct: float = 20.0,
) -> float | None:
    """Fraction of defective lines inside a budget of k% of total lines.

    The inspection order is the ranking; once the ranking is exhausted, the
    remaining budget is filled with unranked lines ordered by file
    probability (descending), then path and line number.
    """
    total_loc = len(truth)
    if total_loc == 0:
        raise ValueError("empty line universe")
    total_defective = sum(1 for v in truth.values() if v)
    if total_defective == 0:
        return None
    budget = int(k_pct / 100.0 * total_loc)
    if budget <= 0:
        return 0.0
    order = _ranking_keys(ranked)
    if budget > len(order):
        probs = file_probs or {}
        ranked_set = set(order)
        rest = sorted(
            (key for key in truth if key not in ranked_set),
            key=lambda key: (-probs.get(key[0], 0.0), key[0], key[1]),
        )
        order = order + rest
    hits = sum(1 for key in order[:budget] if truth.get(key, False))
    return hits / total_defective


def ifa(ranked: Sequence, truth: dict[tuple[str, int], bool]) -> IfaResult | None:
    """Clean lines inspected before the first defective line in the ranking.

    Returns None for an empty ranking. If no ranked line is defective the
    count saturates at the ranking length and is flagged as such.
    """
    order = _ranking_keys(ranked)
    if not order:
        return None
    clean_seen = 0
    for key in order:
        if truth.get(key, False):
            return IfaResult(value=clean_seen, saturated=False)
        clean_seen += 1
    return IfaResult(value=len(order), saturated=True)


def line_truth(test: ReleaseDataset) -> dict[tuple[str, int], bool]:
    """Map (path, line_number) -> defective for every line of the test release."""
    truth: dict[tuple[str, int], bool] = {}
    for f in test.files:
        for line in f.lines:
            truth[(f.path, line.number)] = line.is_defective
    return truth


def evaluate_ranking(
    method: str,
    unit_id: str,
    ranked: Sequence,
    test: ReleaseDataset,
    file_probs: dict[str, float] | None = None,
    k_pct: float = 20.0,
) -> MetricsReport:
    """All six measures for one method run on one test release."""
    truth = line_truth(test)
    predicted = set(_ranking_keys(ranked))
    c = confusion_counts(predicted, truth)
    r = recall(c)
    f = far(c)
    ifa_result = ifa(ranked, truth)
    return MetricsReport(
        method=method,
        unit_id=unit_id,
        recall=r,
        far=f,
        d2h=d2h(r, f),
        mcc=mcc(c),
        recall_at_20pct_loc=recall_at_top_kloc(ranked, truth, file_probs, k_pct),
        ifa=None if ifa_result is None else ifa_result.value,
    )


@dataclass(frozen=True)
class FoldSplit:
    repeat: int
    fold: int
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


def stratified_kfold(
    labels: Sequence[bool], folds: int = 10, repeats: int = 10, seed: int = 0
) -> list[FoldSplit]:
    """Repeated stratified k-fold assignments over file indices.

    Every repeat shuffles and deals each class round-robin across folds, so
    per-fold class counts differ by at most one. Each fold serves once as
    the test set per repeat, giving folds x repeats train/test splits.
    """
    labels = [bool(v) for v in labels]
    n = len(labels)
    if n < folds:
        raise ValueError(f"need at least {folds} files for {folds}-fold validation, got {n}")
    positives = [i for i, v in enumerate(labels) if v]
    negatives = [i for i, v in enumerate(labels) if not v]
    for name, members in (("defective", positives), ("clean", negatives)):
        if len(members) < folds:
            raise ValueError(
                f"the {name} class has {len(members)} files, fewer than folds={folds}"
            )
    rng = np.random.default_rng(seed)
    splits: list[FoldSplit] = []
    for repeat in range(repeats):
        assignment: list[list[int]] = [[] for _ in range(folds)]
        for members in (positives, negatives):
            shuffled = list(members)
            rng.shuffle(shuffled)
            for slot, idx in enumerate(shuffled):
                assignment[slot % folds].append(idx)
        for fold in range(folds):
            test_idx = tuple(sorted(assignment[fold]))
            train_idx = tuple(sorted(i for other in range(folds) if other != fold for i in assignment[other]))
            splits.append(FoldSplit(repeat=repeat, fold=fold, train_indices=train_idx, test_indices=test_idx))
    return splits


def cross_release_pairs(
    releases: Sequence[ReleaseDataset],
) -> list[tuple[ReleaseDataset, ReleaseDataset]]:
    """Consecutive (train = release k-1, test = release k) pairs, ordered by release date."""
    ordered = sorted(
        releases,
        key=lambda ds: (ds.release_date is None, ds.release_date, ds.release_id),
    )
    return [(ordered[i], ordered[i + 1]) for i in range(len(ordered) - 1)]


def performance_diff(ours: Sequence[float], base: Sequence[float]) -> float | None:
    """Percentage difference sum(ours - base) / sum(base); None when the base sums to zero."""
    if len(ours) != len(base):
        raise ValueError("paired performance lists must have equal length")
    base_sum = float(sum(base))
    if base_sum == 0.0:
        return None
    return 100.0 * float(sum(o - b for o, b in zip(ours, base))) / base_sum


def _effect_magnitude(r: float) -> str:
    r = abs(r)
    if r > 0.5:
        return "large"
    if r > 0.3:
        return "medium"
    if r > 0.1:
        return "small"
    return "negligible"


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, ties sharing the mean of the ranks they span.

    The mean of ranks i+1..j is (i + 1 + j) / 2, a whole number or an exact
    half, so these equal ``scipy.stats.rankdata(values)`` bit for bit.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _exact_one_sided_p(ranks: np.ndarray, w_plus: float, direction: str) -> float:
    """Exact tail probability of W+ over all 2^n sign patterns of the observed ranks."""
    n = ranks.shape[0]
    idx = np.arange(2**n, dtype=np.uint32)
    patterns = ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)
    sums = patterns @ ranks
    eps = 1e-9
    if direction == "greater":
        count = int(np.count_nonzero(sums >= w_plus - eps))
    else:
        count = int(np.count_nonzero(sums <= w_plus + eps))
    return count / float(2**n)


def wilcoxon_one_sided(
    a: Sequence[float], b: Sequence[float], direction: str = "greater"
) -> StatTestResult | None:
    """One-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped and ties get average ranks. The exact
    conditional distribution is enumerated for n <= 15 non-zero pairs; the
    normal approximation with tie correction is used beyond that. Returns
    None (a missing value) when fewer than five non-zero differences remain.
    The effect size is r = Z / sqrt(n).
    """
    if direction not in ("greater", "less"):
        raise ValueError("direction must be 'greater' or 'less'")
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    diffs = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    diffs = diffs[diffs != 0.0]
    n = diffs.shape[0]
    if n < 5:
        return None
    ranks = average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(((tie_counts**3 - tie_counts) / 48.0).sum())
    sigma_sq = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    sigma = math.sqrt(sigma_sq) if sigma_sq > 0 else 0.0
    z = 0.0 if sigma == 0.0 else (w_plus - mu) / sigma
    if n <= 15:
        p = _exact_one_sided_p(ranks, w_plus, direction)
    elif sigma == 0.0:
        p = 1.0
    elif direction == "greater":
        p = float(1.0 - ndtr(z))
    else:
        p = float(ndtr(z))
    r = z / math.sqrt(n)
    return StatTestResult(p_value=p, z_score=z, effect_r=r, magnitude=_effect_magnitude(r))


def write_metrics_csv(path, setting: str, reports: Sequence[MetricsReport]) -> None:
    rows = (
        (setting, rep.method, rep.unit_id, rep.recall, rep.far, rep.d2h, rep.mcc, rep.recall_at_20pct_loc,
         rep.ifa)
        for rep in reports
    )
    write_csv(path, METRICS_CSV_COLUMNS, rows)


def write_stats_csv(path, rows: Sequence[dict]) -> None:
    write_csv(path, STATS_CSV_COLUMNS, ([row.get(col) for col in STATS_CSV_COLUMNS] for row in rows))
