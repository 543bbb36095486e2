"""Line-level evaluation measures, validation protocols, and paired statistics.

The confusion universe for a test release is every line of every test file;
lines of files a method never flagged count as predicted clean. That keeps
recall and false alarm rate comparable across methods that flag different
file subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .config import RunConfig
from .corpus import ReleaseDataset
from .util import write_csv

if TYPE_CHECKING:
    from .pipeline import Ranking

# the six measures, in report and CSV order -> direction of the one-sided test when "ours" should be better
METRIC_DIRECTIONS = {
    "recall": "greater",
    "far": "less",
    "d2h": "less",
    "mcc": "greater",
    "recall_top20loc": "greater",
    "ifa": "less",
}

METRICS_CSV_COLUMNS = ("setting", "method", "unit_id", *METRIC_DIRECTIONS)
STATS_CSV_COLUMNS = ("setting", "metric", "baseline", "pct_diff", "p_value", "effect_r", "magnitude")


@dataclass(frozen=True)
class ConfusionCounts:
    """Line-level confusion counts; tp+fp+tn+fn equals the evaluated line total."""

    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class MetricsReport:
    """One method's six measures on one test unit; the measure fields are ``METRIC_DIRECTIONS``, in its order."""

    method: str
    unit_id: str
    recall: float | None
    far: float | None
    d2h: float | None
    mcc: float
    recall_top20loc: float | None
    ifa: int | None


@dataclass(frozen=True)
class StatTestResult:
    p_value: float
    z_score: float
    effect_r: float
    magnitude: str


def confusion_counts(positions: np.ndarray, labels: np.ndarray) -> ConfusionCounts:
    """Confusion over the full line universe ``labels``, which marks the defective lines, given the flagged ``positions``."""
    flagged = np.bincount(positions, minlength=len(labels)) > 0
    tp = int(np.count_nonzero(flagged & labels))
    fp = int(np.count_nonzero(flagged)) - tp
    fn = int(np.count_nonzero(labels)) - tp
    return ConfusionCounts(tp=tp, fp=fp, tn=len(labels) - tp - fp - fn, fn=fn)


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


def detection_rates(c: ConfusionCounts) -> dict[str, float | None]:
    """Recall, FAR and d2h of one set of confusion counts."""
    r, f = recall(c), far(c)
    return {"recall": r, "far": f, "d2h": d2h(r, f)}


def mcc(c: ConfusionCounts) -> float:
    denom_sq = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if denom_sq == 0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom_sq)


def line_labels(test: ReleaseDataset) -> np.ndarray:
    """Every line's defect label, file after file: the label column that positions index."""
    return np.concatenate([f.lines.labels for f in test.files])


def _file_starts(test: ReleaseDataset) -> np.ndarray:
    """The position of each file's first line, then the count of all lines."""
    return np.cumsum([0, *(len(f.lines) for f in test.files)], dtype=np.int64)


def line_positions(ranking: Ranking, test: ReleaseDataset) -> np.ndarray:
    """Each ranked line's position in :func:`line_labels`: the lines of the files before its file, plus its number - 1.

    Raises ValueError for a line numbered outside its file, which would
    otherwise land in a neighbouring file.
    """
    files, numbers = ranking.files, ranking.lines
    starts = _file_starts(test)
    outside = np.flatnonzero((numbers < 1) | (numbers > starts[files + 1] - starts[files]))
    if len(outside):
        row = int(outside[0])
        raise ValueError(f"ranked line {numbers[row]} of {test.files[files[row]].path!r} is outside the file")
    return starts[files] + numbers - 1


def inspection_order(
    positions: np.ndarray, test: ReleaseDataset, file_probs: dict[str, float] | None = None
) -> np.ndarray:
    """The order an effort-aware inspection reads ``test``'s lines in, as positions.

    First the ranked ``positions``; then every line not among them, ordered
    by file probability (descending), then path and line number: a stable
    sort keeps the files' path order among equal probabilities.
    """
    probs = file_probs or {}
    starts = _file_starts(test)
    files = np.argsort([-probs.get(f.path, 0.0) for f in test.files], kind="stable")
    rest = np.concatenate([np.arange(starts[j], starts[j + 1]) for j in files])
    return np.concatenate([positions, rest[np.isin(rest, positions, invert=True)]])


def recall_at_top_kloc(order: np.ndarray, labels: np.ndarray, k_pct: float = 20.0) -> float | None:
    """Fraction of defective lines among the first k% of all lines in inspection ``order``.

    ``order`` holds positions in ``labels``, such as :func:`inspection_order`
    gives; with fewer than the budget, only those are inspected.
    """
    total_loc = len(labels)
    if total_loc == 0:
        raise ValueError("empty line universe")
    total_defective = int(np.count_nonzero(labels))
    if total_defective == 0:
        return None
    budget = int(k_pct / 100.0 * total_loc)
    if budget <= 0:
        return 0.0
    return int(np.count_nonzero(labels[order[:budget]])) / total_defective


def ifa(positions: np.ndarray, labels: np.ndarray) -> int | None:
    """Clean lines inspected before the first defective line among the ranked ``positions``.

    Returns None for an empty ranking. If no ranked line is defective the
    count saturates at the ranking length.
    """
    if not len(positions):
        return None
    defective = np.flatnonzero(labels[positions])
    return int(defective[0]) if len(defective) else len(positions)


def evaluate_ranking(
    method: str,
    unit_id: str,
    ranking: Ranking,
    test: ReleaseDataset,
    file_probs: dict[str, float] | None = None,
) -> MetricsReport:
    """All six measures for one method run on one test release."""
    labels = line_labels(test)
    positions = line_positions(ranking, test)
    c = confusion_counts(positions, labels)
    return MetricsReport(
        method=method,
        unit_id=unit_id,
        **detection_rates(c),
        mcc=mcc(c),
        recall_top20loc=recall_at_top_kloc(inspection_order(positions, test, file_probs), labels),
        ifa=ifa(positions, labels),
    )


@dataclass(frozen=True)
class FoldSplit:
    repeat: int
    fold: int
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


def stratified_kfold(
    labels: Sequence[bool], folds: int = RunConfig.folds, repeats: int = RunConfig.repeats, seed: int = 0
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
    from scipy.special import ndtr

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
        (setting, rep.method, rep.unit_id, *(getattr(rep, metric) for metric in METRIC_DIRECTIONS))
        for rep in reports
    )
    write_csv(path, METRICS_CSV_COLUMNS, rows)


def write_stats_csv(path, rows: Sequence[dict]) -> None:
    write_csv(path, STATS_CSV_COLUMNS, ([row.get(col) for col in STATS_CSV_COLUMNS] for row in rows))
