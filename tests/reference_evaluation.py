"""Reference evaluation: the dict-based measures that ``linedefects.evaluation`` is checked against.

Each line of the test release is a ``(path, line_number)`` key in a truth
dict, and a ranking is a list of such keys, the way ``linedefects.evaluation`` scored rankings before it read the
release's label column by position. The positional measures must give the
same :class:`MetricsReport`, field for field.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

from linedefects.corpus import ReleaseDataset
from linedefects.evaluation import ConfusionCounts, MetricsReport, detection_rates, mcc


def line_truth(test: ReleaseDataset) -> dict[tuple[str, int], bool]:
    """Map (path, line_number) -> defective for every line of the test release."""
    truth: dict[tuple[str, int], bool] = {}
    for f in test.files:
        labels = f.lines.labels.tolist()
        truth.update(zip(zip(repeat(f.path), range(1, len(labels) + 1)), labels))
    return truth


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


def recall_at_top_kloc(
    ranked: Sequence[tuple[str, int]],
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
    order = list(ranked)
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


def ifa(ranked: Sequence[tuple[str, int]], truth: dict[tuple[str, int], bool]) -> int | None:
    """Clean lines inspected before the first defective line in the ranking.

    Returns None for an empty ranking. If no ranked line is defective the
    count saturates at the ranking length.
    """
    if not ranked:
        return None
    clean_seen = 0
    for key in ranked:
        if truth.get(key, False):
            return clean_seen
        clean_seen += 1
    return len(ranked)


def evaluate_ranking(
    method: str,
    unit_id: str,
    ranked: Sequence[tuple[str, int]],
    test: ReleaseDataset,
    file_probs: dict[str, float] | None = None,
) -> MetricsReport:
    """All six measures for one method run on one test release, from the truth dict and (path, line) keys."""
    truth = line_truth(test)
    c = confusion_counts(set(ranked), truth)
    return MetricsReport(
        method=method,
        unit_id=unit_id,
        **detection_rates(c),
        mcc=mcc(c),
        recall_top20loc=recall_at_top_kloc(ranked, truth, file_probs),
        ifa=ifa(ranked, truth),
    )
