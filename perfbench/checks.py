"""Output checks of one benchmark op.

A check returns a list of problems; an empty list means the output passed.
Any problem fails the op, and failed ops count toward the error rate.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

RANKED_COLUMNS = ("rank", "release", "file_path", "line_number", "hit_count", "score_sum", "file_probability")
METRICS_COLUMNS = ("setting", "method", "unit_id", "recall", "far", "d2h", "mcc", "recall_top20loc", "ifa")
STATS_COLUMNS = ("setting", "metric", "baseline", "pct_diff", "p_value", "effect_r", "magnitude")

# methods whose rows follow the pipeline's global order
HIT_ORDERED = ("linedp", "tmi_lr")


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        return list(reader.fieldnames or []), list(reader)


def _rank_key(row: dict[str, str]) -> tuple:
    return (
        -int(row["hit_count"]),
        -float(row["score_sum"]),
        -float(row["file_probability"]),
        row["file_path"],
        int(row["line_number"]),
    )


def check_ranked(
    path: Path,
    method: str,
    release_lines: set[tuple[str, int]],
    threshold: float | None = None,
) -> list[str]:
    """Problems in one ranked-lines CSV written by ``linedefects predict``.

    ``release_lines`` holds every (path, line number) of the test release;
    ``threshold`` is the entropy threshold an ngram run used.
    """
    header, rows = read_csv(path)
    if tuple(header) != RANKED_COLUMNS:
        return [f"{path.name}: header {header} != {list(RANKED_COLUMNS)}"]
    problems = []
    ranks = [int(r["rank"]) for r in rows]
    if ranks != list(range(1, len(rows) + 1)):
        problems.append(f"{path.name}: ranks are not 1..{len(rows)} in order")
    keys = [(r["file_path"], int(r["line_number"])) for r in rows]
    if len(set(keys)) != len(keys):
        problems.append(f"{path.name}: a line is ranked twice")
    absent = [k for k in keys if k not in release_lines]
    if absent:
        problems.append(f"{path.name}: {len(absent)} ranked lines are not in the test release, e.g. {absent[0]}")
    if method in HIT_ORDERED:
        for i in range(1, len(rows)):
            if _rank_key(rows[i - 1]) > _rank_key(rows[i]):
                problems.append(f"{path.name}: rank {i + 1} is out of the (hits, score, probability, path, line) order")
                break
    if method == "linedp":
        low = [r["rank"] for r in rows if not float(r["file_probability"]) > 0.5]
        if low:
            problems.append(f"{path.name}: rank {low[0]} comes from a file with probability <= 0.5")
    if method == "ngram" and threshold is not None:
        low = [r["rank"] for r in rows if not float(r["score_sum"]) > threshold]
        if low:
            problems.append(f"{path.name}: rank {low[0]} has entropy <= threshold {threshold}")
    return problems


def d2h_of(predicted: set[tuple[str, int]], truth: dict[tuple[str, int], bool]) -> float:
    """Distance to heaven of a predicted-defective line set over the release's lines."""
    tp = sum(1 for k, bad in truth.items() if bad and k in predicted)
    fn = sum(1 for bad in truth.values() if bad) - tp
    fp = sum(1 for k in predicted if truth.get(k) is False)
    tn = len(truth) - tp - fn - fp
    recall = tp / (tp + fn)
    far = fp / (fp + tn)
    return math.sqrt(((1.0 - recall) ** 2 + far**2) / 2.0)


def ranked_lines(path: Path) -> set[tuple[str, int]]:
    _, rows = read_csv(path)
    return {(r["file_path"], int(r["line_number"])) for r in rows}


def check_evaluation(out_dir: Path, methods: tuple[str, ...], units: int) -> tuple[list[str], dict[str, float]]:
    """Problems in a ``linedefects evaluate`` output directory, and the mean d2h per method."""
    problems = []
    header, rows = read_csv(out_dir / "metrics.csv")
    if tuple(header) != METRICS_COLUMNS:
        return [f"metrics.csv: header {header} != {list(METRICS_COLUMNS)}"], {}
    d2h: dict[str, list[float]] = {m: [] for m in methods}
    for method in methods:
        mine = [r for r in rows if r["method"] == method]
        if len({r["unit_id"] for r in mine}) != units or len(mine) != units:
            problems.append(f"metrics.csv: {method} has {len(mine)} rows, expected {units} distinct units")
    for r in rows:
        if r["method"] not in d2h:
            problems.append(f"metrics.csv: unexpected method {r['method']!r}")
            continue
        if r["d2h"]:
            value = float(r["d2h"])
            if not 0.0 <= value <= 1.0:
                problems.append(f"metrics.csv: d2h {value} out of [0, 1]")
            d2h[r["method"]].append(value)
    header, stats = read_csv(out_dir / "stats.csv")
    if tuple(header) != STATS_COLUMNS:
        problems.append(f"stats.csv: header {header} != {list(STATS_COLUMNS)}")
    elif not stats:
        problems.append("stats.csv: no rows")
    means = {m: sum(v) / len(v) for m, v in d2h.items() if v}
    return problems, means


def digest(paths: list[Path]) -> str:
    """sha256 over the named files' bytes, in the order given."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
