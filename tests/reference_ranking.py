"""Reference rankings: one frozen record per flagged line, ordered by Python tuple keys.

This is how ``linedefects.pipeline`` and ``linedefects.baselines`` ranked
lines before a ranking became five columns over its test release
(``linedefects.pipeline.Ranking``). Every method's column ranking must hold
the same rows as these records, in the same order, with bitwise-equal
scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linedefects.util import derive_seed


@dataclass(frozen=True)
class RankedLine:
    """One flagged line; a ranking's list order is its rank."""

    release_id: str
    file_path: str
    line_number: int
    hit_count: int
    score_sum: float
    file_probability: float


def rows(records: list[RankedLine]) -> list[tuple[str, int, int, float, float]]:
    """Each record as (path, line, hits, score, probability), the row ``conftest.ranking_rows`` reads off a ranking."""
    return [(r.file_path, r.line_number, r.hit_count, r.score_sum, r.file_probability) for r in records]


def rank_lines_global(flagged: list[RankedLine]) -> list[RankedLine]:
    """Hit count desc, score sum desc, file probability desc, then (release, path, line number) asc."""
    return sorted(
        flagged,
        key=lambda f: (-f.hit_count, -f.score_sum, -f.file_probability, f.release_id, f.file_path, f.line_number),
    )


def random_order(flagged: list[RankedLine], release_id: str, seed: int) -> list[RankedLine]:
    """The random baseline's order: sorted by (release, path, line), then the seeded permutation of the release."""
    ordered = sorted(flagged, key=lambda f: (f.release_id, f.file_path, f.line_number))
    rng = np.random.default_rng(derive_seed(seed, "random-rank", release_id))
    return [ordered[i] for i in rng.permutation(len(ordered))]


def ngram_order(flagged: list[RankedLine]) -> list[RankedLine]:
    """The n-gram baseline's order: mean entropy desc, then (path, line number) asc."""
    return sorted(flagged, key=lambda line: (-line.score_sum, line.file_path, line.line_number))
