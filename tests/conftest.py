from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from linedefects.baselines import NgramModel, line_entropies
from linedefects.config import RunConfig
from linedefects.corpus import LineRecord, ReleaseDataset, SourceFile, TokenTable, Vocabulary
from linedefects.pipeline import Ranking
from linedefects.synthetic import make_release_series


def release_of_files(release_id: str, files: dict[str, list[tuple[str, bool]]], release_date=None) -> ReleaseDataset:
    """Build a release from {path: [(content, is_defective), ...]}."""
    built = []
    for path, rows in files.items():
        lines = tuple(
            LineRecord(number=i, content=content, is_defective=bad)
            for i, (content, bad) in enumerate(rows, start=1)
        )
        built.append(
            SourceFile(
                release_id=release_id,
                path=path,
                lines=lines,
                file_label=any(bad for _, bad in rows),
            )
        )
    return ReleaseDataset(
        release_id=release_id,
        release_date=release_date or date(2024, 1, 1),
        files=tuple(built),
    )


def vocab_of(n: int) -> Vocabulary:
    """A vocabulary of ``n`` made-up tokens, for a model built without a corpus."""
    return Vocabulary(tuple(f"tok{i:02d}" for i in range(n)))


def assert_same_table(actual: TokenTable, expected: TokenTable) -> None:
    """The two tables hold the same tokens, and arrays of equal values and dtypes."""
    assert actual.tokens == expected.tokens
    for name in ("ids", "line_ptr", "file_ptr"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        assert np.array_equal(a, e), name


def file_at(release: ReleaseDataset, path: str) -> SourceFile:
    """The file of ``release`` at ``path``."""
    return next(f for f in release.files if f.path == path)


def ranking_rows(ranking: Ranking, release: ReleaseDataset) -> list[tuple[str, int, int, float, float]]:
    """Each row of ``ranking`` as (path, line, hits, score, probability), in rank order."""
    paths = [release.files[j].path for j in ranking.files.tolist()]
    return list(
        zip(
            paths,
            ranking.lines.tolist(),
            ranking.hits.tolist(),
            ranking.scores.tolist(),
            ranking.probabilities.tolist(),
        )
    )


def ranking_of(release: ReleaseDataset, rows) -> Ranking:
    """A ranking of ``release``'s lines from (path, line, hits, score, probability) rows, in row order."""
    index = {f.path: j for j, f in enumerate(release.files)}
    rows = list(rows)
    paths, lines, hits, scores, probabilities = zip(*rows) if rows else ((),) * 5
    return Ranking(
        np.array([index[path] for path in paths], dtype=np.int64),
        np.array(lines, dtype=np.int64),
        np.array(hits, dtype=np.int64),
        np.array(scores, dtype=np.float64),
        np.array(probabilities, dtype=np.float64),
    )


def defective_line_numbers(f: SourceFile) -> set[int]:
    return {line.number for line in f.lines if line.is_defective}


def entropies_by_file(model: NgramModel, release: ReleaseDataset) -> list[dict[int, float]]:
    """``line_entropies`` of a release as one {line number: entropy} dict per file, the oracle's shape."""
    per_file: list[dict[int, float]] = [{} for _ in release.files]
    for index, number, entropy in zip(*(column.tolist() for column in line_entropies(model, release))):
        per_file[index][number] = entropy
    return per_file


def unseen_token_pair() -> tuple[ReleaseDataset, ReleaseDataset]:
    """(train, test) where the test file X.java has no in-vocabulary token.

    Three of the four training files are defective, which gives the trained
    model a positive bias, so X.java is still predicted defective.
    """
    train = release_of_files(
        "t",
        {
            "A.java": [("bug spark bug", True), ("calm", False)],
            "B.java": [("bug spark", True), ("quiet", False)],
            "C.java": [("spark bug", True)],
            "D.java": [("calm quiet calm quiet", False)],
        },
        release_date=date(2024, 1, 1),
    )
    test = release_of_files(
        "s",
        {"X.java": [("zzz yyy;", True), ("www", False)], "Y.java": [("bug spark", True), ("calm", False)]},
        release_date=date(2024, 6, 1),
    )
    return train, test


@pytest.fixture(scope="session")
def planted_pair():
    """A (train, test) release pair with planted risky tokens."""
    train, test = make_release_series(system="fix", n_releases=2, seed=100)
    return train, test


@pytest.fixture(scope="session")
def small_planted_pair():
    """Smaller, faster variant for pipeline-level tests."""
    train, test = make_release_series(
        system="mini", n_releases=2, seed=7, n_files=24, n_defective=8,
        lines_per_file=(10, 16),
    )
    return train, test


@pytest.fixture
def fast_config():
    return RunConfig(seed=3, lime_n=400, lime_k_features=30, k_risky=20, folds=2, repeats=1)
