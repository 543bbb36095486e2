from __future__ import annotations

from datetime import date

import pytest

from linedefects.config import RunConfig
from linedefects.corpus import LineRecord, ReleaseDataset, SourceFile
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
        files=tuple(sorted(built, key=lambda f: f.path)),
    )


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
