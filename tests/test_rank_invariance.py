"""Global ranking does not depend on the order in which lines or files arrive."""

from __future__ import annotations

import csv

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linedefects.cli import main
from linedefects.config import RunConfig
from linedefects.corpus import ReleaseDataset, write_dataset
from linedefects.pipeline import identify_lines, predict_files, rank_lines_global, train_file_model
from linedefects.synthetic import make_release_series

from conftest import ranking_of, ranking_rows, release_of_files

PATHS = ["A.java", "B.java", "src/C.java", "src/C.java\x00"]

# few distinct values, so that every sort key ties often; a line is flagged at most once
flagged_lines = st.lists(
    st.tuples(
        st.sampled_from(PATHS),
        st.integers(1, 4),
        st.integers(1, 3),
        st.sampled_from([0.25, 0.5, 1.0, 1.5]),
        st.sampled_from([0.6, 0.75, 0.9]),
    ),
    max_size=30,
    unique_by=lambda row: row[:2],
)


@given(st.data(), flagged_lines)
def test_rank_lines_global_ignores_input_order(data, lines):
    # the release's files may be given, and the flagged lines may come, in any order
    release = release_of_files("r", {path: [("x", False)] * 4 for path in PATHS})
    files = data.draw(st.permutations(release.files))
    reordered = ReleaseDataset(release.release_id, release.release_date, tuple(files))
    shuffled = data.draw(st.permutations(lines))
    expected = ranking_rows(rank_lines_global(ranking_of(release, lines)), release)
    assert ranking_rows(rank_lines_global(ranking_of(reordered, shuffled)), reordered) == expected
    assert [row[:2] for row in expected] == [
        row[:2] for row in sorted(lines, key=lambda row: (-row[2], -row[3], -row[4], row[0], row[1]))
    ]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("rank-invariance")
    train, test = make_release_series(
        system="inv", n_releases=2, seed=7, n_files=24, n_defective=8, lines_per_file=(10, 16)
    )
    data, model_path = root / "dataset.csv", root / "model.json"
    write_dataset([train, test], data)
    assert main(["train", "--dataset", str(data), "--releases", train.release_id, "--out", str(model_path)]) == 0
    return root, data, model_path, train_file_model(train), test


FLAGS = ["--lime-n", "200", "--lime-k-features", "20", "--workers", "1", "--seed", "5"]


def _predict(data, model_path, release_id, out) -> bytes:
    rc = main(["predict", "--model", str(model_path), "--dataset", str(data), "--release", release_id,
               "--out", str(out)] + FLAGS)
    assert rc == 0
    return out.read_bytes()


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_identify_lines_ignores_file_order(trained, data):
    _, _, _, model, test = trained
    config = RunConfig(seed=5, lime_n=200, lime_k_features=20)
    files = data.draw(st.permutations(test.files))
    reordered = ReleaseDataset(test.release_id, test.release_date, tuple(files))
    expected = ranking_rows(identify_lines(model, test, predict_files(model, test), config).ranked, test)
    assert expected
    actual = identify_lines(model, reordered, predict_files(model, reordered), config).ranked
    assert ranking_rows(actual, reordered) == expected


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_ranked_csv_ignores_file_order_in_the_dataset(trained, data):
    root, canonical, model_path, _, test = trained
    with open(canonical, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    blocks: dict[tuple[str, str], list[list[str]]] = {}
    for row in rows:
        blocks.setdefault((row[0], row[1]), []).append(row)
    order = data.draw(st.permutations(list(blocks)))
    shuffled = root / "shuffled.csv"
    with open(shuffled, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for key in order:
            writer.writerows(blocks[key])
    expected = _predict(canonical, model_path, test.release_id, root / "canonical.csv")
    assert _predict(shuffled, model_path, test.release_id, root / "ranked.csv") == expected
