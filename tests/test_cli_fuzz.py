"""Every command that trains ends in exit 0 or a named data error (exit 2) on any valid dataset.

Hypothesis generates small valid datasets: one to three releases of one to
eight files, whose lines hold identifiers, only punctuation, or nothing.
Each dataset goes through ``train``, ``predict`` with every method, both
``evaluate`` settings and both ``sensitivity`` targets. A traceback fails
the test.
"""

from __future__ import annotations

import tempfile
from datetime import date
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from linedefects.cli import main
from linedefects.corpus import write_dataset
from linedefects.experiments import ALL_METHODS

from conftest import release_of_files

# few words, so that tokens repeat across lines and files and the vocabulary is often not empty
WORDS = ("a", "b", "node", "get_x", "x1")
SEPARATORS = (" ", "(", ".", " = ", ", ")

line_texts = st.one_of(
    st.tuples(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=4), st.sampled_from(SEPARATORS)
    ).map(lambda words_sep: words_sep[1].join(words_sep[0]) + ";"),
    st.sampled_from(["{ }", ";", "}", "(", "=="]),
    st.just(""),
)
file_lines = st.lists(st.tuples(line_texts, st.booleans()), min_size=1, max_size=6)
release_files = st.lists(file_lines, min_size=1, max_size=8)

FLAGS = ["--lime-n", "50", "--workers", "1"]


def _commands(data: Path, meta: Path, out: Path, last: str):
    dataset = ["--dataset", str(data), "--metadata", str(meta)]
    model = str(out / "model.json")
    yield ["train", "--releases", "r1", "--out", model] + dataset
    for method in ALL_METHODS:
        yield ["predict", "--model", model, "--release", last, "--train-release", "r1", "--method", method,
               "--out", str(out / f"{method}.csv")] + dataset
    for setting in ("within", "cross"):
        yield ["evaluate", "--setting", setting, "--folds", "2", "--repeats", "1",
               "--out-dir", str(out / setting)] + dataset
    for target in ("k_risky", "entropy_threshold"):
        yield ["sensitivity", "--target", target, "--train-release", "r1", "--test-release", last,
               "--out", str(out / f"{target}.csv")] + dataset


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(st.lists(release_files, min_size=1, max_size=3))
def test_training_commands_exit_zero_or_data_error(tmp_path, releases):
    built = [
        release_of_files(
            f"r{r}",
            {f"F{i}.java": lines for i, lines in enumerate(files)},
            release_date=date(2024, r, 1),
        )
        for r, files in enumerate(releases, start=1)
    ]
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        out = Path(root)
        data, meta = out / "data.csv", out / "meta.csv"
        write_dataset(built, data, meta)
        for argv in _commands(data, meta, out, built[-1].release_id):
            assert main(argv + FLAGS) in (0, 2), argv[0]
