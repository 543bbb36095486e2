"""Every command ends in exit 0 or a named data error (exit 2) on any valid dataset or any model document.

Hypothesis generates small valid datasets: one to three releases of one to
eight files, whose lines hold identifiers, only punctuation, or nothing.
Each dataset goes through ``train``, ``predict`` with every method, both
``evaluate`` settings and both ``sensitivity`` targets. It also edits a
trained model document: it drops keys, sets numbers to NaN or infinities,
changes types and lengths and repeats tokens, and runs ``predict`` with
every method that reads the model. Last, it overwrites, inserts and deletes
bytes of a model document, a commit export, an issue list and a config
file, any byte value included, and runs the command that reads the file.
A traceback fails the test.
"""

from __future__ import annotations

import json
import tempfile
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linedefects.cli import main
from linedefects.corpus import write_dataset
from linedefects.experiments import ALL_METHODS, METHOD_INPUTS
from linedefects.model import load_model
from linedefects.synthetic import make_release_series

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
    dataset = ["--dataset", str(data)]
    model = str(out / "model.json")
    yield ["train", "--releases", "r1", "--out", model] + dataset
    for method in ALL_METHODS:
        yield ["predict", "--model", model, "--release", last, "--train-release", "r1", "--method", method,
               "--out", str(out / f"{method}.csv")] + dataset + FLAGS
    for setting in ("within", "cross"):
        yield ["evaluate", "--setting", setting, "--folds", "2", "--repeats", "1", "--metadata", str(meta),
               "--out-dir", str(out / setting)] + dataset + FLAGS
    for target in ("k_risky", "entropy_threshold"):
        yield ["sensitivity", "--target", target, "--train-release", "r1", "--test-release", last,
               "--out", str(out / f"{target}.csv")] + dataset + FLAGS


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
            assert main(argv) in (0, 2), argv[0]


# half of the drawn values are NaN or an infinity, which Python's json reads and writes
JSON_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(), st.text(max_size=3), st.just([])),
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-model")
    data = root / "data.csv"
    write_dataset(make_release_series(n_releases=2, seed=3, n_files=12, n_defective=4), data)
    model = root / "model.json"
    assert main(["train", "--dataset", str(data), "--releases", "demo-1.0", "--out", str(model)]) == 0
    return data, json.loads(model.read_text())


def _edit(draw, doc: dict) -> dict:
    """The document with one key dropped, one value or list entry replaced, or one list resized."""
    meta = doc.get("train_meta")
    parent = draw(st.sampled_from([doc, meta] if isinstance(meta, dict) and meta else [doc]))
    key = draw(st.sampled_from(sorted(parent)))
    # a bad number goes wrong in silence, so half of the edits replace a value
    action = draw(st.sampled_from(["drop", "replace", "entry", "entry", "shorten", "repeat"]))
    if action == "drop":
        del parent[key]
    elif action == "replace" or not isinstance(parent[key], list) or not parent[key]:
        parent[key] = draw(JSON_VALUES)
    elif action == "entry":
        parent[key][draw(st.integers(0, len(parent[key]) - 1))] = draw(JSON_VALUES)
    elif action == "shorten":
        parent[key].pop()
    else:
        parent[key].append(parent[key][0])
    return doc


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_predict_exits_zero_or_data_error_on_edited_model(trained, tmp_path, data):
    dataset, doc = trained
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _edit(data.draw, doc)
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(doc))
    codes = {
        method: main(["predict", "--model", str(model), "--dataset", str(dataset), "--release", "demo-2.0",
                      "--train-release", "demo-1.0", "--method", method, "--out", str(tmp_path / "out.csv")] + FLAGS)
        for method, inputs in METHOD_INPUTS.items()
        if "model" in inputs
    }
    assert set(codes.values()) <= {0, 2}, codes
    if 0 in codes.values():  # a model that loads is one the program can use
        loaded = load_model(model)
        assert np.isfinite(loaded.weights).all() and np.isfinite(loaded.bias)


@pytest.fixture(scope="module")
def input_files(trained, tmp_path_factory):
    """Each kind of input file: its valid bytes, and the command line, less ``--out``, that reads it from a path."""
    dataset, doc = trained
    root = tmp_path_factory.mktemp("fuzz-inputs")
    snapshot, commits, issues = root / "snapshot.csv", root / "commits.jsonl", root / "issues.txt"
    write_dataset([release_of_files("r", {"A.java": [("x;", False), ("y;", False)]})], snapshot)
    removed = {"path": "A.java", "removed": [{"line": 2, "content": "y;"}]}
    commits.write_text(json.dumps({"commit_id": "c1", "message": "Fix K-1", "changes": [removed]}) + "\n")
    issues.write_text("K-1\nK-2\n")

    def mine(commits_path, issues_path):
        return ["mine", "--commits", str(commits_path), "--issues", str(issues_path), "--snapshot", str(snapshot)]

    predict = ["predict", "--dataset", str(dataset), "--release", "demo-2.0"] + FLAGS
    ngram = predict + ["--method", "ngram", "--train-release", "demo-1.0"]
    return {
        "model": (json.dumps(doc).encode(), lambda path: predict + ["--model", str(path)]),
        "commits": (commits.read_bytes(), lambda path: mine(path, issues)),
        "issues": (issues.read_bytes(), lambda path: mine(commits, path)),
        # ngram reads no worker count, so a corrupted parallelism starts no process
        "config": (b"seed = 3\nk_risky = 5\n", lambda path: ngram + ["--config", str(path)]),
    }


# half of the drawn bytes are digits or JSON and config syntax, so that some corrupted files still parse
BYTES = st.one_of(st.sampled_from(b'0123456789.-e" =\n'), st.integers(0, 255))


def _corrupt(draw, raw: bytes) -> bytes:
    """``raw`` with one to four bytes overwritten, runs of bytes inserted or runs deleted."""
    data = bytearray(raw)
    # positions uniform over the file: drawn integers favour its first bytes
    positions = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(1, 4))):
        at = positions.randint(0, len(data))
        action = draw(st.sampled_from(["overwrite", "insert", "delete"]))
        if action == "insert" or at == len(data):
            data[at:at] = bytes(draw(st.lists(BYTES, min_size=1, max_size=3)))
        elif action == "overwrite":
            data[at] = draw(BYTES)
        else:
            del data[at : at + draw(st.integers(1, 8))]
    return bytes(data)


@pytest.mark.parametrize("kind", ["model", "commits", "issues", "config"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_command_exits_zero_or_data_error_on_corrupted_input_file(input_files, tmp_path, kind, data):
    raw, command = input_files[kind]
    path = tmp_path / kind
    path.write_bytes(_corrupt(data.draw, raw))
    assert main(command(path) + ["--out", str(tmp_path / "out")]) in (0, 2)
