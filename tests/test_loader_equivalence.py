"""``corpus.load_dataset`` against the ``csv.DictReader`` loader it replaced, and its parse cache against the CSV.

The generated CSV texts are valid datasets and their corruptions: shuffled
rows, blank lines, reordered, duplicate and extra columns, short rows, bad
integers and booleans, other boolean spellings, gaps in line numbers, mixed
labels and empty release ids. Both loaders must return equal releases or
raise :class:`DatasetError` with the same message. Where the reference
loader ends in another exception, or lets a missing value through, the
loader under test raises :class:`DatasetError` naming the short row.

Every generated CSV is loaded twice, the second time from the cache the
first load left, and must give the same outcome; a load that fails leaves
no cache. Both loads return releases that already hold their token tables,
equal to tokenising the files afresh, and every file's lines as a
:class:`Lines` view. A damaged, stale or unwritable cache falls back to the
CSV. A load opens the CSV once, so a pipe, named or not, loads, and reports
the row of a bad byte, as a file does; only a regular file is read again,
when its cache proves unsound after its key matched.
"""

from __future__ import annotations

import builtins
import csv
import errno
import gc
import io
import os
import pickle
import re
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference_loader
from conftest import assert_same_table, release_of_files
from linedefects import corpus, util
from linedefects.cli import main
from linedefects.corpus import (
    DATASET_COLUMNS, DatasetError, Lines, TokenTable, cache_path, load_dataset, write_dataset,
)
from linedefects.synthetic import make_release_series

FILE_KEYS = [("r1", "A.java"), ("r1", "B,x.java"), ("r2", "A.java"), ("", "C.java")]
CONTENT = st.text(st.sampled_from('ab ,"\n\r;\té'), max_size=6)
SPELLINGS = {True: ["true", " True ", "TRUE"], False: ["false", "False\t", "FALSE"]}
MUTANTS = {
    "release": st.sampled_from(["", "r1", "r3"]),
    "file_path": st.sampled_from(["A.java", "D.java", ""]),
    "line_number": st.sampled_from(["x", "", "0", "-1", " 2 ", "1.0", "7", "٣", "1_0"]),
    "line_content": CONTENT,
    "file_label": st.sampled_from(["true", "false", "yes", "", " True ", "1"]),
    "line_label": st.sampled_from(["true", "false", "no", "", "FALSE", "0"]),
}


def _spell(draw, value: bool) -> str:
    return draw(st.sampled_from(SPELLINGS[value])) if draw(st.integers(0, 4)) == 0 else str(value).lower()


@st.composite
def dataset_texts(draw):
    """``(CSV text, number of its first short data row or None)``."""
    rows = []
    for release, path in draw(st.lists(st.sampled_from(FILE_KEYS), min_size=1, max_size=3, unique=True)):
        labels = draw(st.lists(st.booleans(), min_size=1, max_size=4))
        file_label = any(labels)
        for number, label in enumerate(labels, start=1):
            rows.append({
                "release": release,
                "file_path": path,
                "line_number": str(number),
                "line_content": draw(CONTENT),
                "file_label": _spell(draw, file_label),
                "line_label": _spell(draw, label),
            })
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(max(0, draw(st.integers(-3, 3)))):
        row = draw(st.sampled_from(rows))
        column = draw(st.sampled_from(DATASET_COLUMNS))
        row[column] = draw(MUTANTS[column])

    header = list(draw(st.permutations(DATASET_COLUMNS)))
    for extra in draw(st.lists(st.sampled_from(["note", *DATASET_COLUMNS]), max_size=2)):
        header.insert(draw(st.integers(0, len(header))), extra)
    last = {name: i for i, name in enumerate(header)}
    width = max(last[name] for name in DATASET_COLUMNS) + 1

    lines = [header]
    first_short = None
    for number, row in enumerate(rows, start=2):
        # an earlier occurrence of a repeated column, or an extra one, holds junk
        fields = [row[name] if last.get(name) == i and name in row else "junk" for i, name in enumerate(header)]
        if draw(st.integers(0, 19)) == 0:
            fields = fields[: draw(st.integers(1, len(fields) - 1))]
            if len(fields) < width and first_short is None:
                first_short = number
        lines.append(fields)
        if draw(st.integers(0, 5)) == 0:
            lines.append([])  # a blank line

    out = io.StringIO()
    # minimal quoting after "\n" would leave a lone "\r" unquoted, which ends the row
    terminator, quoting = draw(st.sampled_from([("\r\n", csv.QUOTE_MINIMAL), ("\n", csv.QUOTE_ALL)]))
    writer = csv.writer(out, lineterminator=terminator, quoting=quoting)
    writer.writerows(lines)
    return out.getvalue(), first_short


@st.composite
def metadata_texts(draw):
    rows = ["release,release_date"]
    for release in draw(st.lists(st.sampled_from(["r1", "r2", "r3"]), max_size=3)):
        day = draw(st.sampled_from(["2024-01-02", "2023-12-31", "2024-13-01", "x", ""]))
        rows.append(release if draw(st.integers(0, 5)) == 0 else f"{release},{day}")
    return "\n".join(rows) + "\n"


def assert_same_line_views(cold, warm) -> None:
    """Both loads hold every file's lines as a :class:`Lines` view, with equal lines."""
    assert [len(ds.files) for ds in cold] == [len(ds.files) for ds in warm]
    for cold_release, warm_release in zip(cold, warm):
        for cold_file, warm_file in zip(cold_release.files, warm_release.files):
            assert isinstance(cold_file.lines, Lines) and isinstance(warm_file.lines, Lines)
            assert tuple(cold_file.lines) == tuple(warm_file.lines)


def assert_tables_cached(releases) -> None:
    """Each release came with its token table, equal to one built from its files."""
    for release in releases:
        assert "token_table" in release.__dict__
        assert_same_table(release.token_table, TokenTable.build(release.files))


def _outcome(loader, *paths):
    try:
        return "ok", loader(*paths)
    except DatasetError as exc:
        return "error", str(exc)
    except Exception as exc:  # the reference loader's failures on missing values
        return "crash", type(exc).__name__


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dataset_texts(), st.none() | metadata_texts())
@example(("release,file_path,line_number,line_content,file_label,line_label\nr,A,1,x,false,false\nr,A", 3), None)
@example(("line_number,line_content,file_label,line_label,file_path,release\n1,x,false,false,A\n", 2), None)
@example(("release,file_path,release,line_number,line_content,file_label,line_label\nx,A,r,1,c,false,false\n", None), None)
@example(("release,file_path,line_number,line_content,file_label,line_label\nr,A,0,x,yes,false\n", None), None)
@example(("release,file_path,line_number,line_content,line_label,file_label\nr,A,1,x,yes\n", 2), None)
def test_loader_matches_reference(tmp_path, dataset, metadata):
    text, first_short = dataset
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    paths = [path]
    if metadata is not None:
        paths.append(tmp_path / "meta.csv")
        paths[1].write_text(metadata, encoding="utf-8")

    cache_path(path).unlink(missing_ok=True)  # left by an earlier example
    expected = _outcome(reference_loader.load_dataset, *paths)
    actual = _outcome(load_dataset, *paths)
    assert cache_path(path).exists() == (actual[0] == "ok")
    warm = _outcome(load_dataset, *paths)
    assert warm == actual
    if actual[0] == "ok":
        assert_tables_cached(actual[1])
        assert_tables_cached(warm[1])
        assert_same_line_views(actual[1], warm[1])
    if first_short is None:
        if expected[0] == "crash":
            assert actual[0] == "error"
        else:
            assert actual == expected
        return

    # a short row: the reference loader either rejects an earlier row (or the
    # short row's line number) with the same message, or mishandles the row
    assert actual[0] == "error"
    named = re.match(re.escape(f"{path}:") + r"(\d+)[: ]", expected[1]) if expected[0] == "error" else None
    if named and int(named.group(1)) <= first_short:
        assert actual == expected
    else:
        assert actual[1].startswith(f"{path}:{first_short}: no value for ")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(
        dataset_texts().map(lambda dataset: dataset[0].encode("utf-8")),
        st.binary(max_size=200),
        st.binary(max_size=40).map(lambda tail: b"release,file_path,line_number,line_content,file_label,line_label\n" + tail),
    )
)
def test_density_exits_zero_or_data_error(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    assert main(["density", "--dataset", str(path), "--out", str(tmp_path / "density.csv")]) in (0, 2)


@pytest.fixture
def cached(tmp_path):
    """A dataset CSV, its releases parsed from the CSV, and the cache that load left."""
    path = tmp_path / "data.csv"
    write_dataset(make_release_series(n_releases=2, seed=4, n_files=6, n_defective=2), path)
    releases = load_dataset(path)
    assert cache_path(path).exists()
    return path, releases


def _parses(monkeypatch) -> list:
    """A list that gains an entry each time the loader constructs a ``csv.reader``."""
    calls = []
    real = csv.reader
    monkeypatch.setattr(corpus.csv, "reader", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def _resaved(change):
    """A damage that saves the cache again after ``change(arrays)`` edits its arrays in place."""

    def damage(path):
        with np.load(path) as archive:
            arrays = dict(archive)
        change(arrays)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)

    return damage


def _edited(name, change):
    """A damage that saves the cache again with array ``name`` replaced by ``change(array)``."""
    return _resaved(lambda arrays: arrays.update({name: change(arrays[name])}))


def _texts_edited(name, change):
    """A damage that saves the cache again with its ``name`` texts (tokens, paths) replaced by ``change(texts)``."""

    def edit(arrays):
        bounds = arrays[f"{name}_offsets"].tolist()
        text = arrays[f"{name}_text"].tobytes().decode("ascii")
        arrays.update(corpus._packed(name, change([text[start:end] for start, end in zip(bounds, bounds[1:])])))

    return _resaved(edit)


def _last_id_one_past_its_release(arrays):
    arrays["token_ids"][-1] = arrays["release_tokens"][-1]


def _cli_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(Path(corpus.__file__).resolve().parents[1])}


def _run_cli(argv, fifo=None, timeout=60, **kwargs) -> subprocess.CompletedProcess:
    """Run the CLI in a child process; given ``fifo``, a named pipe and its bytes, feed it those bytes once.

    The pipe is written once, after the child opens it to read; a second open
    would wait for a writer, and time out.
    """
    if fifo is None:
        return subprocess.run([sys.executable, "-m", "linedefects.cli", *argv], env=_cli_env(), capture_output=True,
                              timeout=timeout, **kwargs)
    name, data = fifo
    with subprocess.Popen([sys.executable, "-m", "linedefects.cli", *argv], env=_cli_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        try:
            deadline = time.monotonic() + timeout
            while True:
                try:  # without a reader, a non-blocking open for writing fails with ENXIO
                    writer = os.open(name, os.O_WRONLY | os.O_NONBLOCK)
                    break
                except OSError as exc:
                    if exc.errno != errno.ENXIO or child.poll() is not None or time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            os.set_blocking(writer, True)
            with open(writer, "wb") as handle:
                handle.write(data)
            stdout, stderr = child.communicate(timeout=timeout)
        finally:
            child.kill()
    return subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)


class TestParseCache:
    def test_warm_load_does_not_parse_the_csv(self, cached, monkeypatch):
        path, releases = cached
        calls = _parses(monkeypatch)
        assert load_dataset(path) == releases
        assert calls == []

    @pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
    def test_warm_load_leaves_the_collector_as_it_was(self, cached, collecting):
        path, releases = cached
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert load_dataset(path) == releases
            assert gc.isenabled() == collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_cache_reads_no_dates(self, cached, tmp_path):
        path, releases = cached
        meta = tmp_path / "meta.csv"
        meta.write_text("release,release_date\ndemo-1.0,2020-05-06\n")
        dated = load_dataset(path, meta)
        assert [ds.release_date for ds in dated] == [date(2020, 5, 6), None]
        assert [ds.files for ds in dated] == [ds.files for ds in releases]
        assert [ds.release_date for ds in load_dataset(path)] == [None, None]

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]), id="truncated"),
            pytest.param(lambda path: path.write_bytes(b"release,file_path\n"), id="not-npz"),
            pytest.param(lambda path: path.write_bytes(pickle.dumps([1, 2])), id="pickle"),
            pytest.param(_edited("key", np.zeros_like), id="wrong-key"),
            pytest.param(_edited("version", lambda version: version + 1), id="wrong-version"),
            # the first file claims one line more, so every later file would start a line late
            pytest.param(_edited("file_lines", lambda lines: np.r_[lines[0] + 1, lines[1:]]), id="inconsistent-lengths"),
            pytest.param(_edited("content_offsets", lambda ends: np.r_[ends[:-2], ends[-1] + 1, ends[-1]]),
                         id="inconsistent-offsets"),
            # 0 and 2 read as labels, but 2 is not True
            pytest.param(_edited("line_label", lambda labels: labels.astype(np.int64) * 2), id="wrong-dtype"),
            pytest.param(_edited("content_text", lambda text: np.array([text.tobytes()], dtype=object)),
                         id="object-array"),
            pytest.param(_edited("content_text", lambda text: np.frombuffer(b"\xff", dtype=np.uint8)), id="not-utf8"),
            pytest.param(_resaved(_last_id_one_past_its_release), id="id-out-of-range"),
            pytest.param(_edited("token_ids", lambda ids: np.r_[-1, ids[1:]]), id="negative-id"),
            # the first release's two first tokens trade places, or the first is given again
            pytest.param(_texts_edited("token", lambda tokens: [tokens[1], tokens[0], *tokens[2:]]),
                         id="unsorted-tokens"),
            pytest.param(_texts_edited("token", lambda tokens: [tokens[0], tokens[0], *tokens[2:]]),
                         id="repeated-token"),
            # the first release's two first files trade paths: sorted on load, they would no longer match its table
            pytest.param(_texts_edited("path", lambda paths: [paths[1], paths[0], *paths[2:]]), id="unsorted-paths"),
            pytest.param(_edited("line_tokens", lambda counts: np.r_[counts[:-1], counts[-1] + 1]),
                         id="token-count-sum"),
            pytest.param(_edited("line_tokens", lambda counts: np.r_[counts[0] + counts[1] + 1, -1, counts[2:]]),
                         id="negative-token-count"),
            # every line's ids would start one line late
            pytest.param(_edited("line_tokens", lambda counts: np.r_[0, counts]), id="token-counts-too-long"),
            # a space sorts before every token byte, so the tokens stay in text order
            pytest.param(_edited("token_text", lambda text: np.r_[np.uint8(ord(" ")), text[1:]]),
                         id="separator-in-token"),
            # the first token's text joins the second's
            pytest.param(_edited("token_offsets", lambda offsets: np.r_[0, 0, offsets[2:]]),
                         id="empty-token"),
        ],
    )
    def test_damaged_cache_falls_back_to_the_csv_and_is_rewritten(self, cached, monkeypatch, damage):
        path, releases = cached
        damage(cache_path(path))
        calls = _parses(monkeypatch)
        reloaded = load_dataset(path)
        assert reloaded == releases
        assert len(calls) == 1
        assert_tables_cached(reloaded)
        rewritten = load_dataset(path)
        assert rewritten == releases
        assert len(calls) == 1
        assert_tables_cached(rewritten)

    def test_negative_token_count_of_a_release_without_tokens_falls_back(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        blank = release_of_files("blank", {"A.java": [("", False), ("();", False)]})
        write_dataset([blank, *make_release_series(n_releases=1, seed=4, n_files=4, n_defective=1)], path)
        releases = load_dataset(path)
        # the tokenless first release would take all but the last token, and the other release that one
        _edited("release_tokens", lambda counts: counts + np.array([-1, 1]))(cache_path(path))
        calls = _parses(monkeypatch)
        reloaded = load_dataset(path)
        assert reloaded == releases
        assert len(calls) == 1
        assert_tables_cached(reloaded)

    def test_rewritten_csv_is_parsed_again(self, cached):
        path, releases = cached
        other = make_release_series(n_releases=1, seed=9, n_files=5, n_defective=1)
        write_dataset(other, path)
        assert load_dataset(path) == reference_loader.load_dataset(path) != releases
        assert load_dataset(path) == reference_loader.load_dataset(path)

    def test_a_pipe_is_read_once_and_not_cached(self, cached, tmp_path):
        path, releases = cached
        out = tmp_path / "density.csv"
        for dataset in (str(path), "/dev/stdin"):
            _run_cli(["density", "--dataset", dataset, "--out", str(out)], input=path.read_bytes(), check=True)
            assert out.read_text().count("\n") == 1 + sum(len(ds.files) for ds in releases)

    @pytest.mark.parametrize("source", ["fifo", "stdin"])
    @pytest.mark.parametrize("flag", ["--dataset", "--metadata"])
    def test_a_pipe_with_a_bad_byte_names_its_row(self, tmp_path, source, flag):
        # each file's second row ends in a digit, or in its place the byte 0xff in the file under test
        texts = {
            "--dataset": ",".join(DATASET_COLUMNS).encode() + b"\nr,A.java,1,x?,false,false\n",
            "--metadata": b"release,release_date\nr,2024-01-0?\n",
        }
        other = "--metadata" if flag == "--dataset" else "--dataset"
        bad = texts[flag].replace(b"?", b"\xff")
        (tmp_path / "good.csv").write_bytes(texts[other].replace(b"?", b"2"))
        name = "/dev/stdin" if source == "stdin" else str(tmp_path / "bad.csv")
        argv = ["evaluate", "--setting", "cross", "--out-dir", str(tmp_path / "out"), flag, name, other,
                str(tmp_path / "good.csv")]
        if source == "stdin":
            done = _run_cli(argv, input=bad)
        else:
            os.mkfifo(name)
            done = _run_cli(argv, fifo=(name, bad))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(f"error: {name}:2: not UTF-8 text: byte 0xff".encode()), done.stderr

    def test_a_pipe_gives_releases_with_their_tables(self, cached):
        path, releases = cached
        code = (
            "from linedefects.corpus import load_dataset; "
            "print([('token_table' in ds.__dict__, ds.release_id) for ds in load_dataset('/dev/stdin')])"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], input=path.read_bytes(), env=_cli_env(), check=True, capture_output=True,
            timeout=120,
        )
        assert done.stdout.decode().strip() == str([(True, ds.release_id) for ds in releases])

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_a_load_opens_the_csv_once(self, cached, monkeypatch, warm):
        path, releases = cached
        if not warm:
            cache_path(path).unlink()
        opened = []
        real_open, real_path_open = builtins.open, Path.open

        def counted(real):
            def open_(file, *args, **kwargs):
                opened.append(str(file))
                return real(file, *args, **kwargs)

            return open_

        monkeypatch.setattr(builtins, "open", counted(real_open))
        monkeypatch.setattr(Path, "open", counted(real_path_open))
        calls = _parses(monkeypatch)
        assert load_dataset(path) == releases
        assert opened.count(str(path)) == 1
        assert len(calls) == (0 if warm else 1)

    def test_a_cache_that_proves_unsound_after_its_key_matched_rereads_the_csv(self, cached, monkeypatch):
        path, releases = cached
        # the first file claims one line more: found only after the version and key have matched
        _edited("file_lines", lambda lines: np.r_[lines[0] + 1, lines[1:]])(cache_path(path))
        other = make_release_series(n_releases=1, seed=9, n_files=5, n_defective=1)
        real_read_cache = corpus._read_cache

        def rewritten_meanwhile(archive):
            write_dataset(other, path)  # the CSV changes after its first read
            return real_read_cache(archive)

        monkeypatch.setattr(corpus, "_read_cache", rewritten_meanwhile)
        reads = []
        real_read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or real_read_bytes(self))
        assert load_dataset(path) == reference_loader.load_dataset(path) != releases
        assert reads == [path, path]
        # the parse was cached under the bytes read the second time: the next load is warm
        monkeypatch.setattr(corpus, "_read_cache", real_read_cache)
        calls = _parses(monkeypatch)
        warm = load_dataset(path)
        assert calls == []
        assert warm == reference_loader.load_dataset(path)

    def test_a_pipe_keeps_its_bytes_for_a_cache_that_proves_unsound(self, cached, tmp_path, monkeypatch):
        path, releases = cached
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        # a cache of the same bytes beside the pipe, damaged past its version and key
        cache_path(fifo).write_bytes(cache_path(path).read_bytes())
        _edited("file_lines", lambda lines: np.r_[lines[0] + 1, lines[1:]])(cache_path(fifo))
        # the pipe's bytes, served without a writer; a second read would find none
        data, reads = path.read_bytes(), []
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or data)
        assert load_dataset(fifo) == releases
        assert reads == [fifo]

    def test_unwritable_directory_skips_the_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        write_dataset(make_release_series(n_releases=1, seed=4, n_files=4, n_defective=1), path)

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(util.tempfile, "mkstemp", refuse)
        assert load_dataset(path) == load_dataset(path) == reference_loader.load_dataset(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        write_dataset(make_release_series(n_releases=1, seed=4, n_files=4, n_defective=1), path)

        def disk_full(handle, **arrays):
            handle.write(b"PK partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(corpus.np, "savez", disk_full)
        assert load_dataset(path) == reference_loader.load_dataset(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]
