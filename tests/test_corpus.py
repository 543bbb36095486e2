from __future__ import annotations

import pickle
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linedefects.corpus import (
    DatasetError,
    FeatureVector,
    LineRecord,
    Lines,
    ReleaseDataset,
    SourceFile,
    Vocabulary,
    build_vocabulary,
    defect_density,
    load_dataset,
    tokenize,
    vectorize,
    write_dataset,
)
from linedefects.synthetic import make_planted_release

import reference_corpus
from conftest import release_of_files


class TestTokenize:
    def test_separator_rule(self):
        # hand-applied rule: runs of [A-Za-z0-9_], everything else separates
        assert tokenize("runtime.getErr().print(msg);") == ["runtime", "getErr", "print", "msg"]

    def test_empty(self):
        assert tokenize("") == []

    def test_case_sensitive(self):
        assert tokenize("Node node") == ["Node", "node"]

    def test_underscore_and_digits_kept(self):
        assert tokenize("buf_2 = x->y") == ["buf_2", "x", "y"]

    @settings(max_examples=500)
    @given(
        st.text(
            st.one_of(
                st.characters(exclude_categories=()),  # lone surrogates too
                # separators str.split would honour, a non-breaking space, and letters that case-fold to ASCII
                st.sampled_from("\x1c\x1d\x1e\x1f\x85\xa0\u212a\u017f\u0130"),
                st.sampled_from("aZ09_ .;"),
            ),
            max_size=40,
        )
    )
    def test_equals_the_regex_oracle(self, text):
        assert tokenize(text) == reference_corpus.tokenize(text)

    def test_non_ascii_letters_separate(self):
        assert tokenize("a\u212ab\u017fc\u0130d\xe9e\ud800f\x1cg\xa0h") == list("abcdefgh")

    @given(st.text(max_size=200))
    def test_tokens_are_alphanumeric_runs(self, text):
        for token in tokenize(text):
            assert token
            assert all(c.isalnum() or c == "_" for c in token if c.isascii())
            # deterministic
        assert tokenize(text) == tokenize(text)


class TestVocabulary:
    def test_filters_singletons(self):
        release = release_of_files("r", {"A.java": [("a a a b", False), ("c c", False)]})
        vocab = build_vocabulary(release)
        assert set(vocab.token_to_index) == {"a", "c"}
        assert vocab.tokens == ("a", "c")

    def test_single_file_pair(self):
        release = release_of_files("r", {"A.java": [("x x", False)]})
        vocab = build_vocabulary(release)
        assert set(vocab.token_to_index) == {"x"}

    def test_all_singletons_is_error(self):
        release = release_of_files("r", {"A.java": [("a b c", False)]})
        with pytest.raises(ValueError, match="degenerate"):
            build_vocabulary(release)

    def test_indices_dense_lexicographic(self):
        release = release_of_files("r", {"A.java": [("zz zz mm mm aa aa", False)]})
        vocab = build_vocabulary(release)
        assert vocab.token_to_index == {"aa": 0, "mm": 1, "zz": 2}
        assert vocab.tokens == ("aa", "mm", "zz")

    def test_monotone_under_corpus_concatenation(self):
        # every token retained on either corpus alone stays retained on the union
        rng = np.random.default_rng(5)
        pool = [f"t{i}" for i in range(30)]
        for _ in range(20):
            def random_release(rid, seed):
                r = np.random.default_rng(seed)
                rows = [(" ".join(pool[j] for j in r.integers(0, 30, size=5)), False) for _ in range(4)]
                return release_of_files(rid, {"A.java": rows})

            r1 = random_release("a", rng.integers(0, 10_000))
            r2 = random_release("b", rng.integers(0, 10_000))
            kept = set()
            for release in (r1, r2):
                try:
                    kept |= set(build_vocabulary(release).token_to_index)
                except ValueError:
                    pass
            merged = build_vocabulary([r1, r2])
            assert kept <= set(merged.token_to_index)


class TestVectorize:
    def test_counts(self):
        release = release_of_files("r", {"A.java": [("a c a", False)]})
        vocab = Vocabulary(("a", "c"))
        fv = FeatureVector.from_row(vectorize(release, vocab), 0)
        assert fv.entries == {0: 2, 1: 1}
        assert fv.dimension == 2

    def test_out_of_vocab_ignored(self):
        release = release_of_files("r", {"A.java": [("zz yy", False)]})
        vocab = Vocabulary(("a",))
        assert vectorize(release, vocab).nnz == 0

    def test_empty_file(self):
        release = release_of_files("r", {"A.java": [("", False)]})
        vocab = Vocabulary(("a",))
        assert vectorize(release, vocab).nnz == 0

    def test_total_equals_in_vocab_occurrences(self):
        release = make_planted_release("r", seed=11, n_files=6, n_defective=2)
        vocab = build_vocabulary(release)
        totals = np.asarray(vectorize(release, vocab).sum(axis=1)).ravel()
        for f, total in zip(release.files, totals):
            expected = sum(1 for t in reference_corpus.token_stream(f) if t in vocab.token_to_index)
            assert total == expected


class TestDefectDensity:
    def test_ratio(self):
        rows = [("x", i < 5) for i in range(100)]
        release = release_of_files("r", {"A.java": rows})
        assert defect_density(release.files[0]) == pytest.approx(0.05)

    def test_no_defects(self):
        release = release_of_files("r", {"A.java": [("x", False)] * 4})
        assert defect_density(release.files[0]) == 0.0

    def test_all_defective(self):
        release = release_of_files("r", {"A.java": [("x", True)] * 4})
        assert defect_density(release.files[0]) == 1.0

    def test_zero_lines_error(self):
        empty = SourceFile(release_id="r", path="A.java", lines=(), file_label=False)
        with pytest.raises(ValueError):
            defect_density(empty)


LINE_TEXT = st.text(st.one_of(st.sampled_from(',"\n\r\t é'), st.characters(codec="utf-8")), max_size=6)
LINE_ROWS = st.lists(st.tuples(LINE_TEXT, st.booleans()), max_size=6)


@st.composite
def packed_file(draw):
    """A file's records, and its :class:`Lines` as a load makes it: a view into the packed lines of several files."""
    files = draw(st.lists(LINE_ROWS, min_size=1, max_size=4))
    rows = [row for file_rows in files for row in file_rows]
    offsets = np.cumsum([0] + [len(content) for content, _ in rows], dtype=np.int64)
    labels = np.array([label for _, label in rows], dtype=np.bool_)
    k = draw(st.integers(0, len(files) - 1))
    first = sum(map(len, files[:k]))
    last = first + len(files[k])
    view = Lines("".join(content for content, _ in rows), offsets[first : last + 1], labels[first:last])
    return tuple(LineRecord(i, content, label) for i, (content, label) in enumerate(files[k], start=1)), view


class TestLines:
    @settings(max_examples=200, deadline=None)
    @given(packed_file(), st.data())
    def test_view_behaves_as_the_tuple_of_its_records(self, packed, data):
        records, view = packed
        n = len(records)
        assert len(view) == n and bool(view) == bool(records)
        for i in range(-n - 2, n + 2):
            if -n <= i < n:
                line = view[i]
                assert line == records[i]
                assert type(line) is LineRecord
                assert [type(value) for value in line] == [int, str, bool]
            else:
                with pytest.raises(IndexError):
                    view[i]
        bounds = st.none() | st.integers(-n - 2, n + 2)
        window = slice(data.draw(bounds), data.draw(bounds), data.draw(st.none() | st.integers(-3, 3).filter(bool)))
        assert view[window] == records[window]
        assert type(view[window]) is tuple
        assert list(view) == list(records)
        assert view.contents() == [line.content for line in records]
        assert view.labels.tolist() == [line.is_defective for line in records]
        assert view == records and records == view
        assert not (view != records) and not (records != view)
        other = records[:-1] if records else (LineRecord(1, "x", False),)
        assert view != other and other != view
        assert not (view == other) and not (other == view)
        assert view != list(records)
        assert view == Lines.of(records)
        assert hash(view) == hash(records)
        again = pickle.loads(pickle.dumps(view))
        assert again == records and hash(again) == hash(records)
        assert not again.labels.flags.writeable

    def test_labels_are_read_only(self):
        view = Lines.of([LineRecord(1, "x", False), LineRecord(2, "y", True)])
        with pytest.raises(ValueError):
            view.labels[0] = True

    def test_pickle_holds_only_the_file_s_own_text(self):
        text = "x" * 100_000 + "mine"
        view = Lines(text, np.array([100_000, 100_004]), np.array([True]))
        assert len(pickle.dumps(view)) < 1_000
        assert pickle.loads(pickle.dumps(view)) == (LineRecord(1, "mine", True),)

    def test_source_file_packs_its_records(self):
        records = (LineRecord(1, "a b", False), LineRecord(2, "c", True))
        f = SourceFile("r", "A.java", records, True)
        assert isinstance(f.lines, Lines)
        assert f.lines == records and f == SourceFile("r", "A.java", f.lines, True)
        assert hash(f) == hash(SourceFile("r", "A.java", f.lines, True))

    @pytest.mark.parametrize("numbers", [(2, 3), (1, 3), (2, 1)], ids=["from-2", "gap", "reversed"])
    def test_source_file_rejects_lines_not_numbered_from_one(self, numbers):
        with pytest.raises(ValueError, match="numbered"):
            SourceFile("r", "A.java", tuple(LineRecord(n, "x", False) for n in numbers), False)


class TestReleaseOrder:
    def test_paths_compare_as_python_strings(self):
        # a numpy string array would drop the trailing NUL and tie "a\x00" with "a"
        paths = ["b", "a\x00", "B", "a", "A", "a\x00b"]
        files = release_of_files("r", {path: [("x", False)] for path in paths}).files
        for given in (files, files[::-1], files[2:] + files[:2]):
            release = ReleaseDataset("r", None, given)
            assert [f.path for f in release.files] == ["A", "B", "a", "a\x00", "a\x00b", "b"] == sorted(paths)

    def test_repeated_path_rejected(self):
        # every map keyed by path, such as a run's file probabilities, would merge the two files
        files = make_planted_release("r-1.0", seed=1, n_files=5, n_defective=2).files
        repeated = files[2]
        with pytest.raises(ValueError, match=re.escape(f"release 'r-1.0' holds two files with path {repeated.path!r}")):
            ReleaseDataset("r-1.0", None, files + (repeated,))
        changed = SourceFile(repeated.release_id, repeated.path, repeated.lines[:1], not repeated.file_label)
        with pytest.raises(ValueError, match="two files with path"):
            ReleaseDataset("r-1.0", None, (changed,) + files)


class TestDatasetIO:
    def test_round_trip_identity(self, tmp_path):
        releases = [
            make_planted_release("rel-1.0", seed=1, n_files=5, n_defective=2),
            make_planted_release("rel-2.0", seed=2, n_files=4, n_defective=2),
        ]
        csv_path = tmp_path / "data.csv"
        meta_path = tmp_path / "releases.csv"
        write_dataset(releases, csv_path, meta_path)
        loaded = load_dataset(csv_path, meta_path)
        assert loaded == releases

    def test_quoting_survives_round_trip(self, tmp_path):
        release = release_of_files(
            "r", {"A.java": [('s = "a,b\'c";', True), ("tab\tand spaces", False)]}
        )
        write_dataset([release], tmp_path / "d.csv")
        (loaded,) = load_dataset(tmp_path / "d.csv")
        assert [l.content for l in loaded.files[0].lines] == ['s = "a,b\'c";', "tab\tand spaces"]

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.text(st.one_of(st.sampled_from(',"\n\r\t \'\\'), st.characters(codec="utf-8")), max_size=20),
            min_size=1,
            max_size=6,
        )
    )
    def test_line_content_survives_round_trip(self, tmp_path, contents):
        # commas, double quotes, embedded CR/LF and non-ASCII text
        rows = [(content, i == 0) for i, content in enumerate(contents)]
        release = release_of_files("r", {"A.java": rows, "B.java": [("é, \"ü\"\r\n€", False)]})
        path = tmp_path / "round.csv"
        write_dataset([release], path)
        (loaded,) = load_dataset(path)
        assert loaded.files == release.files

    def test_label_inconsistency_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "release,file_path,line_number,line_content,file_label,line_label\n"
            "r,A.java,1,x,false,true\n"
        )
        with pytest.raises(DatasetError, match="A.java"):
            load_dataset(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("release,file_path,line_number,line_content,file_label,line_label\n")
        with pytest.raises(DatasetError, match="no data rows"):
            load_dataset(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("release,file_path,line_number\nr,A.java,1\n")
        with pytest.raises(DatasetError, match="missing required columns"):
            load_dataset(path)

    def test_non_contiguous_lines_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "release,file_path,line_number,line_content,file_label,line_label\n"
            "r,A.java,1,x,false,false\n"
            "r,A.java,3,y,false,false\n"
        )
        with pytest.raises(DatasetError, match="contiguous"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "before, row",
        [(b"release", 1), (b'b",false', 2), (b"r,A.java,2", 3), (b"x,", 3)],
        ids=["header", "second-line-of-quoted-field", "row-start", "mid-row"],
    )
    def test_undecodable_byte_names_its_row(self, tmp_path, before, row):
        # a blank line and a field spanning two lines: rows are counted as DictReader counts them
        text = (
            b"release,file_path,line_number,line_content,file_label,line_label\n"
            b"\n"
            b'r,A.java,1,"a\nb",false,false\n'
            b"r,A.java,2,x,false,false\n"
        )
        at = text.index(before)
        path = tmp_path / "bad.csv"
        path.write_bytes(text[:at] + b"\xff" + text[at:])
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))}:{row}: not UTF-8 text: byte 0xff"):
            load_dataset(path)

    def test_duplicate_line_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "release,file_path,line_number,line_content,file_label,line_label\n"
            "r,A.java,1,x,false,false\n"
            "r,A.java,1,y,false,false\n"
        )
        with pytest.raises(DatasetError):
            load_dataset(path)
