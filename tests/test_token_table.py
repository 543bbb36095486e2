"""The token table and everything built on it, against the dict-based oracles, compared with exact ``==``.

Each release tokenises every line once into a table of interned ids; the
vocabulary, the count vectors (and so the training design), the line flags,
the random baseline's candidates and the n-gram stream are all read from it.
``reference_corpus`` and ``reference_ngram`` re-tokenise line by line as the
code did before, and must agree to the last bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.special import expit

from linedefects import corpus
from linedefects.baselines import _LINE_SENTINEL, _STREAM_START, _stream, random_baseline
from linedefects.cli import main
from linedefects.config import RunConfig
from linedefects.corpus import FeatureVector, TokenTable, Vocabulary, build_vocabulary, vectorize, write_dataset
from linedefects.experiments import within_release_eval
from linedefects.model import LogisticModel, TrainMeta, predict_proba, train_logistic
from linedefects.pipeline import RiskyTokenSet, flag_lines, predict_files, train_file_model
from linedefects.synthetic import make_release_series

import reference_corpus
import reference_ngram
import reference_ranking
from conftest import assert_same_table, ranking_rows, release_of_files

ALPHABET = ("a", "b", "c", "Node", "node", "x_1", "zz")
SEPARATORS = (" ", "  ", ".", "();", "->")


@st.composite
def lines(draw):
    """A source line: tokens of a small alphabet with separators, often empty or blank."""
    words = draw(st.lists(st.sampled_from(ALPHABET), max_size=7))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(words) + 1, max_size=len(words) + 1))
    return "".join(sep + word for sep, word in zip(seps, words)) + seps[-1]


@st.composite
def releases(draw, release_id="r", min_files=1):
    count = draw(st.integers(min_files, 5))
    return release_of_files(
        release_id,
        {f"F{i}.java": [(line, False) for line in draw(st.lists(lines(), max_size=8))] for i in range(count)},
    )


def oracle_design(files, vocab):
    return reference_corpus.features_to_csr([reference_corpus.vectorize(f, vocab) for f in files])


def assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    assert actual.indptr.tolist() == expected.indptr.tolist()
    assert actual.indices.tolist() == expected.indices.tolist()
    assert actual.data.tobytes() == expected.data.tobytes()


def table_texts(table: TokenTable) -> list[list[str]]:
    """Every table line as token texts."""
    return [
        [table.tokens[i] for i in table.ids[table.line_ptr[r] : table.line_ptr[r + 1]]]
        for r in range(len(table.line_ptr) - 1)
    ]


class TestTable:
    @settings(max_examples=100, deadline=None)
    @given(releases())
    def test_lines_and_numbers_match_tokenize(self, release):
        table = release.token_table
        assert list(table.tokens) == sorted(set(table.tokens))
        assert table_texts(table) == [corpus.tokenize(line.content) for f in release.files for line in f.lines]
        for first in range(len(release.files)):
            lines = release.subset(range(first, len(release.files))).token_table.lines()
            assert lines.numbers.tolist() == [line.number for f in release.files[first:] for line in f.lines]
        assert np.diff(table.file_ptr).tolist() == [len(f.lines) for f in release.files]

    @settings(max_examples=100, deadline=None)
    @given(releases())
    def test_build_equals_reference_table(self, release):
        assert_same_table(TokenTable.build(release.files), reference_corpus.token_table(list(release.files)))

    @settings(max_examples=100, deadline=None)
    @given(releases(), st.data())
    def test_subset_selects_parent_rows(self, release, data):
        indices = data.draw(st.lists(st.integers(0, len(release.files) - 1), unique=True))
        subset = release.subset(indices)
        # a subset holds its files in index order, which is path order, whatever order they are asked for in
        assert subset.files == tuple(release.files[i] for i in sorted(indices)) == release.subset(indices[::-1]).files
        assert subset.token_table.tokens is release.token_table.tokens
        fresh = TokenTable.build(subset.files)
        assert table_texts(subset.token_table) == table_texts(fresh)
        assert subset.token_table.file_ptr.tolist() == fresh.file_ptr.tolist()

    def test_flags_skip_missing_words_and_add_in_text_order(self):
        release = release_of_files("r", {"A.java": [("b a b zz", False), ("x", False), ("", False), ("a", False)]})
        # added in text order (a, b, zz) the sum keeps both small scores; added in set order it loses them
        risky = RiskyTokenSet((("zz", 1.0), ("a", 1e-16), ("missing", 5.0), ("b", 1e-16)))
        flagged = flag_lines(release, {0: risky}, {"A.java": 0.5})
        # one row per line holding a word, the lines in file order, each line's words counted once
        expected = [("A.java", 1, 3, (1e-16 + 1e-16) + 1.0, 0.5), ("A.java", 4, 1, 1e-16, 0.5)]
        assert ranking_rows(flagged, release) == expected
        assert (1e-16 + 1e-16) + 1.0 != (1.0 + 1e-16) + 1e-16

    def test_each_line_is_tokenised_once_per_process(self, monkeypatch):
        releases_ = make_release_series(seed=0)
        calls = []
        real = corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize", lambda text: calls.append(text) or real(text))
        config = RunConfig(seed=1, lime_n=200, folds=3, repeats=2, parallelism=1)
        within_release_eval(releases_, config=config)
        assert len(calls) == sum(len(f.lines) for ds in releases_ for f in ds.files)


class TestVocabularyAndVectors:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(releases(), releases("s"))
    def test_vocabulary_and_design_equal_oracle(self, train, other):
        for releases_ in ([train], [train, other]):
            files = [f for ds in releases_ for f in ds.files]
            try:
                expected = reference_corpus.build_vocabulary(files)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc).split(":")[0]):
                    build_vocabulary(releases_)
                continue
            vocab = build_vocabulary(releases_)
            assert vocab == expected
            assert_same_csr(vectorize(releases_, vocab), oracle_design(files, vocab))
            # another release's files hold out-of-vocabulary and once-seen tokens
            assert_same_csr(vectorize(other, vocab), oracle_design(other.files, vocab))

    @settings(max_examples=50, deadline=None)
    @given(releases())
    def test_vocabulary_out_of_token_order(self, release):
        vocab = Vocabulary(("zz", "a", "node", "b", "missing"))
        assert_same_csr(vectorize(release, vocab), oracle_design(release.files, vocab))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_training_design_and_weights_equal_oracle(self, seed):
        train = make_release_series(seed=seed)[0]
        model = train_file_model(train)
        X = oracle_design(train.files, reference_corpus.build_vocabulary(list(train.files)))
        assert_same_csr(vectorize(train, model.vocab), X)
        oracle = train_logistic(X, [f.file_label for f in train.files], model.vocab)
        assert model.weights.tobytes() == oracle.weights.tobytes()
        assert model.bias == oracle.bias

    def test_feature_vector_from_row(self):
        release = release_of_files("r", {"A.java": [("b a b", False)], "B.java": [("zz", False)]})
        X = vectorize(release, Vocabulary(("a", "b")))
        assert FeatureVector.from_row(X, 0) == FeatureVector({0: 1, 1: 2}, 2)
        assert FeatureVector.from_row(X, 1) == FeatureVector({}, 2)


class TestPredictProba:
    def test_accumulates_bias_first_then_ascending_indices(self):
        rng = np.random.default_rng(0)
        release = make_release_series(seed=2)[0]
        vocab = build_vocabulary(release)
        model = LogisticModel(rng.normal(scale=3.0, size=len(vocab)), 0.1, vocab, TrainMeta(0, True, 0.0))
        for f, p in zip(release.files, predict_proba(model, vectorize(release, vocab)).tolist()):
            z = model.bias
            for idx, count in reference_corpus.vectorize(f, vocab).entries.items():
                z += model.weights[idx] * count
            assert p == min(max(float(expit(z)), 1e-12), 1.0 - 1e-12)


def risky_sets(draw):
    tokens = draw(st.lists(st.sampled_from(ALPHABET + ("absent",)), unique=True, max_size=5))
    scores = draw(st.lists(st.floats(0.001, 10.0), min_size=len(tokens), max_size=len(tokens)))
    return RiskyTokenSet.top_positive(zip(tokens, scores), 20)


def file_probabilities(release, p=0.7):
    return {f.path: p for f in release.files}


def oracle_rows(release, risky, probabilities):
    """The per-file oracle's flags of the files in ``risky``, one file after another."""
    return [
        row
        for i, f in enumerate(release.files)
        if i in risky
        for row in reference_ranking.rows(reference_corpus.flag_lines(f, risky[i], probabilities[f.path]))
    ]


class TestFlagLines:
    @settings(max_examples=150, deadline=None)
    @given(releases(), st.data())
    def test_flags_equal_oracle(self, release, data):
        risky = risky_sets(data.draw)
        for i, f in enumerate(release.files):
            expected = reference_ranking.rows(reference_corpus.flag_lines(f, risky, 0.7))
            assert ranking_rows(flag_lines(release, {i: risky}, file_probabilities(release)), release) == expected

    @settings(max_examples=200, deadline=None)
    @given(releases(), st.data())
    def test_release_flags_equal_per_file_oracle(self, release, data):
        # some files are left out; the others get their own sets, which may share tokens with other scores
        explained = data.draw(st.lists(st.integers(0, len(release.files) - 1), unique=True))
        risky = {i: risky_sets(data.draw) for i in explained}
        probabilities = {f.path: data.draw(st.floats(0.0, 1.0)) for f in release.files}
        expected = oracle_rows(release, risky, probabilities)
        assert ranking_rows(flag_lines(release, risky, probabilities), release) == expected

    def test_each_file_flags_with_its_own_set(self):
        release = release_of_files(
            "r",
            {
                "A.java": [("a b", False), ("c", False)],
                "B.java": [("a", False), ("b zz", False)],
                "C.java": [("a b c", False)],
                "D.java": [("zz", False)],
                "E.java": [("a", False)],
            },
        )
        risky = {
            0: RiskyTokenSet((("a", 0.9), ("zz", 0.4))),  # zz is only in B and D
            1: RiskyTokenSet((("a", 0.2), ("b", 0.3))),  # a and b again, with other scores
            2: RiskyTokenSet((("absent", 0.8),)),  # no token of the table
            3: RiskyTokenSet(()),  # empty; E.java is left out
        }
        probabilities = {"A.java": 0.6, "B.java": 0.7, "C.java": 0.8, "D.java": 0.9, "E.java": 1.0}
        expected = [("A.java", 1, 1, 0.9, 0.6), ("B.java", 1, 1, 0.2, 0.7), ("B.java", 2, 1, 0.3, 0.7)]
        assert ranking_rows(flag_lines(release, risky, probabilities), release) == expected
        assert oracle_rows(release, risky, probabilities) == expected
        assert len(flag_lines(release, {}, probabilities)) == 0

    def test_same_matched_set_gives_bitwise_equal_sums(self):
        # Each file's lines match one set of risky tokens, in shuffled order and among a varying
        # number of other tokens. Summed in set order, such lines came out one ulp apart in some files.
        rng = np.random.default_rng(0)
        words = [f"risky{i}" for i in range(20)]
        risky = RiskyTokenSet.top_positive(zip(words, rng.random(20).tolist()), 20)
        fillers = [f"w{i}" for i in range(300)]
        files = {}
        for i in range(300):
            matched = list(rng.choice(words, size=int(rng.integers(2, 6)), replace=False))
            files[f"F{i:03}.java"] = [
                (" ".join(rng.permutation(matched + list(rng.choice(fillers, size=int(rng.integers(0, 40)))))), False)
                for _ in range(10)
            ]
        release = release_of_files("r", files)
        flagged = flag_lines(release, dict.fromkeys(range(len(release.files)), risky), file_probabilities(release))
        for i in range(len(release.files)):
            scores = flagged.scores[flagged.files == i]
            assert len(scores) == 10
            assert len(set(scores.tolist())) == 1

    def test_ranked_csv_does_not_depend_on_hash_seed(self, tmp_path):
        data = tmp_path / "dataset.csv"
        write_dataset(make_release_series(system="h", seed=4, n_files=30, n_defective=10), data)
        model = tmp_path / "model.json"
        assert main(["train", "--dataset", str(data), "--releases", "h-1.0", "--out", str(model)]) == 0
        src = str(Path(corpus.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"ranked-{hash_seed}.csv"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            subprocess.run(
                [sys.executable, "-m", "linedefects.cli", "predict", "--model", str(model), "--dataset", str(data),
                 "--release", "h-2.0", "--method", "linedp", "--workers", "1", "--lime-n", "500", "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") > 1


class TestRandomBaselineCandidates:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(releases(min_files=2), releases("s"))
    def test_distinct_in_vocabulary_tokens_equal_oracle(self, train, test):
        try:
            vocab = build_vocabulary(train)
        except ValueError:
            return
        expected = [
            sorted({t for t in reference_corpus.token_stream(f) if t in vocab.token_to_index}) for f in test.files
        ]
        original = RiskyTokenSet.top_positive
        # a loaded model's vocabulary need not be in text order; the candidates still are
        for model_vocab in (vocab, Vocabulary(vocab.tokens[::-1])):
            # a large bias makes every test file defect-prone
            model = LogisticModel(np.ones(len(vocab)), 5.0, model_vocab, TrainMeta(0, True, 0.0))
            seen = []

            def record(scored, k):
                scored = list(scored)
                seen.append([token for token, _ in scored])
                return original(scored, k)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(RiskyTokenSet, "top_positive", record)
                random_baseline(test, model_vocab, predict_files(model, test))
            assert seen == [tokens for tokens in expected if tokens]


class TestNgramStream:
    @settings(max_examples=100, deadline=None)
    @given(releases())
    def test_stream_equals_oracle(self, release):
        table = release.token_table
        texts = table.tokens + (_STREAM_START, _LINE_SENTINEL)
        stream, rows = _stream(table)
        expected = [reference_ngram._file_stream(f) for f in release.files]
        assert [texts[t] for t in stream.tolist()] == [token for tokens, _ in expected for token in tokens]
        # a token position's row names its file and line number; the oracle's owner, per file, is the number
        lines = table.lines()
        file_of, numbers = lines.file_of.tolist(), lines.numbers.tolist()
        owners = [(file_of[row], numbers[row]) if row >= 0 else 0 for row in rows.tolist()]
        assert owners == [(i, n) if n else 0 for i, (_, file_owners) in enumerate(expected) for n in file_owners]


class TestBuildOnlyWhatIsUsed:
    def test_commands_on_a_cached_dataset_do_not_tokenise(self, tmp_path, monkeypatch):
        data = tmp_path / "dataset.csv"
        write_dataset(make_release_series(system="u", seed=5, n_files=20, n_defective=6), data)
        model = tmp_path / "model.json"
        # the first load parses the CSV and caches its releases' token tables
        assert main(["train", "--dataset", str(data), "--releases", "u-1.0", "--out", str(model)]) == 0
        calls = []
        real = corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize", lambda text: calls.append(text) or real(text))
        assert main(["density", "--dataset", str(data), "--out", str(tmp_path / "density.csv")]) == 0
        for method in ("random", "tmi_lr", "ngram"):
            assert main(["predict", "--model", str(model), "--dataset", str(data), "--release", "u-2.0",
                         "--train-release", "u-1.0", "--method", method, "--out", str(tmp_path / f"{method}.csv")]) == 0
        assert calls == []

    def test_random_tokenises_only_the_test_release_of_an_uncached_dataset(self, monkeypatch):
        train, test = make_release_series(system="u", seed=5, n_files=20, n_defective=6)
        model = train_file_model(train)
        calls = []
        real = corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize", lambda text: calls.append(text) or real(text))
        random_baseline(test, model.vocab, predict_files(model, test))
        assert len(calls) == sum(len(f.lines) for f in test.files)
