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
from linedefects.pipeline import RiskyTokenSet, flag_lines, train_file_model
from linedefects.synthetic import make_release_series

import reference_corpus
import reference_ngram
from conftest import release_of_files

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
        for r in range(len(table.numbers))
    ]


class TestTable:
    @settings(max_examples=100, deadline=None)
    @given(releases())
    def test_lines_and_numbers_match_tokenize(self, release):
        table = release.token_table
        assert list(table.tokens) == sorted(set(table.tokens))
        assert table_texts(table) == [corpus.tokenize(line.content) for f in release.files for line in f.lines]
        assert table.numbers.tolist() == [line.number for f in release.files for line in f.lines]
        assert np.diff(table.file_ptr).tolist() == [len(f.lines) for f in release.files]

    @settings(max_examples=100, deadline=None)
    @given(releases(), st.data())
    def test_subset_selects_parent_rows(self, release, data):
        indices = data.draw(st.lists(st.integers(0, len(release.files) - 1), unique=True))
        subset = release.subset(indices)
        assert subset.files == tuple(release.files[i] for i in indices)
        assert subset.token_table.tokens is release.token_table.tokens
        fresh = TokenTable.build(subset.files)
        assert table_texts(subset.token_table) == table_texts(fresh)
        assert subset.token_table.numbers.tolist() == fresh.numbers.tolist()
        assert subset.token_table.file_ptr.tolist() == fresh.file_ptr.tolist()

    def test_distinct_tokens_and_occurrences(self):
        release = release_of_files("r", {"A.java": [("b a b zz", False), ("x", False), ("", False), ("a", False)]})
        table = release.token_table
        assert table.distinct_tokens(0) == ["a", "b", "x", "zz"]
        # one entry per line and word, the lines in file order and each line's words in text order
        numbers, words = table.occurrences(0, ["zz", "a", "missing", "b"])
        assert numbers.tolist() == [1, 1, 1, 4]
        assert words.tolist() == [1, 3, 0, 1]

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
        model, vocab = train_file_model(train)
        X = oracle_design(train.files, reference_corpus.build_vocabulary(list(train.files)))
        assert_same_csr(vectorize(train, vocab), X)
        oracle = train_logistic(X, [f.file_label for f in train.files], vocab=vocab)
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
        model, vocab = train_file_model(release)
        model = model.__class__(
            weights=rng.normal(scale=3.0, size=len(vocab)), bias=0.1, vocab_fingerprint="", train_meta=model.train_meta
        )
        for f, p in zip(release.files, predict_proba(model, vectorize(release, vocab)).tolist()):
            z = model.bias
            for idx, count in reference_corpus.vectorize(f, vocab).entries.items():
                z += model.weights[idx] * count
            assert p == min(max(float(expit(z)), 1e-12), 1.0 - 1e-12)


def risky_sets(draw):
    tokens = draw(st.lists(st.sampled_from(ALPHABET + ("absent",)), unique=True, max_size=5))
    scores = draw(st.lists(st.floats(0.001, 10.0), min_size=len(tokens), max_size=len(tokens)))
    return RiskyTokenSet.top_positive(zip(tokens, scores), 20)


class TestFlagLines:
    @settings(max_examples=150, deadline=None)
    @given(releases(), st.data())
    def test_flags_equal_oracle(self, release, data):
        risky = risky_sets(data.draw)
        for i, f in enumerate(release.files):
            assert flag_lines(release, i, risky, 0.7) == reference_corpus.flag_lines(f, risky, 0.7)

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
        for i in range(len(release.files)):
            flagged = flag_lines(release, i, risky)
            assert len(flagged) == 10
            assert len({line.score_sum for line in flagged}) == 1

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
        # a large bias makes every test file defect-prone
        model = LogisticModel(np.ones(len(vocab)), 5.0, "", TrainMeta(0, True, 0.0))
        seen = []
        original = RiskyTokenSet.top_positive

        def record(scored, k):
            scored = list(scored)
            seen.append([token for token, _ in scored])
            return original(scored, k)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RiskyTokenSet, "top_positive", record)
            random_baseline(test, model, vocab)
        expected = [
            sorted({t for t in reference_corpus.token_stream(f) if t in vocab.token_to_index}) for f in test.files
        ]
        assert seen == [tokens for tokens in expected if tokens]


class TestNgramStream:
    @settings(max_examples=100, deadline=None)
    @given(releases())
    def test_stream_equals_oracle(self, release):
        table = release.token_table
        texts = table.tokens + (_STREAM_START, _LINE_SENTINEL)
        for i, f in enumerate(release.files):
            stream, owners = _stream(table, i, i + 1)
            expected_stream, expected_owners = reference_ngram._file_stream(f)
            assert [texts[t] for t in stream.tolist()] == expected_stream
            assert owners.tolist() == expected_owners
        whole, _ = _stream(table, 0, len(release.files))
        assert [texts[t] for t in whole.tolist()] == [
            token for f in release.files for token in reference_ngram._file_stream(f)[0]
        ]


class TestBuildOnlyWhatIsUsed:
    def test_random_and_density_do_not_tokenise_the_training_release(self, tmp_path, monkeypatch):
        data = tmp_path / "dataset.csv"
        train, test = make_release_series(system="u", seed=5, n_files=20, n_defective=6)
        write_dataset([train, test], data)
        model = tmp_path / "model.json"
        assert main(["train", "--dataset", str(data), "--releases", "u-1.0", "--out", str(model)]) == 0
        calls = []
        real = corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize", lambda text: calls.append(text) or real(text))
        assert main(["density", "--dataset", str(data), "--out", str(tmp_path / "density.csv")]) == 0
        assert calls == []
        assert main(["predict", "--model", str(model), "--dataset", str(data), "--release", "u-2.0",
                     "--method", "random", "--out", str(tmp_path / "random.csv")]) == 0
        assert len(calls) == sum(len(f.lines) for f in test.files)
