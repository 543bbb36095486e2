"""The array-backed n-gram model against the dict-of-Counter oracle, compared with exact ``==``.

Both run the same smoothing with the same floating-point operations, so
every probability and every line entropy must agree to the last bit. The
model scores a whole test release in one pass; each file's slice of it must
equal the oracle's per-file entropies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linedefects import baselines
from linedefects.baselines import (
    _STREAM_START,
    NGRAM_ORDER,
    NgramModel,
    _dense_ranks,
    _packed_sort,
    line_entropies,
)
from linedefects.config import RunConfig
from linedefects.evaluation import stratified_kfold
from linedefects.experiments import sensitivity_entropy_threshold
from linedefects.synthetic import make_release_series
from linedefects.util import derive_seed

import reference_ngram
from conftest import entropies_by_file, release_of_files


@pytest.fixture(scope="module")
def planted_series():
    return make_release_series(seed=0)


def assert_same_entropies(train, test):
    model = NgramModel().fit(train, test)
    oracle = reference_ngram.NgramModel().fit(train)
    assert model.vocabulary == oracle.vocabulary
    assert model.floor == oracle.floor
    for f, entropies in zip(test.files, entropies_by_file(model, test), strict=True):
        assert entropies == reference_ngram.line_entropies(oracle, f), f.path


def cv_splits(release):
    config = RunConfig()
    labels = [f.file_label for f in release.files]
    seed = derive_seed(config.seed, "folds", release.release_id)
    for split in stratified_kfold(labels, config.folds, 1, seed=seed):
        yield release.subset(split.train_indices), release.subset(split.test_indices)


@pytest.fixture(scope="module", params=range(4), ids=lambda seed: f"seed{seed}")
def seed_series(request):
    return make_release_series(seed=request.param)


class TestLineEntropies:
    @pytest.mark.parametrize("release_index", [0, 1])
    def test_every_cv_split_of_planted_series(self, seed_series, release_index):
        for train, test in cv_splits(seed_series[release_index]):
            assert_same_entropies(train, test)

    def test_cross_release_pair(self, seed_series):
        assert_same_entropies(seed_series[0], seed_series[1])

    def test_training_files_scored_against_their_own_model(self, seed_series):
        assert_same_entropies(seed_series[0], seed_series[0])

    def test_test_release_adds_nothing_to_the_stored_tables(self, planted_series):
        # a CV split's train and test keep their release's tokens, so both fits number tokens alike
        for train, test in cv_splits(planted_series[0]):
            alone, joined = NgramModel().fit(train), NgramModel().fit(train, test)
            for name in ("_keys", "_counts", "_totals"):
                for a, b in zip(getattr(alone, name), getattr(joined, name), strict=True):
                    assert a.tolist() == b.tolist(), name

    def test_file_without_lines_and_lines_without_tokens(self, planted_series):
        train = planted_series[0]
        test = release_of_files(
            "s",
            {
                "A.java": [],
                "B.java": [("  ", False), (";", False), ("", False)],
                "C.java": [(train.files[0].lines[0].content, False), ("   ", False)],
                "D.java": [],
            },
        )
        assert_same_entropies(train, test)
        assert [len(e) for e in entropies_by_file(NgramModel().fit(train, test), test)] == [0, 0, 1, 0]

    def test_every_test_token_unseen_in_training(self, planted_series):
        test = release_of_files(
            "s", {"A.java": [("zzA zzB zzC;", True), ("zzA zzB zzC;", False)], "B.java": [("zzD zzA", False)]}
        )
        assert_same_entropies(planted_series[0], test)

    def test_model_scores_only_the_release_it_was_fitted_with(self, planted_series):
        train, test = planted_series
        with pytest.raises(ValueError, match="fitted with this test release"):
            line_entropies(NgramModel().fit(train), test)
        with pytest.raises(ValueError, match="fitted with this test release"):
            line_entropies(NgramModel().fit(train, test), train)


def stream_windows(model_files):
    """Every (context, token) of the padded training streams, contexts of length 0..NGRAM_ORDER+1."""
    for f in model_files:
        stream, _ = reference_ngram._file_stream(f)
        for i in range(NGRAM_ORDER - 1, len(stream)):
            for length in range(NGRAM_ORDER + 2):
                yield tuple(stream[max(0, i - length) : i]), stream[i]


class TestProbability:
    def test_seen_contexts_at_every_length(self, planted_series):
        train = planted_series[0]
        model = NgramModel().fit(train)
        oracle = reference_ngram.NgramModel().fit(train)
        windows = list(stream_windows(train.files[:3]))
        assert {len(ctx) for ctx, _ in windows} == set(range(NGRAM_ORDER + 2))
        for context, token in windows:
            assert model.probability(token, context) == oracle.probability(token, context)

    def test_random_queries_with_padding_and_unseen_tokens(self, planted_series):
        train = planted_series[0]
        model = NgramModel().fit(train)
        oracle = reference_ngram.NgramModel().fit(train)
        stream, _ = reference_ngram._file_stream(train.files[0])
        rng = np.random.default_rng(0)
        pool = sorted(model.vocabulary) + [_STREAM_START, "zzUnseen"]
        for _ in range(2000):
            length = int(rng.integers(0, NGRAM_ORDER))
            if rng.random() < 0.5:
                # a real window, with one position replaced half of the time
                end = int(rng.integers(length, len(stream)))
                context = list(stream[end - length : end])
                token = stream[end]
                if context and rng.random() < 0.5:
                    context[int(rng.integers(0, length))] = str(rng.choice(pool))
            else:
                context = [str(t) for t in rng.choice(pool, size=length)]
                token = str(rng.choice(pool))
            context = tuple(context)
            assert model.probability(token, context) == oracle.probability(token, context)
            assert model.surprisal(token, context) == oracle.surprisal(token, context)


ALPHABET = ("a", "b", "c", "d", "e")
UNSEEN = ("zz", "yy")


@st.composite
def small_corpora(draw):
    """(train, test): 1-3 training files and 1-2 test files over a 3-5 token alphabet.

    A tiny alphabet makes long n-grams and the cache repeat; test files may
    hold unseen tokens, blank lines and fewer tokens than the padding.
    """
    alphabet = ALPHABET[: draw(st.integers(3, 5))]

    def files(tokens, count):
        out = {}
        for index in range(count):
            lines = draw(st.lists(st.lists(st.sampled_from(tokens), max_size=6), max_size=8))
            out[f"F{index}.java"] = [(" ".join(line) + (";" if line else "  "), False) for line in lines]
        return out

    train = release_of_files("t", files(alphabet, draw(st.integers(1, 3))))
    test = release_of_files("s", files(alphabet + UNSEEN, draw(st.integers(1, 2))))
    return train, test


class TestSmallCorpora:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_corpora())
    def test_entropies_and_probabilities_match_oracle(self, corpus):
        train, test = corpus
        try:
            oracle = reference_ngram.NgramModel().fit(train)
        except ValueError:
            with pytest.raises(ValueError, match="empty training corpus"):
                NgramModel().fit(train)
            return
        model = NgramModel().fit(train, test)
        assert model.vocabulary == oracle.vocabulary
        for release in (test, train):
            scored = NgramModel().fit(train, release)
            for f, entropies in zip(release.files, entropies_by_file(scored, release), strict=True):
                assert entropies == reference_ngram.line_entropies(oracle, f)
        for f in test.files:
            stream, _ = reference_ngram._file_stream(f)
            for i in range(NGRAM_ORDER - 1, len(stream)):
                for length in range(NGRAM_ORDER):
                    context = tuple(stream[i - length : i])
                    assert model.probability(stream[i], context) == oracle.probability(stream[i], context)


def test_sensitivity_rows_match_oracle(planted_series, monkeypatch):
    train, test = planted_series
    rows = sensitivity_entropy_threshold(train, test)
    monkeypatch.setattr(baselines, "NgramModel", reference_ngram.NgramModel)
    monkeypatch.setattr(baselines, "line_entropies", reference_ngram.release_entropies)
    assert rows == sensitivity_entropy_threshold(train, test)


class TestPackedSort:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 12), max_size=300), st.integers(0, 40))
    def test_ranks_and_order_on_keys_with_ties(self, small, scale_bits):
        # few distinct values, so most keys tie; the shift moves them up to 2**44
        keys = np.array(small, dtype=np.int64) << scale_bits
        order, ranked = _packed_sort(keys.copy())
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()
        assert ranked.tolist() == sorted(keys.tolist())
        ranks, distinct = _dense_ranks(keys.copy())
        expected_distinct, expected_ranks = np.unique(keys, return_inverse=True)
        assert ranks.dtype == np.int32
        assert ranks.tolist() == expected_ranks.ravel().tolist()
        assert distinct.tolist() == expected_distinct.tolist()

    def test_keys_wider_than_an_int64_with_their_positions_are_rejected(self):
        # three positions take 2 bits: a key of 61 bits still fits, one of 62 does not
        assert _packed_sort(np.array([2**60, 0, 2**61 - 1]))[0].tolist() == [1, 0, 2]
        with pytest.raises(ValueError, match="3-position stream"):
            _packed_sort(np.array([2**61, 0, 1]))
        with pytest.raises(ValueError, match="5-position stream"):
            _dense_ranks(np.array([0, 1, 2, 3, 2**62]))


def test_scalar_and_array_log2_agree():
    # the oracle takes log2 one Python float at a time, line_entropies over an array
    rng = np.random.default_rng(0)
    p = np.concatenate([rng.random(20000), rng.random(20000) ** 40, 1.0 - rng.random(20000) * 1e-6])
    assert (-np.log2(p)).tolist() == [-float(np.log2(float(v))) for v in p]
