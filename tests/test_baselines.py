from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy import stats

from linedefects.baselines import (
    JM_ML_WEIGHT,
    NGRAM_ORDER,
    NgramModel,
    global_risky_tokens,
    line_entropies,
    ngram_entropy_baseline,
    random_baseline,
    sensitivity_entropy_threshold,
    tmi_lr_baseline,
)
from linedefects.config import RunConfig
from linedefects.corpus import FeatureVector, Vocabulary
from linedefects.model import LogisticModel, TrainMeta
from linedefects.pipeline import train_file_model
from linedefects.synthetic import PLANTED_TOKENS

from conftest import release_of_files


@pytest.fixture(scope="module")
def trained(small_planted_pair_module):
    train, test = small_planted_pair_module
    model, vocab = train_file_model(train)
    return train, test, model, vocab


@pytest.fixture(scope="module")
def small_planted_pair_module():
    from linedefects.synthetic import make_release_series

    return make_release_series(system="mini", n_releases=2, seed=7, n_files=24, n_defective=8, lines_per_file=(10, 16))


class TestRandomBaseline:
    def test_same_seed_reproducible(self, trained):
        train, test, model, vocab = trained
        a = random_baseline(test, model, vocab, seed=5)
        b = random_baseline(test, model, vocab, seed=5)
        assert a.ranked == b.ranked

    def test_different_seeds_differ(self, trained):
        train, test, model, vocab = trained
        a = random_baseline(test, model, vocab, seed=5)
        b = random_baseline(test, model, vocab, seed=6)
        assert a.ranked != b.ranked

    def test_tokenless_file_never_flagged(self):
        # one defect-prone file with no in-vocabulary tokens at all
        always_defective = LogisticModel(
            weights=np.zeros(1),
            bias=5.0,
            vocab_fingerprint="",
            train_meta=TrainMeta(0, True, 0.0),
        )
        vocab = Vocabulary(("known",))
        test = release_of_files("r", {"Empty.java": [(";;;", False), ("###", False)]})
        result = random_baseline(test, always_defective, vocab, seed=0)
        assert result.ranked == []

    def test_risky_fraction_matches_binomial_oracle(self):
        # fraction of tokens marked risky ~ E[min(20, Binomial(D, 1/2))] / D
        always_defective = LogisticModel(
            weights=np.zeros(100),
            bias=5.0,
            vocab_fingerprint="",
            train_meta=TrainMeta(0, True, 0.0),
        )
        for d in (10, 60):
            tokens = [f"tk{i:03d}" for i in range(d)]
            vocab = Vocabulary(tuple(tokens))
            release = release_of_files("r", {"F.java": [(" ".join(tokens), False)]})
            model = LogisticModel(
                weights=np.zeros(d),
                bias=5.0,
                vocab_fingerprint="",
                train_meta=always_defective.train_meta,
            )
            fractions = []
            for seed in range(1000):
                result = random_baseline(release, model, vocab, k_risky=20, seed=seed)
                # the single line holds every token, so its hit count equals |risky set|
                if result.ranked:
                    fractions.append(result.ranked[0].hit_count / d)
                else:
                    fractions.append(0.0)
            expected = sum(
                min(20, b) * stats.binom.pmf(b, d, 0.5) for b in range(d + 1)
            ) / d
            assert np.mean(fractions) == pytest.approx(expected, abs=0.02)

    def test_ranking_is_random_permutation_of_flagged(self, trained):
        train, test, model, vocab = trained
        result = random_baseline(test, model, vocab, seed=11)
        keys = [(r.file_path, r.line_number) for r in result.ranked]
        assert len(set(keys)) == len(keys)


class TestTmiLrBaseline:
    def test_planted_tokens_in_global_set(self, trained):
        train, test, model, vocab = trained
        risky = global_risky_tokens(train, vocab, k_risky=20)
        assert len(set(PLANTED_TOKENS) & {t for t, _ in risky.tokens}) >= 2

    def test_same_risky_set_for_all_files(self, trained):
        train, test, model, vocab = trained
        result = tmi_lr_baseline(train, test, model, vocab, k_risky=20)
        assert set(result.risky_tokens) == {"*"}
        # flagged lines in different files must all match the single global set
        global_set = {t for t, _ in result.risky_tokens["*"].tokens}
        from linedefects.corpus import tokenize

        for r in result.ranked:
            content = test.file_by_path(r.file_path).lines[r.line_number - 1].content
            assert set(tokenize(content)) & global_set

    def test_all_negative_coefficients_flag_nothing(self):
        # labels anti-correlated with the only varying token
        X = [FeatureVector({0: (i % 3) + 1}, 1) for i in range(12)]
        y = [fv.entries[0] == 1 for fv in X]
        train = release_of_files(
            "t",
            {
                f"F{i}.java": [("tok " * fv.entries[0], label)]
                for i, (fv, label) in enumerate(zip(X, y))
            },
        )
        test = release_of_files("s", {"X.java": [("tok tok", False)]})
        model, vocab = train_file_model(train)
        result = tmi_lr_baseline(train, test, model, vocab)
        assert result.ranked == []

    def test_converged_fit_does_not_warn(self, trained):
        train, test, model, vocab = trained
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tmi_lr_baseline(train, test, model, vocab)

    def test_unconverged_fit_warns_with_iterations_and_gradient(self, trained, monkeypatch):
        train, test, model, vocab = trained
        monkeypatch.setattr("linedefects.model.MAX_ITERS", 1)
        with pytest.warns(RuntimeWarning, match=r"NOT converged after 1 iterations \(\|\|g\|\| = "):
            tmi_lr_baseline(train, test, model, vocab)


def single_file_release(release_id, line_contents, defective=None):
    rows = [(c, (i + 1) in (defective or set())) for i, c in enumerate(line_contents)]
    return release_of_files(release_id, {"src/A.java": rows})


class TestNgramModel:
    def test_probabilities_sum_to_one_over_vocab_plus_unknown(self):
        train = single_file_release(
            "t",
            ["alpha beta gamma;", "delta epsilon zeta eta;", "alpha beta theta;"] * 3,
        )
        model = NgramModel().fit(train)
        rng = np.random.default_rng(0)
        vocab = sorted(model.vocabulary)
        for _ in range(100):
            length = int(rng.integers(0, NGRAM_ORDER))
            ctx = tuple(rng.choice(vocab + ["zzUnseen"], size=length))
            total = sum(model.probability(t, ctx) for t in vocab)
            total += model.probability("zzNeverSeenToken", ctx)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_continuation_close_to_zero_surprisal(self):
        train = single_file_release("t", ["alpha beta gamma delta epsilon zeta;"] * 50)
        test = single_file_release("s", ["alpha beta gamma delta epsilon zeta;"])
        model = NgramModel().fit(train)
        entropies = line_entropies(model, test, 0)
        assert entropies[1] < 0.01
        # not flagged at any positive threshold
        for threshold in (0.01, 0.1, 0.7, 2.0):
            result = ngram_entropy_baseline(train, test, threshold)
            assert result.ranked == []

    def test_unseen_tokens_get_max_surprisal_and_rank_first(self):
        train = single_file_release("t", ["alpha beta gamma delta;"] * 20)
        test = single_file_release(
            "s", ["alpha beta gamma delta;", "qq ww ee rr;"], defective={2}
        )
        result = ngram_entropy_baseline(train, test, threshold=0.6)
        assert result.ranked
        assert result.ranked[0].line_number == 2
        floor_surprisal = -np.log2(
            (1 - JM_ML_WEIGHT) ** 6 / (len(NgramModel().fit(train).vocabulary) + 1)
        )
        assert result.ranked[0].score_sum <= floor_surprisal + 1.0

    def test_empty_line_never_flagged(self):
        train = single_file_release("t", ["alpha beta;"] * 10)
        test = single_file_release("s", ["alpha beta;", "   ", "alpha beta;"])
        model = NgramModel().fit(train)
        entropies = line_entropies(model, test, 0)
        assert 2 not in entropies

    def test_cache_lowers_surprisal_of_repeated_novel_line(self):
        train = single_file_release("t", ["alpha beta gamma delta;"] * 20)
        test = single_file_release("s", ["qq ww ee rr;"] * 3)
        model = NgramModel().fit(train)
        entropies = line_entropies(model, test, 0)
        assert entropies[3] < entropies[1]

    @pytest.mark.parametrize(
        "train",
        [[], release_of_files("t", {}), release_of_files("t", {"src/A.java": []})],
        ids=["no-releases", "no-files", "no-lines"],
    )
    def test_empty_corpus_rejected(self, train):
        with pytest.raises(ValueError, match="cannot fit an n-gram model on an empty training corpus"):
            NgramModel().fit(train)

    def test_flagged_set_anti_monotone_in_threshold(self):
        train = single_file_release("t", ["alpha beta gamma delta;", "beta gamma epsilon;"] * 10)
        test = single_file_release(
            "s", ["alpha beta gamma delta;", "qq ww alpha;", "gamma epsilon beta;"], defective={2}
        )
        rows = sensitivity_entropy_threshold(train, test, thresholds=tuple(0.1 * i for i in range(1, 21)))
        recalls = [r["recall"] for r in rows]
        fars = [r["far"] for r in rows]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))
        assert all(a >= b for a, b in zip(fars, fars[1:]))


class TestSharedResultSchema:
    def test_all_methods_emit_ranked_lines(self, trained):
        train, test, model, vocab = trained
        from linedefects.pipeline import identify_lines

        cfg = RunConfig(seed=1, lime_n=200, lime_k_features=20)
        results = [
            identify_lines(model, vocab, test, cfg),
            random_baseline(test, model, vocab, seed=1),
            tmi_lr_baseline(train, test, model, vocab),
            ngram_entropy_baseline(train, test, threshold=0.6),
        ]
        assert [r.method for r in results] == ["linedp", "random", "tmi_lr", "ngram"]
        for result in results:
            assert len({(line.file_path, line.line_number) for line in result.ranked}) == len(result.ranked)
            for line in result.ranked:
                assert line.line_number >= 1
