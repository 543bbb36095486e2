from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from linedefects.corpus import tokenize
from linedefects.evaluation import detection_rates, evaluate_ranking
from linedefects.experiments import sensitivity_k
from linedefects.explain import Explanation
from linedefects.pipeline import RiskyTokenSet, flag_lines, rank_lines_global, run_linedp
from linedefects.synthetic import PLANTED_TOKENS, make_release_series

import reference_corpus
import reference_evaluation
from conftest import file_at, ranking_of, ranking_rows, release_of_files, unseen_token_pair


def explanation_of(scores: dict[str, float]) -> Explanation:
    return Explanation(scores=scores, fidelity_r2=0.0)


def risky_of(expl: Explanation, k: int = 20) -> RiskyTokenSet:
    return RiskyTokenSet.top_positive(expl.scores.items(), k)


class TestTopPositive:
    def test_positive_scores_kept_in_order(self):
        expl = explanation_of({"node": 0.8, "current": 0.1})
        risky = risky_of(expl)
        assert risky.tokens == (("node", 0.8), ("current", 0.1))

    def test_all_negative_gives_empty_set(self):
        expl = explanation_of({"a": -0.2, "b": -0.9})
        assert risky_of(expl).tokens == ()

    def test_truncates_to_largest_k(self):
        scores = {f"t{i:02d}": float(i + 1) for i in range(30)}
        risky = risky_of(explanation_of(scores), k=20)
        # sort oracle: the 20 largest by score
        expected = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
        assert list(risky.tokens) == expected

    def test_tie_break_is_lexicographic(self):
        risky = risky_of(explanation_of({"zz": 0.5, "aa": 0.5, "mm": 0.5}), k=2)
        assert [t for t, _ in risky.tokens] == ["aa", "mm"]


class TestFlagLines:
    def test_distinct_hit_counts_order_lines(self):
        release = release_of_files(
            "r",
            {"F.java": [("A B C D", False), ("C D E F G", False)]},
        )
        risky = RiskyTokenSet(tokens=(("A", 0.5), ("B", 0.4), ("E", 0.3)))
        flagged = flag_lines(release, {0: risky}, {"F.java": 1.0})
        assert ranking_rows(flagged, release) == [("F.java", 1, 2, 0.5 + 0.4, 1.0), ("F.java", 2, 1, 0.3, 1.0)]

    def test_empty_risky_set_flags_nothing(self):
        release = release_of_files("r", {"F.java": [("a b", False)]})
        assert len(flag_lines(release, {0: RiskyTokenSet(tokens=())}, {"F.java": 1.0})) == 0

    def test_repeated_token_counts_once(self):
        release = release_of_files("r", {"F.java": [("node node", False)]})
        risky = RiskyTokenSet(tokens=(("node", 0.9),))
        assert ranking_rows(flag_lines(release, {0: risky}, {"F.java": 0.7}), release) == [("F.java", 1, 1, 0.9, 0.7)]

    def test_matching_is_exact_and_case_sensitive(self):
        release = release_of_files("r", {"F.java": [("Node nodeFactory", False)]})
        risky = RiskyTokenSet(tokens=(("node", 0.9),))
        assert len(flag_lines(release, {0: risky}, {"F.java": 1.0})) == 0


RELEASE = release_of_files("r", {path: [("x", False)] * 30 for path in ("a", "a\x00", "b", "f")})


def flagged(path, line, hit, score=0.0, prob=0.5):
    return (path, line, hit, score, prob)


def ranked(rows):
    """``rows`` of RELEASE's lines, as ``flagged`` makes them, in rank order."""
    return ranking_rows(rank_lines_global(ranking_of(RELEASE, rows)), RELEASE)


class TestRankLinesGlobal:
    def test_hit_count_dominates(self):
        assert [row[0] for row in ranked([flagged("a", 1, 1), flagged("b", 2, 2)])] == ["b", "a"]

    def test_score_sum_breaks_hit_ties(self):
        assert ranked([flagged("a", 1, 2, score=0.5), flagged("b", 2, 2, score=0.9)])[0][0] == "b"

    def test_probability_breaks_score_ties(self):
        rows = ranked([flagged("a", 1, 2, score=0.5, prob=0.6), flagged("b", 2, 2, score=0.5, prob=0.9)])
        assert rows[0][0] == "b"

    def test_fully_tied_keys_order_by_path_then_line(self):
        rows = ranked([flagged("b", 9, 1), flagged("a", 7, 1), flagged("a", 3, 1)])
        assert [row[:2] for row in rows] == [("a", 3), ("a", 7), ("b", 9)]

    def test_ranks_are_a_permutation(self):
        lines = [flagged("f", i, (i % 3) + 1, score=i * 0.1) for i in range(1, 30)]
        assert sorted(ranked(lines), key=lambda row: row[1]) == lines

    def test_empty_ranking(self):
        assert ranked([]) == []


class TestRunPipeline:
    def test_no_defect_prone_files_gives_empty_ranking(self, fast_config):
        train = release_of_files(
            "t",
            {
                "A.java": [("bug bug spark", True), ("calm calm", False)],
                "B.java": [("calm calm", False), ("quiet quiet", False)],
                "C.java": [("calm quiet", False)],
                "D.java": [("bug spark spark", True)],
            },
        )
        test = release_of_files("s", {"X.java": [("calm quiet", False), ("calm calm", False)]})
        result = run_linedp(train, test, fast_config)
        assert len(result.ranked) == 0

    def test_planted_tokens_dominate_top_ranks(self, small_planted_pair, fast_config):
        from dataclasses import replace

        train, test = small_planted_pair
        # a tight risky budget keeps only the strongest tokens, i.e. the planted ones
        result = run_linedp(train, test, replace(fast_config, k_risky=3))
        assert len(result.ranked), "expected flagged lines"
        top = ranking_rows(result.ranked, test)[: max(5, len(result.ranked) // 10)]
        with_planted = sum(
            1
            for path, line, *_ in top
            if set(tokenize(file_at(test, path).lines[line - 1].content)) & set(PLANTED_TOKENS)
        )
        assert with_planted / len(top) >= 0.8

    def test_rerun_same_seed_identical(self, small_planted_pair, fast_config):
        train, test = small_planted_pair
        a = run_linedp(train, test, fast_config)
        b = run_linedp(train, test, fast_config)
        assert ranking_rows(a.ranked, test) == ranking_rows(b.ranked, test)
        assert a.file_probabilities == b.file_probabilities

    def test_flagged_lines_recheck_against_risky_tokens(self, small_planted_pair, fast_config):
        # every ranked line must contain >= 1 of its file's risky tokens
        train, test = small_planted_pair
        result = run_linedp(train, test, fast_config)
        for path, line, *_ in ranking_rows(result.ranked, test):
            risky = {t for t, _ in result.risky_tokens[path].tokens}
            content = file_at(test, path).lines[line - 1].content
            assert set(tokenize(content)) & risky

    def test_parallel_matches_sequential(self, small_planted_pair, fast_config):
        from dataclasses import replace

        train, test = small_planted_pair
        parallel_config = replace(fast_config, parallelism=2)
        serial = run_linedp(train, test, fast_config)
        parallel = run_linedp(train, test, parallel_config)
        assert sum(p > 0.5 for p in serial.file_probabilities.values()) >= 4  # enough files for the pool
        assert ranking_rows(serial.ranked, test) == ranking_rows(parallel.ranked, test)
        grid = (5, 10, 40)
        assert sensitivity_k(train, test, grid, fast_config) == sensitivity_k(train, test, grid, parallel_config)

    def test_file_without_vocabulary_tokens_flags_nothing(self, fast_config):
        train, test = unseen_token_pair()
        result = run_linedp(train, test, fast_config)
        assert result.file_probabilities["X.java"] > 0.5
        assert result.risky_tokens["X.java"].tokens == ()
        assert {row[0] for row in ranking_rows(result.ranked, test)} == {"Y.java"}
        # X.java's defective line stays in the universe as a missed line
        report = evaluate_ranking("linedp", "u", result.ranked, test, result.file_probabilities)
        assert report.recall == pytest.approx(0.5)
        rows = sensitivity_k(train, test, k_grid=(5, 10), config=fast_config)
        assert [row["recall"] for row in rows] == [pytest.approx(0.5)] * 2


class TestSensitivityK:
    def test_recall_and_far_non_decreasing_in_k(self, small_planted_pair, fast_config):
        train, test = small_planted_pair
        rows = sensitivity_k(train, test, k_grid=(5, 10, 20, 40), config=fast_config)
        recalls = [row["recall"] for row in rows]
        fars = [row["far"] for row in rows]
        assert recalls == sorted(recalls)
        assert fars == sorted(fars)

    def test_saturation_with_huge_k(self, small_planted_pair, fast_config):
        train, test = small_planted_pair
        rows = sensitivity_k(train, test, k_grid=(10, 10_000), config=fast_config)
        assert rows[-1]["recall"] >= rows[0]["recall"]

    @pytest.mark.parametrize("seed", range(4))
    def test_rates_equal_oracle(self, seed, fast_config):
        train, test = make_release_series(seed=seed)
        grid = (1, 3, 10, 40)
        config = replace(fast_config, seed=seed)
        # the explanations of one run at the largest k; each k flags with every explained file's first k tokens
        widest = replace(config, k_risky=max(grid), lime_k_features=max(config.lime_k_features, max(grid)))
        risky = run_linedp(train, test, widest).risky_tokens
        truth = reference_evaluation.line_truth(test)
        expected = []
        for k in grid:
            flagged = {
                (line.file_path, line.line_number)
                for f in test.files
                if f.path in risky
                for line in reference_corpus.flag_lines(f, RiskyTokenSet(risky[f.path].tokens[:k]))
            }
            expected.append({"k": k, **detection_rates(reference_evaluation.confusion_counts(flagged, truth))})
        assert sensitivity_k(train, test, grid, config) == expected

    def test_bad_grid_rejected(self, small_planted_pair, fast_config):
        train, test = small_planted_pair
        with pytest.raises(ValueError):
            sensitivity_k(train, test, k_grid=(), config=fast_config)
        with pytest.raises(ValueError):
            sensitivity_k(train, test, k_grid=(0, 5), config=fast_config)


class TestRiskySetNesting:
    def test_risky_sets_nest_across_k(self):
        scores = {f"t{i:02d}": 1.0 / (i + 1) for i in range(40)}
        expl = explanation_of(scores)
        previous: set[str] = set()
        for k in (1, 5, 10, 20, 40):
            current = {t for t, _ in risky_of(expl, k).tokens}
            assert previous <= current
            previous = current

    def test_positive_rescaling_preserves_selection_and_order(self):
        rng = np.random.default_rng(0)
        scores = {f"t{i:02d}": float(v) for i, v in enumerate(rng.normal(size=25))}
        base = risky_of(explanation_of(scores), k=10)
        scaled = risky_of(explanation_of({t: 3.7 * v for t, v in scores.items()}), k=10)
        assert [t for t, _ in base.tokens] == [t for t, _ in scaled.tokens]
