from __future__ import annotations

import numpy as np
import pytest

from linedefects.corpus import tokenize
from linedefects.evaluation import evaluate_ranking
from linedefects.experiments import sensitivity_k
from linedefects.explain import Explanation
from linedefects.pipeline import (
    RankedLine,
    RiskyTokenSet,
    flag_lines,
    rank_lines_global,
    run_linedp,
    select_risky_tokens,
)
from linedefects.synthetic import PLANTED_TOKENS

from conftest import file_at, release_of_files, unseen_token_pair


def explanation_of(scores: dict[str, float]) -> Explanation:
    return Explanation(scores=scores, fidelity_r2=0.0)


class TestSelectRiskyTokens:
    def test_positive_scores_kept_in_order(self):
        expl = explanation_of({"node": 0.8, "current": 0.1})
        risky = select_risky_tokens(expl)
        assert risky.tokens == (("node", 0.8), ("current", 0.1))

    def test_all_negative_gives_empty_set(self):
        expl = explanation_of({"a": -0.2, "b": -0.9})
        assert select_risky_tokens(expl).tokens == ()

    def test_truncates_to_largest_k(self):
        scores = {f"t{i:02d}": float(i + 1) for i in range(30)}
        risky = select_risky_tokens(explanation_of(scores), k_risky=20)
        # sort oracle: the 20 largest by score
        expected = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
        assert list(risky.tokens) == expected

    def test_tie_break_is_lexicographic(self):
        risky = select_risky_tokens(explanation_of({"zz": 0.5, "aa": 0.5, "mm": 0.5}), k_risky=2)
        assert [t for t, _ in risky.tokens] == ["aa", "mm"]


class TestFlagLines:
    def test_distinct_hit_counts_order_lines(self):
        release = release_of_files(
            "r",
            {"F.java": [("A B C D", False), ("C D E F G", False)]},
        )
        risky = RiskyTokenSet(tokens=(("A", 0.5), ("B", 0.4), ("E", 0.3)))
        flagged = flag_lines(release, 0, risky)
        by_line = {f.line_number: f for f in flagged}
        assert by_line[1].hit_count == 2
        assert by_line[2].hit_count == 1
        assert by_line[1].hit_count > by_line[2].hit_count

    def test_empty_risky_set_flags_nothing(self):
        release = release_of_files("r", {"F.java": [("a b", False)]})
        assert flag_lines(release, 0, RiskyTokenSet(tokens=())) == []

    def test_repeated_token_counts_once(self):
        release = release_of_files("r", {"F.java": [("node node", False)]})
        risky = RiskyTokenSet(tokens=(("node", 0.9),))
        (flagged,) = flag_lines(release, 0, risky)
        assert flagged.hit_count == 1
        assert flagged.score_sum == pytest.approx(0.9)

    def test_matching_is_exact_and_case_sensitive(self):
        release = release_of_files("r", {"F.java": [("Node nodeFactory", False)]})
        risky = RiskyTokenSet(tokens=(("node", 0.9),))
        assert flag_lines(release, 0, risky) == []


def flagged(path, line, hit, score=0.0, prob=0.5, release="r"):
    return RankedLine(
        release_id=release,
        file_path=path,
        line_number=line,
        hit_count=hit,
        score_sum=score,
        file_probability=prob,
    )


class TestRankLinesGlobal:
    def test_hit_count_dominates(self):
        ranked = rank_lines_global([flagged("a", 1, 1), flagged("b", 2, 2)])
        assert [r.file_path for r in ranked] == ["b", "a"]

    def test_score_sum_breaks_hit_ties(self):
        ranked = rank_lines_global([flagged("a", 1, 2, score=0.5), flagged("b", 2, 2, score=0.9)])
        assert ranked[0].file_path == "b"

    def test_probability_breaks_score_ties(self):
        ranked = rank_lines_global(
            [flagged("a", 1, 2, score=0.5, prob=0.6), flagged("b", 2, 2, score=0.5, prob=0.9)]
        )
        assert ranked[0].file_path == "b"

    def test_fully_tied_keys_order_by_path_then_line(self):
        ranked = rank_lines_global(
            [flagged("b", 9, 1), flagged("a", 7, 1), flagged("a", 3, 1)]
        )
        assert [(r.file_path, r.line_number) for r in ranked] == [("a", 3), ("a", 7), ("b", 9)]

    def test_ranks_are_a_permutation(self):
        lines = [flagged("f", i, (i % 3) + 1, score=i * 0.1) for i in range(1, 30)]
        ranked = rank_lines_global(lines)
        assert sorted(ranked, key=lambda r: r.line_number) == lines


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
        assert result.ranked == []

    def test_planted_tokens_dominate_top_ranks(self, small_planted_pair, fast_config):
        from dataclasses import replace

        train, test = small_planted_pair
        # a tight risky budget keeps only the strongest tokens, i.e. the planted ones
        result = run_linedp(train, test, replace(fast_config, k_risky=3))
        assert result.ranked, "expected flagged lines"
        top = result.ranked[: max(5, len(result.ranked) // 10)]
        with_planted = sum(
            1
            for r in top
            if set(tokenize(file_at(test, r.file_path).lines[r.line_number - 1].content))
            & set(PLANTED_TOKENS)
        )
        assert with_planted / len(top) >= 0.8

    def test_rerun_same_seed_identical(self, small_planted_pair, fast_config):
        train, test = small_planted_pair
        a = run_linedp(train, test, fast_config)
        b = run_linedp(train, test, fast_config)
        assert a.ranked == b.ranked
        assert a.file_probabilities == b.file_probabilities

    def test_flagged_lines_recheck_against_risky_tokens(self, small_planted_pair, fast_config):
        # every ranked line must contain >= 1 of its file's risky tokens
        train, test = small_planted_pair
        result = run_linedp(train, test, fast_config)
        for r in result.ranked:
            risky = {t for t, _ in result.risky_tokens[r.file_path].tokens}
            content = file_at(test, r.file_path).lines[r.line_number - 1].content
            assert set(tokenize(content)) & risky

    def test_parallel_matches_sequential(self, small_planted_pair, fast_config):
        from dataclasses import replace

        train, test = small_planted_pair
        parallel_config = replace(fast_config, parallelism=2)
        serial = run_linedp(train, test, fast_config)
        parallel = run_linedp(train, test, parallel_config)
        assert sum(p > 0.5 for p in serial.file_probabilities.values()) >= 4  # enough files for the pool
        assert serial.ranked == parallel.ranked
        grid = (5, 10, 40)
        assert sensitivity_k(train, test, grid, fast_config) == sensitivity_k(train, test, grid, parallel_config)

    def test_file_without_vocabulary_tokens_flags_nothing(self, fast_config):
        train, test = unseen_token_pair()
        result = run_linedp(train, test, fast_config)
        assert result.file_probabilities["X.java"] > 0.5
        assert result.risky_tokens["X.java"].tokens == ()
        assert {r.file_path for r in result.ranked} == {"Y.java"}
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
            current = {t for t, _ in select_risky_tokens(expl, k).tokens}
            assert previous <= current
            previous = current

    def test_positive_rescaling_preserves_selection_and_order(self):
        rng = np.random.default_rng(0)
        scores = {f"t{i:02d}": float(v) for i, v in enumerate(rng.normal(size=25))}
        base = select_risky_tokens(explanation_of(scores), k_risky=10)
        scaled = select_risky_tokens(
            explanation_of({t: 3.7 * v for t, v in scores.items()}), k_risky=10
        )
        assert [t for t, _ in base.tokens] == [t for t, _ in scaled.tokens]
