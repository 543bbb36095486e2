from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import linedefects
from linedefects.evaluation import (
    ConfusionCounts,
    average_ranks,
    confusion_counts,
    cross_release_pairs,
    d2h,
    far,
    ifa,
    mcc,
    performance_diff,
    recall,
    recall_at_top_kloc,
    stratified_kfold,
    wilcoxon_one_sided,
)
from linedefects.pipeline import RankedLine
from linedefects.synthetic import make_release_series


class TestBasicMeasures:
    def test_recall_values(self):
        assert recall(ConfusionCounts(tp=3, fp=0, tn=0, fn=2)) == pytest.approx(0.6)
        assert recall(ConfusionCounts(tp=4, fp=1, tn=2, fn=0)) == 1.0
        assert recall(ConfusionCounts(tp=0, fp=1, tn=2, fn=3)) == 0.0
        assert recall(ConfusionCounts(tp=0, fp=1, tn=2, fn=0)) is None

    def test_far_values(self):
        assert far(ConfusionCounts(tp=1, fp=0, tn=9, fn=1)) == 0.0
        assert far(ConfusionCounts(tp=0, fp=47, tn=53, fn=0)) == pytest.approx(0.47)
        assert far(ConfusionCounts(tp=0, fp=3, tn=0, fn=0)) == 1.0
        assert far(ConfusionCounts(tp=1, fp=0, tn=0, fn=1)) is None

    def test_d2h_perfect_and_worst_corners(self):
        assert d2h(1.0, 0.0) == 0.0
        assert d2h(0.0, 1.0) == 1.0

    def test_d2h_hand_evaluated(self):
        # sqrt(((1-0.61)^2 + 0.47^2) / 2)
        expected = math.sqrt(((1 - 0.61) ** 2 + 0.47**2) / 2)
        assert d2h(0.61, 0.47) == pytest.approx(expected)
        assert round(d2h(0.61, 0.47), 3) == 0.432

    def test_d2h_monotone(self):
        grid = np.linspace(0, 1, 11)
        for f_val in grid:
            values = [d2h(r, f_val) for r in grid]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        for r_val in grid:
            values = [d2h(r_val, f) for f in grid]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_mcc_values(self):
        assert mcc(ConfusionCounts(tp=5, fp=0, tn=7, fn=0)) == pytest.approx(1.0)
        assert mcc(ConfusionCounts(tp=0, fp=4, tn=0, fn=6)) == pytest.approx(-1.0)
        assert mcc(ConfusionCounts(tp=25, fp=25, tn=25, fn=25)) == 0.0
        assert mcc(ConfusionCounts(tp=3, fp=0, tn=0, fn=0)) == 0.0  # zero marginal

    def test_measures_match_brute_force_on_random_universes(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 120))
            truth = {("f", i): bool(rng.random() < 0.3) for i in range(1, n + 1)}
            predicted = {key for key in truth if rng.random() < 0.4}
            c = confusion_counts(predicted, truth)
            # independent brute force from the raw sets
            tp = sum(1 for k, v in truth.items() if v and k in predicted)
            fn = sum(1 for k, v in truth.items() if v and k not in predicted)
            fp = sum(1 for k, v in truth.items() if not v and k in predicted)
            tn = sum(1 for k, v in truth.items() if not v and k not in predicted)
            assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
            assert recall(c) == (tp / (tp + fn) if tp + fn else None)
            assert far(c) == (fp / (fp + tn) if fp + tn else None)
            denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
            expected_mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
            assert mcc(c) == expected_mcc


def ranked_of(keys, probs=None):
    probs = probs or {}
    return [
        RankedLine(
            release_id="r",
            file_path=path,
            line_number=line,
            hit_count=1,
            score_sum=0.0,
            file_probability=probs.get(path, 0.5),
        )
        for path, line in keys
    ]


class TestEffortMeasures:
    def test_recall_at_budget_enumeration(self):
        # 10 lines, 2 defective; ranking places 1 defective inside the top-2 budget
        truth = {("f", i): i in (3, 9) for i in range(1, 11)}
        ranked = ranked_of([("f", 3), ("f", 1)])
        assert recall_at_top_kloc(ranked, truth, k_pct=20) == pytest.approx(0.5)

    def test_all_defective_ranked_first(self):
        truth = {("f", i): i <= 2 for i in range(1, 11)}
        ranked = ranked_of([("f", 1), ("f", 2)])
        assert recall_at_top_kloc(ranked, truth, k_pct=20) == 1.0

    def test_zero_budget(self):
        truth = {("f", 1): True, ("f", 2): False}
        assert recall_at_top_kloc(ranked_of([("f", 1)]), truth, k_pct=20) == 0.0

    def test_padding_after_ranking_uses_file_probability_order(self):
        truth = {("hot", 1): False, ("hot", 2): True, ("cold", 1): True, ("cold", 2): False,
                 ("x", 1): False, ("x", 2): False, ("x", 3): False, ("x", 4): False,
                 ("x", 5): False, ("x", 6): False}
        ranked = ranked_of([("x", 1)])
        probs = {"hot": 0.9, "cold": 0.2, "x": 0.1}
        # budget 3: ranked (x,1), then padding (hot,1), (hot,2): one of two defective found
        value = recall_at_top_kloc(ranked, truth, file_probs=probs, k_pct=30)
        assert value == pytest.approx(0.5)

    def test_no_defective_lines_is_missing(self):
        truth = {("f", 1): False}
        assert recall_at_top_kloc(ranked_of([]), truth, k_pct=20) is None

    def test_non_decreasing_in_budget(self):
        rng = np.random.default_rng(4)
        truth = {("f", i): bool(rng.random() < 0.3) for i in range(1, 60)}
        order = list(truth)
        rng.shuffle(order)
        ranked = ranked_of(order[:30])
        values = [recall_at_top_kloc(ranked, truth, k_pct=k) for k in (5, 10, 20, 40, 80, 100)]
        assert values == sorted(values)

    def test_ifa_counts_leading_clean_lines(self):
        truth = {("f", 1): False, ("f", 2): False, ("f", 3): True}
        result = ifa(ranked_of([("f", 1), ("f", 2), ("f", 3)]), truth)
        assert result.value == 2 and not result.saturated

    def test_ifa_zero_when_first_is_defective(self):
        truth = {("f", 1): True, ("f", 2): False}
        result = ifa(ranked_of([("f", 1), ("f", 2)]), truth)
        assert result.value == 0 and not result.saturated

    def test_ifa_saturates_without_defective(self):
        truth = {("f", 1): False, ("f", 2): False}
        result = ifa(ranked_of([("f", 1), ("f", 2)]), truth)
        assert result.value == 2 and result.saturated

    def test_ifa_empty_ranking_missing(self):
        assert ifa([], {("f", 1): True}) is None


class TestStratifiedKfold:
    def test_exact_stratification(self):
        labels = [i < 10 for i in range(100)]
        splits = stratified_kfold(labels, folds=10, repeats=1, seed=0)
        for split in splits:
            assert sum(labels[i] for i in split.test_indices) == 1
            assert len(split.test_indices) == 10

    def test_folds_partition_the_files(self):
        labels = [i % 3 == 0 for i in range(31)]
        splits = stratified_kfold(labels, folds=5, repeats=2, seed=1)
        for repeat in (0, 1):
            test_sets = [set(s.test_indices) for s in splits if s.repeat == repeat]
            union = set().union(*test_sets)
            assert union == set(range(31))
            assert sum(len(s) for s in test_sets) == 31
            # per-fold defective counts differ by at most one
            counts = [sum(labels[i] for i in s) for s in test_sets]
            assert max(counts) - min(counts) <= 1
        for split in splits:
            assert set(split.train_indices) | set(split.test_indices) == set(range(31))
            assert not set(split.train_indices) & set(split.test_indices)

    def test_deterministic(self):
        labels = [i % 4 == 0 for i in range(40)]
        a = stratified_kfold(labels, folds=4, repeats=3, seed=9)
        b = stratified_kfold(labels, folds=4, repeats=3, seed=9)
        assert a == b

    def test_small_class_rejected(self):
        labels = [True] * 3 + [False] * 50
        with pytest.raises(ValueError, match="defective"):
            stratified_kfold(labels, folds=10, repeats=1, seed=0)

    def test_split_count(self):
        labels = [i % 2 == 0 for i in range(40)]
        assert len(stratified_kfold(labels, folds=10, repeats=10, seed=0)) == 100


class TestCrossReleasePairs:
    def test_consecutive_pairs(self):
        releases = make_release_series(system="s", n_releases=3, seed=0, n_files=6, n_defective=2)
        pairs = cross_release_pairs(releases)
        assert [(a.release_id, b.release_id) for a, b in pairs] == [
            ("s-1.0", "s-2.0"),
            ("s-2.0", "s-3.0"),
        ]

    def test_single_release_gives_empty(self):
        (only,) = make_release_series(system="s", n_releases=1, seed=0, n_files=6, n_defective=2)
        assert cross_release_pairs([only]) == []

    def test_unsorted_input_normalized_by_date(self):
        releases = make_release_series(system="s", n_releases=3, seed=0, n_files=6, n_defective=2)
        shuffled = [releases[2], releases[0], releases[1]]
        pairs = cross_release_pairs(shuffled)
        assert [(a.release_id, b.release_id) for a, b in pairs] == [
            ("s-1.0", "s-2.0"),
            ("s-2.0", "s-3.0"),
        ]


class TestPerformanceDiff:
    def test_doubling_is_plus_hundred_percent(self):
        assert performance_diff([2, 2], [1, 1]) == pytest.approx(100.0)

    def test_equal_is_zero(self):
        assert performance_diff([1.5, 2.5], [1.5, 2.5]) == 0.0

    def test_zero_base_is_missing(self):
        assert performance_diff([1, 2], [0, 0]) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            performance_diff([1], [1, 2])


def brute_force_one_sided_p(diffs, direction):
    """Enumerate sign patterns from scratch (independent of the implementation)."""
    from scipy.stats import rankdata

    diffs = [d for d in diffs if d != 0]
    ranks = rankdata([abs(d) for d in diffs])
    observed = sum(r for r, d in zip(ranks, diffs) if d > 0)
    n = len(diffs)
    count = 0
    for signs in itertools.product((False, True), repeat=n):
        w_plus = sum(r for r, positive in zip(ranks, signs) if positive)
        if direction == "greater" and w_plus >= observed - 1e-9:
            count += 1
        if direction == "less" and w_plus <= observed + 1e-9:
            count += 1
    return count / 2**n


class TestWilcoxon:
    def test_all_positive_n5_exact(self):
        result = wilcoxon_one_sided([2, 3, 4, 5, 6], [1, 2, 3, 4, 5], "greater")
        assert result.p_value == pytest.approx(1 / 32)

    def test_identical_samples_missing(self):
        assert wilcoxon_one_sided([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], "greater") is None

    def test_antisymmetry_of_z(self):
        a = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        b = [2.0, 1.8, 3.0, 2.5, 4.0, 2.9, 4.2]
        forward = wilcoxon_one_sided(a, b, "greater")
        backward = wilcoxon_one_sided(b, a, "greater")
        assert forward.z_score == pytest.approx(-backward.z_score)

    def test_exact_matches_enumeration_for_small_n(self):
        rng = np.random.default_rng(23)
        for n in range(5, 11):
            for _ in range(8):
                diffs = rng.integers(-5, 6, size=n)
                diffs[diffs == 0] = 1
                a = diffs.astype(float)
                b = np.zeros(n)
                for direction in ("greater", "less"):
                    result = wilcoxon_one_sided(a, b, direction)
                    assert result.p_value == pytest.approx(
                        brute_force_one_sided_p(list(diffs), direction)
                    ), (n, list(diffs), direction)

    def test_effect_size_magnitudes(self):
        # n=25 all positive: z = (325 - 162.5) / sqrt(25*26*51/24) -> r = z/5 > 0.5
        a = list(range(1, 26))
        b = [0.0] * 25
        result = wilcoxon_one_sided(a, b, "greater")
        assert result.magnitude == "large"
        assert result.effect_r > 0.5

    def test_fewer_than_five_nonzero_is_missing(self):
        assert wilcoxon_one_sided([1, 2, 3, 4], [0, 0, 0, 0], "greater") is None
        assert wilcoxon_one_sided([1, 1, 1, 1, 1], [1, 1, 1, 0, 1], "greater") is None

    def test_normal_approximation_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(16, 40))
            a = rng.normal(0.3, 1.0, size=n)
            b = np.zeros(n)
            ours = wilcoxon_one_sided(list(a), list(b), "greater")
            ref = stats.wilcoxon(a - b, alternative="greater", correction=False, mode="approx")
            assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)

    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=9).filter(
            lambda d: sum(1 for v in d if v != 0) >= 5
        )
    )
    def test_exact_p_property(self, diffs):
        a = [float(v) for v in diffs]
        b = [0.0] * len(diffs)
        result = wilcoxon_one_sided(a, b, "greater")
        assert result.p_value == pytest.approx(brute_force_one_sided_p(diffs, "greater"))


class TestAverageRanks:
    @given(
        st.lists(
            st.one_of(st.integers(-4, 4).map(float), st.floats(-1e6, 1e6, allow_nan=False), st.just(0.5)),
            min_size=1,
            max_size=40,
        )
    )
    def test_equal_to_scipy_rankdata_bit_for_bit(self, values):
        from scipy.stats import rankdata

        values = np.abs(np.array(values))
        assert average_ranks(values).tobytes() == rankdata(values).astype(np.float64).tobytes()

    def test_importing_the_cli_leaves_scipy_stats_unloaded(self):
        code = "import sys, linedefects.cli; print('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(linedefects.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "False"
