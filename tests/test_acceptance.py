"""Acceptance criteria, one test per criterion.

Each test prints a [PASS] line on success (run with -s or check captured
output). Criteria 7 and 8 need the published line-level dataset converted to
the canonical CSV schema (see README); they are skipped when the data
directory is absent.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

from linedefects.baselines import NGRAM_ORDER, NgramModel, line_entropies, random_baseline
from linedefects.config import RunConfig
from linedefects.corpus import FeatureVector, Vocabulary, load_dataset
from linedefects.evaluation import (
    _exact_one_sided_p,
    confusion_counts,
    cross_release_pairs,
    d2h,
    evaluate_ranking,
    far,
    ifa,
    line_truth,
    mcc,
    recall,
    wilcoxon_one_sided,
)
from linedefects.experiments import cross_release_eval
from linedefects.explain import explain
from linedefects.model import LogisticModel, TrainMeta
from linedefects.pipeline import run_linedp, sensitivity_k, train_file_model
from linedefects.synthetic import PLANTED_TOKENS, make_release_series

from conftest import release_of_files

DATA_DIR = Path(os.environ.get("LINEDEFECTS_DATA", Path(__file__).parent.parent / "data" / "published"))

_PASS = "[PASS] criterion {n}: {text}"


def test_criterion_1_metric_oracle_suite():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(1000):
        total = int(rng.integers(1, 501))
        truth = {("f", i): bool(rng.random() < rng.uniform(0.02, 0.5)) for i in range(1, total + 1)}
        predicted = {key for key in truth if rng.random() < rng.uniform(0.05, 0.6)}
        c = confusion_counts(predicted, truth)
        # brute force from first principles on the raw sets
        tp = sum(1 for k in predicted if truth[k])
        fp = len(predicted) - tp
        fn = sum(1 for k, v in truth.items() if v) - tp
        tn = total - tp - fp - fn
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
        expected_recall = None if tp + fn == 0 else tp / (tp + fn)
        expected_far = None if fp + tn == 0 else fp / (fp + tn)
        assert recall(c) == expected_recall
        assert far(c) == expected_far
        denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        expected_mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
        assert mcc(c) == expected_mcc
        if expected_recall is not None and expected_far is not None:
            expected_d2h = math.sqrt(((1 - expected_recall) ** 2 + expected_far**2) / 2)
            assert abs(d2h(expected_recall, expected_far) - expected_d2h) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"metric oracle suite took {elapsed:.2f}s"
    print(_PASS.format(n=1, text=f"1000 random universes match brute force exactly ({elapsed:.2f}s)"))


def test_criterion_2_d2h_corners():
    assert d2h(1.0, 0.0) == 0.0
    assert d2h(0.0, 1.0) == 1.0
    print(_PASS.format(n=2, text="d2h(1,0)=0 and d2h(0,1)=1 exactly"))


def test_criterion_3_wilcoxon_exactness():
    rng = np.random.default_rng(7)
    # the exact tail distribution itself, for every n <= 10
    for n in range(1, 11):
        for _ in range(6):
            diffs = rng.integers(-4, 5, size=n).astype(float)
            diffs[diffs == 0] = 1.0
            ranks = rankdata(np.abs(diffs))
            w_plus = float(ranks[diffs > 0].sum())
            for direction in ("greater", "less"):
                got = _exact_one_sided_p(ranks, w_plus, direction)
                count = 0
                for signs in itertools.product((0, 1), repeat=n):
                    w = sum(r for r, s in zip(ranks, signs) if s)
                    if direction == "greater" and w >= w_plus - 1e-9:
                        count += 1
                    if direction == "less" and w <= w_plus + 1e-9:
                        count += 1
                assert got == pytest.approx(count / 2**n), (n, list(diffs), direction)
    # the public test end to end for admissible n
    for n in range(5, 11):
        diffs = rng.integers(1, 5, size=n).astype(float) * rng.choice([-1, 1], size=n)
        result = wilcoxon_one_sided(list(diffs), [0.0] * n, "greater")
        ranks = rankdata(np.abs(diffs))
        w_plus = float(ranks[diffs > 0].sum())
        count = sum(
            1
            for signs in itertools.product((0, 1), repeat=n)
            if sum(r for r, s in zip(ranks, signs) if s) >= w_plus - 1e-9
        )
        assert result.p_value == pytest.approx(count / 2**n)
    all_positive = wilcoxon_one_sided([1, 2, 3, 4, 5], [0, 0, 0, 0, 0], "greater")
    assert all_positive.p_value == pytest.approx(0.03125)
    print(_PASS.format(n=3, text="exact p matches 2^n enumeration for n<=10; all-positive n=5 gives 0.03125"))


def test_criterion_4_lime_sign_recovery():
    d = 30
    rng = np.random.default_rng(12345)
    weights = rng.uniform(0.4, 1.5, size=d) * rng.choice([-1.0, 1.0], size=d)
    strongest = int(np.argmax(np.abs(weights)))
    weights[strongest] = abs(weights[strongest]) + 1.0
    model = LogisticModel(
        weights=weights,
        bias=-float(weights.sum()) / 2.0,
        vocab_fingerprint="",
        train_meta=TrainMeta(0, True, 0.0),
    )
    vocab = Vocabulary(tuple(f"tok{i:02d}" for i in range(d)))
    x = FeatureVector({i: 1 for i in range(d)}, d)
    start = time.perf_counter()
    sign_matches = 0
    strongest_first = 0
    for seed in range(100):
        expl = explain(model, x, vocab, n=5000, k=10, seed=seed)
        assert expl.scores
        sign_matches += all(
            np.sign(score) == np.sign(weights[vocab.token_to_index[token]])
            for token, score in expl.scores.items()
        )
        top_token = max(expl.scores, key=expl.scores.get)
        strongest_first += vocab.token_to_index[top_token] == strongest
    elapsed = time.perf_counter() - start
    assert sign_matches == 100, f"sign recovery only {sign_matches}/100"
    assert strongest_first >= 95, f"strongest token first only {strongest_first}/100"
    assert elapsed < 30.0, f"sign recovery suite took {elapsed:.2f}s"
    print(_PASS.format(
        n=4,
        text=f"signs {sign_matches}/100, strongest first {strongest_first}/100 ({elapsed:.1f}s)",
    ))


def test_criterion_5_sensitivity_monotone():
    train, test = make_release_series(system="acc5", n_releases=2, seed=55, n_files=30, n_defective=10, lines_per_file=(10, 16))
    config = RunConfig(seed=4, lime_n=400, lime_k_features=200)
    rows = sensitivity_k(train, test, k_grid=(10, 20, 50, 100, 200), config=config)
    recalls = [row["recall"] for row in rows]
    fars = [row["far"] for row in rows]
    assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:])), recalls
    assert all(a <= b + 1e-12 for a, b in zip(fars, fars[1:])), fars
    print(_PASS.format(n=5, text=f"recall {recalls} and FAR {fars} non-decreasing in k"))


def test_criterion_6_planted_corpus_end_to_end():
    start = time.perf_counter()
    train, test = make_release_series(system="acc6", n_releases=2, seed=100)
    assert len(test.files) == 60
    assert sum(1 for f in test.files if f.file_label) == 15
    config = RunConfig(seed=5)
    result = run_linedp(train, test, config)
    truth = line_truth(test)
    defective = {key for key, bad in truth.items() if bad}
    flagged = {(r.file_path, r.line_number) for r in result.ranked}
    linedp_recall = len(defective & flagged) / len(defective)
    assert linedp_recall >= 0.8, f"pipeline line recall {linedp_recall:.3f}"

    model, vocab = train_file_model(train)
    random_recalls = []
    for seed in range(50):
        rand = random_baseline(test, model, vocab, k_risky=config.k_risky, seed=seed)
        hit = {(r.file_path, r.line_number) for r in rand.ranked}
        random_recalls.append(len(defective & hit) / len(defective))
    random_median = float(np.median(random_recalls))
    assert linedp_recall > random_median, (linedp_recall, random_median)

    from linedefects.baselines import global_risky_tokens

    risky = global_risky_tokens(train, vocab, k_risky=config.k_risky)
    recovered = len(set(PLANTED_TOKENS) & {t for t, _ in risky.tokens})
    assert recovered >= 2, f"TMI-LR recovered only {recovered}/3 planted tokens"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"planted corpus check took {elapsed:.2f}s"
    print(_PASS.format(
        n=6,
        text=(
            f"recall {linedp_recall:.2f} >= 0.8, random median {random_median:.2f}, "
            f"TMI {recovered}/3 planted ({elapsed:.1f}s)"
        ),
    ))


def _published_systems():
    if not DATA_DIR.is_dir():
        return []
    return sorted(p.stem for p in DATA_DIR.glob("*.csv") if not p.stem.endswith("_releases"))


needs_published_data = pytest.mark.skipif(
    not _published_systems(),
    reason=f"published line-level dataset not found under {DATA_DIR} (see README)",
)


@needs_published_data
def test_criterion_7_desk_scale_reproduction():
    system = _published_systems()[0]
    releases = load_dataset(DATA_DIR / f"{system}.csv", DATA_DIR / f"{system}_releases.csv")
    config = RunConfig(seed=0)
    output = cross_release_eval(releases, ("linedp", "random", "tmi_lr", "ngram"), config)
    by_method: dict[str, dict[str, list[float]]] = {}
    for rep in output.reports:
        bucket = by_method.setdefault(rep.method, {"recall": [], "far": [], "d2h": [], "top20": [], "ifa": []})
        if rep.recall is not None:
            bucket["recall"].append(rep.recall)
        if rep.far is not None:
            bucket["far"].append(rep.far)
        if rep.d2h is not None:
            bucket["d2h"].append(rep.d2h)
        if rep.recall_at_20pct_loc is not None:
            bucket["top20"].append(rep.recall_at_20pct_loc)
        if rep.ifa is not None:
            bucket["ifa"].append(float(rep.ifa))
    med = {m: {k: float(np.median(v)) for k, v in vals.items() if v} for m, vals in by_method.items()}
    ours = med["linedp"]
    assert abs(ours["recall"] - 0.62) <= 0.15, ours
    assert abs(ours["far"] - 0.48) <= 0.15, ours
    assert ours["d2h"] <= 0.55, ours
    for baseline in ("random", "tmi_lr"):
        assert ours["d2h"] < med[baseline]["d2h"], (baseline, med)
    for baseline in ("random", "tmi_lr", "ngram"):
        assert ours["top20"] >= med[baseline]["top20"], (baseline, med)
        assert ours["ifa"] <= med[baseline]["ifa"], (baseline, med)
    print(_PASS.format(n=7, text=f"{system}: medians {ours} beat baselines on d2h/top20/IFA"))


@needs_published_data
def test_criterion_8_runtime_budget():
    sizes = {}
    for system in _published_systems():
        releases = load_dataset(DATA_DIR / f"{system}.csv", DATA_DIR / f"{system}_releases.csv")
        if len(releases) >= 2:
            sizes[system] = (sum(ds.total_loc() for ds in releases), releases)
    assert sizes, "need a system with at least two releases"
    smallest = min(sizes, key=lambda s: sizes[s][0])
    releases = sizes[smallest][1]
    train, test = cross_release_pairs(releases)[0]
    config = RunConfig(seed=0)
    start = time.perf_counter()
    run_linedp(train, test, config)
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"cross-release pair on {smallest} took {elapsed:.1f}s"
    print(_PASS.format(n=8, text=f"{smallest} pair in {elapsed:.1f}s <= 120s"))


def test_criterion_9_ifa_convention():
    truth = {("f", 1): True, ("f", 2): False, ("f", 3): True}
    release = release_of_files("r", {"f": [("a", True), ("b", False), ("c", True)]})
    from linedefects.pipeline import RankedLine, rank_lines_global

    ranked = rank_lines_global(
        [RankedLine("r", "f", 1, 2, 1.0, 0.9), RankedLine("r", "f", 2, 1, 0.5, 0.9)]
    )
    result = ifa(ranked, truth)
    assert result.value == 0 and not result.saturated
    report = evaluate_ranking("linedp", "u", ranked, release)
    assert report.ifa == 0
    print(_PASS.format(n=9, text="ranking starting with a defective line has IFA = 0"))


def test_criterion_10_ngram_normalization_and_determinism():
    contents = ["alpha beta gamma delta epsilon zeta;"] * 50
    train = release_of_files("t", {"src/A.java": [(c, False) for c in contents]})
    model = NgramModel().fit(train)
    rng = np.random.default_rng(0)
    vocab = sorted(model.vocabulary)
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(0, NGRAM_ORDER))
        ctx = tuple(rng.choice(vocab + ["zzUnseen"], size=length))
        total = sum(model.probability(t, ctx) for t in vocab) + model.probability("zzUnknown", ctx)
        worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-9, f"normalization off by {worst}"
    deterministic = model.surprisal("zeta", ("alpha", "beta", "gamma", "delta", "epsilon"))
    assert deterministic < 0.01, f"deterministic continuation scored {deterministic:.4f} bits"
    test = release_of_files("s", {"src/A.java": [(contents[0], False)]})
    entropies = line_entropies(model, test, 0)
    assert entropies[1] < 0.01
    print(_PASS.format(
        n=10, text=f"normalization within {worst:.1e}; deterministic continuation {deterministic:.5f} bits"
    ))
