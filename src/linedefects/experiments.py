"""Experiment protocols: within-release repeated stratified CV, cross-release
consecutive pairs, and the paired statistical comparison against baselines."""

from __future__ import annotations

from dataclasses import dataclass

from .baselines import ngram_entropy_baseline, random_baseline, tmi_lr_baseline
from .config import RunConfig
from .corpus import ReleaseDataset
from .evaluation import (
    METRIC_DIRECTIONS,
    MetricsReport,
    cross_release_pairs,
    evaluate_ranking,
    performance_diff,
    stratified_kfold,
    wilcoxon_one_sided,
)
from .pipeline import MethodResult, identify_lines, train_file_model
from .util import derive_seed

ALL_METHODS = ("linedp", "random", "tmi_lr", "ngram")

# method -> metric -> unit -> aggregated value (None when undefined)
_Values = dict[str, dict[str, dict[str, float | None]]]


@dataclass
class EvaluationOutput:
    reports: list[MetricsReport]  # one row per method per train/test unit
    stats: list[dict]  # linedp vs baseline, per metric


def _run_methods(
    train: ReleaseDataset,
    test: ReleaseDataset,
    methods: tuple[str, ...],
    config: RunConfig,
    entropy_threshold: float,
    seed: int,
) -> dict[str, MethodResult]:
    """Run the requested methods on one split, sharing the file-level model."""
    results: dict[str, MethodResult] = {}
    model = vocab = None
    if any(m in methods for m in ("linedp", "random", "tmi_lr")):
        model, vocab = train_file_model(train)
    if "linedp" in methods:
        results["linedp"] = identify_lines(model, vocab, test, config)
    if "random" in methods:
        results["random"] = random_baseline(test, model, vocab, config.k_risky, seed)
    if "tmi_lr" in methods:
        results["tmi_lr"] = tmi_lr_baseline(train, test, model, vocab, config.k_risky)
    if "ngram" in methods:
        results["ngram"] = ngram_entropy_baseline(train, test, entropy_threshold)
    return results


def _subset_release(release: ReleaseDataset, indices: tuple[int, ...]) -> ReleaseDataset:
    files = tuple(release.files[i] for i in indices)
    return ReleaseDataset(release_id=release.release_id, release_date=release.release_date, files=files)


def _metric_values(rep: MetricsReport) -> dict[str, float | None]:
    return {
        "recall": rep.recall,
        "far": rep.far,
        "d2h": rep.d2h,
        "mcc": rep.mcc,
        "recall_top20loc": rep.recall_at_20pct_loc,
        "ifa": None if rep.ifa is None else float(rep.ifa),
    }


def within_release_eval(
    releases: list[ReleaseDataset],
    methods: tuple[str, ...] = ALL_METHODS,
    config: RunConfig = RunConfig(),
) -> EvaluationOutput:
    """Stratified folds x repeats cross validation inside each release.

    Emits one metrics row per method per (release, repeat, fold) split. The
    statistical comparison first averages the per-split values within each
    release, then pairs releases between the pipeline and each baseline.
    """
    reports: list[MetricsReport] = []
    values: _Values = {m: {metric: {} for metric in METRIC_DIRECTIONS} for m in methods}
    for release in releases:
        labels = [f.file_label for f in release.files]
        splits = stratified_kfold(
            labels, config.folds, config.repeats, seed=derive_seed(config.seed, "folds", release.release_id)
        )
        sums: dict[str, dict[str, list[float]]] = {m: {metric: [] for metric in METRIC_DIRECTIONS} for m in methods}
        for split in splits:
            train = _subset_release(release, split.train_indices)
            test = _subset_release(release, split.test_indices)
            unit = f"{release.release_id}:r{split.repeat}f{split.fold}"
            split_seed = derive_seed(config.seed, release.release_id, split.repeat, split.fold)
            results = _run_methods(train, test, methods, config, config.entropy_threshold_within, split_seed)
            for method in methods:
                rep = evaluate_ranking(
                    method, unit, results[method].ranked, test, results[method].file_probabilities
                )
                reports.append(rep)
                for metric, value in _metric_values(rep).items():
                    if value is not None:
                        sums[method][metric].append(value)
        for method in methods:
            for metric in METRIC_DIRECTIONS:
                observed = sums[method][metric]
                values[method][metric][release.release_id] = (
                    sum(observed) / len(observed) if observed else None
                )
    stats = _compare_methods(values, methods, setting="within")
    return EvaluationOutput(reports=reports, stats=stats)


def cross_release_eval(
    releases: list[ReleaseDataset],
    methods: tuple[str, ...] = ALL_METHODS,
    config: RunConfig = RunConfig(),
) -> EvaluationOutput:
    """Train on release k-1, test on release k, for every consecutive pair."""
    pairs = cross_release_pairs(releases)
    reports: list[MetricsReport] = []
    values: _Values = {m: {metric: {} for metric in METRIC_DIRECTIONS} for m in methods}
    for train, test in pairs:
        unit = f"{train.release_id}->{test.release_id}"
        pair_seed = derive_seed(config.seed, train.release_id, test.release_id)
        results = _run_methods(train, test, methods, config, config.entropy_threshold_cross, pair_seed)
        for method in methods:
            rep = evaluate_ranking(
                method, unit, results[method].ranked, test, results[method].file_probabilities
            )
            reports.append(rep)
            for metric, value in _metric_values(rep).items():
                values[method][metric][unit] = value
    stats = _compare_methods(values, methods, setting="cross")
    return EvaluationOutput(reports=reports, stats=stats)


def _compare_methods(values: _Values, methods: tuple[str, ...], setting: str) -> list[dict]:
    """Pairwise linedp-vs-baseline rows: percentage difference, p-value, effect size.

    Units where either side is undefined are dropped from the pairing.
    """
    if "linedp" not in methods:
        return []
    rows = []
    for baseline in methods:
        if baseline == "linedp":
            continue
        for metric, direction in METRIC_DIRECTIONS.items():
            ours_by_unit = values["linedp"][metric]
            theirs_by_unit = values[baseline][metric]
            units = [
                u
                for u in ours_by_unit
                if ours_by_unit[u] is not None and theirs_by_unit.get(u) is not None
            ]
            if not units:
                continue
            ours = [ours_by_unit[u] for u in units]
            theirs = [theirs_by_unit[u] for u in units]
            diff = performance_diff(ours, theirs)
            test = wilcoxon_one_sided(ours, theirs, direction)
            rows.append(
                {
                    "setting": setting,
                    "metric": metric,
                    "baseline": baseline,
                    "pct_diff": diff,
                    "p_value": None if test is None else test.p_value,
                    "effect_r": None if test is None else test.effect_r,
                    "magnitude": None if test is None else test.magnitude,
                }
            )
    return rows
