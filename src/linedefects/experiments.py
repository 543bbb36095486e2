"""Experiment protocols: within-release repeated stratified CV, cross-release
consecutive pairs, and the paired statistical comparison against baselines."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .baselines import ngram_entropy_baseline, random_baseline, tmi_lr_baseline
from .config import RunConfig
from .corpus import ReleaseDataset
from .evaluation import (
    METRIC_DIRECTIONS,
    FoldSplit,
    MetricsReport,
    cross_release_pairs,
    evaluate_ranking,
    performance_diff,
    stratified_kfold,
    wilcoxon_one_sided,
)
from .pipeline import MethodResult, identify_lines, train_file_model
from .util import derive_seed, pool_map, pool_workers

ALL_METHODS = ("linedp", "random", "tmi_lr", "ngram")

# method -> metric -> unit -> aggregated value (None when undefined)
_Values = dict[str, dict[str, dict[str, float | None]]]


@dataclass
class EvaluationOutput:
    reports: list[MetricsReport]  # one row per method per train/test unit
    stats: list[dict]  # linedp vs baseline, per metric


def _method_reports(
    train: ReleaseDataset,
    test: ReleaseDataset,
    unit: str,
    methods: tuple[str, ...],
    config: RunConfig,
    entropy_threshold: float,
    seed: int,
) -> list[MetricsReport]:
    """Run the requested methods on one train/test unit, sharing the file-level model.

    Returns one metrics row per method, in ``methods`` order.
    """
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
    return [
        evaluate_ranking(method, unit, results[method].ranked, test, results[method].file_probabilities)
        for method in methods
    ]


def _split_reports(
    releases: list[ReleaseDataset],
    methods: tuple[str, ...],
    config: RunConfig,
    task: tuple[int, FoldSplit],
) -> list[MetricsReport]:
    """Metrics of one CV split; ``task`` is (release index, split)."""
    index, split = task
    release = releases[index]
    unit = f"{release.release_id}:r{split.repeat}f{split.fold}"
    split_seed = derive_seed(config.seed, release.release_id, split.repeat, split.fold)
    return _method_reports(
        release.subset(split.train_indices),
        release.subset(split.test_indices),
        unit,
        methods,
        config,
        config.entropy_threshold_within,
        split_seed,
    )


def _pair_reports(
    pairs: list[tuple[ReleaseDataset, ReleaseDataset]],
    methods: tuple[str, ...],
    config: RunConfig,
    index: int,
) -> list[MetricsReport]:
    """Metrics of the release pair ``pairs[index]``: train on the first, test on the second."""
    train, test = pairs[index]
    unit = f"{train.release_id}->{test.release_id}"
    pair_seed = derive_seed(config.seed, train.release_id, test.release_id)
    return _method_reports(train, test, unit, methods, config, config.entropy_threshold_cross, pair_seed)


def _build_token_tables(releases: list[ReleaseDataset]) -> None:
    """Tokenise every release here, once, so that forked workers inherit the tables and every split selects rows."""
    for release in releases:
        release.token_table


def _map_units(
    unit_reports: Callable,
    tasks: Sequence,
    data: list,
    methods: tuple[str, ...],
    config: RunConfig,
    min_tasks: int = 2,
) -> list[list[MetricsReport]]:
    """``unit_reports`` over every task, in task order.

    With at least ``min_tasks`` tasks the units share a pool of up to
    ``config.parallelism`` processes, each of which receives ``data`` once;
    a unit run in a worker explains its files serially, so pools never nest.
    With fewer, the units run here one after another with the full config,
    and each may spread its files' explanations instead.
    """
    workers = pool_workers(config.parallelism, len(tasks), min_tasks)
    inner = config if workers < 2 else replace(config, parallelism=1)
    return pool_map(unit_reports, tasks, (data, methods, inner), workers)


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
    folds of every release are drawn first; the splits of all releases then
    share one pool of ``config.parallelism`` workers. The statistical
    comparison first averages the per-split values within each release,
    then pairs releases between the pipeline and each baseline.
    """
    fold_plans = [
        stratified_kfold(
            [f.file_label for f in release.files],
            config.folds,
            config.repeats,
            seed=derive_seed(config.seed, "folds", release.release_id),
        )
        for release in releases
    ]
    tasks = [(index, split) for index, splits in enumerate(fold_plans) for split in splits]
    _build_token_tables(releases)
    split_reports = iter(_map_units(_split_reports, tasks, releases, methods, config))
    reports: list[MetricsReport] = []
    values: _Values = {m: {metric: {} for metric in METRIC_DIRECTIONS} for m in methods}
    for release, splits in zip(releases, fold_plans):
        sums: dict[str, dict[str, list[float]]] = {m: {metric: [] for metric in METRIC_DIRECTIONS} for m in methods}
        for _ in splits:
            for rep in next(split_reports):
                reports.append(rep)
                for metric, value in _metric_values(rep).items():
                    if value is not None:
                        sums[rep.method][metric].append(value)
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
    """Train on release k-1, test on release k, for every consecutive pair.

    The pairs share one pool of ``config.parallelism`` workers when there
    are at least as many pairs as workers. With fewer, they run one after
    another and each pair spreads its files' explanations instead: a pair
    tests a whole release, so its explain pool can use workers that the
    pairs would leave idle.
    """
    pairs = cross_release_pairs(releases)
    _build_token_tables(releases)
    reports: list[MetricsReport] = []
    values: _Values = {m: {metric: {} for metric in METRIC_DIRECTIONS} for m in methods}
    for pair_reports in _map_units(
        _pair_reports, range(len(pairs)), pairs, methods, config, min_tasks=config.parallelism
    ):
        for rep in pair_reports:
            reports.append(rep)
            for metric, value in _metric_values(rep).items():
                values[rep.method][metric][rep.unit_id] = value
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
