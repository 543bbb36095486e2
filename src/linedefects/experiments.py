"""Experiment protocols: within-release repeated stratified CV, cross-release
consecutive pairs, the paired statistical comparison against baselines, and
the sensitivity sweeps of the risky-token budget and the entropy threshold."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import pipeline  # predict_files is called through the module, where the benchmark's traced run wraps it
from .baselines import ngram_entropy_baseline, random_baseline, tmi_lr_baseline
from .config import RunConfig
from .corpus import ReleaseDataset
from .evaluation import (
    METRIC_DIRECTIONS,
    FoldSplit,
    MetricsReport,
    confusion_counts,
    cross_release_pairs,
    detection_rates,
    evaluate_ranking,
    line_labels,
    line_positions,
    performance_diff,
    stratified_kfold,
    wilcoxon_one_sided,
)
from .model import LogisticModel
from .pipeline import MethodResult, Ranking, RiskyTokenSet, flag_lines, identify_lines, run_linedp, train_file_model
from .util import derive_seed, pool_map, pool_workers

# method -> the inputs it needs besides the test release: the file-level model, a training release
METHOD_INPUTS = {
    "linedp": ("model",),
    "random": ("model",),
    "tmi_lr": ("model", "train"),
    "ngram": ("train",),
}
ALL_METHODS = tuple(METHOD_INPUTS)

DEFAULT_K_GRID = (10, 20, 30, 40, 50, 100, 150, 200)
ENTROPY_THRESHOLD_GRID = tuple(round(0.1 * i, 1) for i in range(1, 21))

# method -> metric -> group (release or pair index) -> the group's defined values
_Observed = dict[str, dict[str, dict[int, list[float]]]]


@dataclass
class EvaluationOutput:
    reports: list[MetricsReport]  # one row per method per train/test unit
    stats: list[dict]  # linedp vs baseline, per metric


def run_methods(
    methods: tuple[str, ...],
    train: ReleaseDataset | None,
    test: ReleaseDataset,
    model: LogisticModel | None,
    config: RunConfig,
    entropy_threshold: float,
    seed: int,
) -> list[MethodResult]:
    """Rank the lines of ``test`` by each of ``methods``, in that order.

    The inputs ``METHOD_INPUTS`` lists for none of the methods may be None.
    When a method needs the model, the model predicts ``test`` once, and
    every such method shares that prediction.
    """
    predicted = pipeline.predict_files(model, test) if _needs_model(methods) else None
    run = {
        "linedp": lambda: identify_lines(model, test, predicted, config),
        "random": lambda: random_baseline(test, model.vocab, predicted, config.k_risky, seed),
        "tmi_lr": lambda: tmi_lr_baseline(train, test, model.vocab, predicted, config.k_risky),
        "ngram": lambda: ngram_entropy_baseline(train, test, entropy_threshold),
    }
    return [run[method]() for method in methods]


def _needs_model(methods: tuple[str, ...]) -> bool:
    return any("model" in METHOD_INPUTS[method] for method in methods)


def _method_reports(
    train: ReleaseDataset,
    test: ReleaseDataset,
    unit: str,
    methods: tuple[str, ...],
    config: RunConfig,
    entropy_threshold: float,
    seed: int,
) -> list[MetricsReport]:
    """Run the requested methods on one train/test unit, sharing the file-level model and its prediction.

    Returns one metrics row per method, in ``methods`` order. A ValueError
    raised on the way names ``unit`` in front of its message.
    """
    try:
        model = train_file_model(train) if _needs_model(methods) else None
        results = run_methods(methods, train, test, model, config, entropy_threshold, seed)
        return [evaluate_ranking(r.method, unit, r.ranked, test, r.file_probabilities) for r in results]
    except ValueError as exc:
        raise ValueError(f"{unit}: {exc}") from exc


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


def _evaluate(
    unit_reports: Callable,
    tasks: Sequence,
    groups: Sequence[int],
    data: list,
    methods: tuple[str, ...],
    config: RunConfig,
    setting: str,
    min_tasks: int = 2,
) -> EvaluationOutput:
    """Run ``unit_reports`` over every task, keep its rows in task order, and compare the methods per group.

    ``groups[i]`` names the group of ``tasks[i]``: its release (within) or
    its pair (cross). With at least ``min_tasks`` tasks the units share a
    pool of up to ``config.parallelism`` processes, each of which receives
    ``data`` once; a unit run in a worker explains its files serially, so
    pools never nest. With fewer, the units run here one after another with
    the full config, and each may spread its files' explanations instead.
    """
    workers = pool_workers(config.parallelism, len(tasks), min_tasks)
    inner = config if workers < 2 else replace(config, parallelism=1)
    if workers > 1:  # loaded here, the modules a unit calls reach every forked worker (see pool_map)
        import scipy.linalg.lapack, scipy.optimize, scipy.sparse, scipy.special  # noqa: E401, F401
    reports: list[MetricsReport] = []
    observed: _Observed = {method: {metric: {} for metric in METRIC_DIRECTIONS} for method in methods}
    for group, unit in zip(groups, pool_map(unit_reports, tasks, (data, methods, inner), workers)):
        for rep in unit:
            reports.append(rep)
            for metric in METRIC_DIRECTIONS:
                value = getattr(rep, metric)
                if value is not None:
                    observed[rep.method][metric].setdefault(group, []).append(value)
    return EvaluationOutput(reports=reports, stats=_compare_methods(observed, methods, setting))


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
    fold_plans = []
    for release in releases:
        labels = [f.file_label for f in release.files]
        seed = derive_seed(config.seed, "folds", release.release_id)
        try:
            fold_plans.append(stratified_kfold(labels, config.folds, config.repeats, seed))
        except ValueError as exc:
            raise ValueError(f"{release.release_id}: {exc}") from exc
    tasks = [(index, split) for index, splits in enumerate(fold_plans) for split in splits]
    _build_token_tables(releases)
    groups = [index for index, _ in tasks]
    return _evaluate(_split_reports, tasks, groups, releases, methods, config, setting="within")


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
    if len(releases) < 2:
        raise ValueError(f"cross-release evaluation needs at least two releases, got {len(releases)}")
    pairs = cross_release_pairs(releases)
    _build_token_tables(releases)
    tasks = range(len(pairs))
    return _evaluate(_pair_reports, tasks, tasks, pairs, methods, config, setting="cross", min_tasks=config.parallelism)


def _compare_methods(observed: _Observed, methods: tuple[str, ...], setting: str) -> list[dict]:
    """Pairwise linedp-vs-baseline rows: percentage difference, p-value, effect size.

    A group's value is the mean of its defined values; groups where either
    side has none are dropped from the pairing.
    """
    if "linedp" not in methods:
        return []
    rows = []
    for baseline in methods:
        if baseline == "linedp":
            continue
        for metric, direction in METRIC_DIRECTIONS.items():
            ours_by_group = observed["linedp"][metric]
            theirs_by_group = observed[baseline][metric]
            groups = [group for group in ours_by_group if group in theirs_by_group]
            if not groups:
                continue
            ours = [sum(ours_by_group[g]) / len(ours_by_group[g]) for g in groups]
            theirs = [sum(theirs_by_group[g]) / len(theirs_by_group[g]) for g in groups]
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


def _sweep(key: str, grid: Sequence, flagged_at: Callable, test: ReleaseDataset) -> list[dict]:
    """One row per grid value: the value under ``key``, then recall, FAR and d2h of the lines ``flagged_at(value)``."""
    labels = line_labels(test)
    rows = []
    for value in grid:
        positions = line_positions(flagged_at(value), test)
        rows.append({key: value, **detection_rates(confusion_counts(positions, labels))})
    return rows


def sensitivity_k(
    train: ReleaseDataset | list[ReleaseDataset],
    test: ReleaseDataset,
    k_grid: tuple[int, ...] = DEFAULT_K_GRID,
    config: RunConfig = RunConfig(),
) -> list[dict]:
    """Recall / FAR / d2h per risky-token budget k.

    The lines are identified once, with the largest k and a feature budget
    covering the whole grid; each k then flags with the first k of every
    file's risky tokens, which is the risky set a run at that k selects.
    Nested risky sets make recall and FAR non-decreasing in k.
    """
    if not k_grid or min(k_grid) < 1:
        raise ValueError("k_grid must be nonempty with positive entries")
    widest = replace(config, k_risky=max(k_grid), lime_k_features=max(config.lime_k_features, max(k_grid)))
    result = run_linedp(train, test, widest)
    explained = {i: result.risky_tokens[f.path] for i, f in enumerate(test.files) if f.path in result.risky_tokens}

    def flagged_at(k: int) -> Ranking:
        risky = {i: RiskyTokenSet(tokens.tokens[:k]) for i, tokens in explained.items()}
        return flag_lines(test, risky, result.file_probabilities)

    return _sweep("k", k_grid, flagged_at, test)


def sensitivity_entropy_threshold(
    train: ReleaseDataset | list[ReleaseDataset],
    test: ReleaseDataset,
    thresholds: tuple[float, ...] = ENTROPY_THRESHOLD_GRID,
) -> list[dict]:
    """Recall / FAR / d2h of the entropy baseline per flag threshold.

    The baseline runs once, at the lowest threshold; each threshold then
    keeps the lines scored above it, which is the set a run at that
    threshold flags. Raising the threshold only shrinks the flagged set, so
    recall and FAR are non-increasing in the threshold.
    """
    scored = ngram_entropy_baseline(train, test, min(thresholds, default=0.0)).ranked
    return _sweep("threshold", thresholds, lambda t: scored.take(scored.scores > t), test)
