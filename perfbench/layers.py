"""Per-layer probes and metrics of the traced run.

The layers are the program's modules. Each probe wraps one public function
at the place its caller looks it up; ``layers.json`` lists each layer's
metrics and the end-to-end metric they should move.
"""

from __future__ import annotations

import statistics
from collections import Counter

from spans import Probe, Span, self_times


def _release_lines(args, kwargs, result) -> dict:
    return {"lines": sum(len(f.lines) for ds in result for f in ds.files)}


def _vocab_size(args, kwargs, result) -> dict:
    return {"vocab_size": len(result)}


def _train_meta(args, kwargs, result) -> dict:
    meta = getattr(result, "train_meta", None)
    if meta is None:
        return {}
    return {"iterations": meta.iterations, "converged": bool(meta.converged)}


def _explanation(args, kwargs, result) -> dict:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {
        "distinct_tokens": len(x.entries),
        "fidelity_r2": result.fidelity_r2,
        "empty": not any(score > 0.0 for score in result.scores.values()),
    }


def _identified(args, kwargs, result) -> dict:
    config = args[3] if len(args) > 3 else kwargs["config"]
    return {
        "defect_prone": sum(1 for p in result.file_probabilities.values() if p > 0.5),
        "flagged": len(result.ranked),
        "workers": config.parallelism,
    }


def _splits(args, kwargs, result) -> dict:
    return {"splits": len(result)}


def probes(lib) -> list[Probe]:
    """Every lookup site the traced run wraps; ``lib`` is the imported ``linedefects`` package."""
    cli, corpus, pipeline = lib.cli, lib.corpus, lib.pipeline
    baselines, experiments = lib.baselines, lib.experiments
    return [
        Probe(cli, "load_dataset", "corpus.load_dataset", _release_lines),
        Probe(pipeline, "build_vocabulary", "corpus.build_vocabulary", _vocab_size),
        Probe(pipeline, "vectorize", "corpus.vectorize"),
        Probe(baselines, "vectorize", "corpus.vectorize"),
        Probe(corpus, "tokenize", "corpus.tokenize", count_only=True),
        Probe(pipeline, "tokenize", "corpus.tokenize", count_only=True),
        Probe(baselines, "tokenize", "corpus.tokenize", count_only=True),
        Probe(pipeline, "train_logistic", "model.train_logistic", _train_meta),
        Probe(baselines, "standardized_coefficients", "model.standardized_coefficients"),
        Probe(cli, "save_model", "model.save_model"),
        Probe(cli, "load_model", "model.load_model"),
        Probe(pipeline, "explain", "explain.explain", _explanation),
        Probe(pipeline, "train_file_model", "pipeline.train_file_model"),
        Probe(experiments, "train_file_model", "pipeline.train_file_model"),
        Probe(pipeline, "predict_files", "pipeline.predict_files"),
        Probe(baselines, "predict_files", "pipeline.predict_files"),
        Probe(pipeline, "identify_lines", "pipeline.identify_lines", _identified),
        Probe(experiments, "identify_lines", "pipeline.identify_lines", _identified),
        Probe(pipeline, "flag_lines", "pipeline.flag_lines"),
        Probe(baselines, "flag_lines", "pipeline.flag_lines"),
        Probe(pipeline, "rank_lines_global", "pipeline.rank_lines_global"),
        Probe(baselines, "rank_lines_global", "pipeline.rank_lines_global"),
        Probe(baselines, "ngram_entropy_baseline", "baselines.ngram_entropy_baseline"),
        Probe(experiments, "ngram_entropy_baseline", "baselines.ngram_entropy_baseline"),
        Probe(baselines.NgramModel, "fit", "baselines.ngram_fit"),
        Probe(baselines, "line_entropies", "baselines.line_entropies"),
        Probe(baselines, "tmi_lr_baseline", "baselines.tmi_lr_baseline"),
        Probe(experiments, "tmi_lr_baseline", "baselines.tmi_lr_baseline"),
        Probe(baselines, "random_baseline", "baselines.random_baseline"),
        Probe(experiments, "random_baseline", "baselines.random_baseline"),
        Probe(experiments, "evaluate_ranking", "evaluation.evaluate_ranking"),
        Probe(experiments, "stratified_kfold", "evaluation.stratified_kfold", _splits),
        Probe(experiments, "performance_diff", "evaluation.stats"),
        Probe(experiments, "wilcoxon_one_sided", "evaluation.stats"),
        Probe(cli, "write_metrics_csv", "evaluation.write_csv"),
        Probe(cli, "write_stats_csv", "evaluation.write_csv"),
        Probe(experiments, "within_release_eval", "experiments.within_release_eval"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _op_metrics(spans: list[Span], selfs: dict[str, float], counts: Counter) -> dict[str, float]:
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, []))

    def own(name: str) -> float:
        return sum(selfs[s.id] for s in by_name.get(name, []))

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, []))

    identify = by_name.get("pipeline.identify_lines", [])
    identify_ids = {s.id for s in identify}
    explain_in_identify = sum(
        s.duration for s in by_name.get("explain.explain", []) if s.parent in identify_ids
    )
    trains = by_name.get("model.train_logistic", [])
    lines_loaded = attr_sum("corpus.load_dataset", "lines")
    return {
        "explain.calls": len(by_name.get("explain.explain", [])),
        "explain.total_s": total("explain.explain"),
        "pipeline.train_file_model_s": total("pipeline.train_file_model"),
        "pipeline.predict_files_s": total("pipeline.predict_files"),
        "pipeline.identify_s": total("pipeline.identify_lines"),
        "pipeline.identify_self_s": own("pipeline.identify_lines"),
        "pipeline.flag_s": total("pipeline.flag_lines"),
        "pipeline.rank_s": total("pipeline.rank_lines_global"),
        "pipeline.defect_prone_files": attr_sum("pipeline.identify_lines", "defect_prone"),
        "pipeline.flagged_lines": attr_sum("pipeline.identify_lines", "flagged"),
        "pipeline.explain_parallel_eff": _ratio(
            explain_in_identify, sum(s.attrs.get("workers", 1) * s.duration for s in identify)
        ),
        "corpus.load_s": total("corpus.load_dataset"),
        "corpus.vocab_s": total("corpus.build_vocabulary"),
        "corpus.vectorize_s": total("corpus.vectorize"),
        "corpus.vectorize_calls": len(by_name.get("corpus.vectorize", [])),
        "corpus.tokenize_calls": counts["corpus.tokenize"],
        "corpus.tokenize_per_line": _ratio(counts["corpus.tokenize"], lines_loaded),
        "corpus.vocab_size": max(
            (s.attrs.get("vocab_size", 0) for s in by_name.get("corpus.build_vocabulary", [])), default=0
        ),
        "model.train_s": total("model.train_logistic"),
        "model.train_calls": len(trains),
        "model.train_iters": sum(s.attrs.get("iterations", 0) for s in trains),
        "model.train_converged_share": _ratio(
            sum(1 for s in trains if s.attrs.get("converged")), len(trains)
        ),
        "model.standardized_s": total("model.standardized_coefficients"),
        "model.save_s": total("model.save_model"),
        "model.load_s": total("model.load_model"),
        "baselines.ngram_s": total("baselines.ngram_entropy_baseline"),
        "baselines.ngram_fit_s": total("baselines.ngram_fit"),
        "baselines.line_entropies_s": total("baselines.line_entropies"),
        "baselines.tmi_lr_s": total("baselines.tmi_lr_baseline"),
        "baselines.random_s": total("baselines.random_baseline"),
        "evaluation.evaluate_s": total("evaluation.evaluate_ranking"),
        "evaluation.kfold_s": total("evaluation.stratified_kfold"),
        "evaluation.stats_s": total("evaluation.stats"),
        "evaluation.write_csv_s": total("evaluation.write_csv"),
        "experiments.splits": attr_sum("evaluation.stratified_kfold", "splits"),
        "experiments.self_s": own("experiments.within_release_eval"),
        "cli.self_s": own("cli.main"),
        "trace.op_s": total("op"),
    }


def layer_metrics(spans: list[Span], counts: dict[int, Counter]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Per-op values (times, calls, counts) are medians over the run's ops;
    the explain distribution metrics pool every explain call of the run.
    """
    selfs = self_times(spans)
    ops = sorted({s.op for s in spans if s.name == "op"})
    per_op = [
        _op_metrics([s for s in spans if s.op == op], selfs, counts.get(op, Counter())) for op in ops
    ]
    metrics = {name: statistics.median(values[name] for values in per_op) for name in per_op[0]}
    explains = [s for s in spans if s.name == "explain.explain"]
    durations = [s.duration for s in explains]
    metrics["explain.file_s_p50"] = _quantile(durations, 0.5)
    metrics["explain.file_s_p90"] = _quantile(durations, 0.9)
    metrics["explain.distinct_tokens_p50"] = _quantile(
        [s.attrs["distinct_tokens"] for s in explains if "distinct_tokens" in s.attrs], 0.5
    )
    metrics["explain.fidelity_r2_p50"] = _quantile(
        [s.attrs["fidelity_r2"] for s in explains if "fidelity_r2" in s.attrs], 0.5
    )
    metrics["explain.empty_share"] = _ratio(sum(1 for s in explains if s.attrs.get("empty")), len(explains))
    return metrics
