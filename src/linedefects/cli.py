"""Command line surface.

Subcommands: mine, train, predict, evaluate, sensitivity, density. All
outputs are UTF-8 CSVs written atomically. Exit codes: 0 success, 1 usage
error, 2 data error (diagnostics go to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import baselines, experiments, miner, pipeline
from .config import FIELD_TYPES, RunConfig, make_config
from .corpus import DatasetError, defect_density, load_dataset, write_dataset
from .evaluation import write_metrics_csv, write_stats_csv
from .model import load_model, save_model
from .util import write_csv

RANKED_CSV_COLUMNS = (
    "rank",
    "release",
    "file_path",
    "line_number",
    "hit_count",
    "score_sum",
    "file_probability",
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# settings whose flag is not the field's name: field -> (flag, help)
_RENAMED_FLAGS = {
    "parallelism": (
        "--workers",
        "worker processes: evaluate spreads CV splits or release pairs, predict and sensitivity "
        "spread per-file explanations (default: all cores)",
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse uses exit code 2; the CLI reserves that for data errors
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class DataError(Exception):
    pass


def _write_ranked_csv(path: str, ranked, method: str | None = None) -> None:
    extra = () if method is None else (method,)
    rows = (
        (rank, line.release_id, line.file_path, line.line_number, line.hit_count,
         line.score_sum, line.file_probability) + extra
        for rank, line in enumerate(ranked, start=1)
    )
    write_csv(path, RANKED_CSV_COLUMNS + (() if method is None else ("method",)), rows)


def _load_releases(args) -> list:
    try:
        return load_dataset(args.dataset, getattr(args, "metadata", None))
    except (OSError, DatasetError) as exc:
        raise DataError(str(exc)) from exc


def _pick_release(releases, release_id: str):
    for ds in releases:
        if ds.release_id == release_id:
            return ds
    raise DataError(f"release {release_id!r} not found; available: {[d.release_id for d in releases]}")


def _config_from_args(args) -> RunConfig:
    overrides = {name: getattr(args, name) for name in FIELD_TYPES}
    try:
        return make_config(getattr(args, "config", None), **overrides)
    except (OSError, ValueError) as exc:
        raise DataError(f"bad configuration: {exc}") from exc


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field, named after it, except ``--workers`` for ``parallelism``."""
    parser.add_argument("--config", help="key=value config file; explicit flags win")
    for name, kind in FIELD_TYPES.items():
        flag, help_text = _RENAMED_FLAGS.get(name, ("--" + name.replace("_", "-"), None))
        parser.add_argument(flag, dest=name, type=kind, default=None, help=help_text)


def cmd_mine(args) -> int:
    try:
        commits = miner.load_commit_export(args.commits)
        issues = miner.load_issue_keys(args.issues)
        snapshots = load_dataset(args.snapshot)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    bugfix = miner.find_bugfix_commits(commits, issues)
    labeled = []
    for snapshot in snapshots:
        ds, unresolved = miner.label_defective_lines(snapshot, bugfix)
        if unresolved:
            print(
                f"warning: {snapshot.release_id}: {unresolved} changed lines not matched to the snapshot",
                file=sys.stderr,
            )
        labeled.append(ds)
    write_dataset(labeled, args.out)
    print(f"{len(bugfix)} bug-fixing commits; wrote {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    releases = _load_releases(args)
    if args.releases:
        wanted = args.releases.split(",")
        releases = [_pick_release(releases, r) for r in wanted]
    _config_from_args(args)  # training reads no setting, but a bad --config is still a data error
    try:
        model, vocab = pipeline.train_file_model(releases)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    save_model(model, vocab, args.out)
    status = "converged" if model.train_meta.converged else "NOT converged (warning)"
    print(f"trained on {sum(len(d.files) for d in releases)} files, |V|={len(vocab)}, {status}; wrote {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    releases = _load_releases(args)
    test = _pick_release(releases, args.release)
    config = _config_from_args(args)
    method = args.method
    model = vocab = None
    if method in ("linedp", "random", "tmi_lr"):
        if args.model is None:
            raise DataError(f"method {method} needs --model")
        try:
            model, vocab = load_model(args.model)
        except (OSError, ValueError) as exc:
            raise DataError(str(exc)) from exc
    train = None
    if method in ("tmi_lr", "ngram"):
        if args.train_release is None:
            raise DataError(f"method {method} needs --train-release")
        train = _pick_release(releases, args.train_release)
    try:
        if method == "linedp":
            result = pipeline.identify_lines(model, vocab, test, config)
        elif method == "random":
            result = baselines.random_baseline(test, model, vocab, config.k_risky, config.seed)
        elif method == "tmi_lr":
            result = baselines.tmi_lr_baseline(train, test, model, vocab, config.k_risky)
        else:
            result = baselines.ngram_entropy_baseline(train, test, config.entropy_threshold_cross)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    _write_ranked_csv(args.out, result.ranked, method=method if args.method_column else None)
    print(f"{method}: {len(result.ranked)} flagged lines; wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    releases = _load_releases(args)
    methods = tuple(args.methods.split(","))
    unknown = set(methods) - set(experiments.ALL_METHODS)
    if unknown:
        raise DataError(f"unknown methods: {sorted(unknown)}")
    config = _config_from_args(args)
    try:
        if args.setting == "within":
            output = experiments.within_release_eval(releases, methods, config)
        else:
            output = experiments.cross_release_eval(releases, methods, config)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    out_dir = Path(args.out_dir)
    write_metrics_csv(out_dir / "metrics.csv", args.setting, output.reports)
    write_stats_csv(out_dir / "stats.csv", output.stats)
    print(f"{len(output.reports)} metric rows, {len(output.stats)} stat rows; wrote {out_dir}/")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    releases = _load_releases(args)
    train = _pick_release(releases, args.train_release)
    test = _pick_release(releases, args.test_release)
    config = _config_from_args(args)
    try:
        if args.target == "k_risky":
            key, rows = "k", pipeline.sensitivity_k(train, test, config=config)
        else:
            key, rows = "threshold", baselines.sensitivity_entropy_threshold(train, test)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    columns = (key, "recall", "far", "d2h")
    write_csv(args.out, columns, ([row[c] for c in columns] for row in rows))
    print(f"{len(rows)} sensitivity rows; wrote {args.out}")
    return EXIT_OK


def cmd_density(args) -> int:
    releases = _load_releases(args)
    rows = [
        (ds.release_id, f.path, len(f.lines), sum(line.is_defective for line in f.lines), defect_density(f))
        for ds in releases
        for f in ds.files
    ]
    write_csv(args.out, ("release", "file_path", "loc", "defective_lines", "density"), rows)
    print(f"{len(rows)} files; wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linedefects", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="label a release snapshot from commit history and bug ids")
    p.add_argument("--commits", required=True, help="commit-export JSONL")
    p.add_argument("--issues", required=True, help="newline-delimited bug report ids")
    p.add_argument("--snapshot", required=True, help="unlabeled release snapshot (canonical CSV)")
    p.add_argument("--out", required=True, help="labeled dataset CSV")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train the file-level defect model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--metadata", default=None)
    p.add_argument("--releases", default=None, help="comma-separated release ids (default: all)")
    p.add_argument("--out", required=True, help="model JSON path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="rank defect-prone lines of one release")
    p.add_argument("--model", default=None, help="model JSON (needed for linedp, random, tmi_lr)")
    p.add_argument("--dataset", required=True)
    p.add_argument("--metadata", default=None)
    p.add_argument("--release", required=True)
    p.add_argument("--method", choices=experiments.ALL_METHODS, default="linedp")
    p.add_argument("--train-release", default=None, help="training release (needed for tmi_lr, ngram)")
    p.add_argument("--out", required=True, help="ranked lines CSV")
    p.add_argument("--method-column", action="store_true", help="append a method column")
    _add_config_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="run a validation protocol and emit metrics + stats CSVs")
    p.add_argument("--dataset", required=True)
    p.add_argument("--metadata", default=None)
    p.add_argument("--setting", choices=("within", "cross"), required=True)
    p.add_argument("--methods", default=",".join(experiments.ALL_METHODS))
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sensitivity", help="sweep the risky-token budget or the entropy threshold")
    p.add_argument("--dataset", required=True)
    p.add_argument("--metadata", default=None)
    p.add_argument("--target", choices=("k_risky", "entropy_threshold"), required=True)
    p.add_argument("--train-release", required=True)
    p.add_argument("--test-release", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("density", help="per-file defect density CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_density)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "parallelism", None) is None and hasattr(args, "parallelism"):
        args.parallelism = max(1, os.cpu_count() or 1)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
