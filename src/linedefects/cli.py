"""Command line surface.

Subcommands: mine, train, predict, evaluate, sensitivity, density. All
outputs are UTF-8 CSVs written atomically. Exit codes: 0 success, 1 usage
error, 2 data error (diagnostics go to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import experiments, miner, pipeline
from .config import FIELD_TYPES, RunConfig, load_config_file
from .corpus import ReleaseDataset, load_dataset, write_dataset
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

_WORKERS_HELP = (
    "worker processes: evaluate spreads CV splits or release pairs, predict and sensitivity "
    "spread per-file explanations (default: all cores)"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse uses exit code 2; the CLI reserves that for data errors
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_ranked_csv(path: str, ranking: pipeline.Ranking, test: ReleaseDataset, method: str | None = None) -> None:
    paths = [test.files[j].path for j in ranking.files.tolist()]
    columns = [range(1, len(ranking) + 1), repeat(test.release_id), paths]
    columns += [column.tolist() for column in (ranking.lines, ranking.hits, ranking.scores, ranking.probabilities)]
    if method is not None:
        columns.append(repeat(method))
    write_csv(path, RANKED_CSV_COLUMNS + (() if method is None else ("method",)), zip(*columns))


def _pick_release(releases, release_id: str):
    for ds in releases:
        if ds.release_id == release_id:
            return ds
    raise ValueError(f"release {release_id!r} not found; available: {[d.release_id for d in releases]}")


def _needed_for(needed: str) -> str:
    """The methods whose ``experiments.METHOD_INPUTS`` list ``needed``, for a flag's help text."""
    return ", ".join(method for method, inputs in experiments.METHOD_INPUTS.items() if needed in inputs)


def _config_from_args(args) -> RunConfig:
    """The settings of a command: each field it has a flag for from that flag, else ``--config``, else the default."""
    given = vars(args)
    fields = [name for name in FIELD_TYPES if name in given]
    # all cores, unless the config file or --workers sets the worker count
    values = {"parallelism": max(1, os.cpu_count() or 1)} if "parallelism" in fields else {}
    try:
        if args.config is not None:  # every key of the file is checked, but only the command's fields apply
            values.update((key, value) for key, value in load_config_file(args.config).items() if key in fields)
        values.update((name, given[name]) for name in fields if given[name] is not None)
        if "k_risky" not in fields and "lime_k_features" in values:
            # a command that never reads k_risky must not fail the lime_k_features >= k_risky check over it
            values["k_risky"] = max(1, min(RunConfig.k_risky, values["lime_k_features"]))
        return RunConfig(**values)
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad configuration: {exc}") from exc


def _add_config_flags(parser: argparse.ArgumentParser, fields) -> None:
    """One flag per RunConfig field the command reads, named after it, except ``--workers`` for ``parallelism``."""
    parser.add_argument("--config", help="key=value config file; keys for this command's flags apply, explicit flags win")
    for name in fields:
        flag = "--workers" if name == "parallelism" else "--" + name.replace("_", "-")
        help_text = _WORKERS_HELP if name == "parallelism" else None
        parser.add_argument(flag, dest=name, type=FIELD_TYPES[name], help=help_text)


def _id_list(text: str, what: str) -> tuple[str, ...]:
    """The comma-separated ids of ``text``; an id given twice is an error naming it."""
    ids = tuple(text.split(","))
    repeated = {i for i in ids if ids.count(i) > 1}
    if repeated:
        raise ValueError(f"repeated {what}: {sorted(repeated)}")
    return ids


def cmd_mine(args) -> int:
    commits = miner.load_commit_export(args.commits)
    issues = miner.load_issue_keys(args.issues)
    snapshots = load_dataset(args.snapshot)
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
    releases = load_dataset(args.dataset)
    if args.releases:
        releases = [_pick_release(releases, r) for r in _id_list(args.releases, "releases")]
    model = pipeline.train_file_model(releases)
    save_model(model, args.out)
    status = "converged" if model.train_meta.converged else "NOT converged (warning)"
    print(f"trained on {sum(len(d.files) for d in releases)} files, |V|={len(model.vocab)}, {status}; wrote {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    # the settings and the model are read first: a bad one is reported before the dataset is loaded
    config = _config_from_args(args)
    method = args.method
    inputs = experiments.METHOD_INPUTS[method]
    model = train = None
    if "model" in inputs:
        if args.model is None:
            raise ValueError(f"method {method} needs --model")
        model = load_model(args.model)
    if "train" in inputs and args.train_release is None:
        raise ValueError(f"method {method} needs --train-release")
    releases = load_dataset(args.dataset)
    test = _pick_release(releases, args.release)
    if "train" in inputs:
        train = _pick_release(releases, args.train_release)
    [result] = experiments.run_methods(
        (method,), train, test, model, config, config.entropy_threshold_cross, config.seed
    )
    _write_ranked_csv(args.out, result.ranked, test, method=method if args.method_column else None)
    print(f"{method}: {len(result.ranked)} flagged lines; wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    methods = _id_list(args.methods, "methods")
    unknown = set(methods) - set(experiments.ALL_METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    config = _config_from_args(args)
    releases = load_dataset(args.dataset, args.metadata)
    if args.setting == "within":
        output = experiments.within_release_eval(releases, methods, config)
    else:
        output = experiments.cross_release_eval(releases, methods, config)
    out_dir = Path(args.out_dir)
    write_metrics_csv(out_dir / "metrics.csv", args.setting, output.reports)
    write_stats_csv(out_dir / "stats.csv", output.stats)
    print(f"{len(output.reports)} metric rows, {len(output.stats)} stat rows; wrote {out_dir}/")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    config = _config_from_args(args)
    releases = load_dataset(args.dataset)
    train = _pick_release(releases, args.train_release)
    test = _pick_release(releases, args.test_release)
    if args.target == "k_risky":
        rows = experiments.sensitivity_k(train, test, config=config)
    else:
        rows = experiments.sensitivity_entropy_threshold(train, test)
    # each row is the swept value, then recall, FAR and d2h; the default grids are never empty
    write_csv(args.out, tuple(rows[0]), (row.values() for row in rows))
    print(f"{len(rows)} sensitivity rows; wrote {args.out}")
    return EXIT_OK


def cmd_density(args) -> int:
    releases = load_dataset(args.dataset)
    rows = []
    for ds in releases:
        for f in ds.files:
            # one pass over the labels, and no line record built; a loaded file has at least one line
            defective = int(np.count_nonzero(f.lines.labels))
            rows.append((ds.release_id, f.path, len(f.lines), defective, defective / len(f.lines)))
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
    p.add_argument("--releases", default=None, help="comma-separated release ids (default: all)")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="rank defect-prone lines of one release")
    p.add_argument("--model", default=None, help=f"model JSON (needed for {_needed_for('model')})")
    p.add_argument("--dataset", required=True)
    p.add_argument("--release", required=True)
    p.add_argument("--method", choices=experiments.ALL_METHODS, default="linedp")
    p.add_argument("--train-release", default=None, help=f"training release (needed for {_needed_for('train')})")
    p.add_argument("--out", required=True, help="ranked lines CSV")
    p.add_argument("--method-column", action="store_true", help="append a method column")
    _add_config_flags(p, ("seed", "k_risky", "lime_n", "lime_sigma", "lime_k_features", "entropy_threshold_cross",
                          "parallelism"))
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="run a validation protocol and emit metrics + stats CSVs")
    p.add_argument("--dataset", required=True)
    p.add_argument("--metadata", default=None, help="release dates, which order the cross-release pairs")
    p.add_argument("--setting", choices=("within", "cross"), required=True)
    p.add_argument("--methods", default=",".join(experiments.ALL_METHODS))
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p, FIELD_TYPES)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sensitivity", help="sweep the risky-token budget or the entropy threshold")
    p.add_argument("--dataset", required=True)
    p.add_argument("--target", choices=("k_risky", "entropy_threshold"), required=True)
    p.add_argument("--train-release", required=True)
    p.add_argument("--test-release", required=True)
    p.add_argument("--out", required=True)
    # the k sweep sets k_risky from its grid, and lime_k_features only floors the grid's largest k
    _add_config_flags(p, ("seed", "lime_n", "lime_sigma", "lime_k_features", "parallelism"))
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("density", help="per-file defect density CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_density)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, OSError) as exc:  # unreadable or malformed input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
