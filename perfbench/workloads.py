"""The benchmark's workloads: inputs made from a seed, one op, and its checks.

An op drives the program only through ``linedefects.cli.main(argv)``, the
way a user runs the ``linedefects`` command, with the default worker count
(every core). ``call(argv)`` runs one command and returns its exit code; the
harness passes a traced version of it in the traced run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import checks
import realistic
from linedefects.corpus import write_dataset
from linedefects.synthetic import make_release_series

# Entropy threshold for the n-gram baseline on the realistic corpus. The
# program's default (0.6 bits) sits far below the ~12-bit median line
# entropy of a |V|~3k corpus and would flag every line, so d2h could not move.
REALISTIC_NGRAM_THRESHOLD = 12.0

# Repeats of the 10-fold within-release CV. One repeat is 10 splits per
# release, 20 in all, about 40 s at the parent commit on two cores.
CV_FOLDS = 10
CV_REPEATS = 1

Call = Callable[[list[str]], int]


class PredictWorkload:
    """``linedefects train`` on the large release, then ``predict`` per method on the small one."""

    def __init__(self, name: str, methods: tuple[str, ...]):
        self.name = name
        self.methods = methods

    def prepare(self, seed: int, work: Path) -> dict:
        corpus = realistic.make_corpus(seed)
        self.dataset = work / "dataset.csv"
        realistic.write_csv(corpus, self.dataset)
        self.truth = realistic.line_truth(corpus[realistic.TEST_RELEASE])
        return realistic.measure_shape(corpus)

    def op(self, call: Call, out: Path) -> list[str]:
        """Run the op; returns a problem per command that exited non-zero."""
        model = out / "model.json"
        problems = []
        rc = call(["train", "--dataset", str(self.dataset), "--releases", realistic.TRAIN_RELEASE,
                   "--out", str(model)])
        if rc != 0:
            return [f"train exited {rc}"]
        for method in self.methods:
            rc = call(["predict", "--model", str(model), "--dataset", str(self.dataset),
                       "--release", realistic.TEST_RELEASE, "--train-release", realistic.TRAIN_RELEASE,
                       "--method", method, "--entropy-threshold-cross", str(REALISTIC_NGRAM_THRESHOLD),
                       "--out", str(out / f"{method}.csv")])
            if rc != 0:
                problems.append(f"predict --method {method} exited {rc}")
        return problems

    def outputs(self, out: Path) -> list[Path]:
        return [out / "model.json"] + [out / f"{m}.csv" for m in self.methods]

    def check(self, out: Path) -> tuple[list[str], dict[str, float]]:
        problems = []
        d2h = {}
        for method in self.methods:
            path = out / f"{method}.csv"
            found = checks.check_ranked(path, method, set(self.truth), REALISTIC_NGRAM_THRESHOLD)
            problems += found
            if not found and method != "random":
                d2h[method] = checks.d2h_of(checks.ranked_lines(path), self.truth)
        return problems, d2h

    def defect_prone_files(self, out: Path) -> int:
        """Files ranked by a file-model method (a lower bound on files predicted defect-prone)."""
        paths = set()
        for method in set(self.methods) & {"linedp", "random", "tmi_lr"}:
            _, rows = checks.read_csv(out / f"{method}.csv")
            paths |= {r["file_path"] for r in rows if float(r["file_probability"]) > 0.5}
        return len(paths)


class WithinCvWorkload:
    """``linedefects evaluate --setting within`` with all four methods on the shipped planted corpus."""

    name = "within_cv"
    methods = ("linedp", "random", "tmi_lr", "ngram")

    def prepare(self, seed: int, work: Path) -> dict:
        releases = make_release_series(seed=seed)
        self.dataset = work / "dataset.csv"
        write_dataset(releases, self.dataset)
        self.units = len(releases) * CV_FOLDS * CV_REPEATS
        files = [f for ds in releases for f in ds.files]
        return {
            "releases": len(releases),
            "files": len(files),
            "defective_files": sum(1 for f in files if f.file_label),
            "loc": sum(len(f.lines) for f in files),
        }

    def op(self, call: Call, out: Path) -> list[str]:
        rc = call(["evaluate", "--dataset", str(self.dataset), "--setting", "within",
                   "--methods", ",".join(self.methods), "--folds", str(CV_FOLDS),
                   "--repeats", str(CV_REPEATS), "--out-dir", str(out)])
        return [] if rc == 0 else [f"evaluate exited {rc}"]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "metrics.csv", out / "stats.csv"]

    def check(self, out: Path) -> tuple[list[str], dict[str, float]]:
        problems, d2h = checks.check_evaluation(out, self.methods, self.units)
        d2h.pop("random", None)
        return problems, d2h

    def defect_prone_files(self, out: Path) -> int | None:
        return None


WORKLOADS = {
    "linedp_predict": PredictWorkload("linedp_predict", ("linedp",)),
    "baselines_predict": PredictWorkload("baselines_predict", ("random", "tmi_lr", "ngram")),
    "within_cv": WithinCvWorkload(),
}
