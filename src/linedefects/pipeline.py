"""End-to-end defect-prone line identification and ranking.

Steps: build the bag-of-tokens vocabulary and file-level model from training
releases, predict each test file, explain the files predicted defective,
select their top-k positively scored (risky) tokens, flag every line that
contains a risky token, and rank all flagged lines globally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .config import RunConfig
from .corpus import (
    FeatureVector,
    ReleaseDataset,
    Vocabulary,
    as_release_list,
    build_vocabulary,
    tokenize,  # noqa: F401  (the benchmark's traced run counts calls through this name)
    vectorize,
)
from .evaluation import detection_rates, line_truth
from .explain import Explanation, explain
from .model import LogisticModel, predict_proba, train_logistic
from .util import derive_seed, pool_map, pool_workers

DEFAULT_K_GRID = (10, 20, 30, 40, 50, 100, 150, 200)


@dataclass(frozen=True)
class RiskyTokenSet:
    """Top positively scored tokens of one explanation, descending by score."""

    tokens: tuple[tuple[str, float], ...]

    @classmethod
    def top_positive(cls, scored: Iterable[tuple[str, float]], k: int) -> "RiskyTokenSet":
        """Keep the k largest strictly positive scores; ties break on token text."""
        positive = [(token, score) for token, score in scored if score > 0.0]
        positive.sort(key=lambda item: (-item[1], item[0]))
        return cls(tokens=tuple(positive[:k]))


@dataclass(frozen=True)
class RankedLine:
    """One flagged line; a ranking's list order is its rank."""

    release_id: str
    file_path: str
    line_number: int
    hit_count: int
    score_sum: float
    file_probability: float


@dataclass
class MethodResult:
    """Uniform output of the pipeline and every baseline."""

    method: str
    ranked: list[RankedLine]
    file_probabilities: dict[str, float]
    risky_tokens: dict[str, RiskyTokenSet] | None = None


def select_risky_tokens(expl: Explanation, k_risky: int = 20) -> RiskyTokenSet:
    """Keep the k largest strictly positive scores; ties break on token text."""
    return RiskyTokenSet.top_positive(expl.scores.items(), k_risky)


def flag_lines(
    release: ReleaseDataset, index: int, risky: RiskyTokenSet, file_probability: float = 1.0
) -> list[RankedLine]:
    """Flag every line of ``release.files[index]`` containing at least one risky token (unranked records).

    The hit count is the number of DISTINCT risky tokens present in the
    line; repeated occurrences of the same token do not accumulate. The
    score sum adds the matched tokens' scores in ascending token order, so
    lines that match the same tokens get bitwise-equal sums.
    """
    numbers, words = release.token_table.occurrences(index, [token for token, _ in risky.tokens])
    flagged, slot, hit_counts = np.unique(numbers, return_inverse=True, return_counts=True)
    # bincount adds each line's scores in the order of the occurrences, the tokens' text order
    score_sums = np.bincount(slot, weights=np.array([score for _, score in risky.tokens])[words], minlength=len(flagged))
    file = release.files[index]
    return [
        RankedLine(
            release_id=file.release_id,
            file_path=file.path,
            line_number=number,
            hit_count=count,
            score_sum=score,
            file_probability=file_probability,
        )
        for number, count, score in zip(flagged.tolist(), hit_counts.tolist(), score_sums.tolist())
    ]


def rank_lines_global(flagged: list[RankedLine]) -> list[RankedLine]:
    """Total order over all flagged lines of all predicted-defective files.

    A line's rank is its 1-based position in the returned list. Keys: hit
    count desc, score sum desc, file probability desc, then (path, line
    number) asc as the final deterministic tie break.
    """
    return sorted(
        flagged,
        key=lambda f: (
            -f.hit_count,
            -f.score_sum,
            -f.file_probability,
            f.release_id,
            f.file_path,
            f.line_number,
        ),
    )


def train_file_model(train: ReleaseDataset | list[ReleaseDataset]) -> tuple[LogisticModel, Vocabulary]:
    """Vocabulary + file-level logistic model from the training releases only."""
    releases = as_release_list(train)
    vocab = build_vocabulary(releases)
    y = [f.file_label for ds in releases for f in ds.files]
    model = train_logistic(vectorize(releases, vocab), y, vocab=vocab)
    return model, vocab


def file_seed(config_seed: int, release_id: str, path: str) -> int:
    """Per-file explanation seed; independent of scheduling order."""
    return derive_seed(config_seed, release_id, path)


def predict_files(
    model: LogisticModel, vocab: Vocabulary, test: ReleaseDataset
) -> dict[str, float]:
    probabilities = predict_proba(model, vectorize(test, vocab))
    return {f.path: p for f, p in zip(test.files, probabilities.tolist())}


def defect_prone_files(test: ReleaseDataset, file_probs: dict[str, float]) -> list[int]:
    """Indices into ``test.files`` of the files predicted defective (probability > 0.5), in path order."""
    by_path = sorted(range(len(test.files)), key=lambda i: test.files[i].path)
    return [i for i in by_path if file_probs[test.files[i].path] > 0.5]


def _explain_file(
    model: LogisticModel, vocab: Vocabulary, config: RunConfig, task: tuple[int, FeatureVector]
) -> Explanation:
    seed, x = task
    if not x.entries:
        # nothing to perturb: no token of the file is in the vocabulary
        return Explanation(scores={}, fidelity_r2=0.0)
    return explain(
        model,
        x,
        vocab,
        n=config.lime_n,
        k=config.lime_k_features,
        kernel_width=config.lime_sigma,
        seed=seed,
    )


def explain_files(
    model: LogisticModel, vocab: Vocabulary, test: ReleaseDataset, indices: list[int], config: RunConfig
) -> list[Explanation]:
    """Explain each file ``test.files[i]`` with its own seed; results follow the order of ``indices``.

    A file without in-vocabulary tokens gets an empty explanation, so it
    has no risky tokens and flags nothing. Files are spread over
    ``config.parallelism`` worker processes when there are at least 4, one
    file per task so that the workers share the files evenly; the model and
    vocabulary reach each worker once.
    """
    X = vectorize(test, vocab)
    tasks = [
        (file_seed(config.seed, test.release_id, test.files[i].path), FeatureVector.from_row(X, i))
        for i in indices
    ]
    workers = pool_workers(config.parallelism, len(tasks), min_tasks=4)
    return pool_map(_explain_file, tasks, (model, vocab, config), workers)


def identify_lines(
    model: LogisticModel, vocab: Vocabulary, test: ReleaseDataset, config: RunConfig
) -> MethodResult:
    """Steps 2-4 on an already trained model: predict, explain, flag, and rank."""
    file_probs = predict_files(model, vocab, test)
    files = defect_prone_files(test, file_probs)
    explanations = explain_files(model, vocab, test, files, config)
    risky_sets = {
        test.files[i].path: select_risky_tokens(expl, config.k_risky) for i, expl in zip(files, explanations)
    }
    flagged = [
        line
        for i in files
        for line in flag_lines(test, i, risky_sets[test.files[i].path], file_probs[test.files[i].path])
    ]
    return MethodResult(
        method="linedp",
        ranked=rank_lines_global(flagged),
        file_probabilities=file_probs,
        risky_tokens=risky_sets,
    )


def run_linedp(
    train: ReleaseDataset | list[ReleaseDataset], test: ReleaseDataset, config: RunConfig = RunConfig()
) -> MethodResult:
    """The whole framework end to end; deterministic given config.seed."""
    model, vocab = train_file_model(train)
    return identify_lines(model, vocab, test, config)


def sensitivity_k(
    train: ReleaseDataset | list[ReleaseDataset],
    test: ReleaseDataset,
    k_grid: tuple[int, ...] = DEFAULT_K_GRID,
    config: RunConfig = RunConfig(),
) -> list[dict]:
    """Recall / FAR / d2h per risky-token budget k.

    Explanations do not depend on k, so they are computed once with a
    feature budget covering the whole grid; each k then reselects and
    reflags. Nested risky sets make recall and FAR non-decreasing in k.
    """
    if not k_grid or min(k_grid) < 1:
        raise ValueError("k_grid must be nonempty with positive entries")
    wide = replace(config, lime_k_features=max(config.lime_k_features, max(k_grid)))
    model, vocab = train_file_model(train)
    file_probs = predict_files(model, vocab, test)
    files = defect_prone_files(test, file_probs)
    explanations = explain_files(model, vocab, test, files, wide)
    truth = line_truth(test)
    rows = []
    for k in k_grid:
        predicted = {
            (line.file_path, line.line_number)
            for i, expl in zip(files, explanations)
            for line in flag_lines(test, i, select_risky_tokens(expl, k))
        }
        rows.append({"k": k, **detection_rates(predicted, truth)})
    return rows
