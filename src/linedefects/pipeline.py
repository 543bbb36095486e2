"""End-to-end defect-prone line identification and ranking.

Steps: build the bag-of-tokens vocabulary and file-level model from training
releases, predict each test file, explain the files predicted defective,
select their top-k positively scored (risky) tokens, flag every line that
contains a risky token, and rank all flagged lines globally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .config import RunConfig
from .corpus import (
    FeatureVector,
    ReleaseDataset,
    as_release_list,
    build_vocabulary,
    tokenize,  # noqa: F401  (the benchmark's traced run counts calls through this name)
    vectorize,
)
from .explain import Explanation, explain
from .model import LogisticModel, predict_proba, train_logistic
from .util import derive_seed, pool_map, pool_workers

if TYPE_CHECKING:
    import scipy.sparse as sp


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


def select_risky_tokens(expl: Explanation, k_risky: int = RunConfig.k_risky) -> RiskyTokenSet:
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


def train_file_model(train: ReleaseDataset | list[ReleaseDataset]) -> LogisticModel:
    """The file-level logistic model over the vocabulary of the training releases only."""
    releases = as_release_list(train)
    vocab = build_vocabulary(releases)
    y = [f.file_label for ds in releases for f in ds.files]
    return train_logistic(vectorize(releases, vocab), y, vocab)


def file_seed(config_seed: int, release_id: str, path: str) -> int:
    """Per-file explanation seed; independent of scheduling order."""
    return derive_seed(config_seed, release_id, path)


@dataclass(frozen=True)
class FilePredictions:
    """The file-level model's one prediction on a test release, shared by every method that needs the model."""

    design: sp.csr_matrix  # vectorize's matrix, one row per file of the release
    probabilities: dict[str, float]  # file path -> defect probability
    defect_prone: tuple[int, ...]  # indices into the release's files with probability > 0.5, in path order


def predict_files(model: LogisticModel, test: ReleaseDataset) -> FilePredictions:
    """Vectorize ``test`` and predict each of its files; the only place the model meets a test release."""
    design = vectorize(test, model.vocab)
    probabilities = dict(zip((f.path for f in test.files), predict_proba(model, design).tolist()))
    by_path = sorted(range(len(test.files)), key=lambda i: test.files[i].path)
    defect_prone = tuple(i for i in by_path if probabilities[test.files[i].path] > 0.5)
    return FilePredictions(design, probabilities, defect_prone)


def _explain_file(model: LogisticModel, config: RunConfig, task: tuple[int, FeatureVector]) -> Explanation:
    seed, x = task
    if not x.entries:
        # nothing to perturb: no token of the file is in the vocabulary
        return Explanation(scores={}, fidelity_r2=0.0)
    return explain(model, x, n=config.lime_n, k=config.lime_k_features, kernel_width=config.lime_sigma, seed=seed)


def identify_lines(
    model: LogisticModel, test: ReleaseDataset, predicted: FilePredictions, config: RunConfig
) -> MethodResult:
    """Explain the defect-prone files of ``predicted``, flag the lines holding their risky tokens, and rank them.

    Each defect-prone file is explained from its row of ``predicted.design``
    with its own seed. A file without in-vocabulary tokens gets an empty
    explanation, so it has no risky tokens and flags nothing. Files are
    spread over ``config.parallelism`` worker processes when there are at
    least 4, one file per task so that the workers share the files evenly;
    the model reaches each worker once.
    """
    files, file_probs = predicted.defect_prone, predicted.probabilities
    tasks = [
        (file_seed(config.seed, test.release_id, test.files[i].path), FeatureVector.from_row(predicted.design, i))
        for i in files
    ]
    workers = pool_workers(config.parallelism, len(tasks), min_tasks=4)
    explanations = pool_map(_explain_file, tasks, (model, config), workers)
    risky_sets = {
        test.files[i].path: select_risky_tokens(expl, config.k_risky) for i, expl in zip(files, explanations)
    }
    flagged = [
        line
        for i in files
        for line in flag_lines(test, i, risky_sets[test.files[i].path], file_probs[test.files[i].path])
    ]
    return MethodResult("linedp", rank_lines_global(flagged), file_probs, risky_tokens=risky_sets)


def run_linedp(
    train: ReleaseDataset | list[ReleaseDataset], test: ReleaseDataset, config: RunConfig = RunConfig()
) -> MethodResult:
    """The whole framework end to end; deterministic given config.seed."""
    model = train_file_model(train)
    return identify_lines(model, test, predict_files(model, test), config)
