"""End-to-end defect-prone line identification and ranking.

Steps: build the bag-of-tokens vocabulary and file-level model from training
releases, predict each test file, explain the files predicted defective,
select their top-k positively scored (risky) tokens, flag every line that
contains a risky token, and rank all flagged lines globally.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Mapping

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


@dataclass(frozen=True, eq=False)
class Ranking:
    """Flagged lines of one test release, one row per line in rank order: a line's rank is its row + 1."""

    files: np.ndarray  # int64, the line's file as an index into the release's files
    lines: np.ndarray  # int64, the 1-based line number
    hits: np.ndarray  # int64, distinct risky tokens on the line
    scores: np.ndarray  # float64, their score sum, or the line's mean entropy for the n-gram baseline
    probabilities: np.ndarray  # float64, the file's defect probability

    def __len__(self) -> int:
        return len(self.lines)

    def take(self, order) -> "Ranking":
        """The rows that ``order``, an index array, a boolean mask or a slice, selects, in its order."""
        return Ranking(*(getattr(self, f.name)[order] for f in fields(self)))


@dataclass
class MethodResult:
    """Uniform output of the pipeline and every baseline."""

    method: str
    ranked: Ranking
    file_probabilities: dict[str, float]
    risky_tokens: dict[str, RiskyTokenSet] | None = None


def flag_lines(
    release: ReleaseDataset, risky: Mapping[int, RiskyTokenSet], probabilities: Mapping[str, float]
) -> Ranking:
    """Flag the lines of each file ``release.files[i]`` holding a token of ``risky[i]``: one unranked ranking.

    Rows come in (file, line) order. Files missing from ``risky`` flag
    nothing; a flagged line carries its file's probability from
    ``probabilities``, keyed by path. The hit count is the number of
    DISTINCT risky tokens present in the line; repeated occurrences of the
    same token do not accumulate. The score sum adds the matched tokens'
    scores in ascending token order, so lines that match the same tokens
    get bitwise-equal sums.
    """
    files = sorted(risky)
    table = release.token_table.select(files)
    n_tokens = len(table.tokens)
    # (file, table id) -> score, a file counted by its position in ``files``; tokens not in the table are skipped
    score_of: dict[int, float] = {}
    for slot, i in enumerate(files):
        for token, score in risky[i].tokens:
            found = bisect_left(table.tokens, token)
            if found < n_tokens and table.tokens[found] == token:
                score_of[slot * n_tokens + found] = score
    keys = np.array(sorted(score_of), dtype=np.int64)
    scores = np.array([score_of[key] for key in keys.tolist()], dtype=np.float64)
    lines = table.lines()
    token_keys = lines.file_of[lines.line_of] * n_tokens + lines.ids
    hit = np.isin(token_keys, keys)
    matched = np.searchsorted(keys, token_keys[hit])
    # keys ascend with the id within a file, and ids with token text: each line's matches come in text order, once
    rows, matched = np.divmod(np.unique(lines.line_of[hit] * len(keys) + matched), len(keys))
    flagged, row_of, hit_counts = np.unique(rows, return_inverse=True, return_counts=True)
    # bincount adds each line's scores in the order of its matches, the tokens' text order
    score_sums = np.bincount(row_of, weights=scores[matched], minlength=len(flagged))
    file_of = lines.file_of[flagged]
    file_probabilities = np.array([probabilities[release.files[i].path] for i in files], dtype=np.float64)
    indices = np.array(files, dtype=np.int64)[file_of]
    return Ranking(indices, lines.numbers[flagged], hit_counts, score_sums, file_probabilities[file_of])


def rank_lines_global(flagged: Ranking) -> Ranking:
    """Total order over the flagged lines of one release.

    Keys: hit count desc, score sum desc, file probability desc, then
    (path, line number) asc as the final deterministic tie break: a
    release's files are in path order, so a file index is its path's rank.
    """
    keys = (flagged.lines, flagged.files, -flagged.probabilities, -flagged.scores, -flagged.hits)
    return flagged.take(np.lexsort(keys))


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
    defect_prone: tuple[int, ...]  # ascending indices into the release's files with probability > 0.5: path order


def predict_files(model: LogisticModel, test: ReleaseDataset) -> FilePredictions:
    """Vectorize ``test`` and predict each of its files; the only place the model meets a test release."""
    design = vectorize(test, model.vocab)
    p = predict_proba(model, design)
    probabilities = dict(zip((f.path for f in test.files), p.tolist()))
    return FilePredictions(design, probabilities, tuple(np.flatnonzero(p > 0.5).tolist()))


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
    if workers > 1:  # loaded here, the modules an explanation calls reach every forked worker (see pool_map)
        import scipy.linalg.lapack, scipy.special  # noqa: E401, F401
    explanations = pool_map(_explain_file, tasks, (model, config), workers)
    risky = {i: RiskyTokenSet.top_positive(expl.scores.items(), config.k_risky) for i, expl in zip(files, explanations)}
    flagged = flag_lines(test, risky, file_probs)
    risky_sets = {test.files[i].path: tokens for i, tokens in risky.items()}
    return MethodResult("linedp", rank_lines_global(flagged), file_probs, risky_tokens=risky_sets)


def run_linedp(
    train: ReleaseDataset | list[ReleaseDataset], test: ReleaseDataset, config: RunConfig = RunConfig()
) -> MethodResult:
    """The whole framework end to end; deterministic given config.seed."""
    model = train_file_model(train)
    return identify_lines(model, test, predict_files(model, test), config)
