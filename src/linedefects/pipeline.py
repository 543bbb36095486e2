"""End-to-end defect-prone line identification and ranking.

Steps: build the bag-of-tokens vocabulary and file-level model from training
releases, predict each test file, explain the files predicted defective,
select their top-k positively scored (risky) tokens, flag every line that
contains a risky token, and rank all flagged lines globally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .config import RunConfig
from .corpus import ReleaseDataset, SourceFile, Vocabulary, build_vocabulary, tokenize, vectorize
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

    def __len__(self) -> int:
        return len(self.tokens)

    def token_set(self) -> set[str]:
        return {token for token, _ in self.tokens}

    def scores(self) -> dict[str, float]:
        return dict(self.tokens)


@dataclass(frozen=True)
class RankedLine:
    """One flagged line; ``global_rank`` stays 0 until the line is ranked."""

    release_id: str
    file_path: str
    line_number: int
    hit_count: int
    score_sum: float
    file_probability: float
    global_rank: int = 0


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
    file: SourceFile, risky: RiskyTokenSet, file_probability: float = 1.0
) -> list[RankedLine]:
    """Flag every line containing at least one risky token (unranked records).

    The hit count is the number of DISTINCT risky tokens present in the
    line; repeated occurrences of the same token do not accumulate.
    """
    token_set = risky.token_set()
    if not token_set:
        return []
    scores = risky.scores()
    flagged = []
    for line in file.lines:
        matched = set(tokenize(line.content)) & token_set
        if matched:
            flagged.append(
                RankedLine(
                    release_id=file.release_id,
                    file_path=file.path,
                    line_number=line.number,
                    hit_count=len(matched),
                    score_sum=sum(scores[t] for t in matched),
                    file_probability=file_probability,
                )
            )
    return flagged


def number_lines(ordered: Iterable[RankedLine]) -> list[RankedLine]:
    """Assign global ranks 1..N in the given order."""
    return [replace(line, global_rank=rank) for rank, line in enumerate(ordered, start=1)]


def rank_lines_global(flagged: list[RankedLine]) -> list[RankedLine]:
    """Total order over all flagged lines of all predicted-defective files.

    Keys: hit count desc, score sum desc, file probability desc, then
    (path, line number) asc as the final deterministic tie break.
    """
    return number_lines(
        sorted(
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
    )


def as_release_list(train: ReleaseDataset | list[ReleaseDataset]) -> list[ReleaseDataset]:
    return [train] if isinstance(train, ReleaseDataset) else list(train)


def train_file_model(train: ReleaseDataset | list[ReleaseDataset]) -> tuple[LogisticModel, Vocabulary]:
    """Vocabulary + file-level logistic model from the training releases only."""
    files = [f for ds in as_release_list(train) for f in ds.files]
    vocab = build_vocabulary(files)
    X = [vectorize(f, vocab) for f in files]
    y = [f.file_label for f in files]
    model = train_logistic(X, y, vocab=vocab)
    return model, vocab


def file_seed(config_seed: int, release_id: str, path: str) -> int:
    """Per-file explanation seed; independent of scheduling order."""
    return derive_seed(config_seed, release_id, path)


def predict_files(
    model: LogisticModel, vocab: Vocabulary, test: ReleaseDataset
) -> dict[str, float]:
    return {f.path: predict_proba(model, vectorize(f, vocab)) for f in test.files}


def defect_prone_files(test: ReleaseDataset, file_probs: dict[str, float]) -> list[SourceFile]:
    """Files predicted defective (probability > 0.5), in path order."""
    return [f for f in sorted(test.files, key=lambda f: f.path) if file_probs[f.path] > 0.5]


def _explain_file(model: LogisticModel, vocab: Vocabulary, config: RunConfig, file: SourceFile) -> Explanation:
    x = vectorize(file, vocab)
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
        seed=file_seed(config.seed, file.release_id, file.path),
    )


def explain_files(
    model: LogisticModel, vocab: Vocabulary, files: list[SourceFile], config: RunConfig
) -> list[Explanation]:
    """Explain each file with its own seed; results follow the order of ``files``.

    A file without in-vocabulary tokens gets an empty explanation, so it
    has no risky tokens and flags nothing. Files are spread over
    ``config.parallelism`` worker processes when there are at least 4; the
    model and vocabulary reach each worker once.
    """
    workers = pool_workers(config.parallelism, len(files), min_tasks=4)
    return pool_map(_explain_file, files, (model, vocab, config), workers, chunksize=4)


def identify_lines(
    model: LogisticModel, vocab: Vocabulary, test: ReleaseDataset, config: RunConfig
) -> MethodResult:
    """Steps 2-4 on an already trained model: predict, explain, flag, and rank."""
    file_probs = predict_files(model, vocab, test)
    files = defect_prone_files(test, file_probs)
    explanations = explain_files(model, vocab, files, config)
    risky_sets = {
        f.path: select_risky_tokens(expl, config.k_risky) for f, expl in zip(files, explanations)
    }
    flagged = [line for f in files for line in flag_lines(f, risky_sets[f.path], file_probs[f.path])]
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
    explanations = explain_files(model, vocab, files, wide)
    truth = line_truth(test)
    rows = []
    for k in k_grid:
        predicted = {
            (line.file_path, line.line_number)
            for f, expl in zip(files, explanations)
            for line in flag_lines(f, select_risky_tokens(expl, k), file_probs[f.path])
        }
        rows.append({"k": k, **detection_rates(predicted, truth)})
    return rows
