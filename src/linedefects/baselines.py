"""Baseline line-level predictors: random guessing, global standardized
coefficients (TMI-LR), and n-gram naturalness entropy.

All three emit the same ranked-line records as the main pipeline so one
evaluation harness covers every method.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .corpus import ReleaseDataset, SourceFile, Vocabulary, tokenize, vectorize
from .evaluation import detection_rates, line_truth
from .model import LogisticModel, standardized_coefficients
from .pipeline import (
    MethodResult,
    RankedLine,
    RiskyTokenSet,
    as_release_list,
    defect_prone_files,
    flag_lines,
    number_lines,
    predict_files,
    rank_lines_global,
)
from .util import derive_seed

NGRAM_ORDER = 6
# per-order weight on the maximum-likelihood estimate; the remaining 1/6
# backs off to the next-lower order, bottoming out at a uniform floor of
# 1/(|V|+1) over the vocabulary plus an unknown-token symbol
JM_ML_WEIGHT = 5.0 / 6.0
CACHE_WEIGHT = 0.5
ENTROPY_THRESHOLD_GRID = tuple(round(0.1 * i, 1) for i in range(1, 21))

_STREAM_START = "\x02"
_LINE_SENTINEL = "\n"


def random_baseline(
    test: ReleaseDataset,
    model: LogisticModel,
    vocab: Vocabulary,
    k_risky: int = 20,
    seed: int = 0,
) -> MethodResult:
    """Random scores in [-1, 1] instead of explanation scores; random final order.

    Uses the same file-level model as the pipeline to pick defect-prone
    files. Each distinct in-vocabulary token of such a file gets a uniform
    score; positive scores become risky candidates and the top-20 by score
    are kept. Flagged lines are then ranked by a seeded uniform shuffle.
    """
    file_probs = predict_files(model, vocab, test)
    flagged: list[RankedLine] = []
    for f in defect_prone_files(test, file_probs):
        distinct = sorted({t for t in f.token_stream() if t in vocab.token_to_index})
        if not distinct:
            continue
        rng = np.random.default_rng(derive_seed(seed, "random", f.release_id, f.path))
        scores = rng.uniform(-1.0, 1.0, size=len(distinct))
        risky = RiskyTokenSet.top_positive(zip(distinct, scores.tolist()), k_risky)
        flagged.extend(flag_lines(f, risky, file_probs[f.path]))
    flagged.sort(key=lambda f: (f.release_id, f.file_path, f.line_number))
    rng = np.random.default_rng(derive_seed(seed, "random-rank", test.release_id))
    order = rng.permutation(len(flagged))
    return MethodResult(
        method="random", ranked=number_lines(flagged[i] for i in order), file_probabilities=file_probs
    )


def global_risky_tokens(
    train: ReleaseDataset | list[ReleaseDataset], vocab: Vocabulary, k_risky: int = 20
) -> RiskyTokenSet:
    """One release-wide risky set: top tokens by positive standardized coefficient."""
    files = [f for ds in as_release_list(train) for f in ds.files]
    X = [vectorize(f, vocab) for f in files]
    y = [f.file_label for f in files]
    coefs = standardized_coefficients(X, y)
    return RiskyTokenSet.top_positive(zip(vocab.tokens, coefs.tolist()), k_risky)


def tmi_lr_baseline(
    train: ReleaseDataset | list[ReleaseDataset],
    test: ReleaseDataset,
    model: LogisticModel,
    vocab: Vocabulary,
    k_risky: int = 20,
) -> MethodResult:
    """Apply one global standardized-coefficient risky set to every defect-prone file.

    Unlike the per-file explanations of the pipeline, the same risky set is
    used for every predicted-defective test file; flagging and hit-count
    ranking are otherwise identical.
    """
    risky = global_risky_tokens(train, vocab, k_risky)
    file_probs = predict_files(model, vocab, test)
    flagged = [
        line
        for f in defect_prone_files(test, file_probs)
        for line in flag_lines(f, risky, file_probs[f.path])
    ]
    return MethodResult(
        method="tmi_lr",
        ranked=rank_lines_global(flagged),
        file_probabilities=file_probs,
        risky_tokens={"*": risky},
    )


def _file_stream(file: SourceFile) -> tuple[list[str], list[int]]:
    """Token stream with start padding and line sentinels.

    Returns the stream and, per position, the owning line number (0 for
    padding and sentinel positions, which provide context but are not
    scored).
    """
    stream = [_STREAM_START] * (NGRAM_ORDER - 1)
    owners = [0] * (NGRAM_ORDER - 1)
    for line in file.lines:
        for token in tokenize(line.content):
            stream.append(token)
            owners.append(line.number)
        stream.append(_LINE_SENTINEL)
        owners.append(0)
    return stream, owners


class _NgramCounts:
    """Continuation counts of the orders ``lowest_order..NGRAM_ORDER``.

    ``interpolate`` runs the Jelinek-Mercer chain over them: starting from
    a lower-order probability, each order whose context has been seen mixes
    in its maximum-likelihood estimate.
    """

    def __init__(self, lowest_order: int):
        self.orders = range(lowest_order, NGRAM_ORDER + 1)
        # counts[o-1]: context tuple of length o-1 -> Counter of continuations
        self.counts: list[dict[tuple[str, ...], Counter]] = [dict() for _ in range(NGRAM_ORDER)]
        self.totals: list[dict[tuple[str, ...], int]] = [dict() for _ in range(NGRAM_ORDER)]

    def add(self, stream: list[str], i: int) -> None:
        """Count ``stream[i]`` as the continuation of each of its preceding contexts."""
        token = stream[i]
        for o in self.orders:
            if i - (o - 1) < 0:
                continue
            ctx = tuple(stream[i - o + 1 : i])
            bucket = self.counts[o - 1].setdefault(ctx, Counter())
            bucket[token] += 1
            self.totals[o - 1][ctx] = self.totals[o - 1].get(ctx, 0) + 1

    def interpolate(self, token: str, context: tuple[str, ...], p: float) -> float:
        for o in self.orders:
            if o - 1 > len(context):
                break
            ctx = tuple(context[len(context) - (o - 1) :])
            total = self.totals[o - 1].get(ctx, 0)
            if total > 0:
                ml = self.counts[o - 1][ctx][token] / total
                p = JM_ML_WEIGHT * ml + (1.0 - JM_ML_WEIGHT) * p
        return p


class NgramModel:
    """Interpolated n-gram language model over code token streams.

    Conditionals are combined with recursive Jelinek-Mercer smoothing: each
    order mixes its maximum-likelihood estimate with the next-lower order,
    and the chain bottoms out at a uniform floor over the vocabulary plus an
    unknown-token symbol, so every next-token distribution sums to exactly 1
    and unseen tokens keep a small positive probability.
    """

    def __init__(self):
        self.table = _NgramCounts(lowest_order=1)
        self.vocabulary: set[str] = set()

    def fit(self, train: ReleaseDataset | list[ReleaseDataset]) -> "NgramModel":
        for ds in as_release_list(train):
            for f in ds.files:
                stream, _ = _file_stream(f)
                for i, token in enumerate(stream):
                    if token == _STREAM_START:
                        continue  # padding provides context only, never a continuation event
                    self.vocabulary.add(token)
                    self.table.add(stream, i)
        if not self.vocabulary:
            raise ValueError("cannot fit an n-gram model on an empty training corpus")
        return self

    @property
    def floor(self) -> float:
        return 1.0 / (len(self.vocabulary) + 1)

    def probability(self, token: str, context: tuple[str, ...]) -> float:
        """Interpolated P(token | up to NGRAM_ORDER-1 preceding tokens)."""
        return self.table.interpolate(token, context, self.floor)

    def surprisal(self, token: str, context: tuple[str, ...]) -> float:
        """Negative log2 probability in bits."""
        return -float(np.log2(self.probability(token, context)))


def line_entropies(model: NgramModel, file: SourceFile) -> dict[int, float]:
    """Mean token surprisal per line; lines without tokens are absent.

    A per-file cache of orders >= 2, reset for each file, is mixed with the
    static model. Its chain backs off to the static model's prediction, so
    a cache that has never seen the current context defers entirely to the
    static model instead of punishing it.
    """
    stream, owners = _file_stream(file)
    cache = _NgramCounts(lowest_order=2)
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for i in range(NGRAM_ORDER - 1, len(stream)):  # skip the start padding
        token = stream[i]
        context = tuple(stream[i - NGRAM_ORDER + 1 : i])
        static_p = model.probability(token, context)
        cache_p = cache.interpolate(token, context, static_p)
        p = (1.0 - CACHE_WEIGHT) * static_p + CACHE_WEIGHT * cache_p
        owner = owners[i]
        if owner > 0:
            sums[owner] = sums.get(owner, 0.0) + (-float(np.log2(p)))
            counts[owner] = counts.get(owner, 0) + 1
        cache.add(stream, i)
    return {line: sums[line] / counts[line] for line in sums}


def _scored_lines(train: ReleaseDataset | list[ReleaseDataset], test: ReleaseDataset) -> list[RankedLine]:
    """Every tokenised test line with its mean entropy in ``score_sum``, unranked, in path order."""
    model = NgramModel().fit(train)
    return [
        RankedLine(f.release_id, f.path, line_number, hit_count=0, score_sum=score, file_probability=0.0)
        for f in sorted(test.files, key=lambda f: f.path)
        for line_number, score in line_entropies(model, f).items()
    ]


def ngram_entropy_baseline(
    train: ReleaseDataset | list[ReleaseDataset], test: ReleaseDataset, threshold: float
) -> MethodResult:
    """Flag lines whose mean token surprisal exceeds the threshold; rank by surprisal.

    The n-gram model needs no file-level classifier, so every test file is
    scored; ranked rows carry the line's mean entropy in score_sum and a
    file probability of 0.
    """
    flagged = [line for line in _scored_lines(train, test) if line.score_sum > threshold]
    flagged.sort(key=lambda line: (-line.score_sum, line.file_path, line.line_number))
    return MethodResult(method="ngram", ranked=number_lines(flagged), file_probabilities={})


def sensitivity_entropy_threshold(
    train: ReleaseDataset | list[ReleaseDataset],
    test: ReleaseDataset,
    thresholds: tuple[float, ...] = ENTROPY_THRESHOLD_GRID,
) -> list[dict]:
    """Recall / FAR / d2h of the entropy baseline per flag threshold.

    Lines are scored once; raising the threshold only shrinks the flagged
    set, so recall and FAR are non-increasing in the threshold.
    """
    scored = _scored_lines(train, test)
    truth = line_truth(test)
    rows = []
    for threshold in thresholds:
        predicted = {(line.file_path, line.line_number) for line in scored if line.score_sum > threshold}
        rows.append({"threshold": threshold, **detection_rates(predicted, truth)})
    return rows
