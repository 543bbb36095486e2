"""Reference n-gram model: the dict-of-Counter oracle that ``baselines`` is checked against.

``NgramModel`` counts every continuation into per-context ``Counter`` tables
and ``line_entropies`` runs the per-file cache one position at a time.
``linedefects.baselines`` computes the same probabilities over integer-coded
count tables in array form; the smoothing and the floating-point operations
are the same, so the two must agree exactly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from linedefects.baselines import (
    _LINE_SENTINEL,
    _STREAM_START,
    CACHE_WEIGHT,
    JM_ML_WEIGHT,
    NGRAM_ORDER,
)
from linedefects.corpus import ReleaseDataset, SourceFile, tokenize
from linedefects.pipeline import as_release_list


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
