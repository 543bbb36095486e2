"""Baseline line-level predictors: random guessing, global standardized
coefficients (TMI-LR), and n-gram naturalness entropy.

All three emit the same ``Ranking`` as the main pipeline so one evaluation
harness covers every method.
"""

from __future__ import annotations

import warnings

import numpy as np

from .config import RunConfig
from .corpus import (
    ReleaseDataset,
    TokenTable,
    Vocabulary,
    tokenize,  # noqa: F401  (the benchmark's traced run counts calls through this name)
    vectorize,
)
from .model import standardized_coefficients
from .pipeline import (
    FilePredictions,
    MethodResult,
    Ranking,
    RiskyTokenSet,
    as_release_list,
    flag_lines,
    predict_files,  # noqa: F401  (the benchmark's traced run wraps this name)
    rank_lines_global,
)
from .util import derive_seed

NGRAM_ORDER = 6
# per-order weight on the maximum-likelihood estimate; the remaining 1/6
# backs off to the next-lower order, bottoming out at a uniform floor of
# 1/(|V|+1) over the vocabulary plus an unknown-token symbol
JM_ML_WEIGHT = 5.0 / 6.0
CACHE_WEIGHT = 0.5

# the texts the padding and line-sentinel ids stand for in string queries; no token contains either
_STREAM_START = "\x02"
_LINE_SENTINEL = "\n"


def random_baseline(
    test: ReleaseDataset,
    vocab: Vocabulary,
    predicted: FilePredictions,
    k_risky: int = RunConfig.k_risky,
    seed: int = 0,
) -> MethodResult:
    """Random scores in [-1, 1] instead of explanation scores; random final order.

    Takes the defect-prone files from the pipeline's file-level prediction
    ``predicted``, whose ``design`` is over ``vocab``. Each distinct
    in-vocabulary token of such a file, read from its row of the design as
    linedp reads it, gets a uniform score in token text order; positive
    scores become risky candidates and the ``k_risky`` highest are kept.
    Flagged lines, which come in (path, line) order, are then ranked by a
    seeded uniform shuffle.
    """
    design, file_probs = predicted.design, predicted.probabilities
    parts = []
    for i in predicted.defect_prone:
        f = test.files[i]
        distinct = sorted(vocab.tokens[j] for j in design.indices[design.indptr[i] : design.indptr[i + 1]].tolist())
        if not distinct:
            continue
        rng = np.random.default_rng(derive_seed(seed, "random", f.release_id, f.path))
        scores = rng.uniform(-1.0, 1.0, size=len(distinct))
        risky = RiskyTokenSet.top_positive(zip(distinct, scores.tolist()), k_risky)
        parts.append(flag_lines(test, i, risky, file_probs[f.path]))
    flagged = Ranking.concatenate(parts)
    rng = np.random.default_rng(derive_seed(seed, "random-rank", test.release_id))
    shuffled = flagged.take(rng.permutation(len(flagged)))
    return MethodResult(method="random", ranked=shuffled, file_probabilities=file_probs)


def global_risky_tokens(
    train: ReleaseDataset | list[ReleaseDataset], vocab: Vocabulary, k_risky: int = RunConfig.k_risky
) -> RiskyTokenSet:
    """One release-wide risky set: top tokens by positive standardized coefficient.

    An unconverged standardized fit emits a ``RuntimeWarning``; its
    coefficients are still used.
    """
    releases = as_release_list(train)
    y = [f.file_label for ds in releases for f in ds.files]
    coefs, meta = standardized_coefficients(vectorize(releases, vocab), y)
    if not meta.converged:
        warnings.warn(
            f"TMI-LR standardized fit NOT converged after {meta.iterations} iterations "
            f"(||g|| = {meta.final_grad_norm:.3g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return RiskyTokenSet.top_positive(zip(vocab.tokens, coefs.tolist()), k_risky)


def tmi_lr_baseline(
    train: ReleaseDataset | list[ReleaseDataset],
    test: ReleaseDataset,
    vocab: Vocabulary,
    predicted: FilePredictions,
    k_risky: int = RunConfig.k_risky,
) -> MethodResult:
    """Apply one global standardized-coefficient risky set to every defect-prone file of ``predicted``.

    Unlike the per-file explanations of the pipeline, the same risky set is
    used for every predicted-defective test file; flagging and hit-count
    ranking are otherwise identical.
    """
    risky = global_risky_tokens(train, vocab, k_risky)
    file_probs = predicted.probabilities
    flagged = Ranking.concatenate(
        [flag_lines(test, i, risky, file_probs[test.files[i].path]) for i in predicted.defect_prone]
    )
    return MethodResult(
        method="tmi_lr",
        ranked=rank_lines_global(flagged),
        file_probabilities=file_probs,
        risky_tokens={"*": risky},
    )


def _stream(table: TokenTable, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Token stream of the table's files ``first..last-1``, each with start padding, and line sentinels.

    Tokens keep their table ids; the padding is id ``len(table.tokens)`` and
    the line sentinel the id after it. Returns the stream and, per
    position, the owning line number (0 for padding and sentinel positions,
    which provide context but are not scored).
    """
    pad, sentinel = len(table.tokens), len(table.tokens) + 1
    lines = table.lines(first, last)
    n_lines = len(lines.numbers)
    # line r follows the padding of its own and earlier files, the earlier lines' sentinels and their tokens
    shift = (lines.file_of + 1) * (NGRAM_ORDER - 1) + np.arange(n_lines)
    tokens_through = np.cumsum(np.bincount(lines.line_of, minlength=n_lines))
    size = (last - first) * (NGRAM_ORDER - 1) + len(lines.ids) + n_lines
    stream = np.full(size, pad, dtype=np.int64)
    owners = np.zeros(size, dtype=np.int64)
    token_at = shift[lines.line_of] + np.arange(len(lines.ids))
    stream[token_at] = lines.ids
    owners[token_at] = lines.numbers[lines.line_of]
    stream[shift + tokens_through] = sentinel
    return stream, owners


def _tuple_ids(ids: np.ndarray, base: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Dense ids of every k-tuple of ``ids``, k = 1..NGRAM_ORDER.

    ``grams[k-1][j]`` identifies the k-tuple ``ids[j : j+k]`` as its rank
    among the sorted distinct keys ``keys[k-1]``. For k = 1 the key is the
    token id itself (ids are dense in 0..base-1); for k >= 2 it is
    ``grams[k-2][j] * base + ids[j+k-1]``: prefix id, then last token.
    """
    keys, grams = [np.arange(base)], [ids]
    for k in range(2, NGRAM_ORDER + 1):
        distinct, rank = np.unique(grams[-1][:-1] * base + ids[k - 1 :], return_inverse=True)
        keys.append(distinct)
        grams.append(rank)
    return keys, grams


def _jm_step(p: np.ndarray, count: np.ndarray, total: np.ndarray) -> np.ndarray:
    """One Jelinek-Mercer order, elementwise: where the context was seen, mix in count/total."""
    seen = total > 0
    ml = count / np.where(seen, total, 1)
    return np.where(seen, JM_ML_WEIGHT * ml + (1.0 - JM_ML_WEIGHT) * p, p)


def _prior_occurrences(keys: np.ndarray) -> np.ndarray:
    """For each position, how many earlier positions hold the same key."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    index = np.arange(len(keys))
    group_start = np.maximum.accumulate(np.where(np.r_[True, ranked[1:] != ranked[:-1]], index, 0))
    out = np.empty_like(index)
    out[order] = index - group_start
    return out


class NgramModel:
    """Interpolated n-gram language model over code token streams.

    Conditionals are combined with recursive Jelinek-Mercer smoothing: each
    order mixes its maximum-likelihood estimate with the next-lower order,
    and the chain bottoms out at a uniform floor over the vocabulary plus an
    unknown-token symbol, so every next-token distribution sums to exactly 1
    and unseen tokens keep a small positive probability.

    The counts live in integer arrays. Every stream token, the padding and
    line sentinels included, has an int id; every k-tuple seen in training
    has a dense id (see ``_tuple_ids``), ``_counts[k-1]`` counts it as a
    continuation and ``_totals[k]`` counts it as the context of a
    continuation. Padding positions provide context only, never a
    continuation event. File streams are padded with NGRAM_ORDER-1 start
    symbols, so no n-gram crosses a file boundary.
    """

    def __init__(self):
        self._tokens: tuple[str, ...] = ()
        self._index: dict[str, int] = {}
        self._seen = np.zeros(0, dtype=np.int64)
        self._mapped: tuple[tuple[str, ...], np.ndarray] | None = None

    def fit(self, train: ReleaseDataset | list[ReleaseDataset]) -> "NgramModel":
        """Count every training stream; refitting starts from empty tables.

        Model ids number the sorted union of the training tables' tokens,
        then the padding and the line sentinel.
        """
        releases = as_release_list(train)
        self._tokens = tuple(sorted(set().union(*(ds.token_table.tokens for ds in releases))))
        self._index = {token: i for i, token in enumerate(self._tokens + (_STREAM_START, _LINE_SENTINEL))}
        self._mapped = None
        streams = [
            self._id_map(ds.token_table.tokens)[_stream(ds.token_table, 0, len(ds.files))[0]] for ds in releases
        ]
        ids = np.concatenate(streams) if streams else np.zeros(0, dtype=np.int64)
        body = np.flatnonzero(ids != len(self._tokens))
        self._seen = np.unique(ids[body])
        if not self._seen.size:
            raise ValueError("cannot fit an n-gram model on an empty training corpus")
        self._keys, grams = _tuple_ids(ids, len(self._tokens) + 2)
        # the gram of order o and its context of order o-1 both start at body - (o-1)
        starts = [body - (o - 1) for o in range(1, NGRAM_ORDER + 1)]
        self._counts = [
            np.bincount(grams[k][starts[k]], minlength=len(self._keys[k])) for k in range(NGRAM_ORDER)
        ]
        # the empty context (id 0) precedes every continuation
        self._totals = [np.array([len(body)])] + [
            np.bincount(grams[k - 1][starts[k]], minlength=len(self._keys[k - 1])) for k in range(1, NGRAM_ORDER)
        ]
        return self

    @property
    def vocabulary(self) -> set[str]:
        """The tokens seen in training, the line sentinel included."""
        return {self._tokens[i] if i < len(self._tokens) else _LINE_SENTINEL for i in self._seen.tolist()}

    @property
    def floor(self) -> float:
        return 1.0 / (len(self._seen) + 1)

    def _lookup(self, ids: np.ndarray) -> list[np.ndarray]:
        """Fitted tuple ids of every k-tuple of ``ids`` as ``_tuple_ids`` lays them out; -1 if unseen."""
        grams = [ids]
        for k in range(2, NGRAM_ORDER + 1):
            prefix, last = grams[-1][:-1], ids[k - 1 :]
            key = prefix * (len(self._tokens) + 2) + last
            keys = self._keys[k - 1]
            at = np.searchsorted(keys, key)
            found = (prefix >= 0) & (last >= 0) & (keys[np.minimum(at, len(keys) - 1)] == key)
            grams.append(np.where(found, at, -1))
        return grams

    def _static_probabilities(self, ids: np.ndarray) -> np.ndarray:
        """P(ids[i] | up to NGRAM_ORDER-1 ids before it) at every position i; unknown tokens have id -1."""
        grams = self._lookup(ids)
        p = np.full(len(ids), self.floor)
        for o in range(1, min(NGRAM_ORDER, len(ids)) + 1):
            gram = grams[o - 1]
            count = np.where(gram >= 0, self._counts[o - 1][gram], 0)
            # order 1 conditions on the empty context, id 0
            context = grams[o - 2][: len(gram)] if o > 1 else np.zeros(len(gram), dtype=np.int64)
            total = np.where(context >= 0, self._totals[o - 1][context], 0)
            p[o - 1 :] = _jm_step(p[o - 1 :], count, total)
        return p

    def _encode(self, tokens) -> np.ndarray:
        """Model ids of token texts, the padding and sentinel texts included; -1 for a token not in the model.

        A token of a training table that no training line holds (a CV subset
        keeps its parent's tokens) has an id but zero counts, so it scores as
        an unknown token does.
        """
        return np.array([self._index.get(token, -1) for token in tokens], dtype=np.int64)

    def _id_map(self, tokens: tuple[str, ...]) -> np.ndarray:
        """Model id of each id of a table over ``tokens``, then of its padding and sentinel."""
        if self._mapped is None or self._mapped[0] is not tokens:
            self._mapped = (tokens, self._encode(tokens + (_STREAM_START, _LINE_SENTINEL)))
        return self._mapped[1]

    def probability(self, token: str, context: tuple[str, ...]) -> float:
        """Interpolated P(token | up to NGRAM_ORDER-1 preceding tokens)."""
        stream = list(context)[-(NGRAM_ORDER - 1) :] + [token]
        return float(self._static_probabilities(self._encode(stream))[-1])

    def surprisal(self, token: str, context: tuple[str, ...]) -> float:
        """Negative log2 probability in bits."""
        return -float(np.log2(self.probability(token, context)))


def _cache_probabilities(local_ids: np.ndarray, base: int, static_p: np.ndarray) -> np.ndarray:
    """The per-file cache chain (orders 2..NGRAM_ORDER) at every position after the padding.

    The cache counts of position i are the earlier non-padding positions of
    the same file that share its gram (or context); ``static_p`` holds the
    static model's probabilities at those positions and starts the chain.
    """
    _, grams = _tuple_ids(local_ids, base)
    scored = len(static_p)
    p = static_p
    for o in range(2, NGRAM_ORDER + 1):
        start = NGRAM_ORDER - o  # the gram ending at the first scored position starts here
        gram = grams[o - 1][start : start + scored]
        context = grams[o - 2][start : start + scored]
        p = _jm_step(p, _prior_occurrences(gram), _prior_occurrences(context))
    return p


def line_entropies(model: NgramModel, release: ReleaseDataset, index: int) -> dict[int, float]:
    """Mean token surprisal per line of ``release.files[index]``; lines without tokens are absent.

    A per-file cache of orders >= 2, reset for each file, is mixed with the
    static model. Its chain backs off to the static model's prediction, so
    a cache that has never seen the current context defers entirely to the
    static model instead of punishing it.
    """
    table = release.token_table
    # table ids keep tokens the model never saw distinct for the cache
    local_ids, owners = _stream(table, index, index + 1)
    if len(local_ids) < NGRAM_ORDER:
        return {}
    static_p = model._static_probabilities(model._id_map(table.tokens)[local_ids])[NGRAM_ORDER - 1 :]
    cache_p = _cache_probabilities(local_ids, len(table.tokens) + 2, static_p)
    p = (1.0 - CACHE_WEIGHT) * static_p + CACHE_WEIGHT * cache_p
    surprisal = -np.log2(p)
    owner = owners[NGRAM_ORDER - 1 :]
    in_line = owner > 0
    lines, slot = np.unique(owner[in_line], return_inverse=True)
    # bincount adds in position order, as a running sum per line would
    sums = np.bincount(slot, weights=surprisal[in_line], minlength=len(lines))
    means = sums / np.bincount(slot, minlength=len(lines))
    return dict(zip(lines.tolist(), means.tolist()))


def ngram_entropy_baseline(
    train: ReleaseDataset | list[ReleaseDataset], test: ReleaseDataset, threshold: float
) -> MethodResult:
    """Flag lines whose mean token surprisal exceeds the threshold; rank by surprisal.

    The n-gram model needs no file-level classifier, so every test file is
    scored; ranked rows carry the line's mean entropy as their score, no
    hits and a file probability of 0, so the shared ranking orders them by
    entropy, then path and line number.
    """
    model = NgramModel().fit(train)
    per_file = [line_entropies(model, test, i) for i in range(len(test.files))]
    files = np.array([i for i, entropies in enumerate(per_file) for _ in entropies], dtype=np.int64)
    lines = np.array([number for entropies in per_file for number in entropies], dtype=np.int64)
    scores = np.array([score for entropies in per_file for score in entropies.values()], dtype=np.float64)
    scored = Ranking(files, lines, np.zeros_like(files), scores, np.zeros(len(files))).take(scores > threshold)
    return MethodResult(method="ngram", ranked=rank_lines_global(scored), file_probabilities={})
