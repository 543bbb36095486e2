"""Baseline line-level predictors: random guessing, global standardized
coefficients (TMI-LR), and n-gram naturalness entropy.

All three emit the same ``Ranking`` as the main pipeline so one evaluation
harness covers every method.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

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
    risky = {}
    for i in predicted.defect_prone:
        f = test.files[i]
        distinct = sorted(vocab.tokens[j] for j in design.indices[design.indptr[i] : design.indptr[i + 1]].tolist())
        if not distinct:
            continue
        rng = np.random.default_rng(derive_seed(seed, "random", f.release_id, f.path))
        scores = rng.uniform(-1.0, 1.0, size=len(distinct))
        risky[i] = RiskyTokenSet.top_positive(zip(distinct, scores.tolist()), k_risky)
    flagged = flag_lines(test, risky, file_probs)
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
    flagged = flag_lines(test, dict.fromkeys(predicted.defect_prone, risky), predicted.probabilities)
    return MethodResult(
        method="tmi_lr",
        ranked=rank_lines_global(flagged),
        file_probabilities=predicted.probabilities,
        risky_tokens={"*": risky},
    )


def _stream(table: TokenTable) -> tuple[np.ndarray, np.ndarray]:
    """Token stream of the table's files, each with start padding, and line sentinels.

    Tokens keep their table ids; the padding is id ``len(table.tokens)`` and
    the line sentinel the id after it. Returns the stream and, per
    position, the owning line as an index into the table's lines (-1 for
    padding and sentinel positions, which provide context but are not
    scored).
    """
    pad, sentinel = len(table.tokens), len(table.tokens) + 1
    n_files = len(table.file_ptr) - 1
    lines = table.lines()
    n_lines = len(lines.numbers)
    # line r follows the padding of its own and earlier files, the earlier lines' sentinels and their tokens
    shift = (lines.file_of + 1) * (NGRAM_ORDER - 1) + np.arange(n_lines)
    tokens_through = np.cumsum(np.bincount(lines.line_of, minlength=n_lines))
    size = n_files * (NGRAM_ORDER - 1) + len(lines.ids) + n_lines
    stream = np.full(size, pad, dtype=np.int64)
    rows = np.full(size, -1, dtype=np.int32)
    token_at = shift[lines.line_of] + np.arange(len(lines.ids))
    stream[token_at] = lines.ids
    rows[token_at] = lines.line_of
    stream[shift + tokens_through] = sentinel
    return stream, rows


def _packed_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort of non-negative int keys from one ``np.sort``: the order and the sorted keys.

    Each key is packed with its position as ``key << b | position`` in an
    int64, b the bit width of the largest position, so positions break ties
    and ``order`` equals ``np.argsort(keys, kind="stable")``. The packing
    overwrites an int64 ``keys``, so a sort of n-gram keys allocates no
    second copy of them.
    """
    keys = np.asarray(keys, dtype=np.int64)
    shift = max(len(keys) - 1, 0).bit_length()
    width = int(keys.max(initial=0)).bit_length() + shift
    if width > 63:
        raise ValueError(
            f"cannot sort the n-gram keys of a {len(keys):,}-position stream: "
            f"keys and positions need {width} bits, an int64 holds 63"
        )
    packed = keys
    packed <<= shift
    packed |= np.arange(len(keys))
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return order, packed


def _group_starts(ranked: np.ndarray) -> np.ndarray:
    """Where a new key begins in the sorted ``ranked``."""
    starts = np.empty(len(ranked), dtype=bool)
    starts[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    return starts


def _dense_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's rank among the distinct keys, as int32, and the distinct keys in ascending order."""
    order, ranked = _packed_sort(keys)
    starts = _group_starts(ranked)
    ranks = np.empty(len(keys), dtype=np.int32)
    ranks[order] = np.cumsum(starts, dtype=np.int32) - 1
    return ranks, ranked[starts]


def _jm_step(p: np.ndarray, count: np.ndarray, total: np.ndarray) -> np.ndarray:
    """One Jelinek-Mercer order, elementwise: where the context was seen, mix in count/total."""
    seen = total > 0
    ml = count / np.where(seen, total, 1)
    return np.where(seen, JM_ML_WEIGHT * ml + (1.0 - JM_ML_WEIGHT) * p, p)


def _prior_occurrences(keys: np.ndarray, files: np.ndarray) -> np.ndarray:
    """For each position, how many earlier positions of the same file hold the same key.

    ``files`` is each position's file, and a file's positions are contiguous.
    """
    order, ranked = _packed_sort(keys)
    starts = _group_starts(ranked)
    # within one key, positions ascend, so a group of the key ends where its file does
    file_in_order = files[order]
    starts[1:] |= file_in_order[1:] != file_in_order[:-1]
    index = np.arange(len(keys), dtype=np.int32)
    group_start = np.where(starts, index, 0)
    np.maximum.accumulate(group_start, out=group_start)
    out = np.empty_like(index)
    out[order] = index - group_start
    return out


def _held_table(values: np.ndarray) -> np.ndarray:
    """The held tuples' ``values`` as int32, then a 0 that every id past them reads (see ``_at``)."""
    table = np.zeros(len(values) + 1, dtype=np.int32)
    table[:-1] = values
    return table


def _at(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``table[ids]``, an id past the table's end reading its last entry."""
    return table[np.minimum(ids, len(table) - 1)]


def _held_tuples(
    prefixes: np.ndarray, last: np.ndarray, base: int, continuations: np.ndarray, contexts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Ids of the tuples ``prefixes * base + last``, and the tables of the tuples training holds.

    ``continuations`` are the positions whose tuple is a training
    continuation and ``contexts`` those whose tuple is the context of one
    (None at the top order). The tuples training holds, as either, take the
    first ids in key order, so the stored tables stop at them; a test-only
    tuple's id is past theirs and below twice the number of tuples. Returns
    each position's id, the held tuples' keys in ascending order, and their
    continuation and context counts as ``_held_table``s.
    """
    key = prefixes.astype(np.int64)
    key *= base
    key += last
    ids, keys = _dense_ranks(key)
    del key
    counts = np.bincount(ids[continuations], minlength=len(keys))
    held = counts > 0
    if contexts is not None:
        totals = np.bincount(ids[contexts], minlength=len(keys))
        held |= totals > 0
    n_held = int(np.count_nonzero(held))
    # a test-only tuple's id is its rank plus the held count: distinct, and past every held id
    renumber = np.arange(n_held, n_held + len(keys), dtype=np.int32)
    renumber[held] = np.arange(n_held)
    context_table = None if contexts is None else _held_table(totals[held])
    return renumber[ids], keys[held], _held_table(counts[held]), context_table


class _TestStream(NamedTuple):
    """The test release a model was fitted with, as ``line_entropies`` reads it."""

    release: ReleaseDataset
    rows: np.ndarray  # each position's line, an index into ``release.token_table``'s lines; -1 if not scored
    grams: list[np.ndarray]  # grams[k-1][j]: the fitted id of the k-tuple ending at position j


class NgramModel:
    """Interpolated n-gram language model over code token streams.

    Conditionals are combined with recursive Jelinek-Mercer smoothing: each
    order mixes its maximum-likelihood estimate with the next-lower order,
    and the chain bottoms out at a uniform floor over the vocabulary plus an
    unknown-token symbol, so every next-token distribution sums to exactly 1
    and unseen tokens keep a small positive probability.

    The counts live in integer arrays. Every stream token, the padding and
    line sentinels included, has an int id, and every k-tuple of the
    training and test streams has a dense id. For k = 1 the key is the token
    id itself; for k >= 2 it is the prefix's id times the number of token
    ids, plus the last token's id. The tuples training holds, as a
    continuation or as the context of one, take the first ids in key order:
    ``_keys[k-1]`` holds their sorted keys, ``_counts[k-1]`` counts each as
    a training continuation and ``_totals[k]`` as the context of one. For
    k >= 2 those tables end in a 0, which a tuple only the test holds reads,
    as its id is past theirs. Padding positions provide context only, never
    a continuation event. File streams are padded with NGRAM_ORDER-1 start
    symbols, so no n-gram crosses a file boundary.
    """

    def __init__(self):
        self._tokens: tuple[str, ...] = ()
        self._index: dict[str, int] = {}
        self._seen = np.zeros(0, dtype=np.int64)
        self._test: _TestStream | None = None

    def fit(self, train: ReleaseDataset | list[ReleaseDataset], test: ReleaseDataset | None = None) -> "NgramModel":
        """Count every training stream, and id the test stream's tuples for ``line_entropies``.

        Model ids number the sorted union of the training and test tables'
        tokens, then the padding and the line sentinel. Each order's tuple
        ids come from one sort over the training streams followed by the
        test stream. Refitting starts from empty tables.
        """
        train_tables = [ds.token_table for ds in as_release_list(train)]
        tables = train_tables + ([test.token_table] if test is not None else [])
        self._tokens = tuple(sorted(set().union(*(table.tokens for table in tables))))
        texts = (_STREAM_START, _LINE_SENTINEL)
        self._index = {token: i for i, token in enumerate(self._tokens + texts)}
        mapped = [self._encode(table.tokens + texts).astype(np.int32)[_stream(table)[0]] for table in train_tables]
        n_train = sum(map(len, mapped))
        if test is not None:
            stream, rows = _stream(test.token_table)
            mapped.append(self._encode(test.token_table.tokens + texts).astype(np.int32)[stream])
            del stream
        ids = np.concatenate(mapped) if mapped else np.zeros(0, dtype=np.int32)
        del mapped
        base = len(self._tokens) + 2
        body = np.flatnonzero(ids[:n_train] != len(self._tokens))
        unigrams = np.bincount(ids[body], minlength=base)
        self._seen = np.flatnonzero(unigrams)
        if not self._seen.size:
            raise ValueError("cannot fit an n-gram model on an empty training corpus")
        self._keys = [np.arange(base)]
        self._counts = [unigrams]
        # the empty context (id 0) precedes every continuation
        self._totals = [np.array([len(body)]), np.bincount(ids[body - 1], minlength=base)]
        grams = ids
        test_grams = [ids[n_train:].copy()]
        for k in range(2, NGRAM_ORDER + 1):
            # the k-tuple starting at j is a continuation if it ends at a body position, j + k - 1,
            # and the context of one if a body position follows it, j + k
            contexts = body - k if k < NGRAM_ORDER else None
            grams, keys, counts, totals = _held_tuples(grams[:-1], ids[k - 1 :], base, body - (k - 1), contexts)
            self._keys.append(keys)
            self._counts.append(counts)
            if totals is not None:
                self._totals.append(totals)
            # grams[j] starts at j, so the tuple ending at test position j starts at n_train + j - (k-1)
            test_grams.append(grams[n_train - (k - 1) :].copy())
        self._test = None if test is None else _TestStream(test, rows, test_grams)
        return self

    @property
    def vocabulary(self) -> set[str]:
        """The tokens seen in training, the line sentinel included."""
        return {self._tokens[i] if i < len(self._tokens) else _LINE_SENTINEL for i in self._seen.tolist()}

    @property
    def floor(self) -> float:
        return 1.0 / (len(self._seen) + 1)

    def _lookup(self, ids: np.ndarray) -> list[np.ndarray]:
        """Fitted tuple ids of every k-tuple of ``ids``, the k-tuple ``ids[j : j+k]`` at index j; -1 if unknown."""
        grams = [ids]
        for k in range(2, NGRAM_ORDER + 1):
            prefix, last = grams[-1][:-1], ids[k - 1 :]
            key = prefix * (len(self._tokens) + 2) + last
            keys = self._keys[k - 1]
            at = np.searchsorted(keys, key)
            found = (prefix >= 0) & (last >= 0) & (keys[np.minimum(at, len(keys) - 1)] == key)
            grams.append(np.where(found, at, -1))
        return grams

    def _encode(self, tokens) -> np.ndarray:
        """Model ids of token texts, the padding and sentinel texts included; -1 for a token not in the model.

        A token that no training line holds (a test token, or one a CV
        subset keeps from its parent's table) has an id but zero counts, so
        it scores as an unknown token does.
        """
        return np.array([self._index.get(token, -1) for token in tokens], dtype=np.int64)

    def probability(self, token: str, context: tuple[str, ...]) -> float:
        """Interpolated P(token | up to NGRAM_ORDER-1 preceding tokens)."""
        ids = self._encode(list(context)[-(NGRAM_ORDER - 1) :] + [token])
        grams = self._lookup(ids)
        p = self.floor
        for o in range(1, len(ids) + 1):
            # the gram ending at the last position; order 1 conditions on the empty context, id 0
            gram = grams[o - 1][-1]
            context_id = grams[o - 2][-2] if o > 1 else 0
            count = self._counts[o - 1][gram] if gram >= 0 else 0
            total = self._totals[o - 1][context_id] if context_id >= 0 else 0
            p = float(_jm_step(np.float64(p), count, total))
        return p

    def surprisal(self, token: str, context: tuple[str, ...]) -> float:
        """Negative log2 probability in bits."""
        return -float(np.log2(self.probability(token, context)))


def line_entropies(model: NgramModel, test: ReleaseDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean token surprisal of every line of ``test`` that holds a token, the release scored in one pass.

    ``model`` must have been fitted with ``test``. Returns the lines' file
    indices, line numbers and entropies, in file and line order. A per-file
    cache of orders >= 2, reset for each file, is mixed with the static
    model. Its chain backs off to the static model's prediction, so a cache
    that has never seen the current context defers entirely to the static
    model instead of punishing it.
    """
    if model._test is None or model._test.release is not test:
        raise ValueError("line_entropies needs the model fitted with this test release")
    grams, rows = model._test.grams, model._test.rows
    table = test.token_table
    n_files = len(table.file_ptr) - 1
    # a file's stream is its padding, its tokens and a sentinel per line
    sizes = (NGRAM_ORDER - 1) + np.diff(table.line_ptr[table.file_ptr]) + np.diff(table.file_ptr)
    file_of = np.repeat(np.arange(n_files, dtype=np.int32), sizes)
    offset = np.arange(len(rows), dtype=np.int32) - (np.cumsum(sizes) - sizes).astype(np.int32)[file_of]
    # each file's last padding position, whose tuples are its first scored position's contexts, then its scored ones
    window = np.flatnonzero(offset >= NGRAM_ORDER - 2)
    scored = np.flatnonzero(offset[window] >= NGRAM_ORDER - 1)
    files = file_of[window]
    del file_of, offset
    at = window[scored]
    static_p = np.full(len(at), model.floor)
    for o in range(1, NGRAM_ORDER + 1):
        count = _at(model._counts[o - 1], grams[o - 1][at])
        total = _at(model._totals[o - 1], grams[o - 2][at - 1]) if o > 1 else model._totals[0]
        static_p = _jm_step(static_p, count, total)
    # the cache counts of a position are the earlier positions of its file that share its tuple (or context)
    p = static_p
    context = _prior_occurrences(grams[0][window], files)
    for o in range(2, NGRAM_ORDER + 1):
        count = _prior_occurrences(grams[o - 1][window], files)
        p = _jm_step(p, count[scored], context[scored - 1])
        context = count
    surprisal = -np.log2((1.0 - CACHE_WEIGHT) * static_p + CACHE_WEIGHT * p)
    row = rows[at]
    in_line = row >= 0
    # bincount adds in position order, as a running sum per line would
    n_lines = len(table.line_ptr) - 1
    sums = np.bincount(row[in_line], weights=surprisal[in_line], minlength=n_lines)
    counts = np.bincount(row[in_line], minlength=n_lines)
    kept = np.flatnonzero(counts)
    lines = table.lines()
    return lines.file_of[kept], lines.numbers[kept], sums[kept] / counts[kept]


def ngram_entropy_baseline(
    train: ReleaseDataset | list[ReleaseDataset], test: ReleaseDataset, threshold: float
) -> MethodResult:
    """Flag lines whose mean token surprisal exceeds the threshold; rank by surprisal.

    The n-gram model needs no file-level classifier, so every test file is
    scored; ranked rows carry the line's mean entropy as their score, no
    hits and a file probability of 0, so the shared ranking orders them by
    entropy, then path and line number.
    """
    model = NgramModel().fit(train, test)
    files, lines, scores = line_entropies(model, test)
    scored = Ranking(files, lines, np.zeros_like(files), scores, np.zeros(len(files))).take(scores > threshold)
    return MethodResult(method="ngram", ranked=rank_lines_global(scored), file_probabilities={})
