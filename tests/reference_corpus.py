"""Reference features: the regex tokenizer, a list-built token table, and dict-based vocabulary, vectors and flags.

Each function re-tokenises the lines it needs, one string at a time, with the
regular expression ``linedefects.corpus.tokenize`` used before it translated
bytes, as ``linedefects.corpus`` and ``linedefects.pipeline`` did before
every release got one token table. The table-backed code must agree with
these exactly: the same tokens, the same vocabulary, the same count vectors
(so the same training design), and the same flagged lines with
bitwise-equal score sums.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import scipy.sparse as sp

from linedefects.corpus import FeatureVector, SourceFile, TokenTable, Vocabulary
from linedefects.pipeline import RiskyTokenSet
from reference_ranking import RankedLine

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


def tokenize(text: str) -> list[str]:
    """Maximal runs of ASCII letters, digits and underscore."""
    return _TOKEN_RE.findall(text)


def token_table(files: list[SourceFile]) -> TokenTable:
    """Every line's tokens as a list, the sorted distinct tokens, then each token's index among them."""
    per_line = [tokenize(line.content) for f in files for line in f.lines]
    flat = [token for words in per_line for token in words]
    tokens = tuple(sorted(set(flat)))
    index = {token: i for i, token in enumerate(tokens)}
    return TokenTable(
        tokens=tokens,
        ids=np.array([index[token] for token in flat], dtype=np.int64),
        line_ptr=np.cumsum([0] + [len(words) for words in per_line], dtype=np.int64),
        file_ptr=np.cumsum([0] + [len(f.lines) for f in files], dtype=np.int64),
    )


def token_stream(file: SourceFile) -> list[str]:
    """All tokens of the file in line order (no separators)."""
    return [token for line in file.lines for token in tokenize(line.content)]


def build_vocabulary(training_files: list[SourceFile]) -> Vocabulary:
    """Count token occurrences over the training files and retain tokens seen at least twice."""
    if not training_files:
        raise ValueError("cannot build a vocabulary from an empty training set")
    counts: Counter[str] = Counter()
    for f in training_files:
        counts.update(token_stream(f))
    if not counts:
        raise ValueError("the training releases hold no tokens, vocabulary would be empty")
    kept = sorted(token for token, c in counts.items() if c >= 2)
    if not kept:
        raise ValueError("degenerate corpus: every token occurs exactly once, vocabulary would be empty")
    return Vocabulary(tuple(kept))


def vectorize(file: SourceFile, vocab: Vocabulary) -> FeatureVector:
    """Bag-of-tokens counts for one file; out-of-vocabulary tokens are ignored."""
    entries: dict[int, int] = {}
    lookup = vocab.token_to_index
    for token in token_stream(file):
        idx = lookup.get(token)
        if idx is not None:
            entries[idx] = entries.get(idx, 0) + 1
    return FeatureVector(entries=dict(sorted(entries.items())), dimension=len(vocab))


def features_to_csr(features: list[FeatureVector]) -> sp.csr_matrix:
    """Stack sparse feature vectors into one CSR matrix (the trainer's design)."""
    if not features:
        raise ValueError("no feature vectors given")
    dim = features[0].dimension
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    for fv in features:
        if fv.dimension != dim:
            raise ValueError("feature vectors have mismatched dimensions")
        for idx, count in sorted(fv.entries.items()):
            indices.append(idx)
            data.append(count)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(features), dim),
    )


def flag_lines(file: SourceFile, risky: RiskyTokenSet, file_probability: float = 1.0) -> list[RankedLine]:
    """Flag every line containing at least one risky token; score sums add in ascending token order."""
    token_set = {token for token, _ in risky.tokens}
    if not token_set:
        return []
    scores = dict(risky.tokens)
    flagged = []
    for line in file.lines:
        matched = set(tokenize(line.content)) & token_set
        if matched:
            score_sum = 0.0
            for token in sorted(matched):
                score_sum += scores[token]
            flagged.append(
                RankedLine(
                    release_id=file.release_id,
                    file_path=file.path,
                    line_number=line.number,
                    hit_count=len(matched),
                    score_sum=score_sum,
                    file_probability=file_probability,
                )
            )
    return flagged
