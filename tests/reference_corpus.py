"""Reference features: the dict-based vocabulary, vectors and line flags the token table replaced.

Each function re-tokenises the lines it needs, one string at a time, as
``linedefects.corpus`` and ``linedefects.pipeline`` did before every release
got one token table. The table-backed code must agree with these exactly:
the same vocabulary, the same count vectors (so the same training design),
and the same flagged lines with bitwise-equal score sums.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import scipy.sparse as sp

from linedefects.corpus import FeatureVector, SourceFile, Vocabulary, tokenize
from linedefects.pipeline import RankedLine, RiskyTokenSet


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
