"""Realistic-shape line-level defect corpus for the benchmark.

The shipped planted corpus has fewer than 90 distinct tokens per file, which
hides the cost of the per-file surrogate. This generator matches the shape
of real Java releases instead:

* identifiers are drawn from a fixed pool with Zipfian popularity, so a few
  names are everywhere and most are rare; after the program's ">= 2
  occurrences" filter the training vocabulary holds about 3k tokens;
* each file draws its own working set of identifiers (again Zipfian), so a
  file of about 120 lines has about 300 distinct in-vocabulary tokens;
* a defective file carries a few planted risky tokens, and only on its
  defective lines, so the file model and its explanations have real signal
  to find.

Everything is drawn from one numpy generator seeded by the caller, so one
seed gives one corpus. Releases are plain tuples, not program types, so the
generator keeps working when the program's data classes change; the CSV
written by :func:`write_csv` follows the program's documented input schema.
"""

from __future__ import annotations

import csv
import re
import statistics
from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np

# seed of the fixed system behind the realistic corpus (see make_corpus)
SYSTEM_SEED = 2020
TRAIN_RELEASE = "bench-1.0"
TEST_RELEASE = "bench-2.0"
CSV_COLUMNS = ("release", "file_path", "line_number", "line_content", "file_label", "line_label")

# The program's tokenizer: maximal runs of alphanumerics and underscore.
TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")

KEYWORDS = (
    "public", "private", "static", "final", "void", "int", "long", "boolean",
    "return", "if", "else", "for", "while", "new", "this", "null", "true",
    "false", "try", "catch", "throw", "String", "List", "Map",
)
_VERBS = (
    "get", "set", "is", "has", "make", "read", "write", "load", "parse", "build",
    "find", "init", "update", "handle", "compute", "check", "create", "apply",
    "resolve", "flush",
)
_NOUNS = (
    "Buffer", "Node", "Tree", "Graph", "Edge", "Entry", "Record", "Field", "Name",
    "Path", "Size", "Offset", "Length", "Data", "Input", "Output", "Error", "State",
    "Flag", "Mode", "Type", "Kind", "Option", "Param", "Token", "Visitor", "Factory",
    "Adapter", "Proxy", "Wrapper", "Helper", "Manager", "Registry", "Cache", "Store",
    "Pool", "Lock", "Timer", "Clock", "Event", "Signal", "Filter", "Mapper", "Reducer",
    "Loader", "Encoder", "Decoder", "Format", "Session", "Request", "Response",
    "Handler", "Context", "Stream", "Parser", "Writer", "Reader", "Client", "Server",
    "Channel",
)
_SUFFIXES = ("", "Id", "Count", "Map", "List", "Impl", "Ref", "Spec")
RISKY_TOKENS = ("unsafeCast", "rawLockAcquire", "tmpBufSwap", "uncheckedIndex")


@dataclass(frozen=True)
class Shape:
    """Corpus size constants; they give the shape the benchmark asserts."""

    train_files: int = 160
    train_defective: int = 40
    test_files: int = 30
    test_defective: int = 6
    lines_per_file: tuple[int, int] = (110, 130)
    tokens_per_line: tuple[int, int] = (3, 9)
    keyword_share: float = 0.25
    pool_zipf: float = 1.9
    file_identifiers: int = 450
    file_zipf: float = 0.5
    defective_lines: int = 12
    risky_per_file: int = 2


SHAPE = Shape()

# release id -> files; a file is (path, lines); a line is (content, is_defective)
Line = tuple[str, bool]
File = tuple[str, tuple[Line, ...]]
Corpus = dict[str, tuple[File, ...]]


def identifier_pool() -> tuple[str, ...]:
    """Fixed pool of camelCase identifiers, the same for every seed."""
    return tuple(v + n + s for v, n, s in product(_VERBS, _NOUNS, _SUFFIXES))


def _zipf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


def _weighted_sample(rng: np.random.Generator, log_p: np.ndarray, k: int) -> np.ndarray:
    """k distinct indices drawn with probability proportional to exp(log_p) (Gumbel top-k)."""
    keys = log_p + rng.gumbel(size=log_p.shape[0])
    top = np.argpartition(-keys, k)[:k]
    return top[np.argsort(-keys[top])]


def _make_file(
    rng: np.random.Generator,
    shape: Shape,
    pool: tuple[str, ...],
    pool_log_p: np.ndarray,
    risky: tuple[str, ...],
) -> tuple[Line, ...]:
    local = [pool[i] for i in _weighted_sample(rng, pool_log_p, shape.file_identifiers)]
    local_p = _zipf(len(local), shape.file_zipf)
    keyword_p = _zipf(len(KEYWORDS), 1.0)
    n_lines = int(rng.integers(shape.lines_per_file[0], shape.lines_per_file[1] + 1))
    lengths = rng.integers(shape.tokens_per_line[0], shape.tokens_per_line[1] + 1, size=n_lines)
    total = int(lengths.sum())
    is_keyword = rng.random(total) < shape.keyword_share
    idents = rng.choice(len(local), size=total, p=local_p)
    keywords = rng.choice(len(KEYWORDS), size=total, p=keyword_p)
    tokens = [KEYWORDS[k] if kw else local[i] for kw, i, k in zip(is_keyword, idents, keywords)]
    ends = np.cumsum(lengths)
    lines: list[Line] = [
        (_statement(tokens[end - n : end]), False) for n, end in zip(lengths.tolist(), ends.tolist())
    ]
    if risky:
        # a fixed count, split evenly over the file's risky tokens, so every
        # defective file carries the same planted signal
        bad = rng.choice(n_lines, size=shape.defective_lines, replace=False)
        for k, idx in enumerate(bad):
            token = risky[k % len(risky)]
            content, _ = lines[idx]
            lines[idx] = (f"{token}({content.rstrip(';')}, {token});", True)
    return tuple(lines)


def _statement(tokens: list[str]) -> str:
    if len(tokens) < 3:
        return " ".join(tokens) + ";"
    return f"{tokens[0]} {tokens[1]} = {tokens[2]}({', '.join(tokens[3:])});"


def _make_release(
    rng: np.random.Generator,
    release_id: str,
    n_files: int,
    n_defective: int,
    shape: Shape,
    pool: tuple[str, ...],
    pool_log_p: np.ndarray,
) -> tuple[File, ...]:
    defective = set(rng.choice(n_files, size=n_defective, replace=False).tolist())
    files = []
    for i in range(n_files):
        risky: tuple[str, ...] = ()
        if i in defective:
            picks = rng.choice(len(RISKY_TOKENS), size=shape.risky_per_file, replace=False)
            risky = tuple(RISKY_TOKENS[p] for p in picks)
        path = f"src/main/java/pkg{i // 10:02d}/Class{i:03d}.java"
        files.append((path, _make_file(rng, shape, pool, pool_log_p, risky)))
    return tuple(sorted(files))


def make_corpus(seed: int) -> Corpus:
    """A large training release of one fixed system and a smaller test release drawn from ``seed``.

    The system (which identifiers are popular) and its training release are
    the same for every seed, so every seed trains the same file model. The
    cost of explaining a file depends strongly on that model: over training
    releases drawn from seeds 1-10, the lasso work per explained file varied
    by a factor of two from seed to seed, which would swamp any change a
    benchmark run is meant to show.
    """
    shape = SHAPE
    system = np.random.default_rng([SYSTEM_SEED, 0])
    pool = identifier_pool()
    pool_log_p = np.log(_zipf(len(pool), shape.pool_zipf))[system.permutation(len(pool))]
    release = np.random.default_rng([seed, 1])
    return {
        TRAIN_RELEASE: _make_release(
            system, TRAIN_RELEASE, shape.train_files, shape.train_defective, shape, pool, pool_log_p
        ),
        TEST_RELEASE: _make_release(
            release, TEST_RELEASE, shape.test_files, shape.test_defective, shape, pool, pool_log_p
        ),
    }


def write_csv(corpus: Corpus, path) -> None:
    """Write the corpus in the program's canonical dataset CSV schema."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for release_id in sorted(corpus):
            for file_path, lines in corpus[release_id]:
                label = "true" if any(bad for _, bad in lines) else "false"
                for number, (content, bad) in enumerate(lines, start=1):
                    writer.writerow(
                        (release_id, file_path, number, content, label, "true" if bad else "false")
                    )


def line_truth(files: tuple[File, ...]) -> dict[tuple[str, int], bool]:
    """(path, line number) -> is defective, over every line of the release."""
    return {
        (path, number): bad
        for path, lines in files
        for number, (_, bad) in enumerate(lines, start=1)
    }


def measure_shape(corpus: Corpus) -> dict[str, float]:
    """Shape of a corpus as the program sees it, for printing and for the tests.

    ``vocab`` applies the program's vocabulary rule (tokens seen at least
    twice in the training release); ``distinct_tokens_p50`` is the median
    number of distinct in-vocabulary tokens per defective test file.
    """
    counts: Counter[str] = Counter()
    for _, lines in corpus[TRAIN_RELEASE]:
        for content, _ in lines:
            counts.update(TOKEN_RE.findall(content))
    vocab = {token for token, c in counts.items() if c >= 2}
    test = corpus[TEST_RELEASE]
    defective = [lines for _, lines in test if any(bad for _, bad in lines)]
    distinct = [
        len({t for content, _ in lines for t in TOKEN_RE.findall(content)} & vocab)
        for lines in defective
    ]
    return {
        "vocab": len(vocab),
        "distinct_tokens_p50": statistics.median(distinct),
        "defective_test_files": len(defective),
        "test_loc": sum(len(lines) for _, lines in test),
    }
