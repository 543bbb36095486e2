"""Synthetic line-level defect corpora with planted signal.

Defective files share a small set of planted tokens concentrated on their
defective lines, so a working pipeline should recover the planted tokens as
risky and rank the defective lines near the top. Clean lines are sampled
from a template pool shared across the releases of a system (plus a small
fraction of novel random lines), which keeps filler tokens
non-discriminative at the file level while still giving an n-gram model
repeated sequences to learn. Used by the demo scripts and the test suite;
real datasets use the same CSV schema.
"""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

from .corpus import LineRecord, ReleaseDataset, SourceFile

PLANTED_TOKENS = ("unsafeCast", "rawLockAcquire", "tmpBufSwap")

_FILLER_POOL = [
    "config", "logger", "request", "response", "builder", "session", "handler",
    "context", "buffer", "stream", "parser", "writer", "reader", "client",
    "server", "channel", "message", "queue", "worker", "task", "result",
    "status", "value", "index", "count", "total", "items", "entry", "record",
    "field", "name", "path", "size", "offset", "length", "data", "input",
    "output", "error", "state", "flag", "mode", "type", "kind", "options",
    "params", "args", "token", "node", "tree", "graph", "edge", "visitor",
    "factory", "adapter", "proxy", "wrapper", "helper", "util", "manager",
    "registry", "cache", "store", "pool", "lock", "mutex", "timer", "clock",
    "event", "signal", "filter", "mapper", "reducer", "merger", "splitter",
    "loader", "saver", "encoder", "decoder", "format",
]


def _random_line(rng: np.random.Generator, tokens_per_line: tuple[int, int]) -> str:
    n_tokens = int(rng.integers(tokens_per_line[0], tokens_per_line[1] + 1))
    picks = rng.integers(0, len(_FILLER_POOL), size=n_tokens)
    return " ".join(_FILLER_POOL[p] for p in picks) + ";"


def make_template_pool(
    seed: int, size: int = 150, tokens_per_line: tuple[int, int] = (3, 6)
) -> list[str]:
    """Clean-line templates shared by all releases of one synthetic system."""
    rng = np.random.default_rng(seed)
    return [_random_line(rng, tokens_per_line) for _ in range(size)]


def make_planted_release(
    release_id: str,
    seed: int = 0,
    n_files: int = 60,
    n_defective: int = 15,
    lines_per_file: tuple[int, int] = (18, 28),
    tokens_per_line: tuple[int, int] = (3, 6),
    defective_lines_per_file: tuple[int, int] = (5, 7),
    templates: list[str] | None = None,
    novel_line_rate: float = 0.1,
    release_date: date | None = None,
) -> ReleaseDataset:
    """One release where the planted tokens appear only on defective lines of defective files."""
    if n_defective >= n_files:
        raise ValueError("need at least one clean file")
    rng = np.random.default_rng(seed)
    if templates is None:
        templates = make_template_pool(seed, tokens_per_line=tokens_per_line)
    files = []
    for i in range(n_files):
        is_defective = i < n_defective
        path = f"src/module{i // 10}/File{i:03d}.java"
        n_lines = int(rng.integers(lines_per_file[0], lines_per_file[1] + 1))
        contents = []
        for _ in range(n_lines):
            if rng.random() < novel_line_rate:
                contents.append(_random_line(rng, tokens_per_line))
            else:
                contents.append(templates[int(rng.integers(0, len(templates)))])
        defective_numbers: set[int] = set()
        if is_defective:
            n_bad = int(rng.integers(defective_lines_per_file[0], defective_lines_per_file[1] + 1))
            chosen = rng.choice(n_lines, size=min(n_bad, n_lines), replace=False)
            for line_idx in chosen:
                planted = PLANTED_TOKENS[int(rng.integers(0, len(PLANTED_TOKENS)))]
                filler = _FILLER_POOL[int(rng.integers(0, len(_FILLER_POOL)))]
                contents[line_idx] = f"{planted}.apply({filler}, {planted});"
                defective_numbers.add(int(line_idx) + 1)
        lines = tuple(
            LineRecord(number=n, content=c, is_defective=n in defective_numbers)
            for n, c in enumerate(contents, start=1)
        )
        files.append(
            SourceFile(
                release_id=release_id, path=path, lines=lines, file_label=bool(defective_numbers)
            )
        )
    return ReleaseDataset(release_id=release_id, release_date=release_date, files=tuple(files))


def make_release_series(
    system: str = "demo",
    n_releases: int = 2,
    seed: int = 0,
    start: date = date(2024, 1, 1),
    **kwargs,
) -> list[ReleaseDataset]:
    """Consecutive releases of one synthetic system, 90 days apart.

    All releases draw clean lines from the same template pool, so the
    n-gram baseline sees familiar sequences across the release boundary.
    """
    templates = kwargs.pop(
        "templates",
        make_template_pool(seed, tokens_per_line=kwargs.get("tokens_per_line", (3, 6))),
    )
    return [
        make_planted_release(
            release_id=f"{system}-{k + 1}.0",
            seed=seed + k,
            release_date=start + timedelta(days=90 * k),
            templates=templates,
            **kwargs,
        )
        for k in range(n_releases)
    ]
