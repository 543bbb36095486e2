"""Small shared helpers: stable seeding, the process pool, and atomic file and CSV output."""

from __future__ import annotations

import csv
import hashlib
import io
import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence


def derive_seed(*parts) -> int:
    """Derive a stable 63-bit seed from arbitrary parts.

    Unlike the builtin ``hash`` this is stable across processes and
    platforms, so per-file seeds derived from a run seed give identical
    results no matter how work is scheduled.
    """
    payload = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# Workers are forked where the platform can fork: they start without
# re-importing numpy and scipy, and they see this process's module state, so
# a wrapper installed on a module attribute before the pool opens (a test's
# patch, a profiler's probe) also runs in them. Elsewhere the platform default.
_POOL_CONTEXT = (
    multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None
)

# set in each pool worker by its initializer: (function, shared arguments)
_worker_job: tuple[Callable, tuple] | None = None


def _start_worker(fn: Callable, shared: tuple) -> None:
    global _worker_job
    _worker_job = (fn, shared)


def _run_task(task):
    fn, shared = _worker_job
    return fn(*shared, task)


def pool_workers(parallelism: int, tasks: int, min_tasks: int = 2) -> int:
    """Worker processes for ``tasks`` independent tasks: 1 below ``min_tasks``, else at most ``tasks``."""
    return min(parallelism, tasks) if tasks >= min_tasks else 1


def pool_map(fn: Callable, tasks: Sequence, shared: tuple, workers: int) -> list:
    """``[fn(*shared, task) for task in tasks]``, on ``workers`` processes.

    Runs in this process when ``workers`` is below 2. Otherwise ``fn`` and
    ``shared`` reach each worker once, through the pool's initializer, and
    only the tasks are sent per call. Results come back in task order, and
    an exception raised by ``fn`` is raised here.
    """
    if workers < 2:
        return [fn(*shared, task) for task in tasks]
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_POOL_CONTEXT, initializer=_start_worker, initargs=(fn, shared)
    ) as pool:
        return list(pool.map(_run_task, tasks))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to ``path`` via a temp file + rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_cell(value) -> str:
    """CSV cell text: empty for None, lowercase booleans, floats to 10 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as an RFC-4180 CSV, atomically; every cell goes through ``format_cell``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([format_cell(value) for value in row] for row in rows)
    atomic_write_text(path, buf.getvalue())
