"""Small shared helpers: stable seeding, the process pool, UTF-8 decoding, and atomic file and CSV output."""

from __future__ import annotations

import csv
import ctypes
import hashlib
import io
import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence


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

# OpenBLAS's thread-count setter under the names its builds export: plain, 64-bit
# integer, and the scipy-openblas wheels' prefixed ones
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process; none where ``/proc/self/maps`` is missing."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].rstrip("\n") for f in fields if len(f) == 6 and f[5].startswith("/")}
    return sorted(p for p in paths if "openblas" in os.path.basename(p))


def _one_blas_thread() -> None:
    """Set every loaded OpenBLAS to one thread; a library without a known setter is left alone."""
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def _start_worker(fn: Callable, shared: tuple) -> None:
    global _worker_job
    _worker_job = (fn, shared)
    # the pool spreads the work over the cores; BLAS threads in every worker on top of it oversubscribe them
    _one_blas_thread()


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
    an exception raised by ``fn`` is raised here. A forked worker inherits
    the modules loaded here, but one first imported inside a task is imported
    again by every worker of every pool: a caller imports what ``fn`` calls.
    """
    if workers < 2:
        return [fn(*shared, task) for task in tasks]
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_POOL_CONTEXT, initializer=_start_worker, initargs=(fn, shared)
    ) as pool:
        return list(pool.map(_run_task, tasks))


@contextmanager
def atomic_replace(path: Path) -> Iterator[BinaryIO]:
    """A binary temp file beside ``path`` that replaces ``path`` if the block completes.

    The file gets the mode a plain ``open`` would give it, ``0o666`` less the
    umask. If the block raises, the temp file is removed and ``path`` is left
    as it was.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            # mkstemp creates the file 0600 and the rename keeps that mode; the umask is read by setting it
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to ``path`` via a temp file + rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_replace(path) as handle:
        handle.write(text.encode("utf-8"))


def decode_utf8(raw: bytes, path: str | Path, line: int = 1) -> str:
    """``raw``, the bytes of ``path`` from line ``line`` on, as text; a bad byte raises ValueError naming its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += raw.count(b"\n", 0, exc.start)
        raise ValueError(f"{path}:{line}: not UTF-8 text: byte {raw[exc.start]:#04x} ({exc.reason})") from None


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
