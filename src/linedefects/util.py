"""Small shared helpers: stable seeding and atomic file and CSV output."""

from __future__ import annotations

import csv
import hashlib
import io
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence


def derive_seed(*parts) -> int:
    """Derive a stable 63-bit seed from arbitrary parts.

    Unlike the builtin ``hash`` this is stable across processes and
    platforms, so per-file seeds derived from a run seed give identical
    results no matter how work is scheduled.
    """
    payload = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


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
