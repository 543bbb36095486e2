"""Reference dataset loader: the ``csv.DictReader`` loader that ``corpus.load_dataset`` is checked against.

It reads each row into a dict and validates it on the spot, then groups the
rows by file and checks each file. ``corpus.load_dataset`` must return equal
releases and raise :class:`DatasetError` with the same message wherever this
loader does.
"""

from __future__ import annotations

import csv
from datetime import date
from pathlib import Path

from linedefects.corpus import (
    DATASET_COLUMNS,
    METADATA_COLUMNS,
    DatasetError,
    LineRecord,
    ReleaseDataset,
    SourceFile,
)


def _parse_bool(value: str, where: str) -> bool:
    v = value.strip().lower()
    if v == "true":
        return True
    if v == "false":
        return False
    raise DatasetError(f"{where}: expected 'true' or 'false', got {value!r}")


def load_metadata(path: str | Path) -> dict[str, date]:
    """Read the release-date sidecar CSV (``release,release_date``)."""
    dates: dict[str, date] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or set(METADATA_COLUMNS) - set(reader.fieldnames):
            raise DatasetError(f"{path}: metadata header must contain {','.join(METADATA_COLUMNS)}")
        for i, row in enumerate(reader, start=2):
            try:
                dates[row["release"]] = date.fromisoformat(row["release_date"])
            except ValueError as exc:
                raise DatasetError(f"{path}:{i}: bad release_date: {exc}") from exc
    return dates


def load_dataset(path: str | Path, metadata_path: str | Path | None = None) -> list[ReleaseDataset]:
    """Load a canonical dataset CSV into fully validated release datasets.

    Validates that each file's line numbers are contiguous from 1, that the
    file label is constant across the file's rows, and that it equals the
    disjunction of the line labels. Violations raise :class:`DatasetError`
    naming the offending record. Releases are returned sorted by release id
    and files by path.
    """
    path = Path(path)
    rows_by_file: dict[tuple[str, str], list[tuple[int, str, bool, bool]]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DatasetError(f"{path}: empty file")
        missing = set(DATASET_COLUMNS) - set(reader.fieldnames)
        if missing:
            raise DatasetError(f"{path}: missing required columns: {sorted(missing)}")
        for i, row in enumerate(reader, start=2):
            where = f"{path}:{i}"
            try:
                number = int(row["line_number"])
            except (TypeError, ValueError):
                raise DatasetError(f"{where}: line_number is not an integer: {row['line_number']!r}")
            if number < 1:
                raise DatasetError(f"{where}: line_number must be >= 1, got {number}")
            key = (row["release"], row["file_path"])
            rows_by_file.setdefault(key, []).append(
                (
                    number,
                    row["line_content"],
                    _parse_bool(row["file_label"], where + " file_label"),
                    _parse_bool(row["line_label"], where + " line_label"),
                )
            )
    if not rows_by_file:
        raise DatasetError(f"{path}: no data rows")

    dates = load_metadata(metadata_path) if metadata_path is not None else {}

    files_by_release: dict[str, list[SourceFile]] = {}
    for (release_id, file_path), rows in sorted(rows_by_file.items()):
        if not release_id:
            raise DatasetError(f"{path}: empty release id for file {file_path!r}")
        rows.sort(key=lambda r: r[0])
        numbers = [r[0] for r in rows]
        if numbers != list(range(1, len(rows) + 1)):
            raise DatasetError(
                f"{path}: {release_id}/{file_path}: line numbers are not contiguous from 1 "
                f"(got {numbers[:5]}{'...' if len(numbers) > 5 else ''})"
            )
        file_labels = {r[2] for r in rows}
        if len(file_labels) != 1:
            raise DatasetError(f"{path}: {release_id}/{file_path}: inconsistent file_label across rows")
        file_label = file_labels.pop()
        any_defective = any(r[3] for r in rows)
        if file_label != any_defective:
            raise DatasetError(
                f"{path}: {release_id}/{file_path}: file_label={file_label} but "
                f"defective-line presence={any_defective}"
            )
        lines = tuple(LineRecord(number=r[0], content=r[1], is_defective=r[3]) for r in rows)
        files_by_release.setdefault(release_id, []).append(
            SourceFile(release_id=release_id, path=file_path, lines=lines, file_label=file_label)
        )

    datasets = []
    for release_id in sorted(files_by_release):
        files = tuple(sorted(files_by_release[release_id], key=lambda f: f.path))
        datasets.append(
            ReleaseDataset(release_id=release_id, release_date=dates.get(release_id), files=files)
        )
    return datasets
