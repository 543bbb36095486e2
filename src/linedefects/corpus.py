"""Line-level defect datasets: loading, tokenization, and bag-of-tokens features.

The canonical dataset format is a UTF-8 CSV with header
``release,file_path,line_number,line_content,file_label,line_label`` and one
row per physical source line, plus an optional sidecar CSV
``release,release_date`` (ISO-8601) that orders releases in time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple

from .util import write_csv

DATASET_COLUMNS = ("release", "file_path", "line_number", "line_content", "file_label", "line_label")
METADATA_COLUMNS = ("release", "release_date")

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


class DatasetError(ValueError):
    """A dataset file violates the canonical schema or its invariants."""


class LineRecord(NamedTuple):
    """One physical source line with its 1-based number and defect label."""

    number: int
    content: str
    is_defective: bool


@dataclass(frozen=True)
class SourceFile:
    release_id: str
    path: str
    lines: tuple[LineRecord, ...]
    file_label: bool

    def defective_line_numbers(self) -> set[int]:
        return {line.number for line in self.lines if line.is_defective}

    def token_stream(self) -> list[str]:
        """All tokens of the file in line order (no separators)."""
        out: list[str] = []
        for line in self.lines:
            out.extend(tokenize(line.content))
        return out


@dataclass(frozen=True)
class ReleaseDataset:
    release_id: str
    release_date: date | None
    files: tuple[SourceFile, ...]

    def total_loc(self) -> int:
        return sum(len(f.lines) for f in self.files)

    def file_by_path(self, path: str) -> SourceFile:
        for f in self.files:
            if f.path == path:
                return f
        raise KeyError(path)


@dataclass(frozen=True)
class Vocabulary:
    """Token -> dense index map built from training data.

    Indices are assigned in lexicographic token order so that runs are
    reproducible across platforms. ``total_counts`` holds corpus frequencies
    of the retained tokens; it is ``None`` for vocabularies reconstructed
    from a persisted model, which only stores the token list.
    """

    token_to_index: dict[str, int]
    total_counts: dict[str, int] | None = None

    def __len__(self) -> int:
        return len(self.token_to_index)

    @property
    def tokens(self) -> list[str]:
        """Tokens in index order."""
        out = [""] * len(self.token_to_index)
        for token, idx in self.token_to_index.items():
            out[idx] = token
        return out

    def fingerprint(self) -> str:
        payload = "\n".join(self.tokens).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    @classmethod
    def from_tokens(cls, tokens: list[str], total_counts: dict[str, int] | None = None) -> "Vocabulary":
        return cls(token_to_index={t: i for i, t in enumerate(tokens)}, total_counts=total_counts)


@dataclass(frozen=True)
class FeatureVector:
    """Sparse token-count vector; ``entries`` maps vocabulary index -> count >= 1."""

    entries: dict[int, int]
    dimension: int

    def total(self) -> int:
        return sum(self.entries.values())


def tokenize(text: str) -> list[str]:
    """Split a line into code tokens.

    Tokens are maximal runs of alphanumerics and underscore; every other
    character is a separator. Case is preserved: ``Node`` and ``node`` are
    distinct tokens.
    """
    return _TOKEN_RE.findall(text)


def build_vocabulary(training_files: list[SourceFile]) -> Vocabulary:
    """Count token occurrences over the training files and retain tokens seen at least twice."""
    if not training_files:
        raise ValueError("cannot build a vocabulary from an empty training set")
    counts: Counter[str] = Counter()
    for f in training_files:
        counts.update(f.token_stream())
    kept = sorted(token for token, c in counts.items() if c >= 2)
    if not kept:
        raise ValueError(
            "degenerate corpus: every token occurs exactly once, vocabulary would be empty"
        )
    return Vocabulary(
        token_to_index={t: i for i, t in enumerate(kept)},
        total_counts={t: counts[t] for t in kept},
    )


def vectorize(file: SourceFile, vocab: Vocabulary) -> FeatureVector:
    """Bag-of-tokens counts for one file; out-of-vocabulary tokens are ignored."""
    entries: dict[int, int] = {}
    lookup = vocab.token_to_index
    for token in file.token_stream():
        idx = lookup.get(token)
        if idx is not None:
            entries[idx] = entries.get(idx, 0) + 1
    return FeatureVector(entries=dict(sorted(entries.items())), dimension=len(vocab))


def defect_density(file: SourceFile) -> float:
    """Fraction of the file's lines that are defective."""
    if not file.lines:
        raise ValueError(f"{file.path}: cannot compute defect density of a zero-line file")
    defective = sum(1 for line in file.lines if line.is_defective)
    return defective / len(file.lines)


def _parse_bool(value: str, where: str) -> bool:
    v = value.strip().lower()
    if v == "true":
        return True
    if v == "false":
        return False
    raise DatasetError(f"{where}: expected 'true' or 'false', got {value!r}")


_BOOLS = {"true": True, "false": False}


def _numbered_rows(reader, path) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(row number, fields)`` the way ``enumerate(csv.DictReader(...), start=2)`` numbers rows.

    The first row is the header, row 1, even when blank. Blank rows after it
    are skipped and not counted. A row the csv module cannot read, such as
    one with a field longer than its 131,072-character limit, raises
    :class:`DatasetError` naming that row.
    """
    number = 0
    try:
        for row in reader:
            if row or not number:
                number += 1
                yield number, row
    except csv.Error as exc:
        raise DatasetError(f"{path}:{number + 1}: {exc}") from exc


def _csv_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The numbered rows of a UTF-8 CSV file, header first (see :func:`_numbered_rows`)."""
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            yield from _numbered_rows(csv.reader(handle), path)
        except UnicodeDecodeError:
            raise _undecodable(path) from None


def _undecodable(path: str | Path) -> DatasetError:
    """The error for a file that is not UTF-8, naming the row that holds its first bad byte."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the placeholder stands for the bad byte, so the row holding it is the last one read
        prefix = raw[: exc.start].decode("utf-8") + "?"
        number = 0
        for number, _ in _numbered_rows(csv.reader(io.StringIO(prefix, newline="")), path):
            pass
        return DatasetError(f"{path}:{number}: not UTF-8 text: byte {raw[exc.start]:#04x} ({exc.reason})")
    return DatasetError(f"{path}: not UTF-8 text")


def _column_indices(header: list[str], columns: tuple[str, ...]) -> list[int]:
    """Index of each column's last occurrence in the header, as ``csv.DictReader`` resolves repeats."""
    last = {name: i for i, name in enumerate(header)}
    return [last[name] for name in columns]


def _missing_values(row: list[str], columns: tuple[str, ...], indices: list[int], where: str) -> DatasetError:
    missing = [name for name, i in zip(columns, indices) if i >= len(row)]
    fields = f"{len(row)} field" + ("" if len(row) == 1 else "s")
    return DatasetError(f"{where}: no value for {', '.join(missing)}: the row has {fields}")


def _checked_row(
    row: list[str], indices: list[int], where: str
) -> tuple[tuple[str, str], tuple[int, str, bool, bool]]:
    """A row's ``(release, path)`` and ``(number, content, file label, line label)``.

    The slow path of :func:`load_dataset`, taken for any row the fast path
    cannot parse. It checks in the order the errors are reported: a bad or
    short row raises, and a boolean spelt other than ``true``/``false``
    (``" True "``, say) is parsed.
    """
    values = [row[i] if i < len(row) else None for i in indices]
    release, file_path, number_text, content = values[:4]
    try:
        number = int(number_text)
    except (TypeError, ValueError):
        raise DatasetError(f"{where}: line_number is not an integer: {number_text!r}")
    if number < 1:
        raise DatasetError(f"{where}: line_number must be >= 1, got {number}")
    labels = []
    for name, text in zip(DATASET_COLUMNS[4:], values[4:]):
        if text is None:
            break
        labels.append(_parse_bool(text, f"{where} {name}"))
    if None in values:
        raise _missing_values(row, DATASET_COLUMNS, indices, where)
    return (release, file_path), (number, content, labels[0], labels[1])


def load_metadata(path: str | Path) -> dict[str, date]:
    """Read the release-date sidecar CSV (``release,release_date``)."""
    dates: dict[str, date] = {}
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None or set(METADATA_COLUMNS) - set(header):
        raise DatasetError(f"{path}: metadata header must contain {','.join(METADATA_COLUMNS)}")
    indices = _column_indices(header, METADATA_COLUMNS)
    release_i, date_i = indices
    for i, row in rows:
        if max(indices) >= len(row):
            raise _missing_values(row, METADATA_COLUMNS, indices, f"{path}:{i}")
        try:
            dates[row[release_i]] = date.fromisoformat(row[date_i])
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
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None:
        raise DatasetError(f"{path}: empty file")
    missing = set(DATASET_COLUMNS) - set(header)
    if missing:
        raise DatasetError(f"{path}: missing required columns: {sorted(missing)}")
    indices = _column_indices(header, DATASET_COLUMNS)
    release_i, path_i, number_i, content_i, file_label_i, line_label_i = indices
    rows_by_file: dict[tuple[str, str], list[tuple[int, str, bool, bool]]] = {}
    for i, row in rows:
        try:
            key = (row[release_i], row[path_i])
            parsed = (
                int(row[number_i]),
                row[content_i],
                _BOOLS[row[file_label_i]],
                _BOOLS[row[line_label_i]],
            )
        except (IndexError, KeyError, ValueError):
            key, parsed = _checked_row(row, indices, f"{path}:{i}")
        if parsed[0] < 1:
            raise DatasetError(f"{path}:{i}: line_number must be >= 1, got {parsed[0]}")
        rows_by_file.setdefault(key, []).append(parsed)
    if not rows_by_file:
        raise DatasetError(f"{path}: no data rows")

    dates = load_metadata(metadata_path) if metadata_path is not None else {}

    files_by_release: dict[str, list[SourceFile]] = {}
    for (release_id, file_path), file_rows in sorted(rows_by_file.items()):
        if not release_id:
            raise DatasetError(f"{path}: empty release id for file {file_path!r}")
        file_rows.sort(key=itemgetter(0))
        numbers, contents, file_labels, line_labels = zip(*file_rows)
        if numbers != tuple(range(1, len(numbers) + 1)):
            raise DatasetError(
                f"{path}: {release_id}/{file_path}: line numbers are not contiguous from 1 "
                f"(got {list(numbers[:5])}{'...' if len(numbers) > 5 else ''})"
            )
        file_label_set = set(file_labels)
        if len(file_label_set) != 1:
            raise DatasetError(f"{path}: {release_id}/{file_path}: inconsistent file_label across rows")
        file_label = file_label_set.pop()
        any_defective = any(line_labels)
        if file_label != any_defective:
            raise DatasetError(
                f"{path}: {release_id}/{file_path}: file_label={file_label} but "
                f"defective-line presence={any_defective}"
            )
        lines = tuple(map(LineRecord, numbers, contents, line_labels))
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


def write_dataset(
    datasets: list[ReleaseDataset],
    path: str | Path,
    metadata_path: str | Path | None = None,
) -> None:
    """Write datasets in the canonical CSV format (rows ordered by release, path, line)."""
    ordered = sorted(datasets, key=lambda d: d.release_id)
    write_csv(
        path,
        DATASET_COLUMNS,
        (
            (ds.release_id, f.path, line.number, line.content, f.file_label, line.is_defective)
            for ds in ordered
            for f in sorted(ds.files, key=lambda f: f.path)
            for line in f.lines
        ),
    )
    if metadata_path is not None:
        write_csv(
            metadata_path,
            METADATA_COLUMNS,
            ((ds.release_id, ds.release_date.isoformat()) for ds in ordered if ds.release_date is not None),
        )
