"""Line-level defect datasets: loading, tokenization, and bag-of-tokens features.

The canonical dataset format is a UTF-8 CSV with header
``release,file_path,line_number,line_content,file_label,line_label`` and one
row per physical source line, plus an optional sidecar CSV
``release,release_date`` (ISO-8601) that orders releases in time.
"""

from __future__ import annotations

import csv
import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .util import write_csv

DATASET_COLUMNS = ("release", "file_path", "line_number", "line_content", "file_label", "line_label")
METADATA_COLUMNS = ("release", "release_date")

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


class DatasetError(ValueError):
    """A dataset file violates the canonical schema or its invariants."""


@dataclass(frozen=True)
class LineRecord:
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
