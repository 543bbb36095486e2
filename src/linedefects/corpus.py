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
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

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


def _row_positions(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR row selection: the selected rows' new row pointer and the positions of their entries."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    new_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_ptr[1:])
    return new_ptr, np.arange(new_ptr[-1]) + np.repeat(starts - new_ptr[:-1], lengths)


class TableLines(NamedTuple):
    """Some files of a token table, line by line: the lines in file order, each line's tokens in source order."""

    ids: np.ndarray  # token ids, line after line
    line_of: np.ndarray  # each token's line, an index into ``numbers``
    numbers: np.ndarray  # each line's number in its file
    file_of: np.ndarray  # each line's file, counted from the first file asked for


@dataclass(frozen=True, eq=False)
class TokenTable:
    """Every line of a release's files tokenised once, its tokens interned to int ids.

    ``tokens[i]`` is the text of id i. Ids follow ascending token text, so an
    id is also its token's lexicographic rank. Table line r is line
    ``numbers[r]`` of its file and holds the ids
    ``ids[line_ptr[r]:line_ptr[r + 1]]`` in source order; file j owns the
    lines ``file_ptr[j]:file_ptr[j + 1]``.
    """

    tokens: tuple[str, ...]
    ids: np.ndarray
    line_ptr: np.ndarray
    numbers: np.ndarray
    file_ptr: np.ndarray

    @classmethod
    def build(cls, files: Sequence[SourceFile]) -> "TokenTable":
        """Tokenise every line of ``files`` once, in file and line order."""
        per_line = [tokenize(line.content) for f in files for line in f.lines]
        flat = list(chain.from_iterable(per_line))
        tokens = tuple(sorted(set(flat)))
        index = {token: i for i, token in enumerate(tokens)}
        ids = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat))
        line_ptr = np.zeros(len(per_line) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, per_line), dtype=np.int64, count=len(per_line)), out=line_ptr[1:])
        file_ptr = np.zeros(len(files) + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(f.lines) for f in files), dtype=np.int64, count=len(files)), out=file_ptr[1:])
        numbers = np.fromiter((line.number for f in files for line in f.lines), dtype=np.int64, count=len(per_line))
        return cls(tokens, ids, line_ptr, numbers, file_ptr)

    def select(self, indices: Sequence[int]) -> "TokenTable":
        """The table of files ``indices``, in that order: their rows of this table, under the same ids."""
        indices = np.asarray(indices, dtype=np.int64)
        file_ptr, lines = _row_positions(self.file_ptr, indices)
        line_ptr, positions = _row_positions(self.line_ptr, lines)
        return TokenTable(self.tokens, self.ids[positions], line_ptr, self.numbers[lines], file_ptr)

    @cached_property
    def file_counts(self) -> sp.csr_matrix:
        """Files x ids matrix of occurrence counts, column indices ascending in each row; built on first use."""
        n_files, n_tokens = len(self.file_ptr) - 1, len(self.tokens)
        token_ptr = self.line_ptr[self.file_ptr]
        file_of = np.repeat(np.arange(n_files), np.diff(token_ptr))
        keys, counts = np.unique(file_of * n_tokens + self.ids, return_counts=True)
        rows = keys // max(n_tokens, 1)
        indptr = np.searchsorted(rows, np.arange(n_files + 1))
        return sp.csr_matrix((counts, keys - rows * n_tokens, indptr), shape=(n_files, n_tokens))

    def lines(self, first: int, last: int) -> TableLines:
        """The lines of files ``first..last-1``."""
        line_first, line_last = self.file_ptr[first], self.file_ptr[last]
        lengths = np.diff(self.line_ptr[line_first : line_last + 1])
        return TableLines(
            ids=self.ids[self.line_ptr[line_first] : self.line_ptr[line_last]],
            line_of=np.repeat(np.arange(line_last - line_first), lengths),
            numbers=self.numbers[line_first:line_last],
            file_of=np.repeat(np.arange(last - first), np.diff(self.file_ptr[first : last + 1])),
        )

    def distinct_tokens(self, index: int) -> list[str]:
        """The distinct tokens of file ``index``, in text order."""
        start, end = self.line_ptr[self.file_ptr[index]], self.line_ptr[self.file_ptr[index + 1]]
        return [self.tokens[i] for i in np.unique(self.ids[start:end]).tolist()]

    def occurrences(self, index: int, words: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Where the distinct ``words`` occur in file ``index``: one entry per line and word in it.

        Returns each entry's line number and the index into ``words`` of its
        word. Entries follow the file's lines, and within a line the words'
        text order.
        """
        word_of_id = np.full(len(self.tokens), -1, dtype=np.int64)
        for j, word in enumerate(words):
            i = bisect_left(self.tokens, word)
            if i < len(self.tokens) and self.tokens[i] == word:
                word_of_id[i] = j
        lines = self.lines(index, index + 1)
        hit = word_of_id[lines.ids] >= 0
        # ids ascend with token text, so this key orders each line's words by text
        keys = np.unique(lines.line_of[hit] * len(self.tokens) + lines.ids[hit])
        rows, ids = np.divmod(keys, len(self.tokens))
        return lines.numbers[rows], word_of_id[ids]


@dataclass(frozen=True)
class ReleaseDataset:
    release_id: str
    release_date: date | None
    files: tuple[SourceFile, ...]

    @cached_property
    def token_table(self) -> TokenTable:
        """The release's token table, built the first time it is used."""
        return TokenTable.build(self.files)

    def subset(self, indices: Sequence[int]) -> "ReleaseDataset":
        """The release restricted to ``files[i]`` for i in ``indices``; it selects this release's table rows."""
        subset = ReleaseDataset(self.release_id, self.release_date, tuple(self.files[i] for i in indices))
        # cached_property keeps its value in the instance dict: seeding it there means the subset never tokenises
        subset.__dict__["token_table"] = self.token_table.select(indices)
        return subset

    def total_loc(self) -> int:
        return sum(len(f.lines) for f in self.files)

    def file_by_path(self, path: str) -> SourceFile:
        for f in self.files:
            if f.path == path:
                return f
        raise KeyError(path)


@dataclass(frozen=True)
class Vocabulary:
    """The training tokens; a token's dense index is its position in ``tokens``.

    Built vocabularies list their tokens in lexicographic order so that runs
    are reproducible across platforms.
    """

    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property
    def token_to_index(self) -> dict[str, int]:
        return {token: i for i, token in enumerate(self.tokens)}

    def fingerprint(self) -> str:
        payload = "\n".join(self.tokens).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class FeatureVector:
    """Sparse token-count vector; ``entries`` maps vocabulary index -> count >= 1."""

    entries: dict[int, int]
    dimension: int

    @classmethod
    def from_row(cls, X: sp.csr_matrix, row: int) -> "FeatureVector":
        """Row ``row`` of a count matrix such as :func:`vectorize` returns."""
        start, end = X.indptr[row], X.indptr[row + 1]
        counts = X.data[start:end].astype(np.int64)
        return cls(entries=dict(zip(X.indices[start:end].tolist(), counts.tolist())), dimension=X.shape[1])


def tokenize(text: str) -> list[str]:
    """Split a line into code tokens.

    Tokens are maximal runs of alphanumerics and underscore; every other
    character is a separator. Case is preserved: ``Node`` and ``node`` are
    distinct tokens.
    """
    return _TOKEN_RE.findall(text)


def as_release_list(train: ReleaseDataset | list[ReleaseDataset]) -> list[ReleaseDataset]:
    return [train] if isinstance(train, ReleaseDataset) else list(train)


def _token_counts(tables: list[TokenTable]) -> tuple[Sequence[str], np.ndarray]:
    """The tables' distinct tokens in text order and their occurrence counts."""
    merged: Counter[str] = Counter()
    for table in tables:
        merged.update(dict(zip(table.tokens, np.bincount(table.ids, minlength=len(table.tokens)).tolist())))
    tokens = sorted(merged)
    return tokens, np.array([merged[t] for t in tokens], dtype=np.int64)


def build_vocabulary(train: ReleaseDataset | list[ReleaseDataset]) -> Vocabulary:
    """Count token occurrences over the training releases and retain tokens seen at least twice."""
    releases = as_release_list(train)
    if not any(ds.files for ds in releases):
        raise ValueError("cannot build a vocabulary from an empty training set")
    tokens, counts = _token_counts([ds.token_table for ds in releases])
    if not tokens:
        raise ValueError("the training releases hold no tokens, vocabulary would be empty")
    kept = np.flatnonzero(counts >= 2)
    if not kept.size:
        raise ValueError(
            "degenerate corpus: every token occurs exactly once, vocabulary would be empty"
        )
    return Vocabulary(tuple(tokens[i] for i in kept))


def _vocabulary_remap(table: TokenTable, vocab: Vocabulary) -> np.ndarray:
    """The vocabulary index of each table id, -1 for an out-of-vocabulary token."""
    lookup = vocab.token_to_index
    return np.array([lookup.get(t, -1) for t in table.tokens], dtype=np.int64)


def vectorize(train: ReleaseDataset | list[ReleaseDataset], vocab: Vocabulary) -> sp.csr_matrix:
    """Bag-of-tokens counts, one row per file of the releases; out-of-vocabulary tokens are ignored.

    Each release's per-file token counts pass through one table-id to
    vocabulary-index remap. Column indices ascend within every row.
    """
    blocks = []
    for ds in as_release_list(train):
        counts = ds.token_table.file_counts
        columns = _vocabulary_remap(ds.token_table, vocab)[counts.indices]
        keep = columns >= 0
        kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        X = sp.csr_matrix(
            (counts.data[keep].astype(np.float64), columns[keep], kept_before[counts.indptr]),
            shape=(counts.shape[0], len(vocab)),
        )
        # the remap keeps the column order when the vocabulary is in token-text order, as built ones are
        X.sort_indices()
        blocks.append(X)
    if not blocks:
        raise ValueError("no releases to vectorize")
    return blocks[0] if len(blocks) == 1 else sp.vstack(blocks, format="csr")


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
