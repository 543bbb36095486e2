"""Line-level defect datasets: loading, tokenization, and bag-of-tokens features.

The canonical dataset format is a UTF-8 CSV with header
``release,file_path,line_number,line_content,file_label,line_label`` and one
row per physical source line, plus an optional sidecar CSV
``release,release_date`` (ISO-8601) that orders releases in time.

A load reads the CSV's bytes once: their hash is the cache key, the parse
and any error report read the same bytes. Loading a dataset leaves its
parse and its releases' token tables beside the CSV, in the hidden file
:func:`cache_path` names, keyed by that hash; the next load of the same
bytes rebuilds the releases and their tables from it without parsing the
CSV or tokenising a line again. A loaded dataset keeps its lines packed,
as the cache stores them: a file's :class:`Lines` reads one text, its
offsets and the labels, and makes a :class:`LineRecord` only on demand.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import Counter, defaultdict
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from itertools import chain, pairwise
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

import numpy as np

from .util import atomic_replace, write_csv

if TYPE_CHECKING:
    import scipy.sparse as sp

DATASET_COLUMNS = ("release", "file_path", "line_number", "line_content", "file_label", "line_label")
METADATA_COLUMNS = ("release", "release_date")

# every byte but an ASCII letter, digit or underscore becomes a space
_TOKEN_BYTES = bytes(
    b if chr(b).isascii() and (chr(b).isalnum() or chr(b) == "_") else ord(" ") for b in range(256)
)
# the bytes a token is made of
_WORD_BYTES = bytes(b for b in range(256) if _TOKEN_BYTES[b] != ord(" "))

# Bump whenever the sidecar's arrays, what the loader accepts, or what ``tokenize``
# returns change: the sidecar holds every release's tokens, and a load trusts them.
CACHE_FORMAT_VERSION = 2


class DatasetError(ValueError):
    """A dataset file violates the canonical schema or its invariants."""


class LineRecord(NamedTuple):
    """One physical source line with its 1-based number and defect label."""

    number: int
    content: str
    is_defective: bool


def _pointer(counts) -> np.ndarray:
    """The CSR pointer of rows holding ``counts`` entries: 0, then the running totals."""
    counts = np.asarray(counts, dtype=np.int64)
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _offsets(texts: Sequence[str]) -> np.ndarray:
    """Where each of ``texts`` starts in their concatenation, in characters, then its end."""
    return _pointer(np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)))


def _line_numbers(file_ptr: np.ndarray) -> np.ndarray:
    """Each line's number in its file, 1..n, for the files whose lines ``file_ptr`` bounds."""
    return np.arange(file_ptr[-1], dtype=np.int64) - np.repeat(file_ptr[:-1], np.diff(file_ptr)) + 1


class Lines(Sequence[LineRecord]):
    """A file's lines, read-only: a view over packed columns, which may hold other files' lines too.

    Line i is numbered i + 1, its content is ``text[offsets[i]:offsets[i + 1]]``
    and its defect label ``labels[i]``. A :class:`LineRecord` is made only when
    a line is indexed or iterated; ``labels`` and :meth:`contents` read a
    column without making one. It equals, and hashes as, the tuple of its
    records.
    """

    __slots__ = ("_text", "_offsets", "labels")

    def __init__(self, text: str, offsets: np.ndarray, labels: np.ndarray):
        self._text, self._offsets = text, offsets
        self.labels = labels.view()
        self.labels.flags.writeable = False

    @classmethod
    def of(cls, records: Iterable[LineRecord]) -> "Lines":
        """The lines ``records`` hold, packed; they must be numbered 1, 2, ... in order."""
        numbers, contents, labels = tuple(zip(*records)) or ((), (), ())
        if numbers != tuple(range(1, len(numbers) + 1)):
            raise ValueError("a file's lines must be numbered 1, 2, ... in order")
        return cls("".join(contents), _offsets(contents), np.array(labels, dtype=np.bool_))

    def with_labels(self, labels: np.ndarray) -> "Lines":
        """These lines with the defect labels ``labels`` in place of theirs."""
        return Lines(self._text, self._offsets, np.asarray(labels, dtype=np.bool_))

    def contents(self) -> list[str]:
        """Each line's content, in line order."""
        return [self._text[start:end] for start, end in pairwise(self._offsets.tolist())]

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[LineRecord]:
        return map(LineRecord, range(1, len(self) + 1), self.contents(), self.labels.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        i = range(len(self))[index]  # a negative index counts from the end; out of range raises IndexError
        return LineRecord(i + 1, self._text[self._offsets[i] : self._offsets[i + 1]], bool(self.labels[i]))

    def __eq__(self, other):
        if isinstance(other, (Lines, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Lines({tuple(self)!r})"

    def __reduce__(self):
        # only this file's text and columns, not the packed text of every file it shares
        first, last = self._offsets[0], self._offsets[-1]
        return Lines, (self._text[first:last], self._offsets - first, self.labels)


@dataclass(frozen=True)
class SourceFile:
    """A source file of a release: its lines are given as any sequence of :class:`LineRecord`, held as :class:`Lines`."""

    release_id: str
    path: str
    lines: Lines
    file_label: bool

    def __post_init__(self):
        if not isinstance(self.lines, Lines):
            object.__setattr__(self, "lines", Lines.of(self.lines))


def _row_positions(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR row selection: the selected rows' new row pointer and the positions of their entries."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    new_ptr = _pointer(lengths)
    return new_ptr, np.arange(new_ptr[-1]) + np.repeat(starts - new_ptr[:-1], lengths)


class TableLines(NamedTuple):
    """A token table line by line: the lines in file order, each line's tokens in source order."""

    ids: np.ndarray  # token ids, line after line
    line_of: np.ndarray  # each token's line, an index into ``numbers``
    numbers: np.ndarray  # each line's number in its file
    file_of: np.ndarray  # each line's file, an index into the table's files


@dataclass(frozen=True, eq=False)
class TokenTable:
    """Every line of a release's files tokenised once, its tokens interned to int ids.

    ``tokens[i]`` is the text of id i. Ids follow ascending token text, so an
    id is also its token's lexicographic rank. Table line r holds the ids
    ``ids[line_ptr[r]:line_ptr[r + 1]]`` in source order; file j owns the
    lines ``file_ptr[j]:file_ptr[j + 1]``, numbered 1, 2, ... in order.
    """

    tokens: tuple[str, ...]
    ids: np.ndarray
    line_ptr: np.ndarray
    file_ptr: np.ndarray

    @classmethod
    def build(cls, files: Sequence[SourceFile]) -> "TokenTable":
        """Tokenise every line of ``files`` once, in file and line order.

        Tokens are interned as they are read, a file at a time, so only one
        file's token strings and the distinct tokens are held at once; the
        ids they get in order of first sight are then remapped to text rank.
        """
        line_lengths: list[int] = []

        def file_tokens(f: SourceFile) -> Iterator[str]:
            per_line = list(map(tokenize, f.lines.contents()))
            line_lengths.extend(map(len, per_line))
            return chain.from_iterable(per_line)

        # a token not seen before gets the next id: the count of distinct tokens seen so far
        seen: defaultdict[str, int] = defaultdict()
        seen.default_factory = seen.__len__
        first_seen = np.fromiter(map(seen.__getitem__, chain.from_iterable(map(file_tokens, files))), dtype=np.int64)
        tokens = tuple(sorted(seen))
        rank = dict(zip(tokens, range(len(tokens))))
        # ``seen`` iterates in order of first sight, so this maps each first-seen id to its rank
        ids = np.fromiter(map(rank.__getitem__, seen), dtype=np.int64, count=len(seen))[first_seen]
        return cls(tokens, ids, _pointer(line_lengths), _pointer([len(f.lines) for f in files]))

    def select(self, indices: Sequence[int]) -> "TokenTable":
        """The table of files ``indices``, in that order: their rows of this table, under the same ids."""
        indices = np.asarray(indices, dtype=np.int64)
        file_ptr, lines = _row_positions(self.file_ptr, indices)
        line_ptr, positions = _row_positions(self.line_ptr, lines)
        return TokenTable(self.tokens, self.ids[positions], line_ptr, file_ptr)

    def lines(self) -> TableLines:
        """Every line of the table."""
        n_lines = len(self.line_ptr) - 1
        return TableLines(
            ids=self.ids,
            line_of=np.repeat(np.arange(n_lines), np.diff(self.line_ptr)),
            numbers=_line_numbers(self.file_ptr),
            file_of=np.repeat(np.arange(len(self.file_ptr) - 1), np.diff(self.file_ptr)),
        )


@dataclass(frozen=True)
class ReleaseDataset:
    """A release's files, in path order: a file's index is its path's rank, the last tie-break of every ranking.

    Paths compare as Python strings, so a trailing NUL still counts. No two
    files share a path.
    """

    release_id: str
    release_date: date | None
    files: tuple[SourceFile, ...]

    def __post_init__(self):
        object.__setattr__(self, "files", tuple(sorted(self.files, key=lambda f: f.path)))
        for before, after in pairwise(self.files):
            if before.path == after.path:
                raise ValueError(f"release {self.release_id!r} holds two files with path {after.path!r}")

    @cached_property
    def token_table(self) -> TokenTable:
        """The release's token table: set by :func:`load_dataset`, or else built on first use."""
        return TokenTable.build(self.files)

    def subset(self, indices: Sequence[int]) -> "ReleaseDataset":
        """The release restricted to ``files[i]`` for i in ``indices``, in index order, which is path order.

        Its token table is this release's rows of those files.
        """
        indices = sorted(indices)
        subset = ReleaseDataset(self.release_id, self.release_date, tuple(self.files[i] for i in indices))
        return _with_table(subset, self.token_table.select(indices))


def _with_table(release: ReleaseDataset, table: TokenTable) -> ReleaseDataset:
    """``release``, with ``table`` (the table of its files) as its token table, so it never tokenises."""
    # cached_property keeps its value in the instance dict, so seeding it there is building it
    release.__dict__["token_table"] = table
    return release


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
    distinct tokens. Only ASCII letters and digits count: any other
    character, ``é`` or a lone surrogate say, separates tokens.
    """
    # a character ASCII cannot encode becomes "?", then a space, as every other separator
    return text.encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()


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

    Each release's table ids pass through one table-id to vocabulary-index
    remap and are counted per file. Column indices ascend within every row.
    """
    import scipy.sparse as sp

    blocks = []
    for ds in as_release_list(train):
        table = ds.token_table
        n_files = len(table.file_ptr) - 1
        columns = _vocabulary_remap(table, vocab)[table.ids]
        file_of = np.repeat(np.arange(n_files), np.diff(table.line_ptr[table.file_ptr]))
        kept = columns >= 0
        # one key per (file, column): sorted, the rows come in order and each row's columns ascend
        keys, counts = np.unique(file_of[kept] * len(vocab) + columns[kept], return_counts=True)
        rows, indices = np.divmod(keys, len(vocab))
        indptr = np.searchsorted(rows, np.arange(n_files + 1))
        blocks.append(sp.csr_matrix((counts.astype(np.float64), indices, indptr), shape=(n_files, len(vocab))))
    if not blocks:
        raise ValueError("no releases to vectorize")
    return blocks[0] if len(blocks) == 1 else sp.vstack(blocks, format="csr")


def defect_density(file: SourceFile) -> float:
    """Fraction of the file's lines that are defective."""
    labels = file.lines.labels
    if not len(labels):
        raise ValueError(f"{file.path}: cannot compute defect density of a zero-line file")
    return int(np.count_nonzero(labels)) / len(labels)


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


def _csv_rows(path: str | Path, raw: bytes) -> Iterator[tuple[int, list[str]]]:
    """The numbered rows of ``raw``, the bytes of UTF-8 CSV file ``path``, header first (see :func:`_numbered_rows`)."""
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as handle:
        try:
            yield from _numbered_rows(csv.reader(handle), path)
        except UnicodeDecodeError:
            raise _undecodable(path, raw) from None


def _undecodable(path: str | Path, raw: bytes) -> DatasetError:
    """The error for ``raw``, the bytes of ``path``, that are not UTF-8, naming the row of their first bad byte."""
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
    rows = _csv_rows(path, Path(path).read_bytes())
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


# each file's rows, keyed by (release, path): (line number, content, file label, line label)
_Rows = dict[tuple[str, str], list[tuple[int, str, bool, bool]]]


def _grouped_rows(path: Path, raw: bytes) -> _Rows:
    """Each file's rows parsed from ``raw``, keyed by ``(release, path)``; every row is checked, the files are not."""
    rows = _csv_rows(path, raw)
    _, header = next(rows, (1, None))
    if header is None:
        raise DatasetError(f"{path}: empty file")
    missing = set(DATASET_COLUMNS) - set(header)
    if missing:
        raise DatasetError(f"{path}: missing required columns: {sorted(missing)}")
    indices = _column_indices(header, DATASET_COLUMNS)
    release_i, path_i, number_i, content_i, file_label_i, line_label_i = indices
    rows_by_file: _Rows = {}
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
    return rows_by_file


# (release id, its files in path order), the releases sorted by id: a dataset without its dates
_Releases = list[tuple[str, tuple[SourceFile, ...]]]


class _Packed(NamedTuple):
    """Every line of a dataset, file after file: the contents as one text with character offsets, and the labels."""

    text: str
    offsets: np.ndarray
    labels: np.ndarray


def _assembled(
    release_ids: list[str], release_files: list[int], paths: list[str], file_labels: list[bool],
    file_lines: list[int], packed: _Packed,
) -> _Releases:
    """The releases, of ``release_files`` files each, and the files, of ``file_lines`` lines each, over ``packed``."""
    line_bounds, file_bounds = _pointer(file_lines).tolist(), _pointer(release_files).tolist()
    releases = []
    for r, release_id in enumerate(release_ids):
        files = []
        for f in range(file_bounds[r], file_bounds[r + 1]):
            first, last = line_bounds[f], line_bounds[f + 1]
            lines = Lines(packed.text, packed.offsets[first : last + 1], packed.labels[first:last])
            files.append(SourceFile(release_id, paths[f], lines, file_labels[f]))
        releases.append((release_id, tuple(files)))
    return releases


def _checked_files(path: Path, rows_by_file: _Rows) -> tuple[_Releases, _Packed]:
    """The files of :func:`_grouped_rows`, each checked as a whole, grouped into releases; and their lines, packed."""
    release_ids: list[str] = []
    release_files: list[int] = []
    paths: list[str] = []
    file_labels: list[bool] = []
    file_lines: list[int] = []
    contents: list[str] = []
    labels: list[bool] = []
    # sorted by (release, path): a release's files are consecutive, in path order
    for (release_id, file_path), file_rows in sorted(rows_by_file.items()):
        if not release_id:
            raise DatasetError(f"{path}: empty release id for file {file_path!r}")
        file_rows.sort(key=itemgetter(0))
        numbers, file_contents, file_label_column, line_labels = zip(*file_rows)
        if numbers != tuple(range(1, len(numbers) + 1)):
            raise DatasetError(
                f"{path}: {release_id}/{file_path}: line numbers are not contiguous from 1 "
                f"(got {list(numbers[:5])}{'...' if len(numbers) > 5 else ''})"
            )
        file_label_set = set(file_label_column)
        if len(file_label_set) != 1:
            raise DatasetError(f"{path}: {release_id}/{file_path}: inconsistent file_label across rows")
        file_label = file_label_set.pop()
        any_defective = any(line_labels)
        if file_label != any_defective:
            raise DatasetError(
                f"{path}: {release_id}/{file_path}: file_label={file_label} but "
                f"defective-line presence={any_defective}"
            )
        if not release_ids or release_ids[-1] != release_id:
            release_ids.append(release_id)
            release_files.append(0)
        release_files[-1] += 1
        paths.append(file_path)
        file_labels.append(file_label)
        file_lines.append(len(numbers))
        contents += file_contents
        labels += line_labels
    packed = _Packed("".join(contents), _offsets(contents), np.array(labels, dtype=np.bool_))
    return _assembled(release_ids, release_files, paths, file_labels, file_lines, packed), packed


def cache_path(path: str | Path) -> Path:
    """The parse cache of dataset ``path``: ``.<file name>.linedefects-cache.npz`` in the same directory."""
    path = Path(path)
    return path.with_name(f".{path.name}.linedefects-cache.npz")


# every array of a parse cache and its dtype; each is one-dimensional
_CACHE_DTYPES = {
    "version": np.dtype(np.int64),  # [CACHE_FORMAT_VERSION]
    "key": np.dtype(np.uint8),  # the CSV's sha256
    "release_text": np.dtype(np.uint8),  # release ids, UTF-8, one after another
    "release_offsets": np.dtype(np.int64),  # where each id starts in the text, in characters, then its end
    "release_files": np.dtype(np.int64),  # files per release
    "path_text": np.dtype(np.uint8),
    "path_offsets": np.dtype(np.int64),
    "file_label": np.dtype(np.bool_),
    "file_lines": np.dtype(np.int64),  # lines per file; a file's lines are numbered 1..n
    "content_text": np.dtype(np.uint8),
    "content_offsets": np.dtype(np.int64),
    "line_label": np.dtype(np.bool_),
    # each release's token table (see TokenTable), its line and file pointers given by the counts
    "token_text": np.dtype(np.uint8),  # each release's distinct tokens in text order, release after release
    "token_offsets": np.dtype(np.int64),
    "release_tokens": np.dtype(np.int64),  # distinct tokens per release
    "line_tokens": np.dtype(np.int64),  # tokens per line
    "token_ids": np.dtype(np.int64),  # each line's token ids, line after line; ids count from 0 in each release
}


def _packed(name: str, texts: list[str]) -> dict[str, np.ndarray]:
    return {
        f"{name}_text": np.frombuffer("".join(texts).encode("utf-8"), dtype=np.uint8),
        f"{name}_offsets": _offsets(texts),
    }


def _joined(arrays: dict[str, np.ndarray], name: str, count: int) -> tuple[str, np.ndarray]:
    """The text of ``count`` packed strings and their offsets; raises unless the offsets bound them."""
    text = str(memoryview(arrays[f"{name}_text"]), "utf-8")
    offsets = arrays[f"{name}_offsets"]
    if len(offsets) != count + 1 or offsets[0] != 0 or offsets[-1] != len(text) or (np.diff(offsets) < 0).any():
        raise ValueError(f"inconsistent {name} offsets")
    return text, offsets


def _unpacked(arrays: dict[str, np.ndarray], name: str, count: int) -> list[str]:
    text, offsets = _joined(arrays, name, count)
    return [text[start:end] for start, end in pairwise(offsets.tolist())]


def _write_cache(target: Path, digest: bytes, releases: _Releases, packed: _Packed, tables: list[TokenTable]) -> None:
    """Store ``releases``, their ``packed`` lines and their ``tables``, parsed from the CSV whose sha256 is ``digest``.

    Nothing is written, and nothing is said, if ``target`` cannot be written.
    """
    files = [f for _, release_files in releases for f in release_files]
    arrays = {
        "version": np.array([CACHE_FORMAT_VERSION], dtype=np.int64),
        "key": np.frombuffer(digest, dtype=np.uint8),
        **_packed("release", [release_id for release_id, _ in releases]),
        "release_files": np.array([len(release_files) for _, release_files in releases], dtype=np.int64),
        **_packed("path", [f.path for f in files]),
        "file_label": np.array([f.file_label for f in files], dtype=np.bool_),
        "file_lines": np.array([len(f.lines) for f in files], dtype=np.int64),
        "content_text": np.frombuffer(packed.text.encode("utf-8"), dtype=np.uint8),
        "content_offsets": packed.offsets,
        "line_label": packed.labels,
        **_packed("token", [token for table in tables for token in table.tokens]),
        "release_tokens": np.array([len(table.tokens) for table in tables], dtype=np.int64),
        "line_tokens": np.concatenate([np.diff(table.line_ptr) for table in tables]),
        "token_ids": np.concatenate([table.ids for table in tables]),
    }
    try:
        with atomic_replace(target) as handle:
            np.savez(handle, **arrays)
    except OSError:  # a read-only directory, say: the next load parses the CSV again
        pass


def _cached_tables(arrays: dict[str, np.ndarray], file_ptr: np.ndarray, line_ptr: np.ndarray) -> list[TokenTable]:
    """Each release's token table from the cache's arrays, given the releases' files and the files' lines.

    Raises if the arrays are inconsistent with those or in themselves.
    """
    release_tokens, line_tokens, token_ids = arrays["release_tokens"], arrays["line_tokens"], arrays["token_ids"]
    if (
        len(release_tokens) != len(file_ptr) - 1
        or len(line_tokens) != line_ptr[-1]
        or (release_tokens < 0).any()
        or (line_tokens < 0).any()
        or int(line_tokens.sum()) != len(token_ids)
    ):
        raise ValueError("inconsistent token table lengths")
    id_ptr, token_ptr = _pointer(line_tokens), _pointer(release_tokens)
    # ids count from 0 in each release, up to its count of distinct tokens
    release_line_ptr = line_ptr[file_ptr]
    if ((token_ids < 0) | (token_ids >= np.repeat(release_tokens, np.diff(id_ptr[release_line_ptr])))).any():
        raise ValueError("token id out of range")
    tokens = _unpacked(arrays, "token", int(token_ptr[-1]))
    if arrays["token_text"].tobytes().translate(None, _WORD_BYTES) or not all(tokens):
        raise ValueError("a token holds a separator or is empty")
    tables = []
    for r in range(len(release_tokens)):
        words = tokens[token_ptr[r] : token_ptr[r + 1]]
        # ids are text ranks: flag_lines bisects on the tokens and orders a line's tokens by id
        if not all(map(str.__lt__, words, words[1:])):
            raise ValueError("tokens out of text order")
        first_line, last_line = release_line_ptr[r], release_line_ptr[r + 1]
        table_file_ptr = _pointer(np.diff(line_ptr[file_ptr[r] : file_ptr[r + 1] + 1]))
        first_id, last_id = id_ptr[first_line], id_ptr[last_line]
        line_ids = id_ptr[first_line : last_line + 1] - first_id
        tables.append(TokenTable(tuple(words), token_ids[first_id:last_id], line_ids, table_file_ptr))
    return tables


def _cached_array(archive, name: str) -> np.ndarray:
    """Array ``name`` of an open cache; raises unless it has the dtype :data:`_CACHE_DTYPES` gives and one dimension."""
    array = archive[name]
    if array.dtype != _CACHE_DTYPES[name] or array.ndim != 1:
        raise ValueError("unexpected array type")
    return array


@contextmanager
def _open_cache(target: Path, digest: bytes) -> Iterator:
    """The cache at ``target``, open, if this format version wrote it for the CSV whose sha256 is ``digest``.

    Raises if the file is missing or unreadable, or holds another version or CSV;
    only those two arrays are read.
    """
    with np.load(target, allow_pickle=False) as archive:
        if _cached_array(archive, "version").tolist() != [CACHE_FORMAT_VERSION]:
            raise ValueError("cache of another format version")
        if _cached_array(archive, "key").tobytes() != digest:
            raise ValueError("stale cache")
        yield archive


def _read_cache(archive) -> tuple[_Releases, list[TokenTable]]:
    """The releases stored in ``archive``, a cache that :func:`_open_cache` opened, and their token tables.

    Raises if the cache is inconsistent in itself.
    """
    arrays = {name: _cached_array(archive, name) for name in _CACHE_DTYPES if name not in ("version", "key")}
    release_files, file_lines = arrays["release_files"], arrays["file_lines"]
    n_files, n_lines = len(file_lines), len(arrays["line_label"])
    if (
        not len(release_files)
        or (release_files < 1).any()
        or (file_lines < 1).any()
        or int(release_files.sum()) != n_files
        or int(file_lines.sum()) != n_lines
        or len(arrays["file_label"]) != n_files
    ):
        raise ValueError("inconsistent lengths")
    tables = _cached_tables(arrays, _pointer(release_files), _pointer(file_lines))
    paths = _unpacked(arrays, "path", n_files)
    # a release's table rows follow its files, which ReleaseDataset keeps in path order
    for first, last in pairwise(_pointer(release_files).tolist()):
        if not all(map(str.__lt__, paths[first : last - 1], paths[first + 1 : last])):
            raise ValueError("paths out of order")
    packed = _Packed(*_joined(arrays, "content", n_lines), arrays["line_label"])
    releases = _assembled(
        _unpacked(arrays, "release", len(release_files)), release_files.tolist(), paths,
        arrays["file_label"].tolist(), file_lines.tolist(), packed,
    )
    return releases, tables


def load_dataset(path: str | Path, metadata_path: str | Path | None = None) -> list[ReleaseDataset]:
    """Load a canonical dataset CSV into fully validated release datasets.

    Validates that each file's line numbers are contiguous from 1, that the
    file label is constant across the file's rows, and that it equals the
    disjunction of the line labels. Violations raise :class:`DatasetError`
    naming the offending record. Releases are returned sorted by release id;
    their files are in path order, as every :class:`ReleaseDataset` holds them.

    The file is read once, whole: the sha256 of those bytes is the cache
    key, and the parse and any error report read the same bytes, so a pipe
    or a device such as ``/dev/stdin`` loads like a regular file. Every
    returned release already holds its token table, and each file's lines
    as a :class:`Lines` view. The parse of a CSV that loads is kept beside
    it (:func:`cache_path`), keyed by that sha256 and
    :data:`CACHE_FORMAT_VERSION`, together with each release's token table.
    A later load of the same bytes rebuilds the releases and their tables
    from that file without parsing the CSV or tokenising a line; a missing,
    stale or damaged cache is parsed around and rewritten. A regular file's
    bytes are freed once the cache's version and key match; should the
    cache then prove damaged, the file is read and hashed again. The dates
    are read from ``metadata_path`` on every load. Only a regular file's
    parse is written to a cache.
    """
    path = Path(path)
    raw = path.read_bytes()
    key = hashlib.sha256(raw).digest()
    try:
        with _open_cache(cache_path(path), key) as archive:
            # the cache is of these bytes: a regular file can be read again if the cache proves unsound, a pipe not
            if path.is_file():
                raw = None
            releases, tables = _read_cache(archive)
    # The cache is a file anyone may have damaged, and numpy's and zipfile's readers raise many
    # kinds of errors on one; whatever the cause, the CSV is parsed and the cache rewritten.
    except Exception:
        releases = None
    if releases is None:
        if raw is None:  # freed for a cache that then proved unsound: parse, and key the cache by, what is read now
            raw = path.read_bytes()
            key = hashlib.sha256(raw).digest()
        rows_by_file = _grouped_rows(path, raw)
    del raw  # the bytes are not read again: free them before the files are checked and the tables built
    # the dates are read after the rows are parsed and before the files are checked, and errors come in that order
    dates = load_metadata(metadata_path) if metadata_path is not None else {}
    if releases is None:
        releases, packed = _checked_files(path, rows_by_file)
        del rows_by_file  # the parsed rows are not read again: free them before the tables are built
        tables = [TokenTable.build(files) for _, files in releases]
        # the name of a pipe or a device such as /dev/stdin names no stored bytes to keep a parse beside
        if path.is_file():
            _write_cache(cache_path(path), key, releases, packed, tables)
    return [
        _with_table(ReleaseDataset(release_id, dates.get(release_id), files), table)
        for (release_id, files), table in zip(releases, tables)
    ]


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
            for f in ds.files
            for line in f.lines
        ),
    )
    if metadata_path is not None:
        write_csv(
            metadata_path,
            METADATA_COLUMNS,
            ((ds.release_id, ds.release_date.isoformat()) for ds in ordered if ds.release_date is not None),
        )
