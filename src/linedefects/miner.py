"""Construct line-level defect datasets from commit history and bug report ids.

The miner is VCS-agnostic: it consumes a commit-export JSONL file (one
commit per line) rather than talking to a repository directly. Each record
carries the commit id, the commit message, and, per changed file, the
modified-or-deleted lines of the pre-change revision:

    {"commit_id": "...", "message": "...",
     "changes": [{"path": "...", "removed": [{"line": 10, "content": "..."}]}]}

A matching export can be produced from a git checkout with the standard
``git log``/``git diff`` plumbing; see the README for a recipe.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import ReleaseDataset, SourceFile
from .util import decode_utf8

# how far a pre-change line number may drift from the release snapshot
LINE_MATCH_WINDOW = 20

_ISSUE_KEY_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*-\d+$")


@dataclass(frozen=True)
class RemovedLine:
    line: int
    content: str


@dataclass(frozen=True)
class FileChange:
    path: str
    removed: tuple[RemovedLine, ...]


@dataclass(frozen=True)
class CommitRecord:
    commit_id: str
    message: str
    changes: tuple[FileChange, ...]


@dataclass(frozen=True)
class IssueKeySet:
    """Bug report identifiers (``KEY-123`` style) affecting the studied release."""

    bug_ids: frozenset[str]

    def __post_init__(self) -> None:
        if not self.bug_ids:
            raise ValueError("issue key set must not be empty")
        for bug_id in self.bug_ids:
            if not _ISSUE_KEY_RE.match(bug_id):
                raise ValueError(f"bad issue identifier {bug_id!r}: expected KEY-<digits>")


def _normalize_path(path: str) -> str:
    return path.replace("\\", "/").lstrip("/")


def _field(record: object, key: str, kind: type, default: object = None):
    """``record[key]``, checked to be a ``kind``; a missing key gives ``default``, or an error when that is None."""
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    if key not in record:
        if default is None:
            raise ValueError(f"missing key {key!r}")
        return default
    value = record[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_commit(doc: object) -> CommitRecord:
    """One commit-export record; a malformed one raises ValueError naming the offending key."""
    commit_id = _field(doc, "commit_id", str)
    changes = []
    for change in _field(doc, "changes", list, []):
        removed = tuple(
            RemovedLine(line=_field(r, "line", int), content=_field(r, "content", str))
            for r in _field(change, "removed", list, [])
        )
        if any(r.line < 1 for r in removed):
            raise ValueError("line numbers must be >= 1")
        changes.append(FileChange(path=_normalize_path(_field(change, "path", str)), removed=removed))
    return CommitRecord(commit_id=commit_id, message=_field(doc, "message", str, ""), changes=tuple(changes))


def load_commit_export(path: str | Path) -> list[CommitRecord]:
    """Parse a commit-export JSONL file; a malformed record raises ValueError naming its line."""
    commits: list[CommitRecord] = []
    # one line at a time: a JSON Lines record ends at "\n" (a "\r" before it is stripped)
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            raw = decode_utf8(line, path, lineno).strip()
            if not raw:
                continue
            try:
                commits.append(_parse_commit(json.loads(raw)))
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return commits


def load_issue_keys(path: str | Path) -> IssueKeySet:
    """Read bug ids from a newline-delimited text file."""
    ids = {line.strip() for line in decode_utf8(Path(path).read_bytes(), path).splitlines() if line.strip()}
    return IssueKeySet(bug_ids=frozenset(ids))


def find_bugfix_commits(commits: list[CommitRecord], issues: IssueKeySet) -> list[CommitRecord]:
    """Commits whose message references a bug id as a whole token.

    Matching is exact on KEY-<digits> bounded by non-alphanumerics, never
    keyword-based, so AMQ-123 does not match inside AMQ-1234.
    """
    alternation = "|".join(re.escape(bug_id) for bug_id in sorted(issues.bug_ids))
    pattern = re.compile(r"(?<![A-Za-z0-9])(?:" + alternation + r")(?![A-Za-z0-9])")
    return [c for c in commits if pattern.search(c.message)]


def _resolve_line(file: SourceFile, removed: RemovedLine) -> int | None:
    """Find the snapshot line matching a pre-change line.

    Exact content match within +/-LINE_MATCH_WINDOW of the reported number;
    the nearest candidate wins, lower line number on ties. Returns None when
    nothing matches (the line drifted out of the window or was added after
    the release).
    """
    lo = max(1, removed.line - LINE_MATCH_WINDOW)
    hi = min(len(file.lines), removed.line + LINE_MATCH_WINDOW)
    best: int | None = None
    best_delta = LINE_MATCH_WINDOW + 1
    for number in range(lo, hi + 1):
        if file.lines[number - 1].content != removed.content:
            continue
        delta = abs(number - removed.line)
        if delta < best_delta:
            best, best_delta = number, delta
    return best


def label_defective_lines(
    snapshot: ReleaseDataset, bugfix_commits: list[CommitRecord]
) -> tuple[ReleaseDataset, int]:
    """Mark snapshot lines touched by bug-fixing commits as defective.

    A snapshot line is defective iff some bug-fixing commit modified or
    deleted it and it appears in the release snapshot (resolved by path plus
    pre-change line identity; content matching absorbs line-number drift).
    A file is defective iff it contains at least one defective line. Changes
    to files absent from the snapshot are ignored (added after the release);
    renames are not chased. Returns the labeled dataset and the number of
    changed lines that could not be resolved.
    """
    by_path = {f.path: f for f in snapshot.files}
    defective: dict[str, set[int]] = {}
    unresolved = 0
    for commit in bugfix_commits:
        for change in commit.changes:
            file = by_path.get(change.path)
            if file is None:
                continue
            for removed in change.removed:
                number = _resolve_line(file, removed)
                if number is None:
                    unresolved += 1
                else:
                    defective.setdefault(change.path, set()).add(number)

    files = []
    for f in snapshot.files:
        hits = defective.get(f.path, set())
        labels = np.zeros(len(f.lines), dtype=np.bool_)
        labels[[number - 1 for number in hits]] = True
        files.append(
            SourceFile(release_id=f.release_id, path=f.path, lines=f.lines.with_labels(labels), file_label=bool(hits))
        )
    return ReleaseDataset(snapshot.release_id, snapshot.release_date, tuple(files)), unresolved

