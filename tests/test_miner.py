from __future__ import annotations

import json

import pytest

from linedefects.corpus import load_dataset, write_dataset
from linedefects.miner import (
    CommitRecord,
    FileChange,
    IssueKeySet,
    RemovedLine,
    find_bugfix_commits,
    label_defective_lines,
    load_commit_export,
    load_issue_keys,
)

from conftest import defective_line_numbers, file_at, release_of_files


def commit(commit_id, message, changes=()):
    return CommitRecord(commit_id=commit_id, message=message, changes=tuple(changes))


def change(path, *removed):
    return FileChange(path=path, removed=tuple(RemovedLine(line=l, content=c) for l, c in removed))


class TestFindBugfixCommits:
    def test_whole_token_match(self):
        commits = [commit("c1", "Fix AMQ-123 regression")]
        issues = IssueKeySet(bug_ids=frozenset({"AMQ-123"}))
        assert find_bugfix_commits(commits, issues) == commits

    def test_boundary_prevents_prefix_match(self):
        commits = [commit("c1", "Work on AMQ-1234"), commit("c2", "xAMQ-123 internal")]
        issues = IssueKeySet(bug_ids=frozenset({"AMQ-123"}))
        assert find_bugfix_commits(commits, issues) == []

    def test_punctuation_boundaries_accepted(self):
        commits = [commit("c1", "revert (AMQ-123)."), commit("c2", "see AMQ-123: details")]
        issues = IssueKeySet(bug_ids=frozenset({"AMQ-123"}))
        assert len(find_bugfix_commits(commits, issues)) == 2

    def test_no_keyword_matching(self):
        commits = [commit("c1", "fix a nasty bug"), commit("c2", "defect repair")]
        issues = IssueKeySet(bug_ids=frozenset({"AMQ-9"}))
        assert find_bugfix_commits(commits, issues) == []

    def test_empty_issue_set_rejected(self):
        with pytest.raises(ValueError):
            IssueKeySet(bug_ids=frozenset())

    def test_bad_identifier_rejected(self):
        with pytest.raises(ValueError, match="KEY"):
            IssueKeySet(bug_ids=frozenset({"not an id"}))


def snapshot():
    return release_of_files(
        "rel-1.0",
        {
            "src/F.java": [(f"line number {i};", False) for i in range(1, 21)],
            "src/G.java": [("alpha;", False), ("beta;", False), ("gamma;", False)],
        },
    )


class TestLabelDefectiveLines:
    def test_deleted_line_marks_file_defective(self):
        commits = [commit("c1", "AMQ-1", [change("src/F.java", (10, "line number 10;"))])]
        labeled, unresolved = label_defective_lines(snapshot(), commits)
        assert unresolved == 0
        f = file_at(labeled, "src/F.java")
        assert defective_line_numbers(f) == {10}
        assert f.file_label
        assert not file_at(labeled, "src/G.java").file_label

    def test_adds_only_commit_contributes_nothing(self):
        commits = [commit("c1", "AMQ-1", [FileChange(path="src/F.java", removed=())])]
        labeled, unresolved = label_defective_lines(snapshot(), commits)
        assert all(not f.file_label for f in labeled.files)
        assert unresolved == 0

    def test_no_commits_all_clean(self):
        labeled, _ = label_defective_lines(snapshot(), [])
        assert all(not f.file_label for f in labeled.files)

    def test_drifted_line_resolved_by_content_within_window(self):
        # the fix saw the line at 14, the release snapshot has it at 10
        commits = [commit("c1", "AMQ-1", [change("src/F.java", (14, "line number 10;"))])]
        labeled, unresolved = label_defective_lines(snapshot(), commits)
        assert unresolved == 0
        assert defective_line_numbers(file_at(labeled, "src/F.java")) == {10}

    def test_drift_beyond_window_dropped_with_count(self):
        commits = [commit("c1", "AMQ-1", [change("src/G.java", (60, "alpha;"))])]
        labeled, unresolved = label_defective_lines(snapshot(), commits)
        assert unresolved == 1
        assert all(not f.file_label for f in labeled.files)

    def test_file_absent_from_snapshot_ignored(self):
        commits = [commit("c1", "AMQ-1", [change("src/New.java", (1, "anything"))])]
        labeled, unresolved = label_defective_lines(snapshot(), commits)
        assert all(not f.file_label for f in labeled.files)
        assert unresolved == 0

    def test_nearest_content_match_wins(self):
        release = release_of_files(
            "r", {"A.java": [("dup;", False), ("x;", False), ("dup;", False), ("y;", False)]}
        )
        commits = [commit("c1", "K-1", [change("A.java", (4, "dup;"))])]
        labeled, _ = label_defective_lines(release, commits)
        assert defective_line_numbers(file_at(labeled, "A.java")) == {3}

    def test_union_over_commits(self):
        commits = [
            commit("c1", "AMQ-1", [change("src/F.java", (2, "line number 2;"))]),
            commit("c2", "AMQ-2", [change("src/F.java", (5, "line number 5;"))]),
            commit("c3", "unrelated", [change("src/F.java", (9, "line number 9;"))]),
        ]
        issues = IssueKeySet(bug_ids=frozenset({"AMQ-1", "AMQ-2"}))
        bugfix = find_bugfix_commits(commits, issues)
        labeled, _ = label_defective_lines(snapshot(), bugfix)
        assert defective_line_numbers(file_at(labeled, "src/F.java")) == {2, 5}


class TestExportAndParsing:
    def test_export_round_trip(self, tmp_path):
        commits = [commit("c1", "AMQ-1", [change("src/F.java", (10, "line number 10;"))])]
        labeled, _ = label_defective_lines(snapshot(), commits)
        out = tmp_path / "mined.csv"
        meta = tmp_path / "releases.csv"
        write_dataset([labeled], out, meta)
        (loaded,) = load_dataset(out, meta)
        assert loaded == labeled

    def test_export_deterministic(self, tmp_path):
        labeled, _ = label_defective_lines(snapshot(), [])
        write_dataset([labeled], tmp_path / "a.csv")
        write_dataset([labeled], tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_jsonl_round_trip(self, tmp_path):
        docs = [
            {
                "commit_id": "abc",
                "message": "Fix AMQ-7",
                "changes": [
                    {"path": "src\\F.java", "removed": [{"line": 3, "content": "x = y;"}]}
                ],
            },
            {"commit_id": "def", "message": "docs only", "changes": []},
        ]
        path = tmp_path / "commits.jsonl"
        path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
        commits = load_commit_export(path)
        assert commits[0].commit_id == "abc"
        assert commits[0].changes[0].path == "src/F.java"  # normalized separators
        assert commits[0].changes[0].removed[0] == RemovedLine(line=3, content="x = y;")
        assert commits[1].changes == ()

    def test_bad_jsonl_rejected(self, tmp_path):
        path = tmp_path / "commits.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="bad JSON"):
            load_commit_export(path)

    def test_issue_key_file(self, tmp_path):
        path = tmp_path / "issues.txt"
        path.write_text("AMQ-1\nAMQ-23\n\n")
        issues = load_issue_keys(path)
        assert issues.bug_ids == frozenset({"AMQ-1", "AMQ-23"})
