"""Mining a line-level defect dataset from commit history and bug reports.

Fabricates a tiny release snapshot plus a commit export, matches bug report
ids in commit messages (whole-token, never keyword search), maps the
pre-change lines touched by those commits back onto the snapshot, and
exports the labeled dataset in the canonical CSV schema.
"""

import json
import tempfile
from datetime import date
from pathlib import Path

from linedefects import load_dataset
from linedefects.corpus import LineRecord, ReleaseDataset, SourceFile, write_dataset
from linedefects.miner import (
    find_bugfix_commits,
    label_defective_lines,
    load_commit_export,
    load_issue_keys,
)

snapshot_lines = [
    "public void init(Config config) {",
    "    this.config = config;",
    "    runtime.getErr().print(msg);",
    "    cache.invalidate();",
    "}",
]
snapshot = ReleaseDataset(
    release_id="demo-1.0",
    release_date=date(2024, 1, 1),
    files=(
        SourceFile(
            release_id="demo-1.0",
            path="src/Service.java",
            lines=tuple(LineRecord(i, c, False) for i, c in enumerate(snapshot_lines, 1)),
            file_label=False,
        ),
    ),
)

commits = [
    {"commit_id": "a1", "message": "DEMO-7: fix stderr spam on init",
     "changes": [{"path": "src/Service.java",
                  "removed": [{"line": 3, "content": "    runtime.getErr().print(msg);"}]}]},
    {"commit_id": "b2", "message": "DEMO-77 refactor",  # different report, token-bounded match
     "changes": [{"path": "src/Other.java",
                  "removed": [{"line": 1, "content": "gone"}]}]},
    {"commit_id": "c3", "message": "general cleanup, no report id",
     "changes": [{"path": "src/Service.java",
                  "removed": [{"line": 4, "content": "    cache.invalidate();"}]}]},
]
with tempfile.TemporaryDirectory(prefix="mine-demo-") as tmp:
    workdir = Path(tmp)
    (workdir / "commits.jsonl").write_text("\n".join(json.dumps(c) for c in commits))
    (workdir / "issues.txt").write_text("DEMO-7\n")

    loaded_commits = load_commit_export(workdir / "commits.jsonl")
    issues = load_issue_keys(workdir / "issues.txt")
    bugfix = find_bugfix_commits(loaded_commits, issues)
    print(f"{len(loaded_commits)} commits, {len(bugfix)} reference a bug report id:")
    for c in bugfix:
        print(f"  {c.commit_id}: {c.message}")

    labeled, unresolved = label_defective_lines(snapshot, bugfix)
    print(f"\nunresolved changed lines: {unresolved}")
    for f in labeled.files:
        print(f"{f.path} (file_label={f.file_label}):")
        for line in f.lines:
            mark = "*" if line.is_defective else " "
            print(f"  {mark} {line.number}: {line.content}")

    out = workdir / "demo-dataset.csv"
    meta = workdir / "demo-releases.csv"
    write_dataset([labeled], out, meta)
    (reloaded,) = load_dataset(out, meta)
    print(f"\nexported to {out} and reloaded: round-trip equal = {reloaded == labeled}")
