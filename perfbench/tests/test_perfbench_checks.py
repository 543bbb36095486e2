import csv

import pytest

import checks

TRUTH = {("A.java", 1): True, ("A.java", 2): False, ("B.java", 1): False, ("B.java", 2): True}
ROWS = [
    # rank, path, line, hits, score, prob
    (1, "A.java", 1, 2, "0.9", "0.8"),
    (2, "B.java", 2, 1, "0.7", "0.9"),
    (3, "A.java", 2, 1, "0.7", "0.8"),
]


def write(path, rows):
    with open(path, "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(checks.RANKED_COLUMNS)
        for rank, p, line, hits, score, prob in rows:
            w.writerow((rank, "r", p, line, hits, score, prob))
    return path


def test_valid_ranking_passes(tmp_path):
    assert checks.check_ranked(write(tmp_path / "ok.csv", ROWS), "linedp", set(TRUTH)) == []


def test_swapped_ranks_rejected(tmp_path):
    rows = [ROWS[1][:1] + ROWS[0][1:], ROWS[0][:1] + ROWS[1][1:], ROWS[2]]
    problems = checks.check_ranked(write(tmp_path / "swap.csv", rows), "linedp", set(TRUTH))
    assert any("ranks are not" in p for p in problems)


def test_rows_out_of_order_rejected(tmp_path):
    rows = [(1,) + ROWS[1][1:], (2,) + ROWS[0][1:], ROWS[2]]
    problems = checks.check_ranked(write(tmp_path / "order.csv", rows), "tmi_lr", set(TRUTH))
    assert any("out of the" in p for p in problems)


def test_line_absent_from_release_rejected(tmp_path):
    rows = ROWS + [(4, "A.java", 99, 1, "0.1", "0.8")]
    problems = checks.check_ranked(write(tmp_path / "absent.csv", rows), "random", set(TRUTH))
    assert any("not in the test release" in p for p in problems)


def test_duplicate_line_rejected(tmp_path):
    rows = ROWS + [(4,) + ROWS[2][1:]]
    problems = checks.check_ranked(write(tmp_path / "dup.csv", rows), "random", set(TRUTH))
    assert any("ranked twice" in p for p in problems)


def test_linedp_needs_defect_prone_files(tmp_path):
    rows = ROWS[:2] + [(3, "A.java", 2, 1, "0.7", "0.5")]
    problems = checks.check_ranked(write(tmp_path / "p.csv", rows), "linedp", set(TRUTH))
    assert any("probability <= 0.5" in p for p in problems)


def test_ngram_rows_above_threshold(tmp_path):
    rows = [(1, "A.java", 1, 0, "3.5", "0"), (2, "B.java", 1, 0, "1.5", "0")]
    path = write(tmp_path / "ng.csv", rows)
    assert checks.check_ranked(path, "ngram", set(TRUTH), threshold=1.0) == []
    assert any("threshold" in p for p in checks.check_ranked(path, "ngram", set(TRUTH), threshold=2.0))


def test_d2h_of_matches_definition():
    # tp=1 (A1), fn=1 (B2), fp=1 (A2), tn=1 (B1): recall 0.5, far 0.5
    assert checks.d2h_of({("A.java", 1), ("A.java", 2)}, TRUTH) == pytest.approx(0.5)
    assert checks.d2h_of({("A.java", 1), ("B.java", 2)}, TRUTH) == 0.0


def test_digest_changes_with_any_byte(tmp_path):
    a = write(tmp_path / "a.csv", ROWS)
    before = checks.digest([a])
    write(a, ROWS[:2])
    assert checks.digest([a]) != before


def write_evaluation(out, rows, stats=True):
    with open(out / "metrics.csv", "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(checks.METRICS_COLUMNS)
        for method, unit, d2h in rows:
            w.writerow(("within", method, unit, "1", "0", d2h, "0.5", "1", "0"))
    with open(out / "stats.csv", "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(checks.STATS_COLUMNS)
        if stats:
            w.writerow(("within", "d2h", "ngram", "-10", "0.5", "0.1", "small"))


def test_evaluation_outputs_checked(tmp_path):
    rows = [(m, u, "0.25") for m in ("linedp", "ngram") for u in ("r:f0", "r:f1")]
    write_evaluation(tmp_path, rows)
    assert checks.check_evaluation(tmp_path, ("linedp", "ngram"), units=2) == ([], {"linedp": 0.25, "ngram": 0.25})

    write_evaluation(tmp_path, rows[:3] + [("ngram", "r:f1", "1.5")])
    problems, _ = checks.check_evaluation(tmp_path, ("linedp", "ngram"), units=2)
    assert any("out of [0, 1]" in p for p in problems)

    write_evaluation(tmp_path, rows[:3], stats=False)
    problems, _ = checks.check_evaluation(tmp_path, ("linedp", "ngram"), units=2)
    assert any("ngram has 1 rows" in p for p in problems) and "stats.csv: no rows" in problems
