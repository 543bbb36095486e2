"""End-to-end line ranking on a corpus with planted risky tokens.

Runs the whole pipeline (vocabulary -> file model -> per-file explanation ->
risky tokens -> flagged lines -> global ranking) and checks how well the
top of the ranking concentrates the actually defective lines.
"""

from linedefects import run_linedp
from linedefects.config import RunConfig
from linedefects.evaluation import evaluate_ranking
from linedefects.synthetic import PLANTED_TOKENS, make_release_series

train, test = make_release_series(system="demo", n_releases=2, seed=42)
config = RunConfig(seed=7, lime_n=1000)

print(f"planted risky tokens: {PLANTED_TOKENS}")
result = run_linedp(train, test, config)
defect_prone = sum(1 for p in result.file_probabilities.values() if p > 0.5)
print(f"{defect_prone} files predicted defect-prone, {len(result.ranked)} lines flagged")

print("\n== top of the global ranking ==")
truth = {(f.path, l.number): l.is_defective for f in test.files for l in f.lines}
for rank, line in enumerate(result.ranked[:10], start=1):
    actual = "DEFECTIVE" if truth[(line.file_path, line.line_number)] else "clean"
    print(
        f"  #{rank:<3} {line.file_path}:{line.line_number:<4} "
        f"hits={line.hit_count} score={line.score_sum:.3f} [{actual}]"
    )

print("\n== the six evaluation measures for this run ==")
report = evaluate_ranking("linedp", test.release_id, result.ranked, test, result.file_probabilities)
print(f"  recall            {report.recall:.3f}")
print(f"  false alarm rate  {report.far:.3f}")
print(f"  distance to heaven{report.d2h: .3f}")
print(f"  MCC               {report.mcc:.3f}")
print(f"  recall@top20%LOC  {report.recall_top20loc:.3f}")
print(f"  initial false alarm {report.ifa}")
