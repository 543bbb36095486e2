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
# a ranking is five columns, one row per flagged line in rank order; its files index test.files
top = result.ranked.take(slice(10))
rows = zip(top.files.tolist(), top.lines.tolist(), top.hits.tolist(), top.scores.tolist())
for rank, (file_index, number, hits, score) in enumerate(rows, start=1):
    f = test.files[file_index]
    actual = "DEFECTIVE" if f.lines[number - 1].is_defective else "clean"
    print(f"  #{rank:<3} {f.path}:{number:<4} hits={hits} score={score:.3f} [{actual}]")

print("\n== the six evaluation measures for this run ==")
report = evaluate_ranking("linedp", test.release_id, result.ranked, test, result.file_probabilities)
print(f"  recall            {report.recall:.3f}")
print(f"  false alarm rate  {report.far:.3f}")
print(f"  distance to heaven{report.d2h: .3f}")
print(f"  MCC               {report.mcc:.3f}")
print(f"  recall@top20%LOC  {report.recall_top20loc:.3f}")
print(f"  initial false alarm {report.ifa}")
