"""Validation protocols, paired statistics, and the sensitivity sweeps.

Within-release: repeated stratified cross validation inside one release.
Cross-release: train on release k-1, test on release k. Both aggregate the
six measures and compare the pipeline against each baseline with a
one-sided Wilcoxon signed-rank test and the r = Z/sqrt(n) effect size.
Small budgets keep this demo quick; defaults are folds=10, repeats=10.
"""

from linedefects.config import RunConfig
from linedefects.experiments import (
    cross_release_eval,
    sensitivity_entropy_threshold,
    sensitivity_k,
    within_release_eval,
)
from linedefects.synthetic import make_release_series

releases = make_release_series(system="demo", n_releases=3, seed=11, n_files=30, n_defective=10)
config = RunConfig(seed=0, lime_n=300, lime_k_features=20, folds=3, repeats=1)

print("== cross-release evaluation (2 consecutive pairs) ==")
output = cross_release_eval(releases, ("linedp", "random", "ngram"), config)
for rep in output.reports:
    print(
        f"  {rep.unit_id:22} {rep.method:7} recall={rep.recall:.3f} far={rep.far:.3f} d2h={rep.d2h:.3f}"
    )
print("stats (linedp vs baseline):")
for row in output.stats:
    if row["metric"] in ("recall", "d2h"):
        p = "---" if row["p_value"] is None else f"{row['p_value']:.3f}"
        print(f"  {row['metric']:7} vs {row['baseline']:7} diff={row['pct_diff']:+8.1f}%  p={p}")

print("\n== within-release evaluation (3 folds x 1 repeat, first release) ==")
output = within_release_eval(releases[:1], ("linedp", "ngram"), config)
for rep in output.reports:
    print(f"  {rep.unit_id:16} {rep.method:7} recall={rep.recall:.3f} far={rep.far:.3f}")

print("\n== sensitivity to the risky-token budget k ==")
rows = sensitivity_k(releases[0], releases[1], k_grid=(10, 20, 50, 100, 200), config=config)
for row in rows:
    print(f"  k={row['k']:<4} recall={row['recall']:.3f} far={row['far']:.3f} d2h={row['d2h']:.3f}")

print("\n== sensitivity to the entropy threshold (0.1 .. 2.0) ==")
rows = sensitivity_entropy_threshold(releases[0], releases[1])
for row in rows[::4]:
    print(f"  t={row['threshold']:<4} recall={row['recall']:.3f} far={row['far']:.3f} d2h={row['d2h']:.3f}")
