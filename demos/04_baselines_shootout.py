"""The three baselines against the explanation-based pipeline on one split.

Random guessing reuses the file-level model but scores tokens uniformly at
random; TMI-LR applies one global standardized-coefficient risky set to all
files; the n-gram baseline flags lines whose mean token surprisal exceeds a
threshold. All emit the same ranked-line records, so one evaluator compares
them.
"""

from linedefects.baselines import ngram_entropy_baseline, random_baseline, tmi_lr_baseline
from linedefects.config import RunConfig
from linedefects.evaluation import evaluate_ranking
from linedefects.pipeline import identify_lines, train_file_model
from linedefects.synthetic import make_release_series

train, test = make_release_series(system="demo", n_releases=2, seed=9)
config = RunConfig(seed=1, lime_n=1000)

model, vocab = train_file_model(train)
results = [
    identify_lines(model, vocab, test, config),
    random_baseline(test, model, vocab, k_risky=config.k_risky, seed=config.seed),
    tmi_lr_baseline(train, test, model, vocab, k_risky=config.k_risky),
    ngram_entropy_baseline(train, test, threshold=config.entropy_threshold_cross),
]

print(f"{'method':8} {'recall':>7} {'FAR':>7} {'d2h':>7} {'MCC':>7} {'top20%':>7} {'IFA':>5} {'lines':>6}")
for result in results:
    rep = evaluate_ranking(result.method, test.release_id, result.ranked, test, result.file_probabilities)
    fmt = lambda v: "  --- " if v is None else f"{v:7.3f}"
    print(
        f"{result.method:8}{fmt(rep.recall)}{fmt(rep.far)}{fmt(rep.d2h)}{fmt(rep.mcc)}"
        f"{fmt(rep.recall_at_20pct_loc)} {rep.ifa if rep.ifa is not None else '---':>5} {len(result.ranked):>6}"
    )

print("\nTMI-LR's single global risky set (same for every file):")
tmi = results[2]
print("  ", [t for t, _ in tmi.risky_tokens["*"].tokens][:10])
