"""The three baselines against the explanation-based pipeline on one split.

Random guessing reuses the file-level model's prediction but scores tokens
uniformly at random; TMI-LR applies one global standardized-coefficient
risky set to all files; the n-gram baseline flags lines whose mean token
surprisal exceeds a threshold. All emit the same `Ranking` (flagged lines of the test release in
rank order), so one evaluator compares them.
"""

from linedefects.baselines import ngram_entropy_baseline, random_baseline, tmi_lr_baseline
from linedefects.config import RunConfig
from linedefects.evaluation import evaluate_ranking
from linedefects.pipeline import identify_lines, predict_files, train_file_model
from linedefects.synthetic import make_release_series

train, test = make_release_series(system="demo", n_releases=2, seed=9)
config = RunConfig(seed=1, lime_n=1000)

model = train_file_model(train)
predicted = predict_files(model, test)  # one file-level prediction, shared by the three model-based methods
results = [
    identify_lines(model, test, predicted, config),
    random_baseline(test, model.vocab, predicted, k_risky=config.k_risky, seed=config.seed),
    tmi_lr_baseline(train, test, model.vocab, predicted, k_risky=config.k_risky),
    ngram_entropy_baseline(train, test, threshold=config.entropy_threshold_cross),
]

print(f"{'method':8} {'recall':>7} {'FAR':>7} {'d2h':>7} {'MCC':>7} {'top20%':>7} {'IFA':>5} {'lines':>6}")
for result in results:
    rep = evaluate_ranking(result.method, test.release_id, result.ranked, test, result.file_probabilities)
    fmt = lambda v: "  --- " if v is None else f"{v:7.3f}"
    print(
        f"{result.method:8}{fmt(rep.recall)}{fmt(rep.far)}{fmt(rep.d2h)}{fmt(rep.mcc)}"
        f"{fmt(rep.recall_top20loc)} {rep.ifa if rep.ifa is not None else '---':>5} {len(result.ranked):>6}"
    )

print("\nTMI-LR's single global risky set (same for every file):")
tmi = results[2]
print("  ", [t for t, _ in tmi.risky_tokens["*"].tokens][:10])
