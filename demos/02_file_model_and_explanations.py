"""The file-level defect model and a local explanation of one prediction.

Trains the L2-regularized logistic model on bag-of-tokens features, then
explains a predicted-defective file: perturbed neighbors, kernel weights,
and the sparse surrogate whose positive coefficients mark risky tokens.
"""

from linedefects import FeatureVector, RiskyTokenSet, explain, predict_proba, vectorize
from linedefects.config import RunConfig
from linedefects.pipeline import train_file_model
from linedefects.synthetic import make_release_series

train, test = make_release_series(system="demo", n_releases=2, seed=3, n_files=30, n_defective=10)
config = RunConfig(seed=0, lime_n=2000)

model = train_file_model(train)
meta = model.train_meta
print(f"trained on {len(train.files)} files, |V| = {len(model.vocab)}")
print(f"optimizer: {meta.iterations} iterations, converged={meta.converged}, |grad|={meta.final_grad_norm:.2e}")

print("\n== file-level predictions on the next release ==")
X = vectorize(test, model.vocab)
scored = sorted(zip(predict_proba(model, X).tolist(), range(len(test.files))), key=lambda pair: -pair[0])
for p, i in scored[:5]:
    f = test.files[i]
    marker = "defective" if f.file_label else "clean"
    print(f"  p={p:.3f}  {f.path}  (actually {marker})")

print("\n== explaining the most defect-prone file ==")
prob, target_index = scored[0]
target = test.files[target_index]
expl = explain(
    model,
    FeatureVector.from_row(X, target_index),
    n=config.lime_n,
    k=config.lime_k_features,
    kernel_width=config.lime_sigma,
    seed=config.seed,
)
print(f"{target.path}: p={prob:.3f}, surrogate R^2 = {expl.fidelity_r2:.3f}")
for token, score in sorted(expl.scores.items(), key=lambda kv: -kv[1])[:8]:
    print(f"  {token:20} {score:+.4f}")

risky = RiskyTokenSet.top_positive(expl.scores.items(), 10)
print("\nrisky tokens (positive scores, top 10):", [t for t, _ in risky.tokens])
