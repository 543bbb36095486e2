"""Tokenization, vocabularies, and bag-of-tokens features.

Walks the representation layer: how source lines become tokens, how the
training vocabulary drops singleton tokens, and how files turn into sparse
count vectors.
"""

import numpy as np

from linedefects import FeatureVector, build_vocabulary, defect_density, tokenize, vectorize
from linedefects.synthetic import make_planted_release

print("== tokenize ==")
for line in (
    "runtime.getErr().print(msg);",
    "Node node = new Node(buf_2);",
    "",
):
    print(f"{line!r:45} -> {tokenize(line)}")

print("\n== vocabulary over a small release ==")
release = make_planted_release("demo-1.0", seed=1, n_files=8, n_defective=3)
vocab = build_vocabulary(release)
table = release.token_table
print(f"token table: {table.file_ptr[-1]} lines tokenised once, {len(table.ids)} tokens, {len(table.tokens)} distinct")
print(f"{len(release.files)} files, vocabulary size {len(vocab)}")
print("first tokens by index:", vocab.tokens[:8])
counts = dict(zip(table.tokens, np.bincount(table.ids, minlength=len(table.tokens)).tolist()))
rare = sorted(((token, counts[token]) for token in vocab.tokens), key=lambda kv: kv[1])[:3]
print("least frequent retained tokens:", rare)

print("\n== sparse feature vectors ==")
X = vectorize(release, vocab)
print(f"design: {X.shape[0]} files x {X.shape[1]} tokens, {X.nnz} non-zero counts")
some_file = release.files[0]
fv = FeatureVector.from_row(X, 0)
print(f"{some_file.path}: {len(fv.entries)} distinct in-vocabulary tokens, {sum(fv.entries.values())} occurrences")
top = sorted(fv.entries.items(), key=lambda kv: -kv[1])[:5]
print("most frequent:", [(vocab.tokens[i], c) for i, c in top])

print("\n== defect density ==")
for f in release.files:
    if f.file_label:
        print(f"{f.path}: {defect_density(f):.3f} of its lines are defective")
