"""File-level logistic defect model and its standardized-coefficient variant.

The trainer minimizes the L2-regularized logistic loss

    f(w, b) = sum_i [log(1 + exp(z_i)) - y_i z_i] + L2_LAMBDA / 2 * ||w||^2,  z = X w + b,

with the intercept ``b`` not penalized, starting from zero weights. The
solver is the truncated-Newton trust-region method of Lin, Weng & Keerthi,
"Trust region Newton method for large-scale logistic regression" (JMLR
2008), as scipy's ``minimize(method="trust-ncg")``: conjugate-gradient
steps that only need Hessian-vector products, which are two sparse
matrix-vector products, so the design is never densified. The procedure is
deterministic: identical inputs give bitwise-identical weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, get_type_hints

import numpy as np

from .corpus import Vocabulary
from .util import atomic_write_text, decode_utf8

if TYPE_CHECKING:
    import scipy.sparse as sp

MODEL_FORMAT_VERSION = 1

L2_LAMBDA = 1.0
MAX_ITERS = 1000
TOLERANCE = 1e-6

_PROB_EPS = 1e-12

# train_meta keys of format-1 documents that recorded the old trainer's settings
_LEGACY_META_KEYS = frozenset({"l2_lambda", "max_iters", "tolerance", "seed"})


def _is_json(value, kind: type) -> bool:
    """Whether a decoded JSON value is of ``kind``; a float may be written as an integer, and a bool is neither."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True)
class TrainMeta:
    iterations: int
    converged: bool
    final_grad_norm: float


# each train_meta field's type, which a loaded document must match
_META_TYPES = get_type_hints(TrainMeta)


@dataclass(frozen=True, eq=False)
class LogisticModel:
    weights: np.ndarray
    bias: float
    vocab: Vocabulary  # the training tokens; weight i belongs to vocab.tokens[i]
    train_meta: TrainMeta


def _loss_and_gradient(
    theta: np.ndarray, X: sp.csr_matrix, XT: sp.spmatrix, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """The objective and its gradient at ``theta = (w, b)``; ``XT`` is ``X.T``."""
    from scipy.special import expit

    w, b = theta[:-1], theta[-1]
    z = X @ w + b
    # log(1 + e^z) - y*z, computed stably
    loss = np.logaddexp(0.0, z) - y * z
    r = expit(z) - y
    grad = np.empty_like(theta)
    grad[:-1] = XT @ r + L2_LAMBDA * w
    grad[-1] = r.sum()
    return float(loss.sum() + 0.5 * L2_LAMBDA * (w @ w)), grad


class _HessianProduct:
    """``hessp`` for trust-ncg: the objective's Hessian at ``theta`` times ``v``.

    ``[X 1]' D [X 1] v + L2_LAMBDA * (v_w, 0)`` with ``D = diag(mu (1 - mu))``.
    trust-ncg takes many conjugate-gradient steps per iterate, all at the same
    ``theta``, so ``D`` is computed once per distinct ``theta`` and reused. One
    instance serves one design. The transpose ``XT`` and the labels come from
    the loss's ``args``, which scipy passes here too; the labels do not enter
    the Hessian.
    """

    def __init__(self) -> None:
        self._theta: np.ndarray | None = None
        self._curvature: np.ndarray | None = None

    def __call__(
        self, theta: np.ndarray, v: np.ndarray, X: sp.csr_matrix, XT: sp.spmatrix, y: np.ndarray
    ) -> np.ndarray:
        if self._theta is None or not np.array_equal(theta, self._theta):
            from scipy.special import expit

            mu = expit(X @ theta[:-1] + theta[-1])
            self._theta, self._curvature = theta.copy(), mu * (1.0 - mu)
        u = self._curvature * (X @ v[:-1] + v[-1])
        hv = np.empty_like(v)
        hv[:-1] = XT @ u + L2_LAMBDA * v[:-1]
        hv[-1] = u.sum()
        return hv


def _minimize(X: sp.csr_matrix, y: np.ndarray) -> tuple[np.ndarray, TrainMeta]:
    from scipy.optimize import minimize

    result = minimize(
        _loss_and_gradient,
        np.zeros(X.shape[1] + 1),
        # one transpose per fit; every loss and Hessian-product call reuses it
        args=(X, X.T, y),
        method="trust-ncg",
        jac=True,
        hessp=_HessianProduct(),
        options={"gtol": TOLERANCE, "maxiter": MAX_ITERS},
    )
    grad_norm = float(np.linalg.norm(result.jac))
    meta = TrainMeta(iterations=int(result.nit), converged=grad_norm <= TOLERANCE, final_grad_norm=grad_norm)
    return result.x, meta


def _validate_labels(n_samples: int, y: np.ndarray) -> None:
    if n_samples != y.shape[0]:
        raise ValueError("feature/label lengths differ")
    if n_samples < 2:
        raise ValueError("need at least two training samples")
    if y.min() == y.max():
        raise ValueError("training labels contain a single class")


def train_logistic(X: sp.csr_matrix, y: list[bool], vocab: Vocabulary) -> LogisticModel:
    """Fit the L2-regularized logistic model on raw token counts, a row of ``X`` per file and a column per token."""
    if X.shape[1] != len(vocab):
        raise ValueError(f"feature dimension {X.shape[1]} does not match vocabulary size {len(vocab)}")
    labels = np.asarray(y, dtype=np.float64)
    _validate_labels(X.shape[0], labels)
    theta, meta = _minimize(X, labels)
    return LogisticModel(weights=theta[:-1], bias=float(theta[-1]), vocab=vocab, train_meta=meta)


def predict_proba(model: LogisticModel, X: sp.csr_matrix) -> np.ndarray:
    """Defect probability of each file, one per row of ``X``; strictly inside (0, 1).

    Each logit is accumulated one term at a time, bias first, then the
    row's vocabulary indices in ascending order, so a file's probability
    does not depend on the other rows.
    """
    from scipy.special import expit

    if X.shape[1] != len(model.vocab):
        raise ValueError(f"feature dimension {X.shape[1]} does not match model dimension {len(model.vocab)}")
    terms = model.weights[X.indices] * X.data
    # cumsum adds in sequence (a sum may add pairwise), so its last entry is the running sum
    z = np.array(
        [np.cumsum(np.r_[model.bias, terms[start:end]])[-1] for start, end in zip(X.indptr[:-1], X.indptr[1:])]
    )
    return np.clip(expit(z), _PROB_EPS, 1.0 - _PROB_EPS)


def standardized_coefficients(X: sp.csr_matrix, y: list[bool]) -> tuple[np.ndarray, TrainMeta]:
    """Coefficients of the same logistic trainer fitted on z-scored features, and the fit's meta.

    Standardized coefficients are unit-free, so their magnitudes are
    comparable across token features; the positive ones mark globally risky
    tokens. Only the scaling is applied: the intercept is not penalized, so
    centring a column would only shift the intercept and leaves the optimal
    weights unchanged. Constant columns have zero std and are divided by 1.
    """
    import scipy.sparse as sp

    labels = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    _validate_labels(n, labels)
    # Integer counts keep n * sum(x^2) - sum(x)^2 exact, so a constant column gets
    # std 0, not a round-off residue that would turn it into a huge second intercept.
    sums = np.asarray(X.sum(axis=0)).ravel()
    square_sums = np.asarray(X.multiply(X).sum(axis=0)).ravel()
    std = np.sqrt(np.maximum(n * square_sums - sums**2, 0.0)) / n
    std[std == 0.0] = 1.0
    theta, meta = _minimize(X @ sp.diags(1.0 / std), labels)
    return theta[:-1], meta


def save_model(model: LogisticModel, path: str | Path) -> None:
    """Persist a model and its vocabulary as a versioned JSON document; a non-finite weight or bias is refused."""
    if not (np.isfinite(model.weights).all() and np.isfinite(model.bias)):
        raise ValueError(f"{path}: refusing to save a model with a non-finite weight or bias")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "tokens": model.vocab.tokens,
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "train_meta": asdict(model.train_meta),
        "vocab_fingerprint": model.vocab.fingerprint(),
    }
    atomic_write_text(path, json.dumps(doc))


def load_model(path: str | Path) -> LogisticModel:
    """Load a persisted model, validating its structure, format version and vocabulary hash.

    Any malformed document raises ``ValueError`` naming ``path``, bad or
    too deeply nested JSON included: the weights and bias must be finite
    JSON numbers, and each ``train_meta`` field must have its type.
    Format-1 documents written by the earlier gradient-loop trainer carry
    its four settings in ``train_meta`` as well; they are ignored.
    """
    try:
        doc = json.loads(decode_utf8(Path(path).read_bytes(), path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model document is not a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {version!r}")
    missing = [key for key in ("tokens", "weights", "bias", "train_meta", "vocab_fingerprint") if key not in doc]
    if missing:
        raise ValueError(f"{path}: model document lacks {', '.join(missing)}")
    meta = doc["train_meta"]
    meta_keys = {f.name for f in fields(TrainMeta)}
    if not isinstance(meta, dict) or not meta_keys <= meta.keys() <= meta_keys | _LEGACY_META_KEYS:
        raise ValueError(f"{path}: train_meta must hold the keys {sorted(meta_keys)}")
    train_meta = {key: meta[key] for key in meta_keys}
    for key, kind in _META_TYPES.items():
        if not _is_json(train_meta[key], kind):
            raise ValueError(f"{path}: train_meta {key} must be of type {kind.__name__}, got {train_meta[key]!r}")
    tokens, numbers, bias = doc["tokens"], doc["weights"], doc["bias"]
    if not (isinstance(tokens, list) and all(isinstance(token, str) for token in tokens)):
        raise ValueError(f"{path}: tokens must be a list of strings")
    if not (isinstance(numbers, list) and all(_is_json(w, float) for w in numbers) and _is_json(bias, float)):
        raise ValueError(f"{path}: weights must be a list of numbers and bias a number")
    weights, bias = np.array(numbers, dtype=np.float64), float(bias)
    if not (np.isfinite(weights).all() and np.isfinite(bias)):
        raise ValueError(f"{path}: the model has a non-finite weight or bias")
    vocab = Vocabulary(tuple(tokens))
    if vocab.fingerprint() != doc["vocab_fingerprint"]:
        raise ValueError(f"{path}: vocabulary hash does not match the stored token list")
    if len(vocab.token_to_index) != len(vocab):
        raise ValueError(f"{path}: the stored token list repeats a token")
    if weights.shape != (len(vocab),):
        raise ValueError(f"{path}: weight vector length does not match vocabulary size")
    return LogisticModel(weights=weights, bias=bias, vocab=vocab, train_meta=TrainMeta(**train_meta))
