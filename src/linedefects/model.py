"""File-level logistic defect model and its standardized-coefficient variant.

The trainer minimizes the L2-regularized negative log-likelihood with
full-batch gradient descent (Barzilai-Borwein initial steps, Armijo
backtracking). Starting from zero weights the procedure is fully
deterministic: identical inputs give bitwise-identical weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .corpus import FeatureVector, Vocabulary
from .util import atomic_write_text

MODEL_FORMAT_VERSION = 1

_PROB_EPS = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    l2_lambda: float = 1.0
    max_iters: int = 1000
    tolerance: float = 1e-6
    seed: int = 0


@dataclass(frozen=True)
class TrainMeta:
    l2_lambda: float
    max_iters: int
    tolerance: float
    seed: int
    iterations: int
    converged: bool
    final_grad_norm: float


@dataclass(frozen=True, eq=False)
class LogisticModel:
    weights: np.ndarray
    bias: float
    vocab_fingerprint: str
    train_meta: TrainMeta

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]

    def check_vocab(self, vocab: Vocabulary) -> None:
        if vocab.fingerprint() != self.vocab_fingerprint:
            raise ValueError("vocabulary fingerprint does not match the model's training vocabulary")


def features_to_csr(features: list[FeatureVector]) -> sp.csr_matrix:
    """Stack sparse feature vectors into one CSR matrix."""
    if not features:
        raise ValueError("no feature vectors given")
    dim = features[0].dimension
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    for fv in features:
        if fv.dimension != dim:
            raise ValueError("feature vectors have mismatched dimensions")
        for idx, count in sorted(fv.entries.items()):
            indices.append(idx)
            data.append(count)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(features), dim),
    )


class _RawDesign:
    """Plain design matrix wrapper exposing matvec/rmatvec."""

    def __init__(self, X: sp.csr_matrix):
        self.X = X
        self.n_samples, self.n_features = X.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.X @ v

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        return self.X.T @ r


class _StandardizedDesign:
    """Z-scored design (X - mean) / std applied lazily, so sparse X is never densified.

    Constant columns have zero std and are divided by 1 instead.
    """

    def __init__(self, X: sp.csr_matrix):
        self.X = X
        self.mean = np.asarray(X.mean(axis=0)).ravel()
        mean_sq = np.asarray(X.multiply(X).mean(axis=0)).ravel()
        std = np.sqrt(np.maximum(mean_sq - self.mean**2, 0.0))
        std[std == 0.0] = 1.0
        self.inv_std = 1.0 / std
        self.n_samples, self.n_features = X.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        scaled = v * self.inv_std
        return self.X @ scaled - float(self.mean @ scaled)

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        return (self.X.T @ r - self.mean * r.sum()) * self.inv_std


def _objective(theta: np.ndarray, design, y: np.ndarray, lam: float) -> float:
    w, b = theta[:-1], theta[-1]
    z = design.matvec(w) + b
    # log(1 + e^z) - y*z, computed stably
    loss = np.logaddexp(0.0, z) - y * z
    return float(loss.sum() + 0.5 * lam * (w @ w))


def _gradient(theta: np.ndarray, design, y: np.ndarray, lam: float) -> np.ndarray:
    w, b = theta[:-1], theta[-1]
    z = design.matvec(w) + b
    r = expit(z) - y
    grad = np.empty_like(theta)
    grad[:-1] = design.rmatvec(r) + lam * w
    grad[-1] = r.sum()
    return grad


def _minimize(design, y: np.ndarray, config: TrainConfig) -> tuple[np.ndarray, TrainMeta]:
    theta = np.zeros(design.n_features + 1)
    f = _objective(theta, design, y, config.l2_lambda)
    g = _gradient(theta, design, y, config.l2_lambda)
    step = 1.0 / max(1.0, float(np.linalg.norm(g)))
    iterations = 0
    converged = False
    for iterations in range(1, config.max_iters + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= config.tolerance:
            converged = True
            iterations -= 1
            break
        gsq = gnorm * gnorm
        alpha = step
        while True:
            candidate = theta - alpha * g
            f_new = _objective(candidate, design, y, config.l2_lambda)
            if f_new <= f - 1e-4 * alpha * gsq or alpha < 1e-18:
                break
            alpha *= 0.5
        g_new = _gradient(candidate, design, y, config.l2_lambda)
        s = candidate - theta
        diff = g_new - g
        sty = float(s @ diff)
        # Barzilai-Borwein step for the next iteration, clamped for safety
        step = float(s @ s) / sty if sty > 1e-18 else alpha * 2.0
        step = min(max(step, 1e-12), 1e12)
        theta, f, g = candidate, f_new, g_new
    final_norm = float(np.linalg.norm(g))
    if final_norm <= config.tolerance:
        converged = True
    meta = TrainMeta(
        l2_lambda=config.l2_lambda,
        max_iters=config.max_iters,
        tolerance=config.tolerance,
        seed=config.seed,
        iterations=iterations,
        converged=converged,
        final_grad_norm=final_norm,
    )
    return theta, meta


def _validate_labels(n_samples: int, y: np.ndarray) -> None:
    if n_samples != y.shape[0]:
        raise ValueError("feature/label lengths differ")
    if n_samples < 2:
        raise ValueError("need at least two training samples")
    if y.min() == y.max():
        raise ValueError("training labels contain a single class")


def train_logistic(
    X: list[FeatureVector],
    y: list[bool],
    config: TrainConfig = TrainConfig(),
    vocab: Vocabulary | None = None,
) -> LogisticModel:
    """Fit the L2-regularized logistic model on raw token counts."""
    design = _RawDesign(features_to_csr(X))
    labels = np.asarray(y, dtype=np.float64)
    _validate_labels(design.n_samples, labels)
    theta, meta = _minimize(design, labels, config)
    return LogisticModel(
        weights=theta[:-1],
        bias=float(theta[-1]),
        vocab_fingerprint=vocab.fingerprint() if vocab is not None else "",
        train_meta=meta,
    )


def predict_proba(model: LogisticModel, x: FeatureVector) -> float:
    """Defect probability of one file; strictly inside (0, 1)."""
    if x.dimension != model.dimension:
        raise ValueError(
            f"feature dimension {x.dimension} does not match model dimension {model.dimension}"
        )
    z = model.bias
    w = model.weights
    for idx, count in x.entries.items():
        z += w[idx] * count
    p = float(expit(z))
    return min(max(p, _PROB_EPS), 1.0 - _PROB_EPS)


def standardized_coefficients(X: list[FeatureVector], y: list[bool]) -> np.ndarray:
    """Coefficients of the same logistic trainer fitted on z-scored features.

    Standardized coefficients are unit-free, so their magnitudes are
    comparable across token features; the positive ones mark globally risky
    tokens.
    """
    Xm = features_to_csr(X)
    labels = np.asarray(y, dtype=np.float64)
    _validate_labels(Xm.shape[0], labels)
    theta, _ = _minimize(_StandardizedDesign(Xm), labels, TrainConfig())
    return theta[:-1]


def save_model(model: LogisticModel, vocab: Vocabulary, path: str | Path) -> None:
    """Persist a model and its vocabulary as a versioned JSON document."""
    if model.vocab_fingerprint:
        model.check_vocab(vocab)
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "tokens": vocab.tokens,
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "train_meta": asdict(model.train_meta),
        "vocab_fingerprint": vocab.fingerprint(),
    }
    atomic_write_text(path, json.dumps(doc))


def load_model(path: str | Path) -> tuple[LogisticModel, Vocabulary]:
    """Load a persisted model, validating the format version and vocabulary hash."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {version!r}")
    vocab = Vocabulary.from_tokens(doc["tokens"])
    if vocab.fingerprint() != doc.get("vocab_fingerprint"):
        raise ValueError(f"{path}: vocabulary hash does not match the stored token list")
    weights = np.asarray(doc["weights"], dtype=np.float64)
    if weights.shape[0] != len(vocab):
        raise ValueError(f"{path}: weight vector length does not match vocabulary size")
    model = LogisticModel(
        weights=weights,
        bias=float(doc["bias"]),
        vocab_fingerprint=doc["vocab_fingerprint"],
        train_meta=TrainMeta(**doc["train_meta"]),
    )
    return model, vocab
