"""Per-sample reference explainer: the oracle that ``explain`` is checked against.

It builds every perturbed neighbor as its own feature vector, labels it with
``predict_proba``, weights it with a kernel computed from the two masks, and
fits the same two-phase surrogate. ``explain`` does the same work in
vectorised form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linedefects.corpus import FeatureVector
from linedefects.explain import (
    DEFAULT_KERNEL_WIDTH,
    _k_lasso_arrays,
    _neighbor_masks,
    active_token_indices,
)
from linedefects.model import LogisticModel, predict_proba


@dataclass
class NeighborSample:
    """One perturbed neighbor of the explained file.

    ``active_mask`` covers the file's distinct in-vocabulary tokens;
    ``perturbed_vector`` is the original vector with the counts of
    deactivated tokens zeroed. Prediction and kernel weight are filled in
    once the neighbor has been labelled.
    """

    active_mask: np.ndarray
    perturbed_vector: FeatureVector
    predicted: float | None = None
    weight: float | None = None


def _mask_to_vector(x: FeatureVector, indices: list[int], mask: np.ndarray) -> FeatureVector:
    entries = {idx: x.entries[idx] for idx, keep in zip(indices, mask) if keep}
    return FeatureVector(entries=entries, dimension=x.dimension)


def generate_neighbors(x: FeatureVector, n: int, seed: int) -> list[NeighborSample]:
    """Draw n perturbed neighbors of x (predictions and weights unset)."""
    if n < 1:
        raise ValueError("need at least one neighbor sample")
    indices = active_token_indices(x)
    if not indices:
        raise ValueError("cannot perturb an empty feature vector")
    rng = np.random.default_rng(seed)
    masks = _neighbor_masks(n, len(indices), rng)
    return [
        NeighborSample(active_mask=mask.copy(), perturbed_vector=_mask_to_vector(x, indices, mask))
        for mask in masks
    ]


def kernel_weight(original_mask: np.ndarray, sample_mask: np.ndarray, width: float) -> float:
    """Exponential kernel on the cosine distance between two binary masks.

    An all-false sample mask has undefined cosine similarity; its distance is
    defined as 1 (the kernel's farthest point).
    """
    a = np.asarray(original_mask, dtype=float)
    b = np.asarray(sample_mask, dtype=float)
    if a.shape != b.shape:
        raise ValueError("masks must have the same length")
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    distance = 1.0 if denom == 0.0 else 1.0 - float(a @ b) / denom
    return float(np.exp(-(distance**2) / (width**2)))


def k_lasso(samples: list[NeighborSample], k: int, feature_names: list[str] | None = None) -> dict:
    """Fit the sparse weighted surrogate on labelled neighbor samples.

    Returns a map from feature (name when ``feature_names`` is given, else
    mask column index) to refit coefficient. A degenerate design, e.g. all
    samples identical or constant predictions, yields an empty map rather
    than an error.
    """
    if len(samples) < 2:
        raise ValueError("need at least two neighbor samples")
    masks = np.stack([s.active_mask for s in samples])
    y = np.array([s.predicted for s in samples], dtype=np.float64)
    weights = np.array([s.weight for s in samples], dtype=np.float64)
    coefs, _ = _k_lasso_arrays(masks, y, weights, k)
    if feature_names is None:
        return coefs
    return {feature_names[j]: v for j, v in coefs.items()}


def predict_neighbors(
    model: LogisticModel, samples: list[NeighborSample], kernel_width: float = DEFAULT_KERNEL_WIDTH
) -> list[NeighborSample]:
    """Label neighbor samples with model predictions and kernel weights in place."""
    if not samples:
        return samples
    original = samples[0].active_mask
    for s in samples:
        s.predicted = predict_proba(model, s.perturbed_vector)
        s.weight = kernel_weight(original, s.active_mask, kernel_width)
    return samples
