"""Train-fitted PCA with demeaning; validation and test reuse the training model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import orthonormal_check


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray  # (d,) training mean
    components: np.ndarray  # (d, k), orthonormal columns, descending variance
    explained_variance: np.ndarray  # (k,)

    def __post_init__(self) -> None:
        if not orthonormal_check(self.components, 1e-6):
            raise ValueError("components must be orthonormal")

    @property
    def k(self) -> int:
        return self.components.shape[1]


def pca_fit(Z: np.ndarray, k: int) -> PcaModel:
    """Fit mean and top-k principal directions on the training split only."""
    Z = np.asarray(Z, dtype=np.float64)
    n, d = Z.shape
    if not (1 <= k <= min(n, d)):
        raise ValueError(f"k must be in [1, min(n, d)] = [1, {min(n, d)}], got {k}")
    mean = Z.mean(axis=0)
    Zc = Z - mean
    # SVD of the centered data; right singular vectors are the principal axes
    _, s, vt = np.linalg.svd(Zc, full_matrices=False)
    components = vt[:k].T
    # deterministic sign: largest-magnitude coordinate of each component positive
    flips = np.sign(components[np.abs(components).argmax(axis=0), np.arange(k)])
    flips[flips == 0] = 1.0
    components = components * flips
    explained = (s[:k] ** 2) / max(n - 1, 1)
    return PcaModel(mean, components, explained)


def pca_apply(Z: np.ndarray, mean: np.ndarray, components: np.ndarray) -> np.ndarray:
    """Subtract the training mean and project onto the components."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[1] != mean.shape[0]:
        raise ValueError(f"dimension mismatch: data has {Z.shape[1]} columns, "
                         f"the PCA model {mean.shape[0]}")
    return (Z - mean) @ components
