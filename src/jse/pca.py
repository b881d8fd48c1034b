"""Train-fitted PCA with demeaning; validation and test reuse the training model."""

from __future__ import annotations

import numpy as np


def pca_fit(Z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Fit on the training split only: the ``(d,)`` mean and the ``(d, k)``
    orthonormal top-k principal directions, in descending variance."""
    Z = np.asarray(Z, dtype=np.float64)
    n, d = Z.shape
    if not (1 <= k <= min(n, d)):
        raise ValueError(f"k must be in [1, min(n, d)] = [1, {min(n, d)}], got {k}")
    mean = Z.mean(axis=0)
    Zc = Z - mean
    # SVD of the centered data; right singular vectors are the principal axes
    _, _, vt = np.linalg.svd(Zc, full_matrices=False)
    components = vt[:k].T
    # deterministic sign: largest-magnitude coordinate of each component positive
    flips = np.sign(components[np.abs(components).argmax(axis=0), np.arange(k)])
    flips[flips == 0] = 1.0
    return mean, components * flips


def pca_apply(Z: np.ndarray, mean: np.ndarray, components: np.ndarray) -> np.ndarray:
    """Subtract the training mean and project onto the components."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[1] != mean.shape[0]:
        raise ValueError(f"dimension mismatch: data has {Z.shape[1]} columns, "
                         f"the PCA model {mean.shape[0]}")
    return (Z - mean) @ components
