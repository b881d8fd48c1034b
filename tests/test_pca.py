import numpy as np
import pytest

from jse.data import orthonormal_check
from jse.pca import pca_apply, pca_fit


def test_full_rank_reconstruction():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((50, 8)) @ np.diag(np.linspace(3, 0.5, 8))
    mean, components = pca_fit(Z, k=8)
    scores = pca_apply(Z, mean, components)
    recon = scores @ components.T + mean
    np.testing.assert_allclose(recon, Z, atol=1e-8)


def test_variances_non_increasing():
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((300, 10)) * np.linspace(5, 0.1, 10)
    mean, components = pca_fit(Z, k=10)
    variances = pca_apply(Z, mean, components).var(axis=0, ddof=1)
    assert np.all(np.diff(variances) <= 1e-12)
    # oracle: eigenvalues of the covariance matrix, descending
    eig = np.sort(np.linalg.eigvalsh(np.cov((Z - Z.mean(0)).T)))[::-1]
    np.testing.assert_allclose(variances, eig, rtol=1e-8)


def test_constant_column_never_in_top_components():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((200, 5))
    Z[:, 3] = 7.0  # constant: zero variance
    _, components = pca_fit(Z, k=4)
    # no component loads on the constant coordinate
    assert np.max(np.abs(components[3, :])) < 1e-8


def test_mean_from_train_only_no_leakage():
    rng = np.random.default_rng(3)
    train = rng.standard_normal((100, 4))
    mean, components = pca_fit(train, k=4)
    val = rng.standard_normal((50, 4)) + 5.0  # mean differs from train
    scores = pca_apply(val, mean, components)
    # the transform used the training mean: reconstruct and compare
    recon = scores @ components.T + mean
    np.testing.assert_allclose(recon, val, atol=1e-8)
    assert np.linalg.norm(scores.mean(axis=0)) > 1.0  # offset survives, not re-centered


def test_k_bounds():
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((10, 6))
    with pytest.raises(ValueError, match="k must be"):
        pca_fit(Z, k=7)
    with pytest.raises(ValueError, match="k must be"):
        pca_fit(Z, k=0)


def test_apply_dimension_check():
    rng = np.random.default_rng(5)
    mean, components = pca_fit(rng.standard_normal((30, 4)), k=2)
    with pytest.raises(ValueError, match="mismatch"):
        pca_apply(rng.standard_normal((5, 3)), mean, components)


def test_components_orthonormal():
    # a loaded artifact's components are checked by load_artifact; fitted ones
    # are orthonormal by construction
    Z = np.random.default_rng(7).standard_normal((40, 6)) * np.linspace(4, 1, 6)
    _, components = pca_fit(Z, k=4)
    assert components.shape == (6, 4)
    assert orthonormal_check(components, 1e-10)


def test_deterministic_signs():
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((80, 5))
    _, c1 = pca_fit(Z, 3)
    _, c2 = pca_fit(Z.copy(), 3)
    np.testing.assert_array_equal(c1, c2)
    # sign convention: the largest-magnitude coordinate of each component is positive
    for j in range(3):
        col = c1[:, j]
        assert col[np.abs(col).argmax()] > 0
