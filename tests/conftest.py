import numpy as np
import pytest

from jse.data import LabeledEmbeddings
from jse.sgd import _newton_logreg, sigmoid
from jse.toy import ToyConfig, gen_toy, gen_toy_test


@pytest.fixture(scope="session")
def toy_rho08():
    """Standard benchmark draw at rho = 0.8."""
    cfg = ToyConfig(n=2000, rho=0.8, seed=42)
    train, val = gen_toy(cfg)
    return cfg, train, val, gen_toy_test(cfg)


@pytest.fixture(scope="session")
def toy_rho0():
    cfg = ToyConfig(n=2000, rho=0.0, seed=43)
    train, val = gen_toy(cfg)
    return cfg, train, val, gen_toy_test(cfg)


def random_orthonormal(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros((d, 0))
    q, _ = np.linalg.qr(rng.standard_normal((d, max(k, 1))))
    return q[:, :k]


def random_labeled(rng: np.random.Generator, n: int = 40, d: int = 5) -> LabeledEmbeddings:
    return LabeledEmbeddings(
        rng.standard_normal((n, d)),
        rng.integers(0, 2, n),
        rng.integers(0, 2, n),
    )


def rlace_probe_accuracy(train: LabeledEmbeddings, val: LabeledEmbeddings,
                         V: np.ndarray) -> float:
    """RLACE's stopping probe on the removed basis V: the validation accuracy
    of a converged spurious classifier on the projected data."""
    P = np.eye(train.d) - V @ V.T
    wp, bp = _newton_logreg(train.Z @ P, train.y_sp.astype(np.float64))
    return float(np.mean((sigmoid((val.Z @ P) @ wp + bp) >= 0.5) == val.y_sp))
