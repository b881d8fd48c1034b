"""Synthetic benchmark generator.

Embeddings are drawn from N(0, Sigma) where Sigma is the identity except for
a 2x2 block [[1, rho], [rho, 1]] on the first two coordinates. Binary labels
follow logit models along two fixed directions:

    p(y_sp = 1 | z) = sigmoid(z @ w_sp)
    p(y_mt = 1 | z) = sigmoid(z @ w_mt)

with no intercepts.

In the default (orthogonal) construction w_sp = (gamma_sp, 0, ..., 0) and
w_mt = (0, gamma_mt, 0, ..., 0). With ``angle_deg = 75`` the main-task
direction is rotated into the first coordinate so the two directions span a
75-degree angle; any other angle between 0 and 90 degrees works the same way.

rho controls the train-time dependence between spurious and main-task
features; the matching test set is always drawn with rho = 0. ``gen_toy``
keeps the first ``SPLIT_FRACTION`` of its draw for training and the rest for
validation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledEmbeddings
from .sgd import sigmoid

SPLIT_FRACTION = 0.8  # of gen_toy's draw, the training share


@dataclass(frozen=True)
class ToyConfig:
    n: int = 2000
    d: int = 20
    rho: float = 0.0
    gamma_sp: float = 3.0
    gamma_mt: float = 3.0
    angle_deg: float = 90.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= abs(self.rho) < 1.0):
            raise ValueError("|rho| must be < 1")
        if not float(self.n).is_integer():  # a sweep's x values are floats
            raise ValueError(f"n must be an integer, got {self.n}")
        if self.n < 2:  # the train/val split needs a row on each side
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not (0.0 < self.angle_deg <= 90.0):
            raise ValueError("angle_deg must be in (0, 90]")
        for name in ("gamma_sp", "gamma_mt"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.seed < 0:  # SeedSequence takes only non-negative integers
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def directions(self) -> tuple[np.ndarray, np.ndarray]:
        """The generating coefficient vectors (w_sp, w_mt)."""
        w_sp = np.zeros(self.d)
        w_sp[0] = self.gamma_sp
        w_mt = np.zeros(self.d)
        if self.angle_deg == 90.0:
            w_mt[1] = self.gamma_mt
        else:
            phi = np.deg2rad(90.0 - self.angle_deg)
            a, b = np.cos(phi), np.sin(phi)
            w_mt[0] = self.gamma_mt / (1.0 + a / b)
            w_mt[1] = self.gamma_mt / (1.0 + b / a)
        return w_sp, w_mt


def _draw(cfg: ToyConfig, n: int, rng: np.random.Generator) -> LabeledEmbeddings:
    Z = rng.standard_normal((n, cfg.d))
    # Cholesky factor of the 2x2 correlation block; remaining coordinates stay iid
    Z[:, 1] = cfg.rho * Z[:, 0] + np.sqrt(1.0 - cfg.rho * cfg.rho) * Z[:, 1]
    w_sp, w_mt = cfg.directions()
    p_sp = sigmoid(Z @ w_sp)
    p_mt = sigmoid(Z @ w_mt)
    y_sp = (rng.random(n) < p_sp).astype(np.int64)
    y_mt = (rng.random(n) < p_mt).astype(np.int64)
    return LabeledEmbeddings(Z, y_mt, y_sp)


def gen_toy(cfg: ToyConfig) -> tuple[LabeledEmbeddings, LabeledEmbeddings]:
    """Draw cfg.n samples at the configured rho and split them train/val."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    data = _draw(cfg, cfg.n, rng)
    n_train = int(round(cfg.n * SPLIT_FRACTION))
    n_train = min(max(n_train, 1), cfg.n - 1)
    train = LabeledEmbeddings(data.Z[:n_train], data.y_mt[:n_train], data.y_sp[:n_train])
    val = LabeledEmbeddings(data.Z[n_train:], data.y_mt[n_train:], data.y_sp[n_train:])
    return train, val


def gen_toy_test(cfg: ToyConfig, n: int | None = None) -> LabeledEmbeddings:
    """The matching OOD test set: same directions and scales, rho forced to 0.

    Size defaults to cfg.n (the test set scales with the training draw).
    """
    if n is not None and n < 1:
        raise ValueError(f"test set size must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    return _draw(replace(cfg, rho=0.0), cfg.n if n is None else n, rng)
