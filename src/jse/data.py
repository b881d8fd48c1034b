"""Shared data model: labeled embeddings, subspace bases, projections.

Conventions used throughout the package:

* samples are rows, so an embedding matrix ``Z`` has shape ``(n, d)``;
* both labels are binary in {0, 1};
* each sample belongs to one of four groups derived from the label pair
  ``(y_mt, y_sp)`` via the fixed encoding
  ``(0,0) -> 1, (0,1) -> 2, (1,0) -> 3, (1,1) -> 4``;
* a basis is a ``(d, k)`` matrix with orthonormal columns, where ``k = 0``
  is legal and means "no removal".
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

ORTHO_TOL = 1e-6


def _binary_labels(y, name: str) -> np.ndarray:
    """``y`` as int64, after checking that every entry equals 0 or 1: the check
    comes before the cast, so 0.5 or NaN is rejected, not truncated."""
    y = np.asarray(y)
    ok = (y == 0) | (y == 1)
    if not ok.all():
        raise ValueError(f"non-binary entry {y[~ok][0].item()!r} in {name}")
    return np.asarray(y, dtype=np.int64)


@dataclass(frozen=True)
class LabeledEmbeddings:
    """n x d embedding matrix plus main-task / spurious binary labels."""

    Z: np.ndarray
    y_mt: np.ndarray
    y_sp: np.ndarray
    group: np.ndarray = field(init=False)  # 1..4, from the label pair

    def __post_init__(self) -> None:
        Z = _embedding_matrix(self.Z)
        y_mt = _binary_labels(self.y_mt, "y_mt")
        y_sp = _binary_labels(self.y_sp, "y_sp")
        if y_mt.shape != (Z.shape[0],) or y_sp.shape != (Z.shape[0],):
            raise ValueError("labels must match the number of rows of Z")
        group = 1 + 2 * y_mt + y_sp  # the module docstring's encoding, on checked labels
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "y_mt", y_mt)
        object.__setattr__(self, "y_sp", y_sp)
        object.__setattr__(self, "group", group)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def d(self) -> int:
        return self.Z.shape[1]

    def labels(self, target: str) -> np.ndarray:
        if target == "mt":
            return self.y_mt
        if target == "sp":
            return self.y_sp
        raise ValueError(f"target must be 'mt' or 'sp', got {target!r}")

    def with_Z(self, Z: np.ndarray) -> "LabeledEmbeddings":
        """Same labels, different embedding matrix (e.g. after a projection).

        The label arrays are shared with this already-validated instance, not
        checked again; only ``Z`` is converted and its shape checked.
        """
        Z = _embedding_matrix(Z)
        if Z.shape[0] != self.n:
            raise ValueError("labels must match the number of rows of Z")
        new = copy.copy(self)
        object.__setattr__(new, "Z", Z)
        return new


def _embedding_matrix(Z) -> np.ndarray:
    """Z as a C-contiguous float64 matrix with at least one row and column."""
    out = np.ascontiguousarray(np.asarray(Z, dtype=np.float64))
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"Z must be a nonempty 2-d matrix, got shape {np.shape(Z)}")
    return out


@dataclass(frozen=True)
class SubspaceBasis:
    """d x k matrix of orthonormal columns."""

    V: np.ndarray

    def __post_init__(self) -> None:
        V = np.asarray(self.V, dtype=np.float64)
        if V.ndim != 2:
            raise ValueError("V must be a d x k matrix")
        if not orthonormal_check(V, ORTHO_TOL):
            raise ValueError(f"basis columns are not orthonormal within {ORTHO_TOL}")
        object.__setattr__(self, "V", V)

    @property
    def k(self) -> int:
        return self.V.shape[1]


def orthonormal_check(V: np.ndarray, tol: float) -> bool:
    """True iff max |V^T V - I| <= tol. An empty basis passes trivially; one
    whose Gram matrix overflows fails, without numpy's overflow warning."""
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError("V must be 2-d")
    k = V.shape[1]
    if k == 0:
        return True
    with np.errstate(over="ignore", invalid="ignore"):
        gram = V.T @ V
    return bool(np.max(np.abs(gram - np.eye(k))) <= tol)


def _check_projection_args(Z: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Z = np.asarray(Z, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if Z.ndim != 2 or V.ndim != 2:
        raise ValueError("Z and V must be 2-d")
    if Z.shape[1] != V.shape[0]:
        raise ValueError(f"dimension mismatch: Z has d={Z.shape[1]} but V has d={V.shape[0]}")
    if not orthonormal_check(V, ORTHO_TOL):
        raise ValueError("V does not have orthonormal columns")
    return Z, V


def project_out(Z: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Project rows of Z onto the orthogonal complement of span(V): Z (I - V V^T)."""
    Z, V = _check_projection_args(Z, V)
    if V.shape[1] == 0:
        return Z.copy()
    # np.dot, not @: with one basis vector the inner dimension is 1, where
    # numpy's @ skips BLAS and is ~1.5x slower for the same bits
    return Z - np.dot(Z @ V, V.T)


def normalize_against(
    w: np.ndarray, accepted: list[np.ndarray]
) -> tuple[np.ndarray, float] | None:
    """Clean w of components along already-removed unit vectors and normalize.

    A fit's iterate can retain a stray initialization component in directions
    the data no longer spans; predictions on the projected data are invariant
    to it but a basis must not inherit it. Returns the unit vector and the
    cleaned norm (the scale of the 1-d model realized on the projected data),
    or None for a numerically vanished vector.
    """
    w = w.astype(np.float64, copy=True)
    for u in accepted:
        w -= (u @ w) * u
    nrm = float(np.linalg.norm(w))
    if nrm < 1e-10:
        return None
    return w / nrm, nrm


def project_onto(Z: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Project rows of Z onto span(V): Z V V^T."""
    Z, V = _check_projection_args(Z, V)
    if V.shape[1] == 0:
        return np.zeros_like(Z)
    return np.dot(Z @ V, V.T)  # np.dot for the reason given in project_out
