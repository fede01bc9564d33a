"""Closed-form Gaussian and Laplacian kernels and the plain KDE estimator.

Both families carry the 1/sigma^d normalization so that evaluation at x = y
equals (1/sigma)^d.  Bandwidths are tuned with the same Fisher-divergence
machinery used for the sampled kernel's smoothness parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdo_kernel
from .errors import DataError, ValidationError

FAMILIES = ("gaussian", "laplacian")


@dataclass(frozen=True)
class ClosedFormKernel:
    """A Gaussian or Laplacian kernel with bandwidth sigma in dimension d."""

    family: str
    sigma: float
    d: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.d < 1:
            raise ValidationError("dimension must be positive")


def _pairwise_diff(X, Y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise DataError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return X[:, None, :] - Y[None, :, :]  # (N, M, d)


def _kernel_from_diff(k: ClosedFormKernel, diff: np.ndarray):
    """(N x M kernel values, N x M distances or None) from the (N, M, d) differences."""
    if diff.shape[2] != k.d:
        raise DataError(f"data dimension {diff.shape[2]} does not match kernel dimension {k.d}")
    norm = k.sigma ** (-k.d)
    if k.family == "gaussian":
        sq = np.einsum("nmd,nmd->nm", diff, diff)
        return norm * np.exp(-sq / (2.0 * k.sigma**2)), None
    dist = np.sqrt(np.einsum("nmd,nmd->nm", diff, diff))
    return norm * np.exp(-dist / k.sigma), dist


def kernel_matrix_closed_form(k: ClosedFormKernel, X, Y) -> np.ndarray:
    """Dense N x M matrix of kernel values k(x_i, y_j)."""
    return _kernel_from_diff(k, _pairwise_diff(X, Y))[0]


def eval_kernel(k: ClosedFormKernel, x, y) -> float:
    """Single kernel value k(x, y)."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    y = np.asarray(y, dtype=float).reshape(1, -1)
    return float(kernel_matrix_closed_form(k, x, y)[0, 0])


def kernel_and_gradient_closed_form(k: ClosedFormKernel, X, Y):
    """(kernel_matrix_closed_form, kernel_gradient_closed_form) from one difference tensor."""
    diff = _pairwise_diff(X, Y)  # x_i - y_j
    vals, dist = _kernel_from_diff(k, diff)
    if k.family == "gaussian":
        return vals, vals[:, :, None] * diff / k.sigma**2
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = diff / dist[:, :, None]
    unit[~np.isfinite(unit)] = 0.0
    return vals, vals[:, :, None] * unit / k.sigma


def kernel_gradient_closed_form(k: ClosedFormKernel, X, Y) -> np.ndarray:
    """Gradient of k(x_i, y_j) with respect to the query y_j.

    Returns an (N, M, d) array.  The Laplacian kernel is not differentiable
    at coinciding points; that measure-zero case contributes zero.
    """
    return kernel_and_gradient_closed_form(k, X, Y)[1]


def kde_density(X_train, Y, kernel) -> np.ndarray:
    """(1/N) * sum_i k(x_i, y_j) for each query row y_j.

    `kernel` is either a ClosedFormKernel or a sampled-kernel FrequencySample;
    with the latter, finite-T values can be slightly negative and are
    reported as-is.
    """
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    if X_train.shape[0] < 1:
        raise DataError("KDE requires a nonempty training set")
    if isinstance(kernel, sdo_kernel.FrequencySample):
        K = sdo_kernel.kernel_matrix(Y, X_train, kernel)
        return K.mean(axis=1)
    return kernel_matrix_closed_form(kernel, X_train, Y).mean(axis=0)
