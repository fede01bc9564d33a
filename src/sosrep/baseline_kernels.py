"""Closed-form Gaussian and Laplacian kernels and their plain KDE estimator.

Both families carry the 1/sigma^d normalization so that evaluation at x = y
equals (1/sigma)^d.  Bandwidths are tuned with the same Fisher-divergence
machinery used for the sampled kernel's smoothness parameter.

The (N, M, d) difference and gradient tensors are filled one coordinate at a
time, each slice [:, :, j] one N x M operation.  A broadcast over the short
last axis would run numpy's inner loop over only d elements, several times
slower per element; the per-coordinate fill applies the same IEEE operation
to every element, so its values are those of the broadcast bit for bit.  The
squared distance stays one einsum over the tensor: a per-coordinate sum
matches it only for d <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    diff = np.empty((X.shape[0], Y.shape[0], X.shape[1]))  # x_i - y_j
    for j in range(X.shape[1]):
        np.subtract(X[:, j, None], Y[None, :, j], out=diff[:, :, j])
    return diff


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
    grads = _pairwise_diff(X, Y)  # x_i - y_j, overwritten by the gradient
    vals, dist = _kernel_from_diff(k, grads)
    for j in range(k.d):
        g = grads[:, :, j]
        if k.family == "laplacian":
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(g, dist, out=g)  # the unit vector's coordinate j
            g[~np.isfinite(g)] = 0.0
        np.multiply(vals, g, out=g)
    grads /= k.sigma**2 if k.family == "gaussian" else k.sigma
    return vals, grads


def kernel_gradient_closed_form(k: ClosedFormKernel, X, Y) -> np.ndarray:
    """Gradient of k(x_i, y_j) with respect to the query y_j.

    Returns an (N, M, d) array.  The Laplacian kernel is not differentiable
    at coinciding points; that measure-zero case contributes zero.
    """
    return kernel_and_gradient_closed_form(k, X, Y)[1]


def kde_density(X_train, Y, kernel: ClosedFormKernel) -> np.ndarray:
    """(1/N) * sum_i k(x_i, y_j) for each query row y_j of a closed-form kernel.

    The sampled-kernel KDE is harness.SdoKdeModel, which evaluates the same
    mean through the mean feature vector without an N x M Gram matrix.
    """
    if not isinstance(kernel, ClosedFormKernel):
        raise ValidationError(
            f"kde_density takes a ClosedFormKernel, got {type(kernel).__name__}"
        )
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    if X_train.shape[0] < 1:
        raise DataError("KDE requires a nonempty training set")
    return kernel_matrix_closed_form(kernel, X_train, Y).mean(axis=0)
