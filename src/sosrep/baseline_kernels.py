"""Closed-form Gaussian and Laplacian kernels and their plain KDE estimator.

Both families carry the 1/sigma^d normalization so that evaluation at x = y
equals (1/sigma)^d.  Bandwidths are tuned with the same Fisher-divergence
machinery used for the sampled kernel's smoothness parameter.

kernel_matrix_closed_form (hence f_values, density, kde_density and the
closed-form Gram of the fit) and kernel_gradient_closed_form fill the
differences x_i - y_j one coordinate at a time, each slice [:, :, j] one
operation over all pairs.  A broadcast over the short last axis would run
numpy's inner loop over only d elements, several times slower per element;
the per-coordinate fill applies the same IEEE operation to every element,
so its values are those of the broadcast bit for bit.  The squared distance
stays one einsum over the differences: a per-coordinate sum matches it only
for d <= 2.  The kernel values are then computed in place, in the order
norm * exp(-sq / (2 sigma^2)) or norm * exp(-sqrt(sq) / sigma).

kernel_matrix_closed_form builds its N x M matrix in blocks of training rows:
each block's differences go into one reused buffer of at most _BLOCK_CELLS
doubles, and its values into its own rows of the output.  So its memory is
the output plus about 1 MB, whatever the number of pairs.  Every entry
depends only on its own pair (x_i, y_j), the d-sum of the einsum stays inside
that entry and the rest is elementwise, so any block size gives the same
bits.  kernel_gradient_closed_form keeps its (N, M, d) output and is the
gradient's reference.

f_and_grad_closed_form, the FD statistic's f and grad f, contracts with alpha
by matrix products and builds no (N, M, d) tensor.  It also works in blocks
of training rows through one scratch buffer of at most _BLOCK_CELLS doubles.
Each block's squared distances are one product of augmented rows,
[x, |x|^2, 1] . [-2y, 1, |y|^2], clamped at 0; entries at or below
1e-4 (max |x|^2 + max |y|^2), where that sum cancels, are recomputed from
exact differences, so coincident points give exactly 0.  With K the block's
values, f += K^T alpha and, with W = alpha * K (Gaussian) or alpha * K / r
(Laplacian, 0 where r = 0),
    Gaussian:  grad f(y) = (W^T X - f(y) y) / sigma^2,
    Laplacian: grad f(y) = (W^T X - (1^T W) y) / sigma,
where alpha is folded into the right-hand side [alpha, alpha * X] rather than
into the block.  Its sums run in another order than alpha @ K, so its values
differ from the reference in the last digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError
from .sdo_kernel import _is_int, _is_real

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
        if not (_is_real(self.sigma) and math.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError(f"sigma must be a positive finite real number, got {self.sigma!r}")
        if not (_is_int(self.d) and self.d >= 1):
            raise ValidationError(f"dimension d must be a positive integer, got {self.d!r}")


# Doubles in the difference buffer of one block of training rows (1 MB).
_BLOCK_CELLS = 1 << 17


def _as_rows(X, Y):
    """X and Y as 2-D float arrays of rows with the same dimension."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise DataError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return X, Y


def _check_dim(k: ClosedFormKernel, d: int) -> None:
    if d != k.d:
        raise DataError(f"data dimension {d} does not match kernel dimension {k.d}")


def _fill_diff(X, Y, out):
    """out[i, j] = x_i - y_j for an (N, M, d) `out`."""
    for j in range(X.shape[1]):
        np.subtract(X[:, j, None], Y[None, :, j], out=out[:, :, j])
    return out


def _values_in_place(k: ClosedFormKernel, sq: np.ndarray, dist=None) -> np.ndarray:
    """Overwrite the squared distances `sq` with the kernel values.

    A Laplacian call may pass a `dist` array of sq's shape to keep the
    distances; otherwise sq holds them on the way.
    """
    if k.family == "gaussian":
        np.negative(sq, out=sq)
        np.divide(sq, 2.0 * k.sigma**2, out=sq)
    else:
        np.negative(np.sqrt(sq, out=sq if dist is None else dist), out=sq)
        np.divide(sq, k.sigma, out=sq)
    np.exp(sq, out=sq)
    return np.multiply(sq, k.sigma ** (-k.d), out=sq)


def kernel_matrix_closed_form(k: ClosedFormKernel, X, Y) -> np.ndarray:
    """Dense N x M matrix of kernel values k(x_i, y_j), in blocks of rows of X."""
    X, Y = _as_rows(X, Y)
    _check_dim(k, X.shape[1])
    (n, d), m = X.shape, Y.shape[0]
    out = np.empty((n, m))
    step = max(1, _BLOCK_CELLS // max(m * d, 1))
    buf = np.empty((min(step, n), m, d))
    for lo in range(0, n, step):
        rows = out[lo:lo + step]
        diff = _fill_diff(X[lo:lo + step], Y, buf[:rows.shape[0]])
        _values_in_place(k, np.einsum("nmd,nmd->nm", diff, diff, out=rows))
    return out


def kernel_gradient_closed_form(k: ClosedFormKernel, X, Y) -> np.ndarray:
    """Gradient of k(x_i, y_j) with respect to the query y_j.

    Returns an (N, M, d) array.  The Laplacian kernel is not differentiable
    at coinciding points; that measure-zero case contributes zero.
    """
    X, Y = _as_rows(X, Y)
    _check_dim(k, X.shape[1])
    # x_i - y_j, overwritten by the gradient
    grads = _fill_diff(X, Y, np.empty((X.shape[0], Y.shape[0], k.d)))
    dist = None if k.family == "gaussian" else np.empty((X.shape[0], Y.shape[0]))
    vals = _values_in_place(k, np.einsum("nmd,nmd->nm", grads, grads), dist)
    for j in range(k.d):
        g = grads[:, :, j]
        if k.family == "laplacian":
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(g, dist, out=g)  # the unit vector's coordinate j
            g[~np.isfinite(g)] = 0.0
        np.multiply(vals, g, out=g)
    grads /= k.sigma**2 if k.family == "gaussian" else k.sigma
    return grads


def _check_weights(alpha, n: int) -> np.ndarray:
    """alpha as a float array, checked to hold n finite weights."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (n,):
        raise ValidationError(
            f"alpha must be a 1-D array of {n} weights, one per training row, "
            f"got shape {alpha.shape}"
        )
    if not np.isfinite(alpha).all():
        raise ValidationError("alpha must be finite")
    return alpha


def f_and_grad_closed_form(k: ClosedFormKernel, X, alpha, Y):
    """f(y_j) = sum_i alpha_i k(x_i, y_j) and grad f(y_j) for each query row y_j.

    Returns (f, G) of shapes (M,) and (M, d), computed in blocks of training
    rows through one scratch buffer (see the module docstring).
    """
    X, Y = _as_rows(X, Y)
    _check_dim(k, X.shape[1])
    (n, d), m = X.shape, Y.shape[0]
    alpha = _check_weights(alpha, n)
    laplacian = k.family == "laplacian"
    xx = np.einsum("nd,nd->n", X, X)
    yy = np.einsum("md,md->m", Y, Y)
    tol = 1e-4 * (xx.max(initial=0.0) + yy.max(initial=0.0))
    Xa = np.hstack([X, xx[:, None], np.ones((n, 1))])
    Yb = np.hstack([-2.0 * Y, np.ones((m, 1)), yy[:, None]])
    rhs = np.empty((n, d + 1))  # [alpha, alpha * X]
    rhs[:, 0] = alpha
    np.multiply(alpha[:, None], X, out=rhs[:, 1:])
    acc = np.zeros((m, d + 1))  # [f (Gaussian) or 1^T W (Laplacian), W^T X]
    part = np.empty((m, d + 1))
    if laplacian:
        f, f_part = np.zeros(m), np.empty(m)
    # a Laplacian block also keeps its distances
    per_row = max(m, 1) * (2 if laplacian else 1)
    step = max(1, _BLOCK_CELLS // per_row)
    scratch = np.empty(min(step, n) * per_row)
    low = np.empty(min(step, n) * m, dtype=bool)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        cells = (hi - lo) * m
        sq = scratch[:cells].reshape(hi - lo, m)
        np.maximum(np.matmul(Xa[lo:hi], Yb.T, out=sq), 0.0, out=sq)
        idx = np.flatnonzero(np.less_equal(sq, tol, out=low[:cells].reshape(hi - lo, m)))
        if idx.size:  # cancelled entries, from exact differences
            i, j = np.divmod(idx, m)
            diff = X[lo + i] - Y[j]
            exact = np.einsum("kd,kd->k", diff, diff)
            sq.flat[idx] = exact
        if laplacian:
            r = scratch[cells:2 * cells].reshape(hi - lo, m)
            K = _values_in_place(k, sq, r)
            f += np.matmul(alpha[lo:hi], K, out=f_part)
            if idx.size:
                r.flat[idx[exact == 0.0]] = np.inf  # W = 0 where r = 0
            np.divide(K, r, out=K)
        else:
            K = _values_in_place(k, sq)
        acc += np.matmul(K.T, rhs[lo:hi], out=part)
    G = acc[:, 1:] - acc[:, :1] * Y
    G /= k.sigma if laplacian else k.sigma**2
    return (f if laplacian else acc[:, 0].copy()), G


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
