"""Closed-form Gaussian and Laplacian kernels: matrices, f and grad f.

Both families carry the 1/sigma^d normalization, so k(x, x) = (1/sigma)^d.

Every squared distance comes from _sq_blocks: one augmented product
[x, |x|^2, 1] . [-2y, 1, |y|^2] per block of training rows of at most
_BLOCK_CELLS entries (1 MB).  Entries at or below tol = 1e-4 (max |x|^2 +
max |y|^2), the maxima skipping NaN rows, are recomputed from exact
differences, so coincident points are exactly 0 apart and no entry is
negative.

The values are sigma^-d * exp(sq / (-2 sigma^2)) and
sigma^-d * exp(sqrt(sq) / -sigma), the bits of the textbook formulas.
_exp_in_place keeps underflowing arguments off np.exp's slow path and gives
the bits of one np.exp.

_sq_blocks works inside a DistanceReuse scope, and a call given none opens
its own.  A scope keys the augmented rows by their content (shape and bytes,
never id()) and each block's recomputed entries by the pair of rows.  A later
call on the same rows redoes only each block's product and writes those
entries back, so it gives the bits of the first.  harness.select opens one
scope per bandwidth sweep and drops it when it returns.

A Gram (Y the very object X) is exactly symmetric.  f_and_grad_closed_form
contracts with alpha block by block and builds no N x M matrix; its Gaussian
blocks come through kernel_matrix_closed_form, which bench/layers.py traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError
from .sdo_kernel import _count, _positive, _store

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
        # a numpy float32 sigma would make -2 sigma^2, sigma^-d and the exp
        # bound float32 arithmetic
        _store(self, sigma=_positive(self.sigma, "sigma"), d=_count(self.d, "dimension d"))


# Doubles in the scratch buffer of one block of training rows (1 MB).
_BLOCK_CELLS = 1 << 17
# np.exp's float64 loop takes its slow path below about -707.7; at or below
# _EXP_ZERO its result is exactly +0.0.
_EXP_SLOW = -700.0
_EXP_ZERO = -746.0


def _check_dim(k: ClosedFormKernel, d: int) -> None:
    if not isinstance(k, ClosedFormKernel):
        raise ValidationError(f"closed-form kernels take a ClosedFormKernel, got {type(k).__name__}")
    if d != k.d:
        raise DataError(f"data dimension {d} does not match kernel dimension {k.d}")


def _as_rows(k: ClosedFormKernel, X, Y):
    """X and Y as 2-D float arrays of rows of k's dimension."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise DataError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    _check_dim(k, X.shape[1])
    return X, Y


class DistanceReuse:
    """The sigma-independent part of the squared distances between row sets."""

    def __init__(self):
        self._rows = {}   # (left, shape, bytes) -> (number, augmented rows, largest |a|^2)
        self._pairs = {}  # (X number, Y number, block rows) -> each block's (idx, exact values)

    def rows(self, A, left: bool):
        """(number, augmented rows, largest |a|^2) for the content of A.

        The rows are [a, |a|^2, 1] (left) or [-2a, 1, |a|^2]; fmax skips a
        NaN row's norm, so the other rows' cancelled entries are still
        recomputed.
        """
        key = (left, A.shape, A.tobytes())
        if key not in self._rows:
            aa = np.einsum("nd,nd->n", A, A)
            ones = np.ones((A.shape[0], 1))
            cols = [A, aa[:, None], ones] if left else [-2.0 * A, ones, aa[:, None]]
            self._rows[key] = (len(self._rows), np.hstack(cols), np.fmax.reduce(aa, initial=0.0))
        return self._rows[key]


def _sq_blocks(X, Y, copies=1, out=None, reuse: DistanceReuse | None = None):
    """Squared distances |x_i - y_j|^2 in blocks of rows of X.

    Yields (lo, hi, buf, idx) for each block X[lo:hi].  buf is a
    (copies, hi - lo, M) view of a scratch buffer, or of the rows lo:hi of
    `out` (copies 1), and buf[0] holds the distances.  idx holds the flat
    indices into buf[0] of the recomputed entries.  The record of a pair is
    stored after its last block, so an abandoned iteration leaves none.
    """
    reuse = DistanceReuse() if reuse is None else reuse
    n, m = X.shape[0], Y.shape[0]
    step = max(1, _BLOCK_CELLS // (max(m, 1) * copies))
    (kx, Xa, xx_max), (ky, Yb, yy_max) = reuse.rows(X, True), reuse.rows(Y, False)
    record = reuse._pairs.get((kx, ky, step))
    tol = 1e-4 * (xx_max + yy_max)
    scratch = np.empty((copies, 0 if out is not None else min(step, n), m))
    blocks = [] if record is None else record
    for lo in range(0, n, step):
        rows = min(step, n - lo)
        buf = scratch[:, :rows] if out is None else out[None, lo:lo + rows]
        sq = np.matmul(Xa[lo:lo + rows], Yb.T, out=buf[0])
        if record is None:
            # flat indices: np.nonzero on the 2-D mask is several times slower
            idx = np.flatnonzero(sq <= tol)
            i, j = np.divmod(idx, m)
            diff = X[lo + i] - Y[j]
            blocks.append((idx, np.einsum("kd,kd->k", diff, diff)))
        idx, exact = blocks[lo // step]
        sq.reshape(-1)[idx] = exact  # sq is contiguous: a view
        yield lo, lo + rows, buf, idx
    if record is None:
        reuse._pairs[kx, ky, step] = blocks


def _exp_in_place(z: np.ndarray) -> np.ndarray:
    """np.exp(z) into z, bit for bit, with underflowing arguments kept off
    np.exp's slow path, which costs many times its fast one.

    Where at least 1/16 of z is below _EXP_ZERO, those give +0.0, those in
    [_EXP_ZERO, _EXP_SLOW) go through np.exp on a gathered copy and the rest
    through np.exp in place; np.exp works lane by lane, so the bits are those
    of one np.exp.
    """
    if not z.size or z.min() >= _EXP_ZERO:
        return np.exp(z, out=z)
    keep = z >= _EXP_ZERO
    if np.count_nonzero(keep) > z.size - z.size // 16:  # the split would cost more
        return np.exp(z, out=z)
    band = np.less(z, _EXP_SLOW)
    band = np.flatnonzero(np.logical_and(band, keep, out=band))
    tail = np.exp(np.take(z, band))
    np.exp(np.maximum(z, _EXP_SLOW, out=z), out=z)
    np.multiply(z, keep, out=z)  # +0.0 below _EXP_ZERO
    np.put(z, band, tail)
    return z


def _values_in_place(k: ClosedFormKernel, sq: np.ndarray, dist=None) -> np.ndarray:
    """Overwrite the squared distances `sq` with the kernel values.

    A Laplacian call may pass `dist`, of sq's shape, to keep the distances.
    """
    if k.family == "gaussian":
        np.divide(sq, -2.0 * k.sigma**2, out=sq)
    else:
        np.divide(np.sqrt(sq, out=sq if dist is None else dist), -k.sigma, out=sq)
    _exp_in_place(sq)
    return np.multiply(sq, k.sigma ** (-k.d), out=sq)


def kernel_matrix_closed_form(k: ClosedFormKernel, X, Y, *,
                              reuse: DistanceReuse | None = None) -> np.ndarray:
    """Dense N x M matrix of kernel values k(x_i, y_j).

    With Y the very object X the result is exactly symmetric.  A `reuse`
    scope shares the distance work of calls on the same rows.
    """
    symmetric = Y is X
    X, Y = _as_rows(k, X, Y)
    out = np.empty((X.shape[0], Y.shape[0]))
    for lo, hi, buf, _ in _sq_blocks(X, Y, out=out, reuse=reuse):
        _values_in_place(k, buf[0])
        if symmetric:  # entries left of the diagonal, from the rows above
            out[lo:hi, :lo] = out[:lo, lo:hi].T
            block, below = out[lo:hi, lo:hi], np.tril_indices(hi - lo, -1)
            block[below] = block.T[below]
    return out


def kernel_gradient_closed_form(k: ClosedFormKernel, X, Y) -> np.ndarray:
    """Gradient of k(x_i, y_j) with respect to the query y_j, of shape (N, M, d).

    The per-pair reference for f_and_grad_closed_form.  The Laplacian kernel
    is not differentiable at coinciding points; that case contributes zero.
    """
    X, Y = _as_rows(k, X, Y)
    grads = X[:, None, :] - Y[None, :, :]  # x_i - y_j, overwritten by the gradient
    dist = None if k.family == "gaussian" else np.empty((X.shape[0], Y.shape[0]))
    vals = _values_in_place(k, np.einsum("nmd,nmd->nm", grads, grads), dist)
    if k.family == "laplacian":
        with np.errstate(divide="ignore", invalid="ignore"):
            grads /= dist[:, :, None]  # the unit vectors
        grads[~np.isfinite(grads)] = 0.0
    grads *= vals[:, :, None]
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


def f_and_grad_closed_form(k: ClosedFormKernel, X, alpha, Y, *,
                           reuse: DistanceReuse | None = None):
    """f(y_j) = sum_i alpha_i k(x_i, y_j) and grad f(y_j) for each query row y_j.

    Returns (f, G) of shapes (M,) and (M, d).  With K a block's values and
    W = alpha * K (Gaussian) or alpha * K / r (Laplacian),
        Gaussian:  grad f(y) = (W^T X - f(y) y) / sigma^2,
        Laplacian: grad f(y) = (W^T X - (1^T W) y) / sigma,
    except that a Laplacian recomputed pair, whose terms would cancel there,
    adds alpha k (x - y) / r directly.  The sums run in another order than
    kernel_gradient_closed_form's and agree with it within rounding.
    """
    X, Y = _as_rows(k, X, Y)
    (n, d), m = X.shape, Y.shape[0]
    alpha = _check_weights(alpha, n)
    rhs = np.hstack([alpha[:, None], alpha[:, None] * X])
    acc = np.zeros((m, d + 1))  # [f (Gaussian) or 1^T W (Laplacian), W^T X]
    if k.family == "gaussian":  # a block's kernel values are all it needs
        step = max(1, _BLOCK_CELLS // max(m, 1))
        for lo in range(0, n, step):
            # the block's matrix is freed before the next one is built
            acc += kernel_matrix_closed_form(k, X[lo:lo + step], Y, reuse=reuse).T @ rhs[lo:lo + step]
        return acc[:, 0].copy(), (acc[:, 1:] - acc[:, :1] * Y) / k.sigma**2
    near = np.zeros((m, d))  # sum of alpha k (x - y) / r over the recomputed pairs
    f = np.zeros(m)
    # a block also keeps its distances
    for lo, hi, buf, idx in _sq_blocks(X, Y, 2, reuse=reuse):
        i, j = np.divmod(idx, m)
        diff = X[lo + i] - Y[j]
        r = buf[1]
        K = _values_in_place(k, buf[0], r)
        f += alpha[lo:hi] @ K
        w = alpha[lo + i] * K[i, j] / np.where(r[i, j] > 0.0, r[i, j], np.inf)
        np.add.at(near, j, w[:, None] * diff)
        r[i, j] = np.inf  # so their W entries are 0
        np.divide(K, r, out=K)
        acc += K.T @ rhs[lo:hi]
    return f, (acc[:, 1:] - acc[:, :1] * Y + near) / k.sigma
