"""Closed-form Gaussian and Laplacian kernels: matrices, f and grad f.

Both families carry the 1/sigma^d normalization so that evaluation at x = y
equals (1/sigma)^d.  Bandwidths are tuned with the same Fisher-divergence
machinery used for the sampled kernel's smoothness parameter.

Every closed-form evaluation takes its squared distances from one private
iterator, _sq_blocks, which works in blocks of training rows of at most
_BLOCK_CELLS entries (1 MB), in one scratch buffer or in the caller's output
rows.  Each block's squared distances are one product of augmented rows,
[x, |x|^2, 1] . [-2y, 1, |y|^2]; entries at or below tol = 1e-4 (max |x|^2 +
max |y|^2), the maxima over the rows it is given (NaN rows skipped), where
that sum cancels, are recomputed from exact differences, so coincident
points give exactly 0 and, tol being >= 0, no entry stays negative.  The
iterator yields the flat indices of those entries.  The kernel
values are then computed in place, in the order
norm * exp(sq / (-2 sigma^2)) or norm * exp(sqrt(sq) / -sigma), which are
the bits of norm * exp(-sq / (2 sigma^2)) and norm * exp(-sqrt(sq) / sigma).

None of this depends on sigma.  Each block's product is cheap to redo and
large to keep; the rest -- the row norms, tol, sq_max, the augmented rows,
the scan for entries at or below tol and those entries' indices, differences
and recomputed values -- is small to keep.  A bandwidth sweep evaluates
every candidate on the same training rows and the same query rows, so
harness.select opens one DistanceReuse scope per closed-form sweep and
passes it to every candidate's Gram and model.  The first call on a
(training rows, query rows) pair computes as above, in place, and records
that part: the augmented rows keyed by the rows' content (shape and bytes,
never id(), so the FD statistic's displaced rows, made anew for each
candidate, find them) and each block's recomputed entries, their flat
indices and values, keyed by the pair.  A later call does each block's
product and writes the recorded values back.  The same augmented rows give
the same product bits, hence the same scan, so the distances are bit for bit
those of a fresh call.  A scope holds the augmented rows and their bytes,
three times the rows' own size, and 16 bytes per recomputed entry (0.18 MB
in all for a 1400-row training set and five sets of 192 query rows at
d = 2); it is dropped when select returns, and the model select returns
holds none.

numpy's float64 exp (AVX-512) costs about 1.4 ns per element down to about
-707.7 and 20-205 ns below, where its result is subnormal or 0, so a block
in which at least 1/16 of the arguments are below -746 is split: those give
+0.0 (as np.exp does) and never reach np.exp, those in [-746, -700) go
through np.exp on a gathered copy, and the rest through np.exp in place
after a clamp at -700.  np.exp works lane by lane, so the values are bit for
bit those of one np.exp over the block.  The split's masks cost more than
the slow path of a few underflowing arguments, so other blocks take one
np.exp; one reduction, the block's smallest argument, passes most blocks
with no mask.  A call whose row norms keep every argument above -745 (with
R = max |x| + max |y|, R^2 / (2 sigma^2) <= 745 for the Gaussian and
R / sigma <= 745 for the Laplacian, most of a sweep's grid on standardized
data) skips that reduction as well.  The subnormal results, which the split
cannot avoid, stay as they are: flushing them to 0 would be faster again,
but would err by up to 2^-1022 where the rounding bounds of tests/oracles.py
allow a few 2^-1074.

kernel_matrix_closed_form has each block computed in its rows of the N x M
output, so its memory is the output plus boolean masks of one block.  For a
Gram (Y the very object X) each block copies its entries left of the
diagonal from the rows above, so the Gram is exactly symmetric.

f_and_grad_closed_form contracts with alpha block by block and builds no
N x M matrix.  A Gaussian block needs only its kernel values, which are
kernel_matrix_closed_form of that block of training rows; a Laplacian block
also needs its distances and recomputed pairs (their rows, columns and
differences follow from the flat indices), so it reads the iterator
directly, with a second scratch copy for the distances.
ClosedFormRepresenterModel.f_values (hence density, a KDE's with uniform
alpha) takes its f, so a density and a score read the same f bit for bit.
With K a block's values, f accumulates K^T alpha and, with W = alpha * K
(Gaussian) or alpha * K / r (Laplacian),
    Gaussian:  grad f(y) = (W^T X - f(y) y) / sigma^2,
    Laplacian: grad f(y) = (W^T X - (1^T W) y) / sigma,
where alpha is folded into the right-hand side [alpha, alpha * X] rather than
into the block.  The Laplacian's recomputed pairs, where that difference
would cancel terms of size alpha k |x| / r, have W = 0 and add
alpha k (x - y) / r directly.  Sums in this order differ from the per-pair
reference in the last digits.  kernel_gradient_closed_form keeps its
(N, M, d) output as the gradient's per-pair reference.
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
        # a numpy float32 sigma would make -2 sigma^2, sigma^-d and the exp
        # bound float32 arithmetic
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "d", int(self.d))


# Doubles in the scratch buffer of one block of training rows (1 MB).
_BLOCK_CELLS = 1 << 17
# np.exp's float64 loop takes its slow path below about -707.7; at or below
# _EXP_ZERO its result is exactly +0.0 (see the module docstring).
_EXP_SLOW = -700.0
_EXP_ZERO = -746.0


def _as_rows(X, Y):
    """X and Y as 2-D float arrays of rows with the same dimension."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise DataError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return X, Y


def _check_dim(k: ClosedFormKernel, d: int) -> None:
    if not isinstance(k, ClosedFormKernel):
        raise ValidationError(f"closed-form kernels take a ClosedFormKernel, got {type(k).__name__}")
    if d != k.d:
        raise DataError(f"data dimension {d} does not match kernel dimension {k.d}")


def _augmented(A, left: bool):
    """Rows [a, |a|^2, 1] (left) or [-2a, 1, |a|^2] of the product that gives
    squared distances, and the largest |a|^2 (fmax skips a NaN row's norm, so
    the other rows' cancelled entries are still recomputed and none of them
    stays negative)."""
    aa = np.einsum("nd,nd->n", A, A)
    ones = np.ones((A.shape[0], 1))
    rows = [A, aa[:, None], ones] if left else [-2.0 * A, ones, aa[:, None]]
    return np.hstack(rows), np.fmax.reduce(aa, initial=0.0)


class DistanceReuse:
    """The sigma-independent part of the squared distances of one sweep.

    _sq_blocks records, while it first computes the distances between some
    training rows X and query rows Y, the augmented rows of each, keyed by
    their content, and each block's recomputed entries, keyed by the pair;
    a later call on rows of the same content takes them from here and does
    only the block's product (see the module docstring).  A scope lives as
    long as the sweep that opened it.
    """

    def __init__(self):
        self._rows = {}   # (left, shape, bytes) -> (number, *_augmented(rows, left))
        self._pairs = {}  # (X number, Y number, block rows) -> each block's recomputed entries

    def rows(self, A, left: bool):
        """(number, *_augmented(A, left)) for the content of A: its shape and
        bytes, which another array holding the same rows shares.  Each
        content is stored and augmented once and numbered in order."""
        key = (left, A.shape, A.tobytes())
        if key not in self._rows:
            self._rows[key] = (len(self._rows), *_augmented(A, left))
        return self._rows[key]


def _sq_blocks(X, Y, copies=1, out=None, reuse: DistanceReuse | None = None):
    """Squared distances |x_i - y_j|^2 in blocks of rows of X.

    Yields (lo, hi, buf, idx, sq_max) for each block X[lo:hi]: buf is a
    (copies, hi - lo, M) view of the scratch buffer, or of the rows lo:hi of
    an N x M `out` (copies 1), whose buf[0] holds the block's squared
    distances (the rest is the caller's), idx the flat indices into buf[0]
    of the entries recomputed from their exact differences (entry (i, j) is
    x_{lo+i} - y_j apart; see the module docstring), and
    sq_max = (max |x| + max |y|)^2 bounds every squared distance of the call
    up to rounding.  With a `reuse` scope, what does not depend on the
    kernel is recorded once per (X, Y) content and the same values are
    yielded, bit for bit, from the record.
    """
    n, m = X.shape[0], Y.shape[0]
    step = max(1, _BLOCK_CELLS // (max(m, 1) * copies))
    if reuse is None:
        (Xa, xx_max), (Yb, yy_max), record = _augmented(X, True), _augmented(Y, False), None
    else:
        (kx, Xa, xx_max), (ky, Yb, yy_max) = reuse.rows(X, True), reuse.rows(Y, False)
        record = reuse._pairs.get((kx, ky, step))
    tol = 1e-4 * (xx_max + yy_max)
    sq_max = (math.sqrt(xx_max) + math.sqrt(yy_max)) ** 2
    scratch = np.empty(0 if out is not None else min(step, n) * m * copies)
    low = np.empty(0 if record is not None else min(step, n) * m, dtype=bool)
    blocks = [] if record is None else record  # each block's (idx, exact values)
    for lo in range(0, n, step):
        rows = min(step, n - lo)
        buf = (scratch[:copies * rows * m] if out is None
               else out[lo:lo + rows]).reshape(copies, rows, m)
        sq = np.matmul(Xa[lo:lo + rows], Yb.T, out=buf[0])
        if record is None:
            # flat indices: np.nonzero on the 2-D mask is several times slower
            idx = np.flatnonzero(np.less_equal(sq, tol, out=low[:rows * m].reshape(rows, m)))
            i, j = np.divmod(idx, m)
            diff = X[lo + i] - Y[j]
            blocks.append((idx, np.einsum("kd,kd->k", diff, diff)))
        idx, exact = blocks[lo // step]
        sq.reshape(-1)[idx] = exact  # sq is contiguous: a view
        yield lo, lo + rows, buf, idx, sq_max
    if reuse is not None and record is None:
        reuse._pairs[kx, ky, step] = blocks


def _may_underflow(k: ClosedFormKernel, sq_max: float) -> bool:
    """Whether a squared distance of at most sq_max, up to rounding, can give
    k an exp argument below _EXP_ZERO; False proves that it cannot.

    The bound's margin of 1 is about 1e-3 of the argument, far above the
    relative rounding of the distances (a few (d + 2) u); a NaN bound is True.
    """
    far = sq_max / (2.0 * k.sigma**2) if k.family == "gaussian" else math.sqrt(sq_max) / k.sigma
    return not far <= -_EXP_ZERO - 1.0


def _exp_in_place(z: np.ndarray, gate: bool) -> np.ndarray:
    """np.exp(z) into z, bit for bit, with its underflowing arguments kept out
    of np.exp's slow path (see the module docstring).  gate False, where
    _may_underflow has ruled out arguments below _EXP_ZERO, skips the check
    for them; it picks the path only, and both paths give the same bits."""
    if not z.size or not gate or z.min() >= _EXP_ZERO:
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


def _values_in_place(k: ClosedFormKernel, sq: np.ndarray, dist=None,
                     sq_max: float = math.inf) -> np.ndarray:
    """Overwrite the squared distances `sq` with the kernel values.

    A Laplacian call may pass a `dist` array of sq's shape to keep the
    distances; otherwise sq holds them on the way.  sq_max, a bound on the
    entries of sq up to rounding, lets the exp skip its underflow check.
    """
    if k.family == "gaussian":
        np.divide(sq, -2.0 * k.sigma**2, out=sq)
    else:
        np.divide(np.sqrt(sq, out=sq if dist is None else dist), -k.sigma, out=sq)
    _exp_in_place(sq, _may_underflow(k, sq_max))
    return np.multiply(sq, k.sigma ** (-k.d), out=sq)


def kernel_matrix_closed_form(k: ClosedFormKernel, X, Y, *,
                              reuse: DistanceReuse | None = None) -> np.ndarray:
    """Dense N x M matrix of kernel values k(x_i, y_j), in blocks of rows of X.

    With Y the very object X the result is exactly symmetric.  A `reuse`
    scope shares the sigma-independent work between calls on the same rows;
    the values are the same bit for bit.
    """
    symmetric = Y is X
    X, Y = _as_rows(X, Y)
    _check_dim(k, X.shape[1])
    out = np.empty((X.shape[0], Y.shape[0]))
    for lo, hi, buf, _, sq_max in _sq_blocks(X, Y, out=out, reuse=reuse):
        _values_in_place(k, buf[0], sq_max=sq_max)
        if symmetric:  # entries left of the diagonal, from the rows above
            out[lo:hi, :lo] = out[:lo, lo:hi].T
            block, below = out[lo:hi, lo:hi], np.tril_indices(hi - lo, -1)
            block[below] = block.T[below]
    return out


def kernel_gradient_closed_form(k: ClosedFormKernel, X, Y) -> np.ndarray:
    """Gradient of k(x_i, y_j) with respect to the query y_j.

    Returns an (N, M, d) array.  The Laplacian kernel is not differentiable
    at coinciding points; that measure-zero case contributes zero.
    """
    X, Y = _as_rows(X, Y)
    _check_dim(k, X.shape[1])
    grads = X[:, None, :] - Y[None, :, :]  # x_i - y_j, overwritten by the gradient
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


def f_and_grad_closed_form(k: ClosedFormKernel, X, alpha, Y, *,
                           reuse: DistanceReuse | None = None):
    """f(y_j) = sum_i alpha_i k(x_i, y_j) and grad f(y_j) for each query row y_j.

    Returns (f, G) of shapes (M,) and (M, d), computed in blocks of training
    rows of at most _BLOCK_CELLS kernel values (see the module docstring).
    A `reuse` scope is passed on to the squared distances, as in
    kernel_matrix_closed_form.
    """
    X, Y = _as_rows(X, Y)
    _check_dim(k, X.shape[1])
    (n, d), m = X.shape, Y.shape[0]
    alpha = _check_weights(alpha, n)
    rhs = np.empty((n, d + 1))  # [alpha, alpha * X]
    rhs[:, 0] = alpha
    np.multiply(alpha[:, None], X, out=rhs[:, 1:])
    acc = np.zeros((m, d + 1))  # [f (Gaussian) or 1^T W (Laplacian), W^T X]
    part = np.empty((m, d + 1))
    if k.family == "gaussian":  # a block's kernel values are all it needs
        step = max(1, _BLOCK_CELLS // max(m, 1))
        for lo in range(0, n, step):
            # the block's matrix is freed before the next one is built
            acc += np.matmul(kernel_matrix_closed_form(k, X[lo:lo + step], Y, reuse=reuse).T,
                             rhs[lo:lo + step], out=part)
        return acc[:, 0].copy(), (acc[:, 1:] - acc[:, :1] * Y) / k.sigma**2
    near = np.zeros((m, d))  # sum of alpha k (x - y) / r over the recomputed pairs
    f, f_part = np.zeros(m), np.empty(m)
    # a block also keeps its distances
    for lo, hi, buf, idx, sq_max in _sq_blocks(X, Y, 2, reuse=reuse):
        i, j = np.divmod(idx, m)
        diff = X[lo + i] - Y[j]
        r = buf[1]
        K = _values_in_place(k, buf[0], r, sq_max)
        f += np.matmul(alpha[lo:hi], K, out=f_part)
        w = alpha[lo + i] * K[i, j] / np.where(r[i, j] > 0.0, r[i, j], np.inf)
        np.add.at(near, j, w[:, None] * diff)
        r[i, j] = np.inf  # so their W entries are 0
        np.divide(K, r, out=K)
        acc += np.matmul(K.T, rhs[lo:hi], out=part)
    return f, (acc[:, 1:] - acc[:, :1] * Y + near) / k.sigma
