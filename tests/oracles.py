"""Test oracles: direct formulas that the package computes some other way.

The objective and its two gradients, written out one call at a time, are
the paper's formulas that `solver.fit` runs in its loop; `test_solver.py`
checks the loop against them bit for bit.  The analytic score-Jacobian
trace (through the analytic Laplacian of f) checks the Hutchinson
estimator, and the one-pair kernel value and the diagonal jitter on a copy
check the matrix builders.
"""

import numpy as np

from sosrep.baseline_kernels import ClosedFormKernel, kernel_matrix_closed_form
from sosrep.errors import NumericsError, VanishingDensity
from sosrep.score_fd import _DENSITY_FLOOR
from sosrep.sdo_kernel import feature_phases
from sosrep.solver import FittedModel, _add_jitter_in_place

_ZERO_DENSITY_FLOOR = 1e-300


def _check_nonzero(f: np.ndarray):
    if np.any(np.abs(f) < _ZERO_DENSITY_FLOOR):
        i = int(np.argmin(np.abs(f)))
        raise NumericsError(f"zero density at data point {i}: |(K alpha)_{i}| < 1e-300")


def objective(alpha, K) -> float:
    """-(1/N) sum_i log((K alpha)_i^2) + alpha^T K alpha."""
    alpha = np.asarray(alpha, dtype=float)
    K = np.asarray(K, dtype=float)
    f = K @ alpha
    _check_nonzero(f)
    return float(-2.0 * np.mean(np.log(np.abs(f))) + alpha @ f)


def grad_standard(alpha, K) -> np.ndarray:
    """2 * [K alpha - (1/N) K (K alpha)^(-1)], the coefficient-space gradient."""
    alpha = np.asarray(alpha, dtype=float)
    K = np.asarray(K, dtype=float)
    f = K @ alpha
    _check_nonzero(f)
    n = alpha.shape[0]
    return 2.0 * (f - (K @ (1.0 / f)) / n)


def grad_natural(alpha, K) -> np.ndarray:
    """2 * [alpha - (1/N) (K alpha)^(-1)], the function-space gradient."""
    alpha = np.asarray(alpha, dtype=float)
    K = np.asarray(K, dtype=float)
    f = K @ alpha
    _check_nonzero(f)
    n = alpha.shape[0]
    return 2.0 * (alpha - (1.0 / f) / n)


def natural_step(alpha, K, lr: float) -> np.ndarray:
    """One natural-gradient update with learning rate lr."""
    return np.asarray(alpha, dtype=float) - lr * grad_natural(alpha, K)


def add_jitter(K: np.ndarray) -> np.ndarray:
    """Diagonal jitter 1e-10 * (trace/N) for finite-T Gram matrices, on a copy."""
    return _add_jitter_in_place(np.asarray(K, dtype=float).copy())


def evaluate_density(model: FittedModel, Y) -> np.ndarray:
    """model.density(Y): (sum_i alpha_i k(x_i, y))^2, or the sum itself when unsquared."""
    return model.density(Y)


def laplacian_f(model: FittedModel, Y) -> np.ndarray:
    """Analytic Laplacian of a sampled-feature model's f at the query rows."""
    U, scale = feature_phases(Y, model.fs, model.kernel_scale_flag)
    zsq = np.einsum("td,td->t", model.fs.Z, model.fs.Z)
    return -(np.cos(U) @ (model.feature_weights * zsq)) * scale


def score_jacobian_trace(model: FittedModel, x) -> float:
    """Analytic trace of the score Jacobian: c * [Lap f / f - ||grad f||^2 / f^2].

    c is 2 for a squared model (density f^2) and 1 for an unsquared one
    (density f), the factor of score_batch.  Takes a sampled-feature model
    (FittedModel or harness.SdoKdeModel); the cross-check oracle for the
    Hutchinson estimator.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    f, G = model.f_and_grad(x)
    if abs(f[0]) < _DENSITY_FLOOR:
        raise VanishingDensity("vanishing density at query")
    lap = laplacian_f(model, x)[0]
    g2 = float(G[0] @ G[0])
    factor = 2.0 if model.squared else 1.0
    return factor * (lap / f[0] - g2 / f[0] ** 2)


def eval_kernel(k: ClosedFormKernel, x, y) -> float:
    """Single kernel value k(x, y)."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    y = np.asarray(y, dtype=float).reshape(1, -1)
    return float(kernel_matrix_closed_form(k, x, y)[0, 0])
