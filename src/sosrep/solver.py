"""Gradient optimization of the pre-density objective and the fitted model.

The objective over coefficient vectors alpha, given a kernel Gram matrix K
on the training points, is

    L(alpha) = -(1/N) * sum_i log((K alpha)_i^2) + alpha^T K alpha.

Two iterations are supported, both with the explicit factor 2 in the step:

    standard:  alpha <- alpha - lr * 2 * [K alpha - (1/N) K (K alpha)^(-1)]
    natural:   alpha <- alpha - lr * 2 * [alpha  - (1/N) (K alpha)^(-1)]

where the inverse is elementwise.  The natural update is the gradient in the
function-space inner product; it is invariant to the overall kernel scale and
keeps f = K alpha nonnegative for entrywise-nonnegative kernels when
lr < 0.5.  Any fixed point satisfies alpha_i (K alpha)_i = 1/N and therefore
alpha^T K alpha = 1.

`fit` enters one numpy errstate per call.  A natural iteration makes one
K @ product (f = K alpha) and a standard iteration makes two (f and K f^(-1)).

Fitted models share one protocol, f = sum_i alpha_i k(x_i, .) plus a
`squared` flag.  A kernel backend provides `f_values` and `f_and_grad`
(f and its gradient at query rows); `density` is f^2 when squared (the
pre-density) and f otherwise (KDE), and `score_batch` is grad log density,
2 grad f / f or grad f / f.  FittedModel is the sampled-feature backend;
harness.ClosedFormRepresenterModel is the closed-form one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, SolverDivergence, ValidationError
from .sdo_kernel import (
    FORMAT_VERSION,
    FrequencySample,
    SdoParams,
    feature_map,
    feature_phases,
    rng_from_seed,
    sample_frequencies,
)

_METHODS = ("natural", "standard")
_INITS = ("abs_gaussian", "user")
_ZERO_DENSITY_FLOOR = 1e-300
_CLAMP_THRESHOLD = 1e-12
_CLAMP_VALUE = 1e12
_JITTER_REL = 1e-10
_MAX_INIT_REDRAWS = 10


@dataclass(frozen=True)
class SolverOptions:
    method: str = "natural"
    lr: float = 0.1
    n_iters: int = 1000
    seed: int = 0
    init: str = "abs_gaussian"
    grad_tol: float = 1e-8
    alpha0: np.ndarray | None = None  # used when init == "user"

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.init not in _INITS:
            raise ValidationError(f"init must be one of {_INITS}, got {self.init!r}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be positive, got {self.lr!r}")
        if self.n_iters < 1:
            raise ValidationError("n_iters must be at least 1")
        if self.grad_tol < 0:
            raise ValidationError("grad_tol must be nonnegative")
        if self.init == "user" and self.alpha0 is None:
            raise ValidationError("init='user' requires alpha0")


@dataclass
class FitResult:
    alpha: np.ndarray
    objective: float
    grad_sup_norm: float
    n_iters_run: int
    converged: bool
    clamp_warnings: int
    objective_history: np.ndarray


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


def rkhs_norm_sq(alpha, K) -> float:
    """alpha^T K alpha, the squared function norm of f = sum_i alpha_i k_{x_i}."""
    alpha = np.asarray(alpha, dtype=float)
    return float(alpha @ (np.asarray(K, dtype=float) @ alpha))


def _clamped_inverse(f: np.ndarray, small: np.ndarray):
    """Elementwise 1/f, with the entries marked small (|f| < 1e-12) set to sign(f) * 1e12."""
    inv = np.empty_like(f)
    safe = ~small
    inv[safe] = 1.0 / f[safe]
    signs = np.sign(f[small])
    signs[signs == 0.0] = 1.0
    inv[small] = signs * _CLAMP_VALUE
    return inv, int(small.sum())


def _draw_init(n: int, seed: int, K: np.ndarray) -> np.ndarray:
    rng = rng_from_seed(seed)
    for _ in range(_MAX_INIT_REDRAWS):
        alpha = np.abs(rng.standard_normal(n))
        if np.all(K @ alpha != 0.0):
            return alpha
    raise NumericsError(
        f"initialization produced an exactly zero (K alpha)_i in {_MAX_INIT_REDRAWS} redraws"
    )


def fit(K, opts: SolverOptions = SolverOptions()) -> FitResult:
    """Minimize the objective by the chosen gradient iteration.

    Initializes alpha_i = |g_i| with g standard normal under opts.seed
    (redrawing up to 10 times if some (K alpha)_i is exactly zero), then
    iterates until n_iters steps are done or the chosen gradient's sup-norm
    drops below grad_tol.  A non-finite objective aborts with the iteration
    index.  Near-zero (K alpha)_i have their inverses clamped to +-1e12 and
    counted in clamp_warnings.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValidationError(f"K must be square, got shape {K.shape}")
    n = K.shape[0]
    if n < 1:
        raise ValidationError("K must be at least 1x1")
    if opts.init == "user":
        alpha = np.asarray(opts.alpha0, dtype=float).copy()
        if alpha.shape != (n,):
            raise ValidationError(f"alpha0 must have shape ({n},), got {alpha.shape}")
    else:
        alpha = _draw_init(n, opts.seed, K)

    # One errstate for the whole fit: log(0), overflow and inf - inf become
    # a non-finite objective, which is reported as SolverDivergence.  Each
    # iteration computes |f| once; it feeds both the objective and the next
    # clamp test, and sum()/n is bitwise np.mean.
    natural = opts.method == "natural"
    lr, grad_tol = opts.lr, opts.grad_tol
    history = np.empty(opts.n_iters + 1)
    clamp_warnings = 0
    converged = False
    it = 0
    gnorm = math.inf
    f = K @ alpha
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        absf = np.abs(f)
        obj = float(-2.0 * (np.log(absf).sum() / n) + alpha @ f)
        if not math.isfinite(obj):
            raise SolverDivergence("objective non-finite at initialization", iteration=0)
        history[0] = obj
        for it in range(1, opts.n_iters + 1):
            small = absf < _CLAMP_THRESHOLD
            if small.any():
                inv, n_clamped = _clamped_inverse(f, small)
                clamp_warnings += n_clamped
            else:
                inv = 1.0 / f
            if natural:
                g = 2.0 * (alpha - inv / n)
            else:
                g = 2.0 * (f - (K @ inv) / n)
            gnorm = float(np.abs(g).max())
            if gnorm < grad_tol:
                converged = True
                it -= 1
                break
            alpha = alpha - lr * g
            f = K @ alpha
            absf = np.abs(f)
            obj = float(-2.0 * (np.log(absf).sum() / n) + alpha @ f)
            if not math.isfinite(obj):
                raise SolverDivergence(
                    f"objective became non-finite at iteration {it}", iteration=it
                )
            history[it] = obj
    history = history[: it + 1]
    return FitResult(
        alpha=alpha,
        objective=float(history[-1]),
        grad_sup_norm=gnorm,
        n_iters_run=it,
        converged=converged,
        clamp_warnings=clamp_warnings,
        objective_history=history,
    )


def add_jitter(K: np.ndarray) -> np.ndarray:
    """Diagonal jitter 1e-10 * (trace/N) for finite-T Gram matrices."""
    K = np.asarray(K, dtype=float).copy()
    n = K.shape[0]
    K[np.diag_indices(n)] += _JITTER_REL * (np.trace(K) / n)
    return K


def data_hash(X: np.ndarray) -> str:
    """SHA-256 of the row-major float64 bytes of X."""
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    return hashlib.sha256(X.tobytes()).hexdigest()


@dataclass
class FittedModel:
    """Representer model f = sum_i alpha_i k(x_i, .) = <w, phi(.)> in feature space.

    feature_weights caches w = Phi_train^T alpha so that evaluation is O(T)
    per query instead of O(N*T).  The density is f^2 when squared (the
    pre-density) and f otherwise (the sampled-kernel KDE).
    """

    alpha: np.ndarray
    fs: FrequencySample
    feature_weights: np.ndarray
    kernel_scale_flag: bool = False
    train_data_hash: str = ""
    fit_info: dict = field(default_factory=dict)
    squared: bool = True

    def f_values(self, Y) -> np.ndarray:
        """f(y_j) = <w, phi(y_j)> for each query row."""
        return feature_map(Y, self.fs, self.kernel_scale_flag) @ self.feature_weights

    def density(self, Y) -> np.ndarray:
        """Density values: f(y_j)^2 when squared, else f(y_j)."""
        f = self.f_values(Y)
        return f * f if self.squared else f

    def f_and_grad(self, Y):
        """(f values, gradient rows) of f at the query rows; both analytic."""
        U, scale = feature_phases(Y, self.fs, self.kernel_scale_flag)
        w = self.feature_weights
        f = (np.cos(U) @ w) * scale
        G = -(np.sin(U) * w) @ self.fs.Z * scale
        return f, G

    def score_batch(self, Y):
        """(score rows, f values); score = grad log density, 2 grad f / f or grad f / f.

        Rows where f vanishes produce non-finite scores; callers mask on f.
        """
        f, G = self.f_and_grad(Y)
        factor = 2.0 if self.squared else 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            S = factor * G / f[:, None]
        return S, f

    def laplacian_f(self, Y) -> np.ndarray:
        """Analytic Laplacian of f at the query rows (for trace oracles)."""
        U, scale = feature_phases(Y, self.fs, self.kernel_scale_flag)
        zsq = np.einsum("td,td->t", self.fs.Z, self.fs.Z)
        return -(np.cos(U) @ (self.feature_weights * zsq)) * scale


def evaluate_density(model: FittedModel, Y) -> np.ndarray:
    """model.density(Y): (sum_i alpha_i k(x_i, y))^2, or the sum itself when unsquared."""
    return model.density(Y)


def fit_model(
    X,
    params: SdoParams,
    T: int,
    seed: int,
    opts: SolverOptions = SolverOptions(),
    exact_normalization: bool = False,
) -> FittedModel:
    """Sample frequencies, build the jittered Gram matrix, fit, cache weights."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    fs = sample_frequencies(params, T, seed)
    Phi = feature_map(X, fs, exact_normalization)
    K = Phi @ Phi.T
    K = 0.5 * (K + K.T)
    K = add_jitter(K)
    res = fit(K, opts)
    w = Phi.T @ res.alpha
    return FittedModel(
        alpha=res.alpha,
        fs=fs,
        feature_weights=w,
        kernel_scale_flag=exact_normalization,
        train_data_hash=data_hash(X),
        fit_info={
            "objective": res.objective,
            "rkhs_norm_sq": rkhs_norm_sq(res.alpha, K),
            "grad_sup_norm": res.grad_sup_norm,
            "n_iters_run": res.n_iters_run,
            "converged": res.converged,
            "clamp_warnings": res.clamp_warnings,
        },
    )


def model_to_json(model: FittedModel, run_config: dict | None = None) -> str:
    """Serialize the model; frequencies are stored by reference (seed, params, T)."""
    record = {
        "format_version": FORMAT_VERSION,
        "kind": "sosrep_model",
        "seed": model.fs.seed,
        "T": model.fs.T,
        "params": {
            "a": model.fs.base_params.a,
            "m": model.fs.base_params.m,
            "d": model.fs.base_params.d,
        },
        "alpha": [float(v) for v in model.alpha],
        "feature_weights": [float(v) for v in model.feature_weights],
        "kernel_scale_flag": bool(model.kernel_scale_flag),
        "train_data_hash": model.train_data_hash,
        "fit_info": model.fit_info,
        "run_config": run_config or {},
    }
    return json.dumps(record, sort_keys=True, indent=1)


def model_from_json(text: str) -> FittedModel:
    """Rebuild a model from its JSON record, regenerating the frequency sample."""
    try:
        record = json.loads(text)
        if record.get("kind") != "sosrep_model":
            raise ValidationError("not a model record")
        p = record["params"]
        params = SdoParams(a=p["a"], d=p["d"], m=p["m"])
        fs = sample_frequencies(params, int(record["T"]), int(record["seed"]))
        return FittedModel(
            alpha=np.array(record["alpha"], dtype=float),
            fs=fs,
            feature_weights=np.array(record["feature_weights"], dtype=float),
            kernel_scale_flag=bool(record["kernel_scale_flag"]),
            train_data_hash=record.get("train_data_hash", ""),
            fit_info=record.get("fit_info", {}),
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed model record: {exc}") from exc
