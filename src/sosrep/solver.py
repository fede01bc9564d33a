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

`fit` runs the iteration from one start, drawn from a seed or given, or from
a batch of starts, which advance together in one loop under one numpy
errstate.  A drawn start follows the one start law, alpha = |g| with g
standard normal from the Philox stream (seed, stream) (`_draw_init`), and
enters the loop as a given start does.  SolverOptions holds the iteration's
settings only (method, lr, n_iters, grad_tol); the start is an argument of
`fit`.  Per start, a natural iteration makes one matrix-vector product
(f = K alpha) and a standard iteration makes two (f and K f^(-1)).  A start
ends for one of three reasons, all met at one exit of the loop: its
objective becomes non-finite (SolverDivergence; a zero (K alpha)_i at the
start ends it at initialization, iteration 0), its gradient's sup-norm
falls below grad_tol (converged), or its n_iters steps are done.

Fitted models share one protocol, f = sum_i alpha_i k(x_i, .) plus a
`squared` flag.  A kernel backend provides `f_values` and `f_and_grad`
(f and its gradient at query rows); `density` is f^2 when squared (the
pre-density) and f otherwise (KDE), and `score_batch` is grad log density,
2 grad f / f or grad f / f.  FittedModel is the sampled-feature backend;
harness.ClosedFormRepresenterModel is the closed-form one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverDivergence, ValidationError
from .sdo_kernel import (
    FrequencySample,
    SdoParams,
    _cos_sin,
    _count,
    _gram,
    _is_int,
    _is_real,
    _positive,
    _store,
    feature_map,
    feature_phases,
    rng_from_seed,
    sample_frequencies,
)

FORMAT_VERSION = "1"
_METHODS = ("natural", "standard")
_CLAMP_THRESHOLD = 1e-12
_CLAMP_VALUE = 1e12
_JITTER_REL = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    method: str = "natural"
    lr: float = 0.1
    n_iters: int = 1000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"method must be one of {_METHODS}, got {self.method!r}")
        lr = _positive(self.lr, "lr")
        n_iters = _count(self.n_iters, "n_iters")
        if not (_is_real(self.grad_tol) and math.isfinite(self.grad_tol)
                and self.grad_tol >= 0):
            raise ValidationError(
                f"grad_tol must be a nonnegative finite real number, got {self.grad_tol!r}")
        _store(self, lr=lr, n_iters=n_iters, grad_tol=float(self.grad_tol))


@dataclass
class FitResult:
    alpha: np.ndarray
    objective: float
    grad_sup_norm: float
    n_iters_run: int
    converged: bool
    clamp_warnings: int
    objective_history: np.ndarray

    def summary(self, K) -> dict:
        """The fit's JSON summary on its Gram K: objective, RKHS norm and
        convergence diagnostics."""
        return {
            "objective": self.objective,
            "rkhs_norm_sq": rkhs_norm_sq(self.alpha, K),
            "grad_sup_norm": self.grad_sup_norm,
            "n_iters_run": self.n_iters_run,
            "converged": self.converged,
            "clamp_warnings": self.clamp_warnings,
        }


class FitBatch(list):
    """fit's result for a batch of starts: per start, its FitResult or its SolverDivergence.

    Its summary fields read like one FitResult's over the whole batch, so
    code that reads a fit's summary (a profiler wrapping `fit`, say) reads a
    batch too: n_iters_run and clamp_warnings total the starts that finished,
    and converged holds when every start converged.
    """

    @property
    def n_iters_run(self) -> int:
        return sum(r.n_iters_run for r in self if isinstance(r, FitResult))

    @property
    def converged(self) -> bool:
        return all(isinstance(r, FitResult) and r.converged for r in self)

    @property
    def clamp_warnings(self) -> int:
        return sum(r.clamp_warnings for r in self if isinstance(r, FitResult))


def rkhs_norm_sq(alpha, K) -> float:
    """alpha^T K alpha, the squared function norm of f = sum_i alpha_i k_{x_i}."""
    alpha = np.asarray(alpha, dtype=float)
    return float(alpha @ (np.asarray(K, dtype=float) @ alpha))


def _clamped_inverse(f: np.ndarray, small: np.ndarray):
    """Elementwise 1/f, with the entries marked small (|f| < 1e-12) set to sign(f) * 1e12.

    Returns the inverse and the number of clamped entries in each row.
    """
    inv = np.empty_like(f)
    safe = ~small
    inv[safe] = 1.0 / f[safe]
    signs = np.sign(f[small])
    signs[signs == 0.0] = 1.0
    inv[small] = signs * _CLAMP_VALUE
    return inv, small.sum(axis=1)


def _matvecs(K: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The rows K @ A[j]: one matrix-vector product per row, bitwise K @ A[j].

    A single K @ A.T would be one matrix-matrix product, whose bits differ.
    """
    return np.matmul(K, A[:, :, None])[:, :, 0]


def _draw_init(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """The start alpha = |g|, g standard normal from stream (seed, stream).

    The package's one start law: fit's seeded start is stream 0, and
    harness.negative_fraction_experiment draws its start i from stream i + 1.
    """
    return np.abs(rng_from_seed(seed, stream).standard_normal(n))


def _square_gram(K) -> np.ndarray:
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValidationError(f"K must be square, got shape {K.shape}")
    if K.shape[0] < 1:
        raise ValidationError("K must be at least 1x1")
    return K


def fit(K, opts: SolverOptions = SolverOptions(), *, seed: int = 0,
        alpha0=None) -> FitResult | FitBatch:
    """Minimize the objective by the chosen gradient iteration.

    With alpha0 None the start is alpha_i = |g_i| with g standard normal
    from stream (seed, 0), the one start law (`_draw_init`); a 1-D alpha0 of
    length N is the start.  Either start enters the loop the same way, and
    fit raises its SolverDivergence, if any: a zero (K alpha)_i at the start
    ends it at initialization, with iteration 0.  A B x N alpha0 is a batch
    of B starts, advanced together: fit returns a FitBatch, where a start
    that diverged holds its SolverDivergence instead of raising it, and each
    entry is bit for bit what a lone fit from that start gives.
    """
    K = _square_gram(K)
    n = K.shape[0]
    alpha = _draw_init(n, seed) if alpha0 is None else np.asarray(alpha0, dtype=float)
    if alpha.ndim == 2 and alpha.shape[0] >= 1 and alpha.shape[1] == n:
        return _fit_starts(K, alpha, opts)
    if alpha.shape != (n,):
        raise ValidationError(
            f"alpha0 must have shape ({n},) or (B, {n}) with B >= 1, got {alpha.shape}")
    res = _fit_starts(K, alpha[None], opts)[0]
    if isinstance(res, SolverDivergence):
        raise res
    return res


def _fit_starts(K: np.ndarray, alpha: np.ndarray, opts: SolverOptions) -> FitBatch:
    """Run the gradient iteration from each row of the B x N start array alpha at once.

    Returns a FitBatch with one entry per start: its FitResult, or the
    SolverDivergence it raised.  Every start makes its own matrix-vector
    products, so its entry does not depend on the other starts.  Iteration
    `it` records the objective at alpha_it, then takes the gradient there
    unless it is the last one (it == n_iters).  A start ends at the first
    iteration where its objective is non-finite (SolverDivergence with that
    iteration), its gradient's sup-norm is below grad_tol (a converged
    FitResult at alpha_it, n_iters_run = it) or the budget is spent (a
    FitResult at alpha_{n_iters}, whose grad_sup_norm is that of the last
    gradient taken, at alpha_{n_iters - 1}).  Near-zero (K alpha)_i have
    their inverses clamped to +-1e12 and counted in clamp_warnings.
    """
    n = K.shape[1]

    # One errstate for all starts: log(0), overflow and inf - inf become a
    # non-finite objective, which ends that start with SolverDivergence.
    # Every array holds the running starts only (rows[i] is row i's start),
    # so rows are gathered only in an iteration where some start ends; one
    # site builds the ended starts' entries and one tuple drops their rows.
    # Each iteration computes |f| once; it feeds both the objective and the
    # clamp test, and sum()/n is bitwise np.mean.  np.count_nonzero tests a
    # mask in a third of the time of .any(), which counts for one start on a
    # small Gram.
    natural = opts.method == "natural"
    lr, grad_tol = opts.lr, opts.grad_tol
    out = FitBatch([None] * alpha.shape[0])
    rows = np.arange(alpha.shape[0])
    history = np.empty((alpha.shape[0], opts.n_iters + 1))
    clamp_warnings = np.zeros(alpha.shape[0], dtype=int)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for it in range(opts.n_iters + 1):
            f = _matvecs(K, alpha)
            absf = np.abs(f)
            obj = -2.0 * (np.log(absf).sum(axis=1) / n) + np.matmul(
                alpha[:, None, :], f[:, :, None])[:, 0, 0]
            history[:, it] = obj
            last = it == opts.n_iters
            if not last:
                small = absf < _CLAMP_THRESHOLD
                if np.count_nonzero(small):
                    inv, n_clamped = _clamped_inverse(f, small)
                    clamp_warnings += n_clamped
                else:
                    inv = 1.0 / f
                g = 2.0 * (alpha - inv / n) if natural else 2.0 * (f - _matvecs(K, inv) / n)
                gnorm = np.abs(g).max(axis=1)
            # At the last iteration gnorm is the previous one's, which no
            # running start has below grad_tol, so no start reads converged.
            diverged = ~np.isfinite(obj)
            converged = gnorm < grad_tol
            ended = diverged | converged | last
            if np.count_nonzero(ended):
                for i in np.flatnonzero(ended):
                    out[rows[i]] = SolverDivergence(
                        f"objective became non-finite at iteration {it}" if it
                        else "objective non-finite at initialization",
                        iteration=it,
                    ) if diverged[i] else FitResult(
                        alpha=alpha[i].copy(),
                        objective=float(history[i, it]),
                        grad_sup_norm=float(gnorm[i]),
                        n_iters_run=it,
                        converged=bool(converged[i]),
                        clamp_warnings=int(clamp_warnings[i]),
                        objective_history=history[i, : it + 1].copy(),
                    )
                if ended.all():
                    return out
                keep = ~ended
                rows, alpha, g, gnorm, history, clamp_warnings = (
                    rows[keep], alpha[keep], g[keep], gnorm[keep], history[keep],
                    clamp_warnings[keep])
            alpha = alpha - lr * g


def _add_jitter_in_place(K: np.ndarray) -> np.ndarray:
    """Add the diagonal jitter 1e-10 * (trace/N) of a finite-T Gram matrix to K itself.

    K is a float Gram temporary that nothing else holds.
    """
    n = K.shape[0]
    K[np.diag_indices(n)] += _JITTER_REL * (np.trace(K) / n)
    return K


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
        """(f values, gradient rows) of f at the query rows; both analytic.

        cos and sin of the phases come from sdo_kernel._cos_sin's one tan
        pass, in place, so a call holds two N x T arrays; f_values keeps
        feature_map's np.cos, which every Gram and fit shares.
        """
        U, scale = feature_phases(Y, self.fs, self.kernel_scale_flag)
        w = self.feature_weights
        C, S = _cos_sin(U)
        f = (C @ w) * scale
        S *= w
        G = -(S @ self.fs.Z) * scale
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


def fit_model(
    X,
    params: SdoParams,
    T: int,
    seed: int,
    opts: SolverOptions = SolverOptions(),
    exact_normalization: bool = False,
) -> FittedModel:
    """Sample frequencies, build the jittered Gram matrix, fit, cache weights.

    The one seed draws both the frequencies and the solver's start.
    """
    fs = sample_frequencies(params, T, seed)
    Phi = feature_map(X, fs, exact_normalization)
    K = _add_jitter_in_place(_gram(Phi))
    res = fit(K, opts, seed=seed)
    w = Phi.T @ res.alpha
    return FittedModel(
        alpha=res.alpha,
        fs=fs,
        feature_weights=w,
        kernel_scale_flag=exact_normalization,
        fit_info=res.summary(K),
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
        "fit_info": model.fit_info,
        "run_config": run_config or {},
        "squared": bool(model.squared),
    }
    return json.dumps(record, sort_keys=True, indent=1)


def _finite_vector(values, name: str, length: int | None = None) -> np.ndarray:
    """A record's list of numbers as a 1-D finite float array, else ValidationError."""
    try:
        v = np.array(values, dtype=float)
    except (TypeError, ValueError):
        v = None
    if v is None or v.ndim != 1 or not np.all(np.isfinite(v)):
        raise ValidationError(f"malformed model record: {name} must be a list of finite numbers")
    if length is not None and v.shape[0] != length:
        raise ValidationError(
            f"malformed model record: {name} has {v.shape[0]} entries, expected T = {length}"
        )
    return v


def _json_record(text: str) -> dict:
    """Parse a JSON record; a value that is not an object is a TypeError."""
    record = json.loads(text)
    if not isinstance(record, dict):
        raise TypeError(f"expected a JSON object, got {type(record).__name__}")
    return record


def _record_int(record: dict, key: str) -> int:
    """record[key], which must be a JSON integer (not a bool), else TypeError."""
    value = record[key]
    if not _is_int(value):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _json_bool(value, key: str) -> bool:
    """A record's value for key, which must be a JSON boolean, else TypeError."""
    if not isinstance(value, bool):
        raise TypeError(f"{key} must be a JSON boolean, got {value!r}")
    return value


def model_from_json(text: str) -> FittedModel:
    """Rebuild a model from its JSON record, regenerating the frequency sample.

    A record without "squared" (written before the flag was stored) loads as
    a squared model; a "train_data_hash" key, which older records carry, is
    ignored.  The record must be a JSON object whose T and seed are
    integers and whose params hold a real a and integer d and m (no bools);
    alpha and feature_weights must be lists of finite numbers,
    feature_weights of length T; kernel_scale_flag and squared must be JSON
    booleans and fit_info, when present, a JSON object.
    """
    try:
        record = _json_record(text)
        if record.get("kind") != "sosrep_model":
            raise ValidationError("not a model record")
        p = record["params"]
        params = SdoParams(a=p["a"], d=p["d"], m=p["m"])
        fit_info = record.get("fit_info", {})
        if not isinstance(fit_info, dict):
            raise TypeError(f"fit_info must be a JSON object, got {fit_info!r}")
        fs = sample_frequencies(params, _record_int(record, "T"), _record_int(record, "seed"))
        return FittedModel(
            alpha=_finite_vector(record["alpha"], "alpha"),
            fs=fs,
            feature_weights=_finite_vector(record["feature_weights"], "feature_weights", fs.T),
            kernel_scale_flag=_json_bool(record["kernel_scale_flag"], "kernel_scale_flag"),
            fit_info=fit_info,
            squared=_json_bool(record.get("squared", True), "squared"),
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed model record: {exc}") from exc
