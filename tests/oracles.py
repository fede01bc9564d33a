"""Test oracles: direct formulas that the package computes some other way.

The objective and its two gradients, written out one call at a time, are
the paper's formulas that `solver.fit` runs in its loop; `test_solver.py`
checks the loop against them bit for bit, and the RKHS norm from its own
product K @ alpha checks the one a fit's summary reads off its f.  The
analytic score-Jacobian trace (through the analytic Laplacian of f) checks
the Hutchinson estimator, and the one-pair kernel value and the diagonal jitter on a copy
check the matrix builders.  The plain closed-form KDE is the uniform-weight
f of the closed-form path, which the KDE baseline's model must equal.  f
and grad f from np.cos and np.sin hold the sampled model's half-angle
evaluation to a rounding bound, and np.cos features hold `feature_map`'s,
as `assert_within_error_bounds` holds the closed-form f and grad f by
matrix products, and `assert_matrix_within_error_bounds` the closed-form
kernel matrix, to a rounding-error bound around the per-pair kernels and
gradients.

The exact d=1, m=1 kernel and the adaptive quadrature of the 1-D kernel
integral check the sampled kernel, the whole-array radial table, whose
support is found by doubling, checks the sampler's one-pass table and its
closed-form support bit for bit, and the one-point Hutchinson estimate
checks the batched Fisher-divergence statistic.  The probe numbering as a
loop over rows and probes, and the statistic that gathers its scores probe
by probe, are the references for the sort-based numbering and the one-pass
gather of `score_fd`, which must equal them bit for bit.  The
stable-minimum rule run on a whole profile, and the selection kind worked
out again from a profile and its pick, check the kind that `tune` records
as it sweeps.  The quadrature needs scipy, a test dependency; the package
itself needs numpy alone.

The one-ulp gate judges a change that is not bit for bit: the parent's
run_ad cells on an input and on one-ulp copies of it give the picks, AUCs
and FD entries that rounding alone can produce (`ulp_spread`), and
`ulp_gate` checks the change's cell against them.  Batch fits share one
matrix-matrix product per iteration; per_start_products swaps in one
matrix-vector product per start, the lone fit's, and the negfrac gate
judges the package's negative_fraction_experiment against that route on an
input and its one-ulp copies (`negfrac_spread`, `negfrac_gate`).
"""

import contextlib
import math
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
from scipy import integrate

from sosrep import harness, sdo_kernel, solver
from sosrep.baseline_kernels import (
    ClosedFormKernel,
    f_and_grad_closed_form,
    kernel_matrix_closed_form,
)
from sosrep.errors import NumericsError, ValidationError, VanishingDensity
from sosrep.harness import Dataset, negative_fraction_experiment, run_ad
from sosrep.score_fd import (
    _DENSITY_FLOOR,
    _THREE_POINT_CORRECTION,
    FdOptions,
    FdStat,
    _draw_probes,
    _test_rows,
    stable_minimum,
)
from sosrep.sdo_kernel import (
    _RADIAL_NODES,
    _TAIL_FRACTION,
    SdoParams,
    _cumulative_trapezoid,
    feature_phases,
    radial_density,
    rng_from_seed,
)
from sosrep.solver import FittedModel, _add_jitter_in_place

_ZERO_DENSITY_FLOOR = 1e-300
# Passes of the doubling reference table before it gives up: r_max up to 2^59.
_MAX_DOUBLINGS = 60


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


def rkhs_norm_sq(alpha, K) -> float:
    """alpha^T K alpha, the squared function norm of f = sum_i alpha_i k_{x_i},
    from its own product K @ alpha."""
    alpha = np.asarray(alpha, dtype=float)
    return float(alpha @ (np.asarray(K, dtype=float) @ alpha))


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


def feature_map(X, fs, exact_normalization: bool = False) -> np.ndarray:
    """Cosine features np.cos(U) * scale of the phases U; sdo_kernel.feature_map
    gets its cosines from one tan pass instead (within 4 eps * scale)."""
    U, scale = feature_phases(X, fs, exact_normalization)
    return np.cos(U) * scale


def cos_sin(U: np.ndarray, sin: bool = True):
    """sdo_kernel._cos_sin from np.cos and np.sin, overwriting U as it does."""
    if not sin:
        return np.cos(U, out=U)
    C = np.cos(U)
    np.sin(U, out=U)
    return C, U


@contextlib.contextmanager
def numpy_cosines():
    """Within the block, every feature-space cosine of the package (features,
    Grams, fits, f and grad f) is np.cos's, and every sine np.sin's."""
    with mock.patch.object(sdo_kernel, "_cos_sin", cos_sin), \
            mock.patch.object(solver, "_cos_sin", cos_sin):
        yield


def f_and_grad(model: FittedModel, Y):
    """(f, grad f) of a sampled-feature model from np.cos and np.sin of its phases.

    FittedModel.f_and_grad gets cos and sin from one tan pass instead; see
    assert_f_and_grad_within_rounding for the bound between the two.
    """
    U, scale = feature_phases(Y, model.fs, model.kernel_scale_flag)
    w = model.feature_weights
    return (np.cos(U) @ w) * scale, -((np.sin(U) * w) @ model.fs.Z) * scale


def assert_f_and_grad_within_rounding(model: FittedModel, Y):
    """model.f_and_grad(Y) agrees with f_and_grad(model, Y) to rounding, shapes equal.

    With u = machine epsilon, w the feature weights and s the feature scale,
    a term of f is s w_t cos U_t, with cos U_t within 4u of the exact value
    on the half-angle path and within u on np.cos's; a length-T product then
    adds up to about u sum_t |term| each side, since these sums mix signs.
    So |f - f_ref| <= 8 u s sum_t |w_t|, one u of margin.  A component of
    grad f sums s w_t sin U_t Z_tj, whose product sin * w rounds once more
    on each side, so each |G - G_ref| <= 10 u s sum_t |w_t| |Z_t|.
    """
    eps = np.finfo(float).eps
    f, G = model.f_and_grad(Y)
    f_ref, G_ref = f_and_grad(model, Y)
    _, scale = feature_phases(Y, model.fs, model.kernel_scale_flag)
    w = np.abs(model.feature_weights)
    assert f.shape == f_ref.shape and G.shape == G_ref.shape
    assert np.all(np.abs(f - f_ref) <= 8 * eps * scale * np.sum(w))
    z_norms = np.linalg.norm(model.fs.Z, axis=1)
    assert np.all(np.abs(G - G_ref) <= 10 * eps * scale * np.sum(w * z_norms))


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


def hutchinson_trace(score_fn, x, opts: FdOptions, row_index: int = 0) -> float:
    """Finite-difference Hutchinson estimate of trace(Jacobian of score_fn).

    Averages (1/h) * (score_fn(x + h*eps) - score_fn(x)) . eps over
    opts.n_fd_iters probe vectors.  Rademacher probes have identity
    covariance; the three-point probe (coordinates uniform on {-1,0,1}) has
    covariance (2/3) I and the average is corrected by 3/2.  Probe draws are
    keyed by (opts.seed, row_index) so results do not depend on evaluation
    order.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = x.shape[0]
    rng = rng_from_seed(opts.seed, row_index)
    eps = _draw_probes(rng, opts.n_fd_iters, d, opts.probe)
    s0 = np.asarray(score_fn(x), dtype=float)
    total = 0.0
    for j in range(opts.n_fd_iters):
        s1 = np.asarray(score_fn(x + opts.h * eps[j]), dtype=float)
        total += float((s1 - s0) @ eps[j]) / opts.h
    est = total / opts.n_fd_iters
    if opts.probe == "paper_three_point":
        est *= _THREE_POINT_CORRECTION
    return est


def distinct_probes(eps: np.ndarray):
    """score_fd._distinct_probes as a loop over rows and probes.

    Returns (slot, first): slot[i, j] is the number of probe j among row i's
    distinct probes, in order of first appearance, and first[i, r] the index
    of the first probe of row i with number r (0 where the row has fewer than
    r + 1 distinct probes).
    """
    n_rows, n_probes, _ = eps.shape
    slot = np.empty((n_rows, n_probes), dtype=np.intp)
    first = np.zeros((n_rows, n_probes), dtype=np.intp)
    for i in range(n_rows):
        seen: dict[bytes, int] = {}
        for j in range(n_probes):
            key = eps[i, j].tobytes()
            if key not in seen:
                first[i, len(seen)] = j
                seen[key] = len(seen)
            slot[i, j] = seen[key]
    return slot, first[:, : slot.max() + 1]


def fd_statistic_probe_by_probe(model, Y, opts: FdOptions) -> FdStat:
    """score_fd.fd_statistic with the Hutchinson sum gathered probe by probe.

    Row i's probes are drawn from rng_from_seed(opts.seed, i) and numbered
    by distinct_probes; round r scores each row's r-th distinct probe point
    in one call, as fd_statistic does, and the loop over probes then gathers
    probe j's scores, tests its f against the density floor and adds its
    term to the row's running sum.
    """
    Y = _test_rows(Y)
    n_rows, d = Y.shape
    eps = np.stack([_draw_probes(rng_from_seed(opts.seed, i), opts.n_fd_iters, d, opts.probe)
                    for i in range(n_rows)]).astype(np.int8)
    slot, first = distinct_probes(eps)
    S0, f0 = model.score_batch(Y)
    ok = np.abs(f0) >= _DENSITY_FLOOR

    rows = np.arange(n_rows)
    S_round = np.empty((first.shape[1], n_rows, d))
    f_round = np.empty((first.shape[1], n_rows))
    for r in range(first.shape[1]):
        E = eps[rows, first[:, r]].astype(float)
        S_round[r], f_round[r] = model.score_batch(Y + opts.h * E)

    trace_acc = np.zeros(n_rows)
    for j in range(opts.n_fd_iters):
        E = eps[:, j, :].astype(float)
        Sj, fj = S_round[slot[:, j], rows], f_round[slot[:, j], rows]
        ok &= np.abs(fj) >= _DENSITY_FLOOR
        with np.errstate(invalid="ignore"):
            trace_acc += np.einsum("md,md->m", Sj - S0, E)
    trace = trace_acc / (opts.n_fd_iters * opts.h)
    if opts.probe == "paper_three_point":
        trace *= _THREE_POINT_CORRECTION

    with np.errstate(invalid="ignore"):
        vals = trace + 0.5 * np.einsum("md,md->m", S0, S0)
    ok &= np.isfinite(vals)
    retained = int(ok.sum())
    if retained == 0:
        raise NumericsError("all rows skipped: the density vanishes at every test row")
    return FdStat(
        value=float(np.mean(vals[ok])),
        retained_rows=retained,
        skipped_rows=int(n_rows - retained),
    )


def closed_form_kernel_1d(x, y, a: float):
    """Exact kernel for d=1, m=1: exp(-|x-y|/sqrt(a)) / (2*sqrt(a)).

    Accepts scalars or arrays (broadcast on x - y); scalar in, scalar out.
    """
    if a <= 0:
        raise ValidationError("a must be positive")
    sa = math.sqrt(a)
    out = np.exp(-np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) / sa)
    out /= 2.0 * sa
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(out)
    return out


def numeric_kernel_1d(x: float, y: float, params: SdoParams) -> float:
    """Adaptive quadrature of the 1-D kernel integral; the exact test oracle.

    Uses a semi-infinite Fourier (cosine-weight) rule for x != y and a plain
    adaptive rule at x == y.
    """
    if params.d != 1:
        raise ValidationError("the quadrature oracle is defined for d=1 only")
    delta = abs(float(x) - float(y))
    c = params.a * (2.0 * np.pi) ** (2 * params.m)
    two_m = 2 * params.m

    def w(z):
        return 1.0 / (1.0 + c * z**two_m)

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            if delta == 0.0:
                val, err = integrate.quad(w, 0.0, np.inf, limit=200)
            else:
                val, err = integrate.quad(
                    w, 0.0, np.inf, weight="cos", wvar=2.0 * np.pi * delta, limit=200
                )
        except integrate.IntegrationWarning as exc:
            raise NumericsError(f"kernel quadrature did not converge: {exc}") from exc
    val *= 2.0
    err *= 2.0
    if not np.isfinite(val) or err > 1e-8 + 1e-6 * abs(val):
        raise NumericsError(
            f"kernel quadrature error estimate too large ({err:.3e} for value {val:.6e})"
        )
    return float(val)


def radial_table(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(r, cdf) of the a=1 radial law from whole-table arrays, one pass per r_max.

    r_max doubles from 1 until the analytic tail bound is at most 1e-4 of
    the table's np.trapezoid total; the CDF is the cumulative trapezoid of
    the whole density over np.linspace nodes.  `sdo_kernel._radial_table`,
    which works out r_max before one pass, must reproduce it bit for bit.
    """
    params = SdoParams(a=1.0, d=d, m=m)
    c = (2.0 * np.pi) ** (2 * m)
    p = 2 * m - d  # tail decay exponent, positive by 2m > d
    r_max = 1.0
    for _ in range(_MAX_DOUBLINGS):
        r = np.linspace(0.0, r_max, _RADIAL_NODES)
        dens = radial_density(r, params)
        total = float(np.trapezoid(dens, r))
        # zeta(r) <= r^(d-1-2m)/c for r >= r_max, integrated exactly
        tail = r_max ** (-p) / (c * p)
        if total > 0 and tail <= _TAIL_FRACTION * total:
            break
        r_max *= 2.0
    else:
        raise NumericsError(
            "radial table tail mass did not drop below 1e-4 of the total "
            f"within {_MAX_DOUBLINGS} doublings (m={m}, d={d})"
        )
    cdf = _cumulative_trapezoid(dens, r)
    cdf = cdf / cdf[-1]
    cdf[-1] = 1.0
    return r, cdf


def eval_kernel(k: ClosedFormKernel, x, y) -> float:
    """Single kernel value k(x, y)."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    y = np.asarray(y, dtype=float).reshape(1, -1)
    return float(kernel_matrix_closed_form(k, x, y)[0, 0])


def kde_density(X_train, Y, kernel: ClosedFormKernel) -> np.ndarray:
    """(1/N) * sum_i k(x_i, y_j) for each query row y_j of a closed-form kernel.

    The f of f_and_grad_closed_form with uniform weights, hence the density
    of ClosedFormRepresenterModel(X_train, uniform, kernel, squared=False).
    The sampled-kernel KDE is harness.SdoKdeModel, which evaluates the same
    mean through the mean feature vector without an N x M Gram matrix.
    """
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    n = X_train.shape[0]
    return f_and_grad_closed_form(kernel, X_train, np.full(n, 1.0 / n), Y)[0]


def _rounding_terms(k: ClosedFormKernel, X, Y):
    """(value, grad): per-pair first-order error terms, in units of u, of the
    closed-form kernel values and of their gradient terms (see
    assert_within_error_bounds)."""
    eps = np.finfo(float).eps
    xn, yn = np.linalg.norm(X, axis=1), np.linalg.norm(Y, axis=1)
    T = xn[:, None] + yn[None, :]
    diff = X[:, None, :] - Y[None, :, :]
    r = np.sqrt(np.einsum("nmd,nmd->nm", diff, diff))
    norm = k.sigma ** (-k.d)
    if k.family == "gaussian":
        # a value's size, with exp's absolute floor
        dk = norm * np.exp(-(r**2) / (2.0 * k.sigma**2)) + norm * (2.0**-1074 / eps)
        value = dk * (1.0 + T**2 / k.sigma**2)
        return value, value * T / k.sigma**2
    dk = norm * np.exp(-r / k.sigma) + norm * (2.0**-1074 / eps)
    tol = 1e-4 * (np.max(xn, initial=0.0) ** 2 + np.max(yn, initial=0.0) ** 2)
    dr = r + T**2 / np.maximum(np.maximum(r, np.sqrt(tol)), np.finfo(float).tiny)
    r_pos = np.where(r > 0.0, r, np.inf)  # no gradient term at r = 0
    grad = dk * T / (r_pos * k.sigma) * (1.0 + dr / k.sigma + dr / r_pos)
    # recomputed pairs add alpha k (x - y) / r directly; those with
    # r^2 <= tol / 2 are recomputed whatever the product's rounding
    direct = dk / k.sigma * (3.0 + r / k.sigma)
    grad = np.where(r**2 <= tol / 2.0, direct, np.maximum(grad, direct))
    return dk * (1.0 + dr / k.sigma), grad


def assert_matrix_within_error_bounds(k: ClosedFormKernel, X, Y, K, K_ref):
    """Each |K - K_ref| <= (d + 8) u times that pair's value term, shapes equal.

    K is kernel_matrix_closed_form's, K_ref the per-pair broadcast's; the
    value terms are those of assert_within_error_bounds, and (d + 8) u covers
    a length-(d + 2) product and a few roundings on each side.
    """
    value, _ = _rounding_terms(k, np.atleast_2d(X), np.atleast_2d(Y))
    assert K.shape == K_ref.shape
    assert np.all(np.abs(K - K_ref) <= (k.d + 8) * np.finfo(float).eps * value)


def assert_within_error_bounds(k: ClosedFormKernel, X, Y, alpha, f, G, f_ref, G_ref):
    """|f - f_ref| <= ef and each |G - G_ref| <= eg, per query row, shapes equal.

    f_ref = alpha @ K and G_ref = sum_i alpha_i grad k(x_i, .) come from the
    per-pair kernel values and gradients; (f, G) from
    baseline_kernels.f_and_grad_closed_form, which gets the same sums from
    matrix products.  (ef, eg) is a first-order rounding analysis of its
    formulas, with T = |x_i| + |y_j|, r = |x_i - y_j| and u = machine epsilon:
      - a squared distance from the augmented-row product has error about
        u T^2 (about u r^2 where it is recomputed from exact differences);
      - a Gaussian value then has relative error u (1 + T^2 / sigma^2); a
        Laplacian distance has error u (r + T^2 / max(r, sqrt(tol))), because
        entries with r^2 <= tol = 1e-4 (max |x|^2 + max |y|^2) are
        recomputed, and its value relative error u (1 + that / sigma);
      - exp's result near the subnormal range is off by up to 2^-1074 before
        the sigma^-d normalization;
      - grad f is (W^T X - s y) / sigma^p, a sum of terms of size
        alpha k T / sigma^2 (Gaussian) or alpha k T / (r sigma) (Laplacian,
        whose weight k / r adds the distance's relative error u dr / r);
      - a recomputed Laplacian pair adds alpha k (x - y) / (r sigma) directly,
        a term of size alpha k / sigma with relative error about
        u (3 + r / sigma) per unit of the scale below; a pair with
        r^2 <= tol / 2 is always recomputed, and one nearer tol may go
        either way, so it takes the larger term;
      - each bound sums the absolute terms times (N + d + 8) u: a length-N sum
        and a length-(d + 2) product, with a margin of a few roundings.
    """
    eps = np.finfo(float).eps
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    value, grad = _rounding_terms(k, X, Y)
    a = np.abs(np.asarray(alpha, dtype=float))[:, None]
    scale = (X.shape[0] + k.d + 8) * eps
    assert f.shape == f_ref.shape and G.shape == G_ref.shape
    assert np.all(np.abs(f - f_ref) <= scale * (a * value).sum(axis=0))
    assert np.all(np.abs(G - G_ref) <= scale * (a * grad).sum(axis=0)[:, None])


def fd_pick(profile) -> float:
    """The stable-minimum rule on a whole profile: its stable minimum, else
    its global minimum, ties toward the larger candidate."""
    stable = stable_minimum(profile)
    if stable is not None:
        return stable
    return profile.entries[int(np.argmin(profile.fd_values()))].a


def selection_kind(profile, a_star: float) -> str:
    """How a_star was picked on profile, worked out again from the profile.

    "stable" when a_star is the profile's stable minimum, "edge" when it is
    the first or last grid value, and "fallback" for any other pick.
    """
    if stable_minimum(profile) == a_star:
        return "stable"
    if a_star in (profile.entries[0].a, profile.entries[-1].a):
        return "edge"
    return "fallback"


# ---------------------------------------------------------------------------
# one-ulp gate: is a change that is not bit for bit within rounding?

# An FD entry whose spread over the one-ulp copies is below this share of its
# size is conditioned: rounding moves it by about its spread.  Larger
# spreads mark entries at which the fit is one of many local minima.
CONDITIONED_SPREAD = 1e-9
# A conditioned entry may move by this many times its spread, plus 4 eps of
# its size, so that an entry with no spread need not be bit for bit.
SPREAD_FACTOR = 10.0


def ulp_copies(X, k: int, seed: int = 0) -> list:
    """k seeded one-ulp copies of X: each coordinate kept, or moved one ulp up
    or down, uniformly; copy j draws its moves from rng_from_seed(seed, j)."""
    X = np.asarray(X, dtype=float)
    copies = []
    for j in range(k):
        step = rng_from_seed(seed, j).integers(-1, 2, size=X.shape)
        moved = np.nextafter(X, np.where(step > 0, np.inf, -np.inf))
        copies.append(np.where(step == 0, X, moved))
    return copies


def ad_cell(report, seed: int) -> dict:
    """One seed of a run_ad report: its pick, selection kind, AUC and FD profile."""
    profile = report.profiles[seed]
    pick = report.chosen[seed]
    return {"pick": pick, "kind": profile.selection, "auc": report.aucs[seed],
            "fd": {e.a: e.fd for e in profile.entries}}


@dataclass(frozen=True)
class UlpSpread:
    """One seed's results over an input and its one-ulp copies.

    picks holds the (pick, kind) pairs the runs produce, auc the range of
    their AUCs, fd each candidate's FD values over the runs that evaluated
    it, and base the unperturbed run's ad_cell.
    """

    picks: frozenset
    auc: tuple
    fd: dict
    base: dict
    runs: int

    def conditioned(self) -> dict:
        """{a: (base value, spread)} of the entries every run evaluated, all
        finite, with spread below CONDITIONED_SPREAD of their largest size."""
        out = {}
        for a, values in self.fd.items():
            v = np.asarray(values)
            if len(v) == self.runs and np.all(np.isfinite(v)):
                spread = float(np.ptp(v))
                if spread < CONDITIONED_SPREAD * np.max(np.abs(v)):
                    out[a] = (self.base["fd"][a], spread)
        return out


def ulp_spread(ds: Dataset, method: str, seeds, config, k: int) -> dict:
    """{seed: UlpSpread} of run_ad(ds, method, seeds, config) on ds and on
    its k ulp_copies (seed 0)."""
    datasets = [ds] + [Dataset(X=X, y=ds.y, name=ds.name) for X in ulp_copies(ds.X, k)]
    cells = [[ad_cell(run_ad(d, method, seeds=seeds, config=config), s) for s in seeds]
             for d in datasets]
    out = {}
    for i, seed in enumerate(seeds):
        runs = [c[i] for c in cells]
        fd: dict = {}
        for r in runs:
            for a, v in r["fd"].items():
                fd.setdefault(a, []).append(v)
        aucs = [r["auc"] for r in runs]
        out[seed] = UlpSpread(picks=frozenset((r["pick"], r["kind"]) for r in runs),
                              auc=(min(aucs), max(aucs)), fd=fd, base=runs[0],
                              runs=len(runs))
    return out


def ulp_gate(spread: UlpSpread, cell: dict) -> list:
    """Why `cell` (an ad_cell of the changed code) fails the one-ulp gate of
    `spread`, one line per failure; an empty list when it passes.

    It passes when its (pick, kind) is one the runs produced, its AUC lies in
    their range, and each conditioned entry it evaluated lies within
    SPREAD_FACTOR times that entry's spread, plus 4 eps of its size, of the
    unperturbed run's value.
    """
    problems = []
    if (cell["pick"], cell["kind"]) not in spread.picks:
        problems.append(f"pick {cell['pick']:.6g} ({cell['kind']}) not among "
                        f"{sorted(spread.picks)}")
    lo, hi = spread.auc
    if not lo <= cell["auc"] <= hi:
        problems.append(f"AUC {cell['auc']!r} outside [{lo!r}, {hi!r}]")
    for a, (base, width) in spread.conditioned().items():
        if a in cell["fd"]:
            bound = spread_bound(base, width)
            if not abs(cell["fd"][a] - base) <= bound:
                problems.append(f"FD at a={a:.6g}: {cell['fd'][a]!r} vs {base!r}, "
                                f"bound {bound:.3g}")
    return problems


def spread_bound(base, width):
    """The gate's distance allowed from a parent value base whose one-ulp
    spread is width: SPREAD_FACTOR * width + 4 eps * |base|, elementwise."""
    return SPREAD_FACTOR * np.asarray(width) + 4 * np.finfo(float).eps * np.abs(base)


def matvecs(K, A):
    """solver._matvecs as one matrix-vector product per row of A: each row
    bitwise K @ A[j], the product a lone fit makes."""
    return np.matmul(K, np.ascontiguousarray(A)[:, :, None])[:, :, 0]


@contextlib.contextmanager
def per_start_products():
    """Within the block, every batch product of the package (the batch fits
    and negfrac's start fractions) is one matrix-vector product per start, so
    each batch entry is bit for bit its lone fit."""
    with mock.patch.object(solver, "_matvecs", matvecs), \
            mock.patch.object(harness, "_matvecs", matvecs):
        yield


@dataclass(frozen=True)
class NegfracSpread:
    """negative_fraction_experiment with per-start products over an input and
    its one-ulp copies: base is the unperturbed report, and
    ranges[method][key] the (min, max) over the runs of that arm's
    mean_fraction or worst5_mean."""

    base: dict
    ranges: dict
    runs: int


def negfrac_spread(ds: Dataset, cfg: dict, k: int) -> NegfracSpread:
    """NegfracSpread of negative_fraction_experiment(ds, **cfg) with
    per_start_products, on ds and on its k ulp_copies (seed 0)."""
    datasets = [ds] + [Dataset(X=X, y=ds.y, name=ds.name) for X in ulp_copies(ds.X, k)]
    with per_start_products():
        reports = [negative_fraction_experiment(d, **cfg) for d in datasets]
    ranges = {}
    for method in ("natural", "standard"):
        values = {key: [r["methods"][method][key] for r in reports]
                  for key in ("mean_fraction", "worst5_mean")}
        ranges[method] = {key: (min(v), max(v)) for key, v in values.items()}
    return NegfracSpread(base=reports[0], ranges=ranges, runs=len(reports))


def negfrac_gate(spread: NegfracSpread, report: dict) -> list:
    """Why `report` (the package's negative_fraction_experiment on the
    unperturbed input) fails the negfrac gate of `spread`, one line per
    failure; an empty list when it passes.

    It passes when the natural arm's fractions and n_divergent and the init
    block equal the per-start run's, each standard-arm mean_fraction and
    worst5_mean lies in the runs' range, and criterion 11's ordering holds:
    the standard worst5_mean exceeds the natural one.
    """
    problems = []
    base = spread.base
    for key in ("fractions", "n_divergent"):
        got, want = report["methods"]["natural"][key], base["methods"]["natural"][key]
        if got != want:
            problems.append(f"natural {key} {got!r} differ from {want!r}")
    if report["init"] != base["init"]:
        problems.append(f"init {report['init']!r} differs from {base['init']!r}")
    for key, (lo, hi) in spread.ranges["standard"].items():
        got = report["methods"]["standard"][key]
        if not lo <= got <= hi:
            problems.append(f"standard {key} {got!r} outside [{lo!r}, {hi!r}]")
    natural = report["methods"]["natural"]["worst5_mean"]
    standard = report["methods"]["standard"]["worst5_mean"]
    if not standard > natural:
        problems.append(f"standard worst5_mean {standard!r} does not exceed "
                        f"natural {natural!r}")
    return problems
