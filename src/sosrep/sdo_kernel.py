"""Sampled single-derivative-order (SDO) kernel via random cosine features.

The kernel of interest is the isotropic Fourier integral

    k^a(x, y) = integral of cos(2*pi*<y - x, z>) * w^a(z) dz,
    w^a(z)    = 1 / (1 + a * (2*pi)^(2m) * ||z||^(2m)),

which converges whenever 2m > d.  It is approximated with T Monte Carlo
cosine features

    phi_t(x) = cos(<Z_t, x> + b_t) / sqrt(T),

where the stored frequency row Z_t = 2*pi * r_t * theta_t already carries the
2*pi phase factor, r_t follows the radial law zeta(r) proportional to
r^(d-1) * w^a(r), theta_t is uniform on the unit sphere, and b_t is a uniform
phase on [0, 2*pi).  The Gram product Phi @ Phi.T then estimates k^a / (2W)
with W the total spectral mass; pass exact_normalization=True to multiply the
2W back in when comparing against closed forms.  The overall kernel scale
only rescales the fitted pre-density, so the default leaves it off.

Radii are always drawn from the a=1 law and rescaled by a^(-1/(2m)); with a
shared seed this makes kernels at different smoothness values exact
reparametrizations of one another.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import integrate

from .errors import NumericsError, ValidationError

FORMAT_VERSION = "1"

_TAIL_FRACTION = 1e-4
_MAX_DOUBLINGS = 60
_MIN_GRID = 16
# The public grid default follows the reference discretization; the sampler
# privately uses a finer unit grid so that linear inverse-CDF interpolation
# contributes negligible bias to kernel estimates.
DEFAULT_N_GRID = 10_000
_SAMPLER_N_GRID = 200_000


@dataclass(frozen=True)
class SdoParams:
    """Smoothness a, derivative order m, and dimension d of the SDO kernel.

    m defaults to floor(d/2) + 1, the smallest integer with 2m > d.
    """

    a: float
    d: int = 1
    m: int | None = None

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", self.d // 2 + 1)
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValidationError(f"dimension d must be a positive integer, got {self.d!r}")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValidationError(f"derivative order m must be a positive integer, got {self.m!r}")
        if not (np.isfinite(self.a) and self.a > 0):
            raise ValidationError(f"smoothness a must be positive and finite, got {self.a!r}")
        if 2 * self.m <= self.d:
            raise ValidationError(
                f"need 2m > d for the kernel integral to converge (m={self.m}, d={self.d})"
            )
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "m", int(self.m))

    def with_a(self, a: float) -> "SdoParams":
        return replace(self, a=float(a))


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with the (unnormalized) density and its CDF."""

    r_values: np.ndarray
    density_values: np.ndarray
    cdf: np.ndarray
    total_mass: float  # unnormalized trapezoid integral of zeta over [0, r_max]


@dataclass(frozen=True)
class FrequencySample:
    """T frequency rows Z (2*pi folded in) and phases b defining the features."""

    Z: np.ndarray
    b: np.ndarray
    T: int
    seed: int
    base_params: SdoParams

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if Z.ndim != 2 or Z.shape != (self.T, self.base_params.d):
            raise ValidationError(
                f"Z must have shape (T, d) = ({self.T}, {self.base_params.d}), got {Z.shape}"
            )
        if b.shape != (self.T,):
            raise ValidationError(f"b must have shape ({self.T},), got {b.shape}")
        if not np.all(np.isfinite(Z)):
            raise ValidationError("frequency rows must be finite")
        if np.any(b < 0.0) or np.any(b >= 2.0 * np.pi):
            raise ValidationError("phases must lie in [0, 2*pi)")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "T", int(self.T))
        object.__setattr__(self, "seed", int(self.seed))


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d (equals 2 for d=1)."""
    if d < 1:
        raise ValidationError("dimension must be positive")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def radial_density(r, params: SdoParams):
    """zeta(r) = r^(d-1) / (1 + a*(2*pi)^(2m) * r^(2m)), the radial law of w^a.

    Vectorized over r; the d=1, r=0 case uses the convention r^0 = 1.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValidationError("radius must be nonnegative")
    c = params.a * (2.0 * np.pi) ** (2 * params.m)
    out = r_arr ** (params.d - 1) / (1.0 + c * r_arr ** (2 * params.m))
    if np.isscalar(r) or out.ndim == 0:
        return float(out)
    return out


def build_radial_grid(params: SdoParams, n_grid: int = DEFAULT_N_GRID) -> RadialGrid:
    """Uniform grid on [0, r_max] with trapezoid CDF of the radial density.

    r_max is doubled from an initial guess until the analytic bound on the
    tail mass beyond r_max falls below 1e-4 of the total.
    """
    if n_grid < _MIN_GRID:
        raise ValidationError(f"n_grid must be at least {_MIN_GRID}, got {n_grid}")
    c = params.a * (2.0 * np.pi) ** (2 * params.m)
    p = 2 * params.m - params.d  # tail decay exponent, positive by 2m > d
    r_max = max(1.0, params.a ** (-1.0 / (2 * params.m)))
    for _ in range(_MAX_DOUBLINGS):
        r = np.linspace(0.0, r_max, n_grid)
        dens = radial_density(r, params)
        total = float(np.trapezoid(dens, r))
        # zeta(r) <= r^(d-1-2m)/c for r >= r_max, integrated exactly
        tail = r_max ** (-p) / (c * p)
        if total > 0 and tail <= _TAIL_FRACTION * total:
            break
        r_max *= 2.0
    else:
        raise NumericsError(
            "radial grid tail mass did not drop below 1e-4 of the total "
            f"within {_MAX_DOUBLINGS} doublings (a={params.a}, m={params.m}, d={params.d})"
        )
    cdf = integrate.cumulative_trapezoid(dens, r, initial=0.0)
    total = float(cdf[-1])
    cdf = cdf / total
    cdf[-1] = 1.0
    return RadialGrid(r_values=r, density_values=dens, cdf=cdf, total_mass=total)


@lru_cache(maxsize=64)
def _unit_grid(m: int, d: int, n_grid: int) -> RadialGrid:
    return build_radial_grid(SdoParams(a=1.0, d=d, m=m), n_grid)


def sample_radii(grid: RadialGrid, T: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from the grid law, linear interpolation between nodes."""
    return np.interp(rng.random(T), grid.cdf, grid.r_values)


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """The package's one seeded generator: Philox keyed by (seed, stream).

    Counter-based, so each stream is deterministic and independent of the
    order in which streams are drawn.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_frequencies(params: SdoParams, T: int, seed: int) -> FrequencySample:
    """Draw T frequencies and phases for the sampled kernel at `params`.

    Radii come from the a=1 radial law and are rescaled by a^(-1/(2m));
    directions are uniform on the sphere; phases are uniform on [0, 2*pi).
    The stored rows are Z_t = 2*pi * a^(-1/(2m)) * r_t * theta_t, so a plain
    inner product with data reproduces the kernel's 2*pi phase convention.
    Deterministic given (params, T, seed).
    """
    if T < 1:
        raise ValidationError(f"T must be a positive integer, got {T}")
    grid = _unit_grid(params.m, params.d, _SAMPLER_N_GRID)
    rng = rng_from_seed(seed)
    r = sample_radii(grid, T, rng)
    g = rng.standard_normal((T, params.d))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms == 0.0):  # probability-zero guard
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), params.d))
        norms = np.linalg.norm(g, axis=1)
    theta = g / norms[:, None]
    b = rng.random(T) * (2.0 * np.pi)
    b[b >= 2.0 * np.pi] = 0.0  # guard against rounding onto the endpoint
    factor = (2.0 * np.pi) * params.a ** (-1.0 / (2 * params.m))
    Z = factor * (r[:, None] * theta)
    return FrequencySample(Z=Z, b=b, T=T, seed=seed, base_params=params)


def rescale_frequencies(fs: FrequencySample, a: float) -> FrequencySample:
    """The same seed's sample at a different smoothness value.

    Bit-identical to calling sample_frequencies with the new parameters: only
    the radial scale factor changes, not the underlying draws.
    """
    return sample_frequencies(fs.base_params.with_a(a), fs.T, fs.seed)


@lru_cache(maxsize=256)
def _spectral_mass_cached(a: float, m: int, d: int, n_grid: int) -> float:
    grid = build_radial_grid(SdoParams(a=a, d=d, m=m), n_grid)
    return sphere_area(d) * grid.total_mass


def spectral_mass(params: SdoParams, n_grid: int = DEFAULT_N_GRID) -> float:
    """Total mass W of the spectral weight w^a over R^d."""
    return _spectral_mass_cached(params.a, params.m, params.d, n_grid)


def feature_phases(X, fs: FrequencySample, exact_normalization: bool = False):
    """(U, scale): phases U[i, t] = <Z_t, x_i> + b_t and the feature scale.

    The scale is 1/sqrt(T), times sqrt(2W) with exact_normalization.  Every
    feature-space evaluation (features, f, its gradient and Laplacian) starts
    from these two values.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != fs.base_params.d:
        raise ValidationError(
            f"data dimension {X.shape[1]} does not match frequency dimension {fs.base_params.d}"
        )
    U = X @ fs.Z.T
    U += fs.b
    scale = 1.0 / math.sqrt(fs.T)
    if exact_normalization:
        scale *= math.sqrt(2.0 * spectral_mass(fs.base_params))
    return U, scale


def feature_map(X, fs: FrequencySample, exact_normalization: bool = False) -> np.ndarray:
    """N x T cosine features Phi[i, t] = cos(<Z_t, x_i> + b_t) / sqrt(T).

    With exact_normalization the features carry sqrt(2W) so that Phi @ Phi.T
    estimates the kernel itself instead of kernel/(2W).
    """
    U, scale = feature_phases(X, fs, exact_normalization)
    Phi = np.cos(U)
    Phi *= scale
    return Phi


def kernel_matrix(X, Y, fs: FrequencySample, exact_normalization: bool = False) -> np.ndarray:
    """Sampled kernel Gram matrix feature_map(X) @ feature_map(Y).T.

    Pass Y=None (or Y is X) for the symmetric self-kernel; the result is then
    explicitly symmetrized, removing last-ulp asymmetry from the BLAS product.
    """
    Phi_x = feature_map(X, fs, exact_normalization)
    if Y is None or Y is X:
        K = Phi_x @ Phi_x.T
        return 0.5 * (K + K.T)
    Phi_y = feature_map(Y, fs, exact_normalization)
    return Phi_x @ Phi_y.T


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


def frequency_sample_to_json(fs: FrequencySample) -> str:
    """Serialize to the audit record {seed, T, m, d, a_base, Z row-major, b}."""
    record = {
        "format_version": FORMAT_VERSION,
        "seed": fs.seed,
        "T": fs.T,
        "m": fs.base_params.m,
        "d": fs.base_params.d,
        "a_base": fs.base_params.a,
        "Z": [float(v) for v in fs.Z.reshape(-1)],
        "b": [float(v) for v in fs.b],
    }
    return json.dumps(record, sort_keys=True)


def frequency_sample_from_json(text: str) -> FrequencySample:
    """Inverse of frequency_sample_to_json; bit-identical round trip."""
    try:
        record = json.loads(text)
        params = SdoParams(a=record["a_base"], d=record["d"], m=record["m"])
        T = int(record["T"])
        Z = np.array(record["Z"], dtype=float).reshape(T, params.d)
        b = np.array(record["b"], dtype=float)
        return FrequencySample(Z=Z, b=b, T=T, seed=int(record["seed"]), base_params=params)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed frequency sample record: {exc}") from exc
