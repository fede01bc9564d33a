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
reparametrizations of one another.  The a=1 radial law is tabulated once per
(m, d), its trapezoid CDF on 200 000 uniform nodes, and inverted by linear
interpolation.  The table is built in one pass, on a support [0, r_max]
worked out beforehand from the closed-form radial mass and the analytic
tail bound; m is at most 193, where (2*pi)^(2m) is still finite in
float64.  A sample is kept by reference, as (params, T, seed), since
sample_frequencies redraws the same rows bit for bit.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericsError, ValidationError

_TAIL_FRACTION = 1e-4
# The largest derivative order m whose (2*pi)^(2m), the radial law's
# constant, is finite in float64.
_MAX_M = int(math.log(sys.float_info.max) / (2.0 * math.log(2.0 * math.pi)))
# Nodes of the radial table: fine enough that linear inverse-CDF
# interpolation contributes negligible bias to kernel estimates.
_RADIAL_NODES = 200_000
# Trapezoids per chunk of the radial table build.
_RADIAL_CHUNK = 2**14


def _is_int(value) -> bool:
    """True for a Python or numpy integer; False for a bool and anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a Python or numpy real number, integers included; False for a
    bool and anything else."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(value, name: str, rule: str = "a positive integer") -> int:
    """`value` as a Python int if it is a Python or numpy integer of at least 1
    (not a bool), else ValidationError "{name} must be {rule}, got {value!r}"."""
    if not (_is_int(value) and value >= 1):
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def _positive(value, name: str, rule: str = "a positive finite real number") -> float:
    """`value` as a Python float if it is a positive finite Python or numpy
    real number (not a bool), else ValidationError "{name} must be {rule},
    got {value!r}"."""
    if not (_is_real(value) and math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _store(obj, **fields) -> None:
    """Set fields of a frozen dataclass instance, from its __post_init__."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _as_list(values, name: str) -> list:
    """`values` as a list; anything that is not iterable raises ValidationError
    naming `name`."""
    try:
        return list(values)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence, got {values!r}") from None


def _check_key(seed, stream=0) -> None:
    """Seed and stream must be Python or numpy integers in 0..2**64-1 (not a
    bool or a float), the two 64-bit words of a Philox key."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not _is_int(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise ValidationError(f"seed and stream must lie in 0..2**64-1, got {seed}, {stream}")


@dataclass(frozen=True)
class SdoParams:
    """Smoothness a, derivative order m, and dimension d of the SDO kernel.

    m defaults to floor(d/2) + 1, the smallest integer with 2m > d, and may
    be at most 193, the largest m whose (2*pi)^(2m) is finite in float64.
    a must be a positive finite real number and d, m positive integers
    (Python or numpy, never bool), else ValidationError naming the field;
    all three are stored as Python numbers.
    """

    a: float
    d: int = 1
    m: int | None = None

    def __post_init__(self):
        d = _count(self.d, "dimension d")
        m = _count(d // 2 + 1 if self.m is None else self.m, "derivative order m")
        a = _positive(self.a, "smoothness a")
        if 2 * m <= d:
            raise ValidationError(f"need 2m > d for the kernel integral to converge (m={m}, d={d})")
        if m > _MAX_M:
            raise ValidationError(
                f"derivative order m must be at most {_MAX_M}, where (2*pi)^(2m) is still "
                f"finite in float64, got {m}")
        _store(self, a=a, d=d, m=m)


@dataclass(frozen=True)
class FrequencySample:
    """T frequency rows Z (2*pi folded in) and phases b defining the features.

    seed is the key the rows were drawn with, checked as rng_from_seed does.
    """

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
        _check_key(self.seed)
        _store(self, Z=Z, b=b, T=int(self.T), seed=int(self.seed))


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


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0.

    The formula and operation order of scipy.integrate.cumulative_trapezoid
    with initial=0.0, so the two agree bit for bit.
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _radial_mass(c: float, d: int, two_m: int, area: float = 1.0) -> float:
    """area times the integral over r >= 0 of r^(d-1) / (1 + c r^(2m)) dr, in closed form.

    The substitution u = c^(1/(2m)) r turns the integral into
    c^(-d/(2m)) * pi / (2m sin(pi d / (2m))), finite as 2m > d.  The product
    is formed left to right from area, so spectral_mass, which passes
    area = sphere_area(d), keeps the rounding of one expression.
    """
    return area * c ** (-d / two_m) * math.pi / (two_m * math.sin(math.pi * d / two_m))


def _radial_support(m: int, d: int) -> float:
    """r_max of the a=1 radial table: the smallest power of two >= 1 at which
    the tail bound r_max^(-p) / (c p) is at most 1e-4 of the radial mass.

    Beyond r, zeta is at most r^(d-1-2m)/c with c = (2*pi)^(2m), so the tail
    mass beyond r is at most r^(-p)/(c p) with p = 2m - d.  The mass is the
    closed form `_radial_mass`, so the power of two is one ceil of a log2.
    The log2 is a sum of the factors' logs, as c p can overflow float64.
    """
    c = (2.0 * np.pi) ** (2 * m)
    p = 2 * m - d  # tail decay exponent, positive by 2m > d
    mass = _radial_mass(c, d, 2 * m)
    log_bound = math.log2(c) + math.log2(p) + math.log2(_TAIL_FRACTION * mass)
    return 2.0 ** math.ceil(max(0.0, -log_bound / p))


@lru_cache(maxsize=64)
def _radial_table(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(r, cdf): uniform nodes on [0, r_max] and the a=1 radial law's trapezoid CDF.

    r_max is `_radial_support`'s, worked out before the one pass that builds
    the table.  The CDF is normalized to end at 1; where the density
    overflows on [0, r_max] (large d and m) its total is not a positive
    finite number and NumericsError is raised.  Both arrays are cached and
    read-only.

    The pass writes the trapezoid areas into the CDF's buffer, a chunk of
    nodes at a time, and sums them in place, so no table-sized temporary is
    alive beside the two tables.  The chunks' nodes are np.linspace's bit
    for bit (arange times step, plus 0.0, and r_max exactly at the end):
    every entry is that of a cumulative trapezoid over whole np.linspace
    nodes.
    """
    params = SdoParams(a=1.0, d=d, m=m)
    r_max = _radial_support(m, d)
    n = _RADIAL_NODES
    step = r_max / (n - 1)
    cdf = np.empty(n)  # cdf[i], i >= 1: area of the trapezoid ending at node i
    cdf[0] = 0.0
    for lo in range(1, n, _RADIAL_CHUNK):
        hi = min(lo + _RADIAL_CHUNK, n)
        r = np.arange(lo - 1, hi, dtype=float) * step + 0.0  # nodes lo-1 .. hi-1
        if hi == n:
            r[-1] = r_max
        dens = radial_density(r, params)
        cdf[lo:hi] = (r[1:] - r[:-1]) * (dens[1:] + dens[:-1]) / 2.0
    np.cumsum(cdf, out=cdf)
    if not (cdf[-1] > 0.0 and math.isfinite(cdf[-1])):
        raise NumericsError(
            f"radial table total is {cdf[-1]} on [0, {r_max}]: the radial density "
            f"overflows in float64 (m={m}, d={d})")
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    r = np.linspace(0.0, r_max, n)
    r.flags.writeable = cdf.flags.writeable = False
    return r, cdf


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """The package's one seeded generator: Philox keyed by (seed, stream).

    Counter-based, so each stream is deterministic and independent of the
    order in which streams are drawn.  Seed and stream are the two 64-bit
    words of the key: anything but a Python or numpy integer in 0..2**64-1
    (a bool or a float too) raises ValidationError.
    """
    _check_key(seed, stream)
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def sample_frequencies(params: SdoParams, T: int, seed: int) -> FrequencySample:
    """Draw T frequencies and phases for the sampled kernel at `params`.

    Radii come from the a=1 radial law and are rescaled by a^(-1/(2m));
    directions are uniform on the sphere; phases are uniform on [0, 2*pi).
    The stored rows are Z_t = 2*pi * a^(-1/(2m)) * r_t * theta_t, so a plain
    inner product with data reproduces the kernel's 2*pi phase convention.
    Deterministic given (params, T, seed).
    """
    T = _count(T, "T")
    r_table, cdf = _radial_table(params.m, params.d)
    rng = rng_from_seed(seed)
    r = np.interp(rng.random(T), cdf, r_table)
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


def spectral_mass(params: SdoParams) -> float:
    """Total mass W of the spectral weight w^a over R^d, in closed form.

    In polar coordinates W = S_(d-1) * integral of r^(d-1) / (1 + c r^(2m))
    dr with c = a (2 pi)^(2m): sphere_area(d) times the radial mass
    `_radial_mass`.
    """
    two_m = 2 * params.m
    c = params.a * (2.0 * math.pi) ** two_m
    return _radial_mass(c, params.d, two_m, sphere_area(params.d))


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


def _cos_sin(U: np.ndarray, sin: bool = True):
    """(cos U, sin U), or cos U alone with sin=False, from one tan pass over U/2.

    With t = tan(U/2) and r = 1/(1 + t^2), the half-angle identities give
    cos U = 2r - 1 and sin U = 2tr.  numpy runs float64 tan in SIMD loops
    where the CPU has them (AVX-512) but cos and sin in scalar libm: on a
    2-vCPU AVX-512 Xeon, tan over 192 x 2048 phases takes about 0.8 ms and
    cos plus sin about 17 ms.  Each output is within 4 eps of cos U or sin U
    (1.5 eps measured), which is no more than the |U| eps error the rounded
    phase already carries once |U| >= 4.  Non-finite phases give NaN, as
    numpy's cos does.

    U is overwritten: with sin=False it becomes cos U and nothing else is
    allocated; otherwise it becomes sin U beside one new array for cos U.
    Either way cos U has the same bits.  Every feature-space cosine of the
    package (features, Grams, fits, f and grad f) is this one.
    """
    U *= 0.5
    np.tan(U, out=U)  # t
    C = np.multiply(U, U, out=None if sin else U)
    C += 1.0
    np.divide(2.0, C, out=C)  # 2r, exactly twice 1/(1 + t^2)
    if sin:
        U *= C  # sin U = 2tr
    C -= 1.0  # cos U = 2r - 1
    return (C, U) if sin else C


def feature_map(X, fs: FrequencySample, exact_normalization: bool = False) -> np.ndarray:
    """N x T cosine features Phi[i, t] = cos(<Z_t, x_i> + b_t) / sqrt(T).

    With exact_normalization the features carry sqrt(2W) so that Phi @ Phi.T
    estimates the kernel itself instead of kernel/(2W).  The cosines are
    _cos_sin's half-angle ones, formed in the phase array: one N x T array
    is alive, not two.
    """
    Phi, scale = feature_phases(X, fs, exact_normalization)
    _cos_sin(Phi, sin=False)
    Phi *= scale
    return Phi


def _gram(Phi: np.ndarray) -> np.ndarray:
    """Phi @ Phi.T, bit for bit, in an array whose start is 64-byte aligned.

    malloc aligns to 16 bytes only, and the solver's matrix-vector products
    on a cache-resident Gram run about 25% slower when its rows do not start
    on a 32-byte boundary, as every row of an aligned Gram does when 4 | N.
    """
    n = Phi.shape[0]
    buf = np.empty(n * n + 8)
    start = (-buf.ctypes.data % 64) // 8
    return np.matmul(Phi, Phi.T, out=buf[start:start + n * n].reshape(n, n))


def kernel_matrix(X, Y, fs: FrequencySample, exact_normalization: bool = False) -> np.ndarray:
    """Sampled kernel Gram matrix feature_map(X) @ feature_map(Y).T.

    Pass Y=None (or Y is X) for the self-kernel; numpy forms Phi @ Phi.T by a
    symmetric rank-k update, so that Gram matrix is exactly symmetric.
    """
    Phi_x = feature_map(X, fs, exact_normalization)
    if Y is None or Y is X:
        return _gram(Phi_x)
    Phi_y = feature_map(Y, fs, exact_normalization)
    return Phi_x @ Phi_y.T
