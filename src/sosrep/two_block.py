"""Analytic two-cluster block model used as a validation oracle.

The idealized Gram matrix has two internally homogeneous clusters: diagonal
1, within-cluster off-diagonals gamma^2 and gamma_prime^2, and cross entries
beta * gamma * gamma_prime.  At a fixed point of the pre-density objective
the function values are constant on each cluster, equal to (a, b) solving

    a = H11 / a + H12 / b,      b = H21 / a + H22 / b,

for suitable positive coefficients H.  solve_two_block solves it in closed
form: t = a/b is the positive root of a quadratic, and a and b follow from
t.  With the large-N approximate system (H11 = gamma^2, H22 = gamma_prime^2,
H12 = H21 = beta*gamma*gamma_prime) the squared ratio a^2/b^2 equals
gamma^2/gamma_prime^2 for every beta, unlike the KDE ratio which degrades
with the cross-correlation.  The exact finite-N system replaces the
diagonals by 1 + (N-1) gamma^2 and scales the cross terms by the opposite
cluster size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .sdo_kernel import _count, _is_real, _store
from .solver import SolverOptions, fit


@dataclass(frozen=True)
class BlockSpec:
    N: int
    M: int
    gamma: float
    gamma_prime: float
    beta: float

    def __post_init__(self):
        _store(self, N=_count(self.N, "cluster size N"), M=_count(self.M, "cluster size M"))
        for name in ("gamma", "gamma_prime", "beta"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
            _store(self, **{name: float(value)})
        if not (0.0 < self.gamma_prime <= self.gamma <= 1.0):
            raise ValidationError(
                f"need 0 < gamma_prime <= gamma <= 1, got gamma={self.gamma}, "
                f"gamma_prime={self.gamma_prime}"
            )
        if not (0.0 <= self.beta <= 1.0):
            raise ValidationError(f"beta must lie in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class TwoBlockSolution:
    """Positive solution (a, b) of the two-variable system and its ratio a^2/b^2."""

    a: float
    b: float
    ratio: float  # a^2 / b^2
    residual: float


def build_block_kernel(spec: BlockSpec) -> np.ndarray:
    """(N+M) x (N+M) block Gram matrix of the two-cluster model."""
    n, m = spec.N, spec.M
    g, gp, beta = spec.gamma, spec.gamma_prime, spec.beta
    K = np.empty((n + m, n + m))
    K[:n, :n] = g * g
    K[n:, n:] = gp * gp
    K[:n, n:] = beta * g * gp
    K[n:, :n] = beta * g * gp
    np.fill_diagonal(K, 1.0)
    return K


def kde_ratio(spec: BlockSpec) -> float:
    """Cluster density ratio of the plain KDE under the block model (N = M).

    (gamma^2 + beta*gamma*gamma_prime) / (gamma_prime^2 + beta*gamma*gamma_prime)
    """
    if spec.N != spec.M:
        raise ValidationError("the KDE ratio formula assumes equal cluster sizes")
    g, gp, beta = spec.gamma, spec.gamma_prime, spec.beta
    cross = beta * g * gp
    return (g * g + cross) / (gp * gp + cross)


def _system_residual(a: float, b: float, H11, H12, H21, H22) -> float:
    r1 = a - (H11 / a + H12 / b)
    r2 = b - (H21 / a + H22 / b)
    return max(abs(r1), abs(r2))


def solve_two_block(H11: float, H12: float, H21: float, H22: float) -> TwoBlockSolution:
    """Positive solution of a = H11/a + H12/b, b = H21/a + H22/b, in closed form.

    Multiplying the equations by a and b gives a^2 = H11 + H12 t and
    b^2 = H22 + H21 / t with t = a/b, and dividing them shows that t is a root
    of the quadratic

        H22 t^2 + (H21 - H12) t - H11 = 0.

    Its roots ((H12 - H21) +- disc) / (2 H22) have the product -H11/H22 < 0,
    so exactly one is positive, the one with +disc.  That root is taken in
    the form without cancellation, 2 H11 / (B + disc) for B = H21 - H12 >= 0
    and (disc - B) / (2 H22) otherwise; a and b then follow from the two
    squares.
    """
    H = (H11, H12, H21, H22)
    if any(not np.isfinite(h) for h in H) or H11 <= 0 or H22 <= 0 or H12 < 0 or H21 < 0:
        raise ValidationError(f"H must be positive (cross terms nonnegative), got {H}")
    B = H21 - H12
    disc = math.sqrt(B * B + 4.0 * H11 * H22)
    t = 2.0 * H11 / (B + disc) if B >= 0 else (disc - B) / (2.0 * H22)
    a = math.sqrt(H11 + H12 * t)
    b = math.sqrt(H22 + H21 / t)
    return TwoBlockSolution(a=a, b=b, ratio=t * t, residual=_system_residual(a, b, *H))


def exact_system_coefficients(spec: BlockSpec):
    """Finite-N coefficients: diagonal 1 + (N-1) gamma^2, cross scaled by sizes."""
    g, gp, beta = spec.gamma, spec.gamma_prime, spec.beta
    H11 = 1.0 + (spec.N - 1) * g * g
    H22 = 1.0 + (spec.M - 1) * gp * gp
    H12 = spec.M * beta * g * gp
    H21 = spec.N * beta * g * gp
    return H11, H12, H21, H22


def sosrep_block_ratio(spec: BlockSpec) -> float:
    """Cluster pre-density ratio under the large-N approximate system (N = M).

    Equals gamma^2 / gamma_prime^2 regardless of beta; the overall size
    scaling of the coefficients cancels in the ratio.
    """
    if spec.N != spec.M:
        raise ValidationError("the approximate-system ratio assumes equal cluster sizes")
    g, gp, beta = spec.gamma, spec.gamma_prime, spec.beta
    sol = solve_two_block(g * g, beta * g * gp, beta * g * gp, gp * gp)
    return sol.ratio


# Natural-gradient fits run long and to a tight tolerance, so that the
# solver's cluster ratio can be compared with the oracle's to many digits.
VERIFY_OPTIONS = SolverOptions(method="natural", lr=0.1, n_iters=20000, grad_tol=1e-12)


def verify_against_solver(spec: BlockSpec, opts: SolverOptions = VERIFY_OPTIONS) -> dict:
    """Fit the block kernel numerically and compare cluster ratios to the oracle.

    Returns a JSON-ready report with the KDE ratio (when N = M), the
    approximate-system ratio, the exact finite-N system ratio, the solver's
    empirical ratio, and their deviations.
    """
    if spec.N > 200 or spec.M > 200:
        raise ValidationError("solver verification is desk-scale: cluster sizes <= 200")
    K = build_block_kernel(spec)
    res = fit(K, opts)
    n = spec.N
    fa = float(np.mean(res.f[:n]))
    fb = float(np.mean(res.f[n:]))
    spread_alpha = max(
        float(np.max(np.abs(res.alpha[:n] - np.mean(res.alpha[:n])))),
        float(np.max(np.abs(res.alpha[n:] - np.mean(res.alpha[n:])))),
    )
    ratio_solver = (fa / fb) ** 2

    exact = solve_two_block(*exact_system_coefficients(spec))
    approx_ratio = (spec.gamma / spec.gamma_prime) ** 2

    report = {
        "spec": asdict(spec),
        "ratio_solver": ratio_solver,
        "ratio_exact_system": exact.ratio,
        "exact_system_solution": {
            "a": exact.a,
            "b": exact.b,
            "residual": exact.residual,
        },
        "ratio_approx_system": approx_ratio,
        "rel_dev_solver_vs_exact": abs(ratio_solver - exact.ratio) / exact.ratio,
        "rel_dev_solver_vs_approx": abs(ratio_solver - approx_ratio) / approx_ratio,
        "finite_n_correction": exact.ratio - approx_ratio,
        "alpha_intra_cluster_spread": spread_alpha,
        "solver": res.summary(),
    }
    if spec.N == spec.M:
        report["kde_ratio"] = kde_ratio(spec)
        report["ratio_closed_form"] = sosrep_block_ratio(spec)
    return report
