"""The benchmark's workloads: seeded inputs, one protocol call, output checks.

A workload turns (benchmark seed, operation index) into its inputs, makes one
protocol call of the sosrep harness on them -- one *operation* -- and checks
the call's outputs.  The library sees only the generated arrays and the
protocol configuration; nothing here imports the repository's test helpers.

The "full" size is the acceptance-suite configuration of each protocol; the
"tiny" size exists for the benchmark's self-tests and is never timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import sosrep as sp

WORKLOADS = ("ad_sosrep_sdo", "ad_kde_gaussian", "negfrac")
SIZES = ("full", "tiny")
# A run makes at least MIN_OPS plain calls.  The first call of a process is
# up to a third slower (fresh memory) and run_s leaves it out, so its median
# is over at least three calls, which outvote one call on inputs that let
# `tune` stop early.
MIN_OPS = 4
MAX_OPS = 1000  # operation indices per run; keeps op_seed() collision-free


def philox(seed: int, k: int) -> np.random.Generator:
    """Generator keyed by (benchmark seed, operation index)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))


def op_seed(seed: int, k: int) -> int:
    """The seed handed to the protocol call of operation k."""
    return seed * MAX_OPS + k


def mixture2d(n: int, outlier_frac: float, rng: np.random.Generator) -> sp.Dataset:
    """Three 2-D Gaussian blobs (inliers, label 0) plus uniform box outliers (label 1)."""
    n_out = max(1, int(round(outlier_frac * n)))
    n_in = n - n_out
    centers = np.array([[-2.5, 0.0], [2.5, 0.0], [0.0, 2.5]])
    comp = np.arange(n_in) % len(centers)  # equal blobs; run_ad's split shuffles
    X_in = centers[comp] + 0.5 * rng.standard_normal((n_in, 2))
    X_out = rng.uniform(-7.0, 7.0, size=(n_out, 2))
    y = np.r_[np.zeros(n_in, dtype=int), np.ones(n_out, dtype=int)]
    return sp.Dataset(X=np.vstack([X_in, X_out]), y=y, name="mixture2d")


def two_clusters(n_per: int, rng: np.random.Generator) -> sp.Dataset:
    """Two isotropic unlabeled clusters at +-2 on the first axis."""
    X = np.vstack([
        np.array([-2.0, 0.0]) + 0.5 * rng.standard_normal((n_per, 2)),
        np.array([2.0, 0.0]) + 0.5 * rng.standard_normal((n_per, 2)),
    ])
    return sp.Dataset(X=X, name="two_clusters")


@dataclass(frozen=True)
class Op:
    """Inputs of one operation."""

    seed: int  # protocol seed
    data: sp.Dataset | None


class AdWorkload:
    """run_ad for one seed on the 2-D mixture with 5% outliers (criterion 10)."""

    protocol = "run_ad"

    def __init__(self, method: str, size: str):
        self.method = method
        if size == "full":
            self.n = 2000
            self.config = sp.AdConfig(
                T=2048, n_iters=500, n_fd_iters=25, fd_max_rows=192,
                a_grid=tuple(np.geomspace(1e2, 1e-4, 11)),
                sigma_grid=tuple(np.geomspace(5.0, 0.05, 11)))
        else:
            self.n = 200
            self.config = sp.AdConfig(
                T=64, n_iters=50, n_fd_iters=3, fd_max_rows=24,
                a_grid=tuple(np.geomspace(1e2, 1e-4, 7)),
                sigma_grid=tuple(np.geomspace(5.0, 0.05, 7)))
        self.uses_sdo = method.endswith("_sdo")

    def make_op(self, seed: int, k: int) -> Op:
        return Op(seed=op_seed(seed, k), data=mixture2d(self.n, 0.05, philox(seed, k)))

    def warm(self, op: Op) -> None:
        if self.uses_sdo:
            sp.sample_frequencies(sp.SdoParams(a=1.0, d=op.data.d, m=self.config.m),
                                  self.config.T, op.seed)

    def call(self, op: Op):
        return sp.run_ad(op.data, self.method, seeds=(op.seed,), config=self.config)

    def check(self, op: Op, report) -> tuple[list, dict]:
        problems = []
        if report.warnings:
            problems.append(f"report warnings: {list(report.warnings)}")
        auc = report.aucs.get(op.seed, math.nan)
        if not (math.isfinite(auc) and 0.0 <= auc <= 1.0):
            problems.append(f"auc {auc!r} is not a finite value in [0, 1]")
        grid = self.config.a_grid if self.uses_sdo else self.config.sigma_grid
        chosen = report.chosen.get(op.seed)
        if chosen not in [float(v) for v in grid]:
            problems.append(f"chosen value {chosen!r} is not on the grid")
        profile = report.profiles.get(op.seed)
        if profile is None or np.any(np.isnan(profile.fd_values())):
            problems.append("profile is missing or holds NaN")
        return problems, {"auc": auc, "candidates": len(profile.entries) if profile else 0}


class NegfracWorkload:
    """negative_fraction_experiment on two clusters, natural vs standard (criterion 11)."""

    protocol = "negative_fraction_experiment"

    def __init__(self, size: str):
        if size == "full":
            self.n_per, self.T, self.n_init, self.n_iters = 100, 2048, 50, 1000
        else:
            self.n_per, self.T, self.n_init, self.n_iters = 15, 64, 5, 50

    def make_op(self, seed: int, k: int) -> Op:
        return Op(seed=op_seed(seed, k), data=two_clusters(self.n_per, philox(seed, k)))

    def warm(self, op: Op) -> None:
        sp.sample_frequencies(sp.SdoParams(a=1.0, d=op.data.d), self.T, op.seed)

    def call(self, op: Op):
        return sp.negative_fraction_experiment(
            op.data, a=1.0, T=self.T, n_init=self.n_init, n_iters=self.n_iters,
            lr=0.02, seed=op.seed)

    def check(self, op: Op, report) -> tuple[list, dict]:
        natural = report["methods"]["natural"]["worst5_mean"]
        standard = report["methods"]["standard"]["worst5_mean"]
        problems = []
        if not natural <= 1e-12:
            problems.append(f"natural worst5_mean {natural!r} > 1e-12 (cone invariance)")
        if not standard > natural:
            problems.append(f"standard worst5_mean {standard!r} <= natural {natural!r}")
        return problems, {"natural_worst5": natural, "standard_worst5": standard}


def make_workload(name: str, size: str = "full"):
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if name == "ad_sosrep_sdo":
        return AdWorkload("sosrep_sdo", size)
    if name == "ad_kde_gaussian":
        return AdWorkload("kde_gaussian", size)
    if name == "negfrac":
        return NegfracWorkload(size)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
