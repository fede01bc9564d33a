"""Score function, Hutchinson trace estimation, and Fisher-divergence tuning.

The Fisher-divergence statistic of a density model q against test rows Y is
the score-matching objective up to an additive constant:

    FD = mean over rows y of [ trace(J_s(y)) + 0.5 * ||s(y)||^2 ],

where s = grad log q and J_s its Jacobian, whose trace is estimated by
finite-difference Hutchinson probes.  A probe takes few values, so the
statistic evaluates each distinct probe point of a row once, in model calls
of len(Y) rows.  Because scores are invariant to the density's
normalization, the statistic can rank smoothness candidates without
normalizing the fitted pre-density.

The probes depend only on (seed, number of rows, n_fd_iters, d, probe kind),
never on the model, so the probe plan -- the probes, stored as int8, and
their numbering into distinct probes per row -- is drawn once per such key
and kept, read-only, in a one-plan cache.  The candidates of one tune sweep
reuse one plan, and tune empties the cache when its sweep ends, so no plan
outlives its sweep.  Sweeps running concurrently in one process would evict
each other's plan and redraw it, with the same values; the CLI runs its
experiment cells one after another.

Hyperparameter selection follows a stable-local-minimum rule on the profile
of FD values over a descending grid of smoothness candidates: the chosen
point must lie strictly below its three neighbors on each side, ties broken
toward the largest candidate, with a lazy sweep that stops as soon as such a
point is certified.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllCandidatesFailed,
    NumericsError,
    SolverDivergence,
    ValidationError,
    VanishingDensity,
)
from .sdo_kernel import rng_from_seed

_PROBES = ("rademacher", "paper_three_point")
_DENSITY_FLOOR = 1e-12
_THREE_POINT_CORRECTION = 1.5  # probe covariance is (2/3) I
_WINDOW = 3  # a stable minimum lies strictly below this many neighbors on each side


@dataclass(frozen=True)
class FdOptions:
    n_fd_iters: int = 100
    h: float = 1e-4
    probe: str = "rademacher"
    seed: int = 0

    def __post_init__(self):
        if self.n_fd_iters < 1:
            raise ValidationError("n_fd_iters must be at least 1")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValidationError("h must be positive")
        if self.probe not in _PROBES:
            raise ValidationError(f"probe must be one of {_PROBES}, got {self.probe!r}")


def _check_grid(a_vals, name: str = "candidate values") -> None:
    """Candidate values must be positive, finite and strictly decreasing."""
    if any(not np.isfinite(a) or a <= 0 for a in a_vals):
        raise ValidationError(f"{name} must be positive and finite")
    if any(a_vals[i] <= a_vals[i + 1] for i in range(len(a_vals) - 1)):
        raise ValidationError(f"{name} must be strictly decreasing")


def _check_candidates(a_vals, name: str = "candidate values") -> None:
    """A grid that tune can sweep: _check_grid and at least 2*_WINDOW+1 values."""
    if len(a_vals) < 2 * _WINDOW + 1:
        raise ValidationError(
            f"{name} must have at least {2 * _WINDOW + 1} entries, got {len(a_vals)}"
        )
    _check_grid(a_vals, name)


@dataclass(frozen=True)
class FdEntry:
    a: float
    fd: float
    retained_rows: int = 0
    skipped_rows: int = 0


@dataclass(frozen=True)
class FdProfile:
    """FD statistics over a strictly descending grid of candidates.

    Failed candidates are recorded with fd = +inf; NaN is rejected.
    """

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        _check_grid([e.a for e in entries])
        if any(math.isnan(e.fd) for e in entries):
            raise ValidationError("fd values must not be NaN (use +inf for failures)")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)

    def a_values(self):
        return np.array([e.a for e in self.entries])

    def fd_values(self):
        return np.array([e.fd for e in self.entries])


@dataclass(frozen=True)
class FdStat:
    value: float
    retained_rows: int
    skipped_rows: int


def _draw_probes(rng: np.random.Generator, n: int, d: int, probe: str) -> np.ndarray:
    if probe == "paper_three_point":
        return rng.integers(-1, 2, size=(n, d)).astype(float)
    return rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0


def score(model, x) -> np.ndarray:
    """Score grad log density at one point: 2 grad f / f if squared, else grad f / f."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    S, f = model.score_batch(x)
    if abs(f[0]) < _DENSITY_FLOOR:
        raise VanishingDensity(f"vanishing density at query (|f| = {abs(f[0]):.3e})")
    return S[0]


def score_jacobian_trace(model, x) -> float:
    """Analytic trace of the score Jacobian: c * [Lap f / f - ||grad f||^2 / f^2].

    c is 2 for a squared model (density f^2) and 1 for an unsquared one
    (density f), the factor of score_batch.  Available for feature-space
    models exposing f_and_grad and laplacian_f; used as a cross-check oracle
    for the Hutchinson estimator.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    f, G = model.f_and_grad(x)
    if abs(f[0]) < _DENSITY_FLOOR:
        raise VanishingDensity("vanishing density at query")
    lap = model.laplacian_f(x)[0]
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


def _distinct_probes(eps: np.ndarray):
    """Each row's distinct probes, numbered in order of first appearance.

    Returns (slot, first): slot[i, j] is the number of probe j among row i's
    distinct probes, and first[i, r] the index of the first probe of row i
    with number r (0, the row's first probe, where the row has fewer than
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


@functools.lru_cache(maxsize=1)
def _probe_plan(seed: int, n_rows: int, n_fd_iters: int, d: int, probe: str):
    """(eps, slot, first): row i's probes eps[i], drawn from rng_from_seed(seed, i),
    and their _distinct_probes numbering.  The arrays are shared and read-only;
    eps holds the probe entries -1, 0 and 1 as int8, an eighth of float64."""
    eps = np.empty((n_rows, n_fd_iters, d), dtype=np.int8)
    for i in range(n_rows):
        eps[i] = _draw_probes(rng_from_seed(seed, i), n_fd_iters, d, probe)
    plan = (eps, *_distinct_probes(eps))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def fd_statistic(model, Y, opts: FdOptions = FdOptions()) -> FdStat:
    """Fisher-divergence statistic of the model over test rows Y.

    Rows where the model's underlying f vanishes (at the base point or any
    probe displacement) are skipped and counted; the statistic is the mean
    over retained rows of [Hutchinson trace + 0.5 ||score||^2].

    Probes take few values (2^d Rademacher, 3^d three-point), so a row's
    probes repeat.  Each distinct probe point is evaluated once: round r
    scores row i's r-th distinct displacement, in one model call of len(Y)
    rows with row i at position i, and the Hutchinson sum then gathers the
    scores probe by probe.  The values equal those of one call per probe,
    bit for bit.  The probes and their numbering come from _probe_plan.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n_rows, d = Y.shape
    if n_rows < 1:
        raise ValidationError("fd_statistic requires at least one test row")
    S0, f0 = model.score_batch(Y)
    ok = np.abs(f0) >= _DENSITY_FLOOR

    eps, slot, first = _probe_plan(opts.seed, n_rows, opts.n_fd_iters, d, opts.probe)
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


def _is_stable_center(fd: np.ndarray, center: int) -> bool:
    """Whether fd[center] lies strictly below its window of neighbors (+inf never does)."""
    neighbors = np.concatenate([fd[center - _WINDOW : center],
                                fd[center + 1 : center + _WINDOW + 1]])
    return bool(np.all(fd[center] < neighbors))


def stable_minimum(profile: FdProfile):
    """Largest candidate strictly below its _WINDOW neighbors on each side.

    Entries are in descending candidate order, so the first qualifying index
    is the tie-break winner.  Returns None when no interior entry qualifies.
    """
    n = len(profile)
    if n < 2 * _WINDOW + 1:
        raise ValidationError(f"profile needs at least {2 * _WINDOW + 1} entries, got {n}")
    fd = profile.fd_values()
    for i in range(_WINDOW, n - _WINDOW):
        if _is_stable_center(fd, i):
            return profile.entries[i].a
    return None


def selection_kind(profile: FdProfile, a_star: float) -> str:
    """How tune arrived at a_star on its profile.

    "stable" when a_star is the profile's stable minimum, "edge" when the
    global-minimum fallback landed on the first or last grid value, and
    "fallback" for any other global-minimum pick.
    """
    if stable_minimum(profile) == a_star:
        return "stable"
    if a_star in (profile.entries[0].a, profile.entries[-1].a):
        return "edge"
    return "fallback"


def tune(candidate_as, fit_fn, Y_test, opts: FdOptions = FdOptions()):
    """Select a smoothness value by the stable-minimum rule, lazily.

    Candidates (strictly descending) are evaluated from the largest down;
    each fit runs at most once.  After index j >= 2*_WINDOW is evaluated, the
    window around index j - _WINDOW is complete, so that center is certified
    on the spot and the sweep stops at the first stable minimum — by
    construction the one with the largest candidate value.  A candidate whose
    fit or statistic fails records fd = +inf.  If no stable minimum exists
    after exhausting the grid, the global minimum of the evaluated profile is
    returned (ties toward the larger candidate).  The candidates share one
    probe plan, which is dropped when the sweep ends.

    Returns (a_star, profile of all evaluated candidates).
    """
    cand = [float(a) for a in candidate_as]
    _check_candidates(cand)

    def evaluate(a: float) -> FdEntry:
        try:
            model = fit_fn(a)
            stat = fd_statistic(model, Y_test, opts)
            fd = stat.value
            if math.isnan(fd):
                fd = math.inf
            return FdEntry(a=a, fd=fd, retained_rows=stat.retained_rows,
                           skipped_rows=stat.skipped_rows)
        except (NumericsError, SolverDivergence, FloatingPointError):
            return FdEntry(a=a, fd=math.inf, retained_rows=0,
                           skipped_rows=int(np.atleast_2d(Y_test).shape[0]))

    entries: list[FdEntry] = []
    try:
        for j, a in enumerate(cand):
            entries.append(evaluate(a))
            center = j - _WINDOW
            if center >= _WINDOW and _is_stable_center(np.array([e.fd for e in entries]), center):
                return cand[center], FdProfile(entries=tuple(entries))
    finally:
        _probe_plan.cache_clear()  # the sweep's probe plan is not needed after it

    profile = FdProfile(entries=tuple(entries))
    fd = profile.fd_values()
    if not np.any(np.isfinite(fd)):
        raise AllCandidatesFailed("every candidate recorded a non-finite FD statistic")
    return cand[int(np.argmin(fd))], profile


def write_atomic(path, text: str) -> None:
    """Write text through a temp file named per process, then rename over path."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def profile_to_csv(profile: FdProfile, path=None) -> str:
    """Write the profile as CSV (a, fd, retained_rows, skipped_rows).

    Floats carry 17 significant digits; failed candidates appear as "inf".
    Returns the CSV text; writes atomically when a path is given.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "fd", "retained_rows", "skipped_rows"])
    for e in profile.entries:
        writer.writerow([f"{e.a:.17g}", f"{e.fd:.17g}", e.retained_rows, e.skipped_rows])
    text = buf.getvalue()
    if path is not None:
        write_atomic(path, text)
    return text


def profile_from_csv(text: str) -> FdProfile:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["a", "fd", "retained_rows", "skipped_rows"]:
        raise ValidationError(f"unexpected profile header: {header}")
    entries = []
    for row in reader:
        if not row:
            continue
        entries.append(FdEntry(a=float(row[0]), fd=float(row[1]),
                               retained_rows=int(row[2]), skipped_rows=int(row[3])))
    return FdProfile(entries=tuple(entries))
