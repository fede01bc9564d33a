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

The probes depend only on the options, the number of rows and d, never on
the model.  tune draws one probe plan -- the probes, stored as int8, and
their numbering into distinct probes per row -- for its sweep and passes it
to every candidate's statistic; fd_statistic called alone draws its own.
No probe state is kept between calls.  The numbering is one stable sort of
all probes by (row, coordinates), and the Hutchinson sum gathers every
probe's score in one np.take, so neither runs a Python loop over rows or
probes; both give the bits of the per-row and per-probe loops they replaced
(tests/oracles.py keeps those loops as the reference).

Hyperparameter selection follows a stable-local-minimum rule on the profile
of FD values over a descending grid of smoothness candidates: the chosen
point must lie strictly below its three neighbors on each side, ties broken
toward the largest candidate, with a lazy sweep that stops as soon as such a
point is certified.
"""

from __future__ import annotations

import contextlib
import csv
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
from .sdo_kernel import _is_int, _is_real, rng_from_seed

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
        if not (_is_int(self.n_fd_iters) and self.n_fd_iters >= 1):
            raise ValidationError(
                f"n_fd_iters must be a positive integer, got {self.n_fd_iters!r}")
        if not (_is_real(self.h) and math.isfinite(self.h) and self.h > 0):
            raise ValidationError(f"h must be a positive finite real number, got {self.h!r}")
        if self.probe not in _PROBES:
            raise ValidationError(f"probe must be one of {_PROBES}, got {self.probe!r}")


def _check_grid(a_vals, name: str = "candidate values") -> None:
    """Candidate values must be positive, finite and strictly decreasing."""
    for a in a_vals:
        if not (_is_real(a) and math.isfinite(a) and a > 0):
            raise ValidationError(f"{name} must be positive finite real numbers, got {a!r}")
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
    """n probes of dimension d as an integer array of -1, 0 and 1 entries."""
    if probe == "paper_three_point":
        return rng.integers(-1, 2, size=(n, d))
    return rng.integers(0, 2, size=(n, d)) * 2 - 1


def score(model, x) -> np.ndarray:
    """Score grad log density at one point: 2 grad f / f if squared, else grad f / f."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    S, f = model.score_batch(x)
    if abs(f[0]) < _DENSITY_FLOOR:
        raise VanishingDensity(f"vanishing density at query (|f| = {abs(f[0]):.3e})")
    return S[0]


def _distinct_probes(eps: np.ndarray):
    """Each row's distinct probes, numbered in order of first appearance.

    Returns (slot, first): slot[i, j] is the number of probe j among row i's
    distinct probes, and first[i, r] the index of the first probe of row i
    with number r (0, the row's first probe, where the row has fewer than
    r + 1 distinct probes).

    One stable sort by (row, coordinates) brings equal probes of a row
    together with the first of them in front; a probe that starts its run is
    a first appearance, and counting first appearances along the row numbers
    them.  np.lexsort is stable on every SIMD dispatch, where np.sort's and
    np.argsort's default kind may break ties in any order.
    """
    n_rows, n_probes, d = eps.shape
    size = n_rows * n_probes
    keys = eps.reshape(size, d).T
    order = np.lexsort((*keys, np.arange(size) // n_probes))  # the last key sorts first
    run = keys[:, order]
    starts = np.ones(size, dtype=bool)  # a probe unlike the one sorted before it
    np.any(run[:, 1:] != run[:, :-1], axis=0, out=starts[1:])
    starts[::n_probes] = True  # and each row's first
    is_first = np.empty(size, dtype=bool)
    is_first[order] = starts
    number = np.cumsum(is_first.reshape(n_rows, n_probes), axis=1) - 1
    slot = np.empty(size, dtype=np.intp)
    slot[order] = number.reshape(size)[order[starts]][np.cumsum(starts) - 1]
    first = np.zeros((n_rows, int(number[:, -1].max()) + 1), dtype=np.intp)
    rows, cols = np.divmod(np.flatnonzero(is_first), n_probes)
    first[rows, number[rows, cols]] = cols
    return slot.reshape(n_rows, n_probes), first


@dataclass(frozen=True, eq=False)
class _ProbePlan:
    """Row i's probes eps[i], drawn from rng_from_seed(opts.seed, i) and stored
    as int8 (the entries are -1, 0 and 1), and their _distinct_probes
    numbering (slot, first).  opts are the options the plan was drawn for."""

    opts: FdOptions
    eps: np.ndarray
    slot: np.ndarray
    first: np.ndarray


def _probe_plan(opts: FdOptions, n_rows: int, d: int) -> _ProbePlan:
    eps = np.empty((n_rows, opts.n_fd_iters, d), dtype=np.int8)
    for i in range(n_rows):
        eps[i] = _draw_probes(rng_from_seed(opts.seed, i), opts.n_fd_iters, d, opts.probe)
    return _ProbePlan(opts, eps, *_distinct_probes(eps))


def _test_rows(Y) -> np.ndarray:
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] < 1:
        raise ValidationError("fd_statistic requires at least one test row")
    return Y


def fd_statistic(model, Y, opts: FdOptions = FdOptions(),
                 plan: _ProbePlan | None = None) -> FdStat:
    """Fisher-divergence statistic of the model over test rows Y.

    Rows where the model's underlying f vanishes (at the base point or any
    probe displacement) are skipped and counted; the statistic is the mean
    over retained rows of [Hutchinson trace + 0.5 ||score||^2].

    Probes take few values (2^d Rademacher, 3^d three-point), so a row's
    probes repeat.  Each distinct probe point is evaluated once: round r
    scores row i's r-th distinct displacement, in one model call of len(Y)
    rows with row i at position i.  The Hutchinson sum then gathers all
    n_fd_iters probes' scores at once, by the plan's numbering, tests every
    probe's f against the density floor in one pass, and adds each row's
    terms in probe order.  The values equal those of one call per probe,
    bit for bit.  The probes and their numbering come from plan, a
    _probe_plan(opts, len(Y), d), which is drawn here when not given; a plan
    drawn for other options or another shape of Y is a ValidationError.
    """
    Y = _test_rows(Y)
    n_rows, d = Y.shape
    if plan is None:
        plan = _probe_plan(opts, n_rows, d)
    elif plan.opts != opts or plan.eps.shape != (n_rows, opts.n_fd_iters, d):
        raise ValidationError(f"probe plan drawn for {plan.opts} on {plan.eps.shape[0]} x "
                              f"{plan.eps.shape[2]} rows, not {opts} on {n_rows} x {d}")
    eps, slot, first = plan.eps, plan.slot, plan.first
    S0, f0 = model.score_batch(Y)
    ok = np.abs(f0) >= _DENSITY_FLOOR

    rows = np.arange(n_rows)
    S_round = np.empty((first.shape[1], n_rows, d))
    f_round = np.empty((first.shape[1], n_rows))
    for r, Y_r in enumerate(Y + opts.h * eps[rows, first.T].astype(float)):
        S_round[r], f_round[r] = model.score_batch(Y_r)

    # probe j of row i was scored at entry at[i, j] of the rounds, flattened
    at = slot * n_rows + rows[:, None]
    ok &= np.take(np.abs(f_round) >= _DENSITY_FLOOR, at).all(axis=1)
    with np.errstate(invalid="ignore"):
        diffs = np.take((S_round - S0).reshape(-1, d), at, axis=0)
        terms = np.einsum("mjd,mjd->mj", diffs, eps.astype(float))
    # a sequential sum in probe order: the bits of 0 + t_0 + t_1 + ..., but
    # for the sign of a zero sum, which adding 0.5 ||S0||^2 >= +0 erases
    trace = np.cumsum(terms, axis=1)[:, -1] / (opts.n_fd_iters * opts.h)
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
    returned (ties toward the larger candidate).  The sweep draws one probe
    plan and every candidate's statistic uses it.

    Returns (a_star, profile of all evaluated candidates).
    """
    cand = list(candidate_as)
    _check_candidates(cand)
    cand = [float(a) for a in cand]
    Y_test = _test_rows(Y_test)
    plan = _probe_plan(opts, *Y_test.shape)

    def evaluate(a: float) -> FdEntry:
        try:
            model = fit_fn(a)
            stat = fd_statistic(model, Y_test, opts, plan)
            fd = stat.value
            if math.isnan(fd):
                fd = math.inf
            return FdEntry(a=a, fd=fd, retained_rows=stat.retained_rows,
                           skipped_rows=stat.skipped_rows)
        except (NumericsError, SolverDivergence, FloatingPointError):
            return FdEntry(a=a, fd=math.inf, retained_rows=0,
                           skipped_rows=Y_test.shape[0])

    entries: list[FdEntry] = []
    for j, a in enumerate(cand):
        entries.append(evaluate(a))
        center = j - _WINDOW
        if center >= _WINDOW and _is_stable_center(np.array([e.fd for e in entries]), center):
            return cand[center], FdProfile(entries=tuple(entries))

    profile = FdProfile(entries=tuple(entries))
    fd = profile.fd_values()
    if not np.any(np.isfinite(fd)):
        raise AllCandidatesFailed("every candidate recorded a non-finite FD statistic")
    return cand[int(np.argmin(fd))], profile


def write_atomic(path, text: str) -> None:
    """Write text through a temp file named per process, then rename over path.

    On failure the temp file is removed and the error re-raised.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def profile_to_csv(profile: FdProfile) -> str:
    """The profile as CSV text (a, fd, retained_rows, skipped_rows).

    Floats carry 17 significant digits; failed candidates appear as "inf".
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "fd", "retained_rows", "skipped_rows"])
    for e in profile.entries:
        writer.writerow([f"{e.a:.17g}", f"{e.fd:.17g}", e.retained_rows, e.skipped_rows])
    return buf.getvalue()


def profile_from_csv(text: str) -> FdProfile:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["a", "fd", "retained_rows", "skipped_rows"]:
        raise ValidationError(f"unexpected profile header: {header}")
    entries = []
    for row in reader:
        if not row:
            continue
        try:
            a, fd, retained, skipped = row
            entries.append(FdEntry(a=float(a), fd=float(fd),
                                   retained_rows=int(retained), skipped_rows=int(skipped)))
        except ValueError as exc:
            raise ValidationError(f"malformed profile row on line {reader.line_num}: {row}") from exc
    return FdProfile(entries=tuple(entries))
