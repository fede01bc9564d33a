"""Dataset handling, anomaly-detection protocols, and evaluation metrics.

Implements the evaluation pipeline: CSV ingestion, seeded stratified splits,
z-score standardization on train statistics, Fisher-divergence tuning of the
smoothness (or bandwidth) per seed, anomaly scoring by negative density, and
Mann-Whitney AUC-ROC with rank aggregation across datasets.  Also contains
the four experiment protocols: standard AD, duplicated anomalies (masking),
the negative-fraction comparison of the two gradient iterations, and the
empirical consistency trend check with a = 1/N.

Each of the six AD methods is a (kernel backend, squared) pair, named
"<kind>_<backend>": kind "sosrep" fits alpha and scores by the pre-density
f^2, kind "kde" takes uniform alpha and scores by f; backend "sdo" is the
sampled-feature solver.FittedModel, "gaussian"/"laplacian" the closed-form
ClosedFormRepresenterModel.  Both backends follow the solver module's model
protocol: f_values and f_and_grad, with density and score_batch derived
from them by the squared flag.

The module needs numpy alone.  AUCs and rank tables use average ranks
computed here (scipy.stats.rankdata's convention, bit for bit), and the bump
CDF uses sdo_kernel's numpy trapezoid rule.  A NaN score or AUC is an error,
never a NaN in a report.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np

from .baseline_kernels import (
    FAMILIES,
    ClosedFormKernel,
    DistanceReuse,
    _check_dim,
    _check_weights,
    f_and_grad_closed_form,
    kernel_matrix_closed_form,
)
from .errors import DataError, NumericsError, SosrepError, ValidationError
from .score_fd import FdOptions, FdProfile, _check_candidates, selection_kind, tune
from .sdo_kernel import (
    FrequencySample,
    SdoParams,
    _as_list,
    _check_key,
    _count,
    _cumulative_trapezoid,
    _is_int,
    _is_real,
    _positive,
    _store,
    feature_map,
    kernel_matrix,
    rng_from_seed,
    sample_frequencies,
)
from .solver import (
    FORMAT_VERSION,
    FittedModel,
    SolverOptions,
    _add_jitter_in_place,
    _draw_init,
    _matvecs,
    fit,
    fit_model,
)

BACKENDS = ("sdo", *FAMILIES)
AD_METHODS = tuple(f"{kind}_{backend}" for kind in ("sosrep", "kde") for backend in BACKENDS)
DEFAULT_SEEDS = (0, 1, 2, 3)
_MAX_DUPLICATES = 6  # duplicate_anomalies' largest k
_FIT_SEED_STRIDE = 1_000_003  # consistency_experiment's fit seeds


@dataclass
class Dataset:
    """Row-major feature table with optional binary anomaly labels (1 = anomaly)."""

    X: np.ndarray
    y: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if not np.all(np.isfinite(X)):
            raise DataError("feature values must be finite")
        if self.y is not None:
            y = np.asarray(self.y)
            if y.shape != (X.shape[0],):
                raise DataError(
                    f"label vector length {y.shape} does not match {X.shape[0]} rows"
                )
            if y.size and not np.all(np.isin(y, (0, 1))):
                raise DataError("labels must be binary 0/1")
            self.y = y.astype(int)
        self.X = X

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Parse a headered CSV of numeric features, splitting off the label column.

    label_column=None takes a column headed 'label' as the labels when there
    is one and reads every column as a feature otherwise; a name that is not
    in the header, or a header that repeats a name, is an error, raised before
    any row is parsed.  A leading byte-order mark is dropped and
    fully blank lines are skipped, before the header is read.
    Rows with missing values are rejected with their row indices; cells that
    fail to parse report the file line; labels must be 0/1.  The dataset is
    named after the file's stem.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise DataError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in rows[0][1]]
    repeated = sorted(h for h, count in Counter(header).items() if count > 1)
    if repeated:
        raise DataError(f"{path}: header repeats column names {repeated}")
    if label_column is None and "label" in header:
        label_column = "label"
    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not found in header {header}")
        label_idx = header.index(label_column)
    feat_idx = [j for j in range(len(header)) if j != label_idx]
    if not feat_idx:
        raise DataError(f"{path}: no feature columns")

    data = rows[1:]
    X = np.empty((len(data), len(feat_idx)))
    y = np.empty(len(data), dtype=int) if label_idx is not None else None
    missing: list[int] = []
    for i, (line, row) in enumerate(data):
        if len(row) != len(header) or any(row[j].strip() == "" for j in range(len(header))):
            missing.append(i)
            continue
        for k, j in enumerate(feat_idx):
            cell = row[j].strip()
            try:
                v = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"{path}: line {line}: could not parse {cell!r} as a number"
                ) from exc
            if not math.isfinite(v):
                raise DataError(f"{path}: row {i} has non-finite value {cell!r}")
            X[i, k] = v
        if label_idx is not None:
            cell = row[label_idx].strip()
            try:
                lv = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"{path}: line {line}: could not parse label {cell!r}"
                ) from exc
            if lv not in (0.0, 1.0):
                raise DataError(f"{path}: row {i} has non-binary label {cell!r}")
            y[i] = int(lv)
    if missing:
        raise DataError(f"{path}: rows with missing values: {missing}")
    return Dataset(X=X, y=y, name=os.path.splitext(os.path.basename(str(path)))[0])


def _default_a_grid() -> tuple:
    return tuple(np.geomspace(1e2, 1e-6, 25))


def _check_train_frac(train_frac) -> None:
    if not (_is_real(train_frac) and 0.0 < train_frac < 1.0):
        raise ValidationError(
            f"train_frac must be a real number strictly between 0 and 1, got {train_frac!r}")


def _default_sigma_grid() -> tuple:
    return tuple(np.geomspace(10.0, 0.05, 25))


@dataclass(frozen=True)
class AdConfig:
    """Hyperparameters of the AD pipeline; all serialized into reports."""

    T: int = 4096
    m: int | None = None
    lr: float = SolverOptions.lr
    n_iters: int = SolverOptions.n_iters
    grad_tol: float = SolverOptions.grad_tol
    n_fd_iters: int = FdOptions.n_fd_iters
    h: float = FdOptions.h
    probe: str = FdOptions.probe
    a_grid: tuple = field(default_factory=_default_a_grid)
    sigma_grid: tuple = field(default_factory=_default_sigma_grid)
    train_frac: float = 0.7
    fd_max_rows: int | None = None

    def __post_init__(self):
        T = _count(self.T, "T")
        optional = "None or a positive integer"
        m = None if self.m is None else _count(self.m, "derivative order m", optional)
        _check_train_frac(self.train_frac)
        fd_max_rows = (None if self.fd_max_rows is None
                       else _count(self.fd_max_rows, "fd_max_rows", optional))
        _check_candidates(self.a_grid, "a_grid")
        _check_candidates(self.sigma_grid, "sigma_grid")
        opts, fd_opts = self.options(0)  # the options' checks, before any seed is fitted
        _store(self, T=T, m=m, lr=opts.lr, n_iters=opts.n_iters, grad_tol=opts.grad_tol,
               n_fd_iters=fd_opts.n_fd_iters, h=fd_opts.h,
               train_frac=float(self.train_frac), fd_max_rows=fd_max_rows)

    def options(self, seed: int) -> tuple[SolverOptions, FdOptions]:
        """(SolverOptions, FdOptions) of one seed's selection: natural-gradient fits.

        The seed keys the FD probes; the fits take the same seed as an argument.
        """
        return (
            SolverOptions(method="natural", lr=self.lr, n_iters=self.n_iters,
                          grad_tol=self.grad_tol),
            FdOptions(n_fd_iters=self.n_fd_iters, h=self.h, probe=self.probe, seed=seed),
        )

    def snapshot(self) -> dict:
        d = asdict(self)
        d["a_grid"] = [float(v) for v in d["a_grid"]]
        d["sigma_grid"] = [float(v) for v in d["sigma_grid"]]
        return d


def split(ds: Dataset, seed: int, train_frac: float = AdConfig.train_frac):
    """Deterministic shuffle split; stratified by label when labels exist.

    Train receives round(train_frac * N) rows and the anomaly proportion is
    preserved within one sample per part (largest-remainder allocation).  An
    empty stratum in either part warns rather than fails.
    """
    _check_train_frac(train_frac)
    n = ds.n
    if n < 2:
        raise ValidationError("need at least 2 rows to split")
    rng = rng_from_seed(seed)
    n_train = int(round(train_frac * n))
    if ds.y is None:
        perm = rng.permutation(n)
        tr, te = perm[:n_train], perm[n_train:]
    else:
        classes = (0, 1)
        shuffled = []
        quotas = []
        for c in classes:
            idx = np.flatnonzero(ds.y == c)
            shuffled.append(rng.permutation(idx))
            quotas.append(train_frac * len(idx))
        base = [int(math.floor(q)) for q in quotas]
        leftover = n_train - sum(base)
        order = sorted(classes, key=lambda c: (-(quotas[c] - base[c]), c))
        for c in order[:leftover]:  # 0 <= leftover <= 2, and every class has room
            base[c] += 1
        tr = np.concatenate([s[:b] for s, b in zip(shuffled, base)]).astype(int)
        te = np.concatenate([s[b:] for s, b in zip(shuffled, base)]).astype(int)
        for c in classes:
            n_c = len(shuffled[c])
            if n_c > 0 and (base[c] == 0 or base[c] == n_c):
                part = "train" if base[c] == 0 else "test"
                warnings.warn(
                    f"stratum {c} has zero rows in the {part} part", RuntimeWarning, stacklevel=2
                )
    train = Dataset(X=ds.X[tr], y=None if ds.y is None else ds.y[tr], name=f"{ds.name}#train")
    test = Dataset(X=ds.X[te], y=None if ds.y is None else ds.y[te], name=f"{ds.name}#test")
    return train, test


def standardize(train: Dataset, test: Dataset):
    """Per-feature z-score with train statistics; constant features centered."""
    if train.n < 1:
        raise ValidationError("train set must be nonempty")
    mean = train.X.mean(axis=0)
    std = train.X.std(axis=0)
    zero = std == 0.0
    scale = np.where(zero, 1.0, std)
    train2 = replace(train, X=(train.X - mean) / scale)
    test2 = replace(test, X=(test.X - mean) / scale)
    stats = {
        "mean": [float(v) for v in mean],
        "std": [float(v) for v in std],
        "zero_variance_columns": [int(j) for j in np.flatnonzero(zero)],
    }
    return train2, test2, stats


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a NaN-free vector; each run of ties gets its mean position.

    A stable sort, then one rank per run of equal values; these are the
    ranks of scipy.stats.rankdata(values), bit for bit.  Every rank is a
    half-integer, so any sum of them is exact.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auc_roc(scores, labels) -> float:
    """AUC-ROC by the Mann-Whitney rank formula with average ranks on ties.

    Higher score means more anomalous (label 1).  A NaN score raises
    NumericsError.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise DataError("scores and labels must have equal length")
    if not np.all(np.isin(labels, (0, 1))):
        raise DataError("labels must be binary 0/1")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("both classes must be present to compute AUC")
    n_nan = int(np.isnan(scores).sum())
    if n_nan:
        raise NumericsError(f"{n_nan} of {scores.size} anomaly scores are NaN")
    ranks = _average_ranks(scores)
    u = float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# density models used by the baselines


def _training_rows(X_train) -> np.ndarray:
    """X_train as a 2-D float array, checked to hold at least one row."""
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    if X_train.shape[0] < 1:
        raise DataError("a kernel model requires a nonempty training set")
    return X_train


class ClosedFormRepresenterModel:
    """f = sum_i alpha_i k(x_i, .) with a closed-form kernel.

    With squared=True the density is f^2 (pre-density estimator); otherwise
    the density is f itself (KDE when alpha is uniform).  squared must be a
    boolean and kernel a ClosedFormKernel of the rows' dimension, else
    ValidationError (DataError for the dimension).  A sweep passes its
    `reuse` scope (baseline_kernels.DistanceReuse), which every evaluation
    hands on to the kernel; the values do not depend on it.
    """

    def __init__(self, X_train, alpha, kernel: ClosedFormKernel, squared: bool, *,
                 reuse: DistanceReuse | None = None):
        if not isinstance(squared, (bool, np.bool_)):
            raise ValidationError(f"squared must be a boolean, got {squared!r}")
        self.X_train = _training_rows(X_train)
        _check_dim(kernel, self.X_train.shape[1])
        self.alpha = _check_weights(alpha, self.X_train.shape[0])
        self.kernel = kernel
        self.squared = bool(squared)
        self.reuse = reuse

    def f_values(self, Y) -> np.ndarray:
        # f_and_grad's f, so density and score_batch read the same f bit for bit
        return self.f_and_grad(Y)[0]

    def f_and_grad(self, Y):
        return f_and_grad_closed_form(self.kernel, self.X_train, self.alpha, Y, reuse=self.reuse)

    # The protocol's density and score, taken from FittedModel rather than
    # inherited so that each class owns its score_batch attribute, which
    # bench/layers.py traces per class.
    density = FittedModel.density
    score_batch = FittedModel.score_batch


class SdoKdeModel(FittedModel):
    """KDE with the sampled kernel: f(y) = (1/N) sum_i k_hat(x_i, y), unsquared.

    Evaluated through the mean feature weight vector; finite-T values can be
    slightly negative and are reported as-is.
    """

    def __init__(self, X_train, fs: FrequencySample):
        X_train = _training_rows(X_train)
        n = X_train.shape[0]
        alpha = np.full(n, 1.0 / n)
        Phi = feature_map(X_train, fs)
        super().__init__(alpha=alpha, fs=fs, feature_weights=Phi.T @ alpha, squared=False)


# ---------------------------------------------------------------------------
# standard AD protocol


@dataclass
class ExperimentReport:
    """One method's AD results, keyed by seed where they vary per seed.

    `standardization` maps each seed to its train-split z-score statistics
    and `profiles` to the FdProfile that tune evaluated.
    """

    dataset: str
    method: str
    seeds: tuple
    aucs: dict
    mean_auc: float
    config: dict
    chosen: dict
    standardization: dict
    warnings: tuple
    profiles: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "ad_report",
            "dataset": self.dataset,
            "method": self.method,
            "seeds": list(self.seeds),
            "aucs": {str(k): v for k, v in self.aucs.items()},
            "mean_auc": self.mean_auc,
            "config": self.config,
            "chosen": {str(k): v for k, v in self.chosen.items()},
            "standardization": {str(k): v for k, v in self.standardization.items()},
            "warnings": list(self.warnings),
            "profiles": {
                str(k): [
                    {
                        "a": e.a,
                        "fd": e.fd if math.isfinite(e.fd) else None,
                        "retained_rows": e.retained_rows,
                        "skipped_rows": e.skipped_rows,
                    }
                    for e in p.entries
                ]
                for k, p in self.profiles.items()
            },
            "selection": {
                str(k): selection_kind(p, self.chosen[k]) for k, p in self.profiles.items()
            },
        }


def select(method: str, train_X: np.ndarray, Y_fd: np.ndarray, seed: int,
           config: AdConfig):
    """Tune one AD method for one seed: fit per grid value, select by FD.

    `method` is one of AD_METHODS; the "sdo" backends walk `config.a_grid`,
    the closed-form ones `config.sigma_grid`.  Each candidate is fitted on
    `train_X` at most once and scored on `Y_fd` by `tune`.  Returns
    (a_star, profile, model) with `model` the fit at a_star.

    A closed-form sweep opens one DistanceReuse scope for every candidate's
    Gram and model; the returned model holds none.
    """
    d = train_X.shape[1]
    kind, backend = method.split("_")
    squared = kind == "sosrep"
    candidates = config.a_grid if backend == "sdo" else config.sigma_grid
    opts, fd_opts = config.options(seed)
    models: dict[float, object] = {}  # tune fits each candidate once
    reuse = None if backend == "sdo" else DistanceReuse()

    def fit_fn(value: float):
        if backend == "sdo":
            params = SdoParams(a=value, d=d, m=config.m)
            if squared:
                model = fit_model(train_X, params, config.T, seed=seed, opts=opts)
            else:
                model = SdoKdeModel(train_X, sample_frequencies(params, config.T, seed))
        else:
            kernel = ClosedFormKernel(family=backend, sigma=value, d=d)
            if squared:
                alpha = fit(kernel_matrix_closed_form(kernel, train_X, train_X, reuse=reuse),
                            opts, seed=seed).alpha
            else:
                alpha = np.full(train_X.shape[0], 1.0 / train_X.shape[0])
            model = ClosedFormRepresenterModel(train_X, alpha, kernel, squared, reuse=reuse)
        models[value] = model
        return model

    a_star, profile = tune(candidates, fit_fn, Y_fd, fd_opts)
    model = models[a_star]
    if reuse is not None:
        model = ClosedFormRepresenterModel(model.X_train, model.alpha, model.kernel, squared)
    return a_star, profile, model


def run_ad(
    ds: Dataset,
    method: str,
    seeds=DEFAULT_SEEDS,
    config: AdConfig = AdConfig(),
) -> ExperimentReport:
    """Full AD protocol for one method: split, standardize, tune, fit, AUC.

    seeds must be a nonempty list of distinct integers in 0..2**64-1, else
    ValidationError before any split.  Per-seed failures are recorded as
    warnings; the report is emitted as long as at least one seed succeeds.
    """
    if method not in AD_METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {AD_METHODS}")
    if ds.y is None:
        raise DataError("the AD protocol requires labels")
    seeds = tuple(_as_list(seeds, "seeds"))
    if not seeds:
        raise ValidationError("seeds must not be empty")
    for seed in seeds:
        _check_key(seed)  # a non-integer or out-of-range seed fails here, before any split
    seeds = tuple(int(s) for s in seeds)
    if len(set(seeds)) != len(seeds):
        raise ValidationError(f"seeds {seeds} repeat a value")
    if method.endswith("_sdo"):
        SdoParams(a=1.0, d=ds.d, m=config.m)  # and so does an m with 2m <= d
    aucs: dict[int, float] = {}
    chosen: dict[int, float] = {}
    profiles: dict[int, FdProfile] = {}
    standardization: dict[int, dict] = {}
    warn_list: list[str] = []
    for seed in seeds:
        try:
            train, test = split(ds, seed, config.train_frac)
            train2, test2, standardization[seed] = standardize(train, test)
            Y_fd = test2.X
            if config.fd_max_rows is not None and Y_fd.shape[0] > config.fd_max_rows:
                sel = rng_from_seed(seed, 1).permutation(Y_fd.shape[0])[: config.fd_max_rows]
                Y_fd = Y_fd[np.sort(sel)]
            a_star, profile, model = select(method, train2.X, Y_fd, seed, config)
            scores = -np.asarray(model.density(test2.X), dtype=float)
            aucs[seed] = auc_roc(scores, test.y)
            chosen[seed] = float(a_star)
            profiles[seed] = profile
        except SosrepError as exc:
            warn_list.append(f"seed {seed}: {type(exc).__name__}: {exc}")
    if not aucs:
        raise NumericsError(
            f"all seeds failed for method {method}: {'; '.join(warn_list)}"
        )
    mean_auc = float(np.mean(list(aucs.values())))
    return ExperimentReport(
        dataset=ds.name,
        method=method,
        seeds=seeds,
        aucs=aucs,
        mean_auc=mean_auc,
        config=config.snapshot(),
        chosen=chosen,
        standardization=standardization,
        warnings=tuple(warn_list),
        profiles=profiles,
    )


def duplicate_anomalies(ds: Dataset, k: int) -> Dataset:
    """Each anomaly row appears k times total (1 <= k <= _MAX_DUPLICATES);
    inliers unchanged.

    Applied to the whole dataset so that a later split lands duplicates in
    both parts.
    """
    if ds.y is None:
        raise DataError("duplicate_anomalies requires labels")
    if not (_is_int(k) and 1 <= k <= _MAX_DUPLICATES):
        raise ValidationError(f"k must be an integer in 1..{_MAX_DUPLICATES}, got {k!r}")
    k = int(k)
    counts = np.where(ds.y == 1, k, 1)
    X2 = np.repeat(ds.X, counts, axis=0)
    y2 = np.repeat(ds.y, counts)
    return Dataset(X=X2, y=y2, name=f"{ds.name}#dup{k}")


# ---------------------------------------------------------------------------
# negative-fraction experiment


def negative_fraction_experiment(
    ds: Dataset,
    a: float = 1.0,
    T: int = 2048,
    m: int | None = None,
    n_init: int = 50,
    n_iters: int = SolverOptions.n_iters,
    lr: float = SolverOptions.lr,
    seed: int = 0,
    kernel: str = "sdo",
    sigma: float = 1.0,
) -> dict:
    """Fraction of train points with f < 0 after n_iters, per gradient method.

    Runs n_init nonnegative initializations (shared between methods), reports
    the mean of the 5 worst final fractions per method plus the
    initialization-time fractions.  Divergent runs count as fraction 1.
    Start i is the start law's draw from stream (seed, i + 1).  a, sigma, T,
    seed and m (when given) are checked whatever the kernel, and the config
    records them, m as None for the SDO default floor(d/2) + 1.
    """
    if not (_is_int(n_init) and n_init >= 5):
        raise ValidationError(
            f"n_init must be an integer of at least 5 for a worst-5 mean, got {n_init!r}")
    a, sigma, T = _positive(a, "smoothness a"), _positive(sigma, "sigma"), _count(T, "T")
    m = None if m is None else _count(m, "derivative order m")
    _check_key(seed)
    opts = SolverOptions(lr=lr, n_iters=n_iters, grad_tol=0.0)
    X = ds.X
    if kernel == "sdo":
        params = SdoParams(a=a, d=ds.d, m=m)
        fs = sample_frequencies(params, T, seed)
        K = _add_jitter_in_place(kernel_matrix(X, None, fs))
    elif kernel in FAMILIES:
        K = kernel_matrix_closed_form(ClosedFormKernel(kernel, sigma, ds.d), X, X)
    else:
        raise ValidationError(f"unknown kernel {kernel!r}")
    n = K.shape[0]

    inits = np.array([_draw_init(n, seed, i + 1) for i in range(n_init)])

    warn_list: list[str] = []
    init_fracs = np.mean(_matvecs(K, inits) < 0.0, axis=1)
    out: dict = {
        "config": {
            "kernel": kernel, "a": a, "m": m, "sigma": sigma, "T": T, "n_init": int(n_init),
            "n_iters": opts.n_iters, "lr": opts.lr, "seed": int(seed),
        },
        "init": {
            "mean_fraction": float(init_fracs.mean()),
            "worst5_mean": float(np.sort(init_fracs)[-5:].mean()),
        },
        "methods": {},
    }
    for method in ("natural", "standard"):
        # One fit call per method advances all the starts as one batch.
        fracs = np.empty(n_init)
        n_divergent = 0
        for i, res in enumerate(fit(K, replace(opts, method=method), alpha0=inits)):
            if isinstance(res, NumericsError):
                fracs[i] = 1.0
                n_divergent += 1
                warn_list.append(f"{method} init {i}: {res}")
            else:
                fracs[i] = float(np.mean(K @ res.alpha < 0.0))
        out["methods"][method] = {
            "worst5_mean": float(np.sort(fracs)[-5:].mean()),
            "mean_fraction": float(fracs.mean()),
            "n_divergent": n_divergent,
            "fractions": [float(v) for v in fracs],
        }
    out["warnings"] = warn_list
    return out


# ---------------------------------------------------------------------------
# consistency experiment


@dataclass(frozen=True)
class SmoothBumpDensity:
    """Compactly supported C-infinity bump on [center - width, center + width].

    pdf proportional to exp(-1/(1 - u^2)) with u the rescaled coordinate; its
    square root is smooth, so the density qualifies for the a = 1/N trend.
    """

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not (_is_real(self.center) and math.isfinite(self.center)):
            raise ValidationError(f"center must be a finite real number, got {self.center!r}")
        _store(self, center=float(self.center), width=_positive(self.width, "width"))

    def support(self):
        return self.center - self.width, self.center + self.width

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.width
        return _bump(u) / (_bump_norm() * self.width)

    def sqrt_pdf(self, x) -> np.ndarray:
        return np.sqrt(self.pdf(x))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling on a fine grid; returns an (n, 1) array."""
        u_grid, cdf = _bump_cdf()
        u = np.interp(rng.random(n), cdf, u_grid)
        return (self.center + self.width * u).reshape(-1, 1)


def _bump(u: np.ndarray) -> np.ndarray:
    """exp(-1/(1 - u^2)) on (-1, 1), zero elsewhere."""
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


@lru_cache(maxsize=1)
def _bump_norm() -> float:
    u = np.linspace(-1.0, 1.0, 20001)
    return float(np.trapezoid(_bump(u), u))


@lru_cache(maxsize=1)
def _bump_cdf():
    u = np.linspace(-1.0, 1.0, 20001)
    cdf = _cumulative_trapezoid(_bump(u), u)
    cdf /= cdf[-1]
    return u, cdf


def consistency_experiment(
    density: SmoothBumpDensity,
    Ns,
    grid,
    n_reps: int = 5,
    T: int = AdConfig.T,
    seed: int = 0,
    lr: float = SolverOptions.lr,
    n_iters: int = SolverOptions.n_iters,
    grad_tol: float = SolverOptions.grad_tol,
) -> list:
    """L2 error of the normalized fitted root-density at a = 1/N, per N.

    For each sample size N and repetition: draw N points, fit with a = 1/N
    and m = 1, rescale |f| to unit L2 mass on the grid, and record the
    trapezoid L2 distance to the true root density.  Reports the median over
    repetitions.  A sample size or n_reps that is not a positive integer, a
    grid that is not finite and strictly increasing with at least 2 points,
    lr, n_iters or grad_tol that SolverOptions rejects, or a seed whose
    largest fit seed, seed * 1000003 + the last repetition's stream, would
    not fit in 64 bits raises ValidationError before any draw.
    """
    Ns = _as_list(Ns, "sample sizes")
    try:
        Ns = [_count(N, "sample sizes") for N in Ns]
    except ValidationError:
        raise ValidationError(f"sample sizes must be positive integers, got {Ns}") from None
    n_reps = _count(n_reps, "n_reps")
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size < 2:
        raise ValidationError(f"the grid needs at least 2 points, got {grid.size}")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise ValidationError("the grid must be finite and strictly increasing")
    opts = SolverOptions(method="natural", lr=lr, n_iters=n_iters, grad_tol=grad_tol)
    # Repetition `sub` draws from stream (seed, sub) and fits with the seed
    # seed * _FIT_SEED_STRIDE + sub, so the last sub bounds the seed; the
    # first draw checks its type and sign.
    stride = max(1000, n_reps)
    max_seed = (2**64 - 1 - (len(Ns) - 1) * stride - n_reps) // _FIT_SEED_STRIDE
    if _is_int(seed):
        if seed > max_seed:
            raise ValidationError(
                f"seed must be at most {max_seed} with {len(Ns)} sample size(s) "
                f"and n_reps={n_reps}, got {seed}")
        seed = int(seed)  # a numpy integer could wrap in the fit-seed product
    v = density.sqrt_pdf(grid)
    v = v / math.sqrt(float(np.trapezoid(v * v, grid)))
    results = []
    for i_n, N in enumerate(Ns):
        a = 1.0 / N
        errors = []
        for rep in range(n_reps):
            sub = i_n * stride + rep + 1
            rng = rng_from_seed(seed, sub)
            X = density.sample(N, rng)
            fit_seed = seed * _FIT_SEED_STRIDE + sub
            model = fit_model(X, SdoParams(a=a, d=1, m=1), T, seed=fit_seed, opts=opts)
            fhat = np.abs(model.f_values(grid.reshape(-1, 1)))
            mass = float(np.trapezoid(fhat * fhat, grid))
            if mass <= 0:
                raise NumericsError(f"fitted function has zero mass on the grid (N={N})")
            fhat = fhat / math.sqrt(mass)
            err = math.sqrt(float(np.trapezoid((fhat - v) ** 2, grid)))
            errors.append(err)
        results.append(
            {
                "N": N,
                "a": a,
                "median_l2_error": float(np.median(errors)),
                "errors": [float(e) for e in errors],
            }
        )
    return results


# ---------------------------------------------------------------------------
# rank aggregation


def rank_aggregate(results: dict):
    """Per-dataset ranks (1..M, M best, average on ties) and mean rank per method.

    `results` maps method -> dataset -> AUC; the table must be complete and
    free of NaN.
    """
    methods = sorted(results)
    if not methods:
        raise DataError("empty results table")
    datasets = sorted(results[methods[0]])
    for m in methods:
        if sorted(results[m]) != datasets:
            raise DataError(f"method {m!r} is missing cells; the table must be complete")
    rank_table: dict = {m: {} for m in methods}
    for d in datasets:
        vals = np.array([results[m][d] for m in methods], dtype=float)
        if np.isnan(vals).any():
            raise DataError(f"dataset {d!r} has a NaN AUC; it cannot be ranked")
        ranks = _average_ranks(vals)  # higher AUC -> higher rank
        for m, r in zip(methods, ranks):
            rank_table[m][d] = float(r)
    mean_ranks = {m: float(np.mean(list(rank_table[m].values()))) for m in methods}
    return rank_table, mean_ranks
