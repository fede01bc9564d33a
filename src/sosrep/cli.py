"""Command-line interface.

Subcommands: fit, score, tune, two-block, experiment.  `tune` and the `ad`
and `duplicates` protocols of `experiment` share the Fisher-divergence flags
(--a-grid, --n-fd-iters, --h, --probe, --train-frac), build one AdConfig from
them and select per seed through harness.select; --method and
--exact-normalization act on `fit` alone.  The whole AdConfig is validated
before any fit, and list flags (--seeds, --k-values, --sample-sizes) take
distinct integers, --a-grid and --sigma-grid distinct values, and --methods
distinct names; a bad list is a usage error that names its flag.  One
table, _PROTOCOLS, states what each experiment protocol reads, and its
runner sees no other flag.  A flag given to a protocol that does not read
it is a usage error, and so is `tune --eval-data` with an explicit
--train-frac (no split of --data takes place, and run_config records
train_frac as null).  The solver, kernel and FD flags take their defaults
and choices from SolverOptions, AdConfig, DEFAULT_SEEDS and the kernel
families, so each is declared once.  `experiment` runs its dataset x method
cells one after another in this process; parallel work is one process per
dataset or method.

Errors are reported as a single JSON object on stderr; exit code 2 flags
usage/validation/data/io problems and 3 flags numeric failures.  All file
outputs are written atomically (temp file plus rename) and refits with
identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import replace

import numpy as np

from .errors import DataError, NumericsError, SosrepError, ValidationError
from .harness import (
    _MAX_DUPLICATES,
    AD_METHODS,
    BACKENDS,
    DEFAULT_SEEDS,
    AdConfig,
    SmoothBumpDensity,
    consistency_experiment,
    duplicate_anomalies,
    load_csv,
    negative_fraction_experiment,
    rank_aggregate,
    run_ad,
    select,
    split,
)
from .score_fd import _PROBES, profile_to_csv, write_atomic
from .sdo_kernel import SdoParams
from .solver import (
    _METHODS,
    FORMAT_VERSION,
    SolverOptions,
    fit_model,
    model_from_json,
    model_to_json,
)
from .two_block import VERIFY_OPTIONS, BlockSpec, verify_against_solver


class _UsageError(Exception):
    pass


class _Store(argparse.Action):
    """argparse's store action that also adds its dest to the namespace's `_given`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace._given = _given(namespace) | {self.dest}


def _given(args) -> frozenset:
    """Dests of the value flags given on the command line, defaults excluded."""
    return getattr(args, "_given", frozenset())


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting so main() controls the exit code.

    Value flags use _Store, so a command can tell a flag given explicitly
    from one left at its default.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Store)

    def error(self, message):
        raise _UsageError(message)


def _emit_error(kind: str, message: str) -> None:
    json.dump({"error": {"kind": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")


def _write_json(path, record: dict) -> None:
    """Write `record`, stamped with the format version, as sorted indented JSON."""
    record = {**record, "format_version": FORMAT_VERSION}
    write_atomic(path, json.dumps(record, sort_keys=True, indent=1) + "\n")


def _parse_list(text: str, what: str, convert=int) -> tuple:
    """A comma list of distinct values, each read by `convert`; `what`, the
    list's flag, names it in errors."""
    try:
        vals = tuple(convert(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise _UsageError(f"could not parse {what} list {text!r}")
    if not vals:
        raise _UsageError(f"{what} list is empty")
    if len(set(vals)) != len(vals):
        raise _UsageError(f"{what} list {text!r} repeats a value")
    return vals


def _parse_grid(text: str, what: str) -> tuple:
    """Either 'log:lo:hi:n' (descending geometric grid) or a comma list of
    distinct values, sorted descending; `what`, the grid's flag, names it in errors."""
    if not text.startswith("log:"):
        return tuple(sorted(_parse_list(text, what, float), reverse=True))
    parts = text.split(":")
    if len(parts) != 4:
        raise _UsageError(f"{what}: expected log:lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise _UsageError(f"could not parse {what} spec {text!r}")
    if lo <= 0 or hi <= 0 or n < 2:
        raise _UsageError(f"{what} bounds must be positive and n >= 2, got {text!r}")
    if lo == hi:
        raise _UsageError(f"{what} spec {text!r} repeats a value")
    return tuple(np.geomspace(max(lo, hi), min(lo, hi), n))


def _add_solver_flags(p: argparse.ArgumentParser,
                      defaults: SolverOptions = SolverOptions()) -> None:
    """--lr, --n-iters and --grad-tol with the defaults of `defaults`."""
    p.add_argument("--lr", type=float, default=defaults.lr,
                   help="step size (default %(default)s)")
    p.add_argument("--n-iters", type=int, default=defaults.n_iters,
                   help="maximum iterations (default %(default)s)")
    p.add_argument("--grad-tol", type=float, default=defaults.grad_tol,
                   help="sup-norm stopping tolerance (default %(default)s)")


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", default="auto",
                   help="Sobolev order; 'auto' means floor(d/2)+1 (default auto)")
    p.add_argument("--n-z", type=int, default=AdConfig.T,
                   help="number of sampled frequencies T (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


def _add_fd_flags(p: argparse.ArgumentParser) -> None:
    """Flags of the Fisher-divergence selection shared by tune and experiment."""
    p.add_argument("--a-grid", default=None,
                   help="'log:lo:hi:n' or comma list (default log:1e-6:1e2:25)")
    p.add_argument("--n-fd-iters", type=int, default=AdConfig.n_fd_iters,
                   help="probes per query row (default %(default)s)")
    p.add_argument("--h", type=float, default=AdConfig.h,
                   help="finite-difference step (default %(default)s)")
    p.add_argument("--probe", default=AdConfig.probe, choices=_PROBES,
                   help="Hutchinson probe law (default %(default)s)")
    p.add_argument("--train-frac", type=float, default=AdConfig.train_frac,
                   help="share of rows fitted, the rest scored (default %(default)s)")


def _config_from_args(args, sigma_grid=None, fd_max_rows=None) -> AdConfig:
    """AdConfig from the kernel, solver and FD flags of tune or experiment.

    Only experiment has --sigma-grid and --fd-max-rows; a grid spec left None
    keeps the AdConfig default grid.
    """
    kwargs = dict(
        T=args.n_z, m=_resolve_m(args.m), lr=args.lr, n_iters=args.n_iters,
        grad_tol=args.grad_tol, n_fd_iters=args.n_fd_iters, h=args.h,
        probe=args.probe, train_frac=args.train_frac, fd_max_rows=fd_max_rows,
    )
    for name, spec in (("a_grid", args.a_grid), ("sigma_grid", sigma_grid)):
        if spec is not None:
            kwargs[name] = _parse_grid(spec, "--" + name.replace("_", "-"))
    return AdConfig(**kwargs)


def _resolve_m(arg):
    if arg == "auto":
        return None
    try:
        return int(arg)
    except ValueError:
        raise _UsageError(f"--m must be an integer or 'auto', got {arg!r}")


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> int:
    ds = load_csv(args.data, args.label_column)
    if ds.n == 0:
        raise DataError(f"{args.data}: cannot fit on an empty dataset")
    params = SdoParams(a=args.a, d=ds.d, m=_resolve_m(args.m))
    opts = SolverOptions(
        method=args.method, lr=args.lr, n_iters=args.n_iters, grad_tol=args.grad_tol,
    )
    model = fit_model(
        ds.X, params, args.n_z, seed=args.seed, opts=opts,
        exact_normalization=args.exact_normalization,
    )
    run_config = {
        "a": args.a, "m": params.m, "n_z": args.n_z, "seed": args.seed,
        "method": args.method, "lr": args.lr, "n_iters": args.n_iters,
        "grad_tol": args.grad_tol, "exact_normalization": args.exact_normalization,
        "data": str(args.data),
    }
    write_atomic(args.out, model_to_json(model, run_config=run_config))
    if args.metrics:
        _write_json(args.metrics, {
            "kind": "fit_metrics", "n_train": ds.n, "d": ds.d,
            "run_config": run_config, **model.fit_info,
        })
    return 0


def cmd_score(args) -> int:
    with open(args.model, encoding="utf-8") as fh:
        model = model_from_json(fh.read())
    ds = load_csv(args.data, args.label_column)
    if ds.n and ds.d != model.fs.base_params.d:
        raise DataError(
            f"query dimension {ds.d} does not match model dimension "
            f"{model.fs.base_params.d}"
        )
    dens = model.density(ds.X) if ds.n else np.empty(0)
    buf = io.StringIO()
    buf.write("pre_density,anomaly_score\n" if model.squared else "density,anomaly_score\n")
    for v in dens:
        buf.write(f"{_fmt(v)},{_fmt(-v)}\n")
    write_atomic(args.out, buf.getvalue())
    return 0


def cmd_tune(args) -> int:
    if args.eval_data and "train_frac" in _given(args):
        raise _UsageError("--train-frac splits --data; it cannot be combined with "
                          "--eval-data")
    config = _config_from_args(args)
    ds = load_csv(args.data, args.label_column)
    if args.eval_data:
        eval_ds = load_csv(args.eval_data, args.label_column)
        train_X, eval_X = ds.X, eval_ds.X
    else:
        train, test = split(ds, args.seed, config.train_frac)
        train_X, eval_X = train.X, test.X
    if train_X.shape[0] == 0 or eval_X.shape[0] == 0:
        raise DataError("both the fit part and the evaluation part must be nonempty")
    if train_X.shape[1] != eval_X.shape[1]:
        raise DataError(f"--eval-data has {eval_X.shape[1]} feature columns, --data has {ds.d}")
    a_star, profile, _model = select("sosrep_sdo", train_X, eval_X, args.seed, config)
    run_config = config.snapshot()
    if args.eval_data:
        run_config["train_frac"] = None  # no split of --data took place
    _write_json(args.out, {
        "kind": "tune_selection", "a_star": a_star, "n_evaluated": len(profile),
        "n_candidates": len(config.a_grid), "run_config": run_config,
        "seed": args.seed, "selection": profile.selection,
    })
    if args.profile_out:
        write_atomic(args.profile_out, profile_to_csv(profile))
    return 0


def cmd_two_block(args) -> int:
    N = args.N if args.N is not None else args.n
    M = args.M if args.M is not None else args.n
    spec = BlockSpec(N=N, M=M, gamma=args.gamma,
                     gamma_prime=args.gamma_prime, beta=args.beta)
    opts = replace(VERIFY_OPTIONS, lr=args.lr, n_iters=args.n_iters, grad_tol=args.grad_tol)
    _write_json(args.out, {
        **verify_against_solver(spec, opts=opts),
        "kind": "two_block_report",
        "run_config": {
            "N": N, "M": M, "gamma": args.gamma, "gamma_prime": args.gamma_prime,
            "beta": args.beta, "lr": args.lr, "n_iters": args.n_iters,
            "grad_tol": args.grad_tol,
        },
    })
    return 0


def _run_ad_cells(args, datasets) -> list:
    """run_ad for each dataset x method, one cell after another.

    Returns one list of reports per dataset, in --methods order.  Cells run
    serially; parallel work is one process per dataset or method.
    """
    methods = (AD_METHODS if args.methods == "all"
               else _parse_list(args.methods, "--methods", str.strip))
    for m in methods:
        if m not in AD_METHODS:
            raise _UsageError(f"unknown method {m!r}; expected one of {AD_METHODS}")
    seeds = _parse_list(args.seeds, "--seeds")
    config = _config_from_args(args, sigma_grid=args.sigma_grid,
                               fd_max_rows=args.fd_max_rows)
    return [[run_ad(ds, m, seeds=seeds, config=config) for m in methods] for ds in datasets]


def _experiment_ad(args, ds) -> dict:
    [reports] = _run_ad_cells(args, [ds])
    rank_table, mean_ranks = rank_aggregate({r.method: {ds.name: r.mean_auc} for r in reports})
    out = {
        "reports": {r.method: r.to_dict() for r in reports},
        "mean_aucs": {r.method: r.mean_auc for r in reports},
    }
    if len(reports) > 1:
        out["rank"] = {"per_dataset": rank_table, "mean": mean_ranks}
    if args.summary_csv:
        buf = io.StringIO()
        buf.write("dataset,method,mean_auc,rank\n")
        for r in reports:
            rank = rank_table[r.method][ds.name]
            buf.write(f"{ds.name},{r.method},{_fmt(r.mean_auc)},{_fmt(rank)}\n")
        write_atomic(args.summary_csv, buf.getvalue())
    return out


def _experiment_duplicates(args, ds) -> dict:
    ks = _parse_list(args.k_values, "--k-values")
    rows = _run_ad_cells(args, [duplicate_anomalies(ds, k) for k in ks])
    return {
        "k_values": list(ks),
        "reports": {str(k): {r.method: r.to_dict() for r in row} for k, row in zip(ks, rows)},
    }


def _experiment_negfrac(args, ds) -> dict:
    return negative_fraction_experiment(
        ds, a=args.a, T=args.n_z, m=_resolve_m(args.m),
        n_init=args.n_init, n_iters=args.n_iters, lr=args.lr,
        seed=args.seed, kernel=args.kernel, sigma=args.sigma,
    )


def _experiment_consistency(args, _ds) -> dict:
    Ns = _parse_list(args.sample_sizes, "--sample-sizes")
    if args.grid_n < 0:  # np.linspace's own error would be a bare ValueError
        raise ValidationError(f"--grid-n must be nonnegative, got {args.grid_n}")
    grid = np.linspace(args.grid_lo, args.grid_hi, args.grid_n)
    density = SmoothBumpDensity()
    results = consistency_experiment(
        density, Ns, grid, n_reps=args.n_reps, T=args.n_z, seed=args.seed,
        lr=args.lr, n_iters=args.n_iters, grad_tol=args.grad_tol,
    )
    return {
        "config": {"T": args.n_z, "seed": args.seed, "n_reps": args.n_reps, "lr": args.lr,
                   "n_iters": args.n_iters, "grad_tol": args.grad_tol},
        "density": {"center": density.center, "width": density.width},
        "grid": {"lo": args.grid_lo, "hi": args.grid_hi, "n": args.grid_n},
        "results": results,
    }


_SELECTION_FLAGS = frozenset({
    "methods", "seeds", "a_grid", "n_fd_iters", "h", "probe", "train_frac",
    "sigma_grid", "fd_max_rows", "m", "n_z", "lr", "n_iters", "grad_tol",
})
# Per protocol: its runner, what it reads of --data ("labels", "rows" or None
# for no --data and no --label-column) and the flags its runner receives.  A
# protocol accepts these, --protocol and --out, and no other flag.
_PROTOCOLS = {
    "ad": (_experiment_ad, "labels", _SELECTION_FLAGS | {"summary_csv"}),
    "duplicates": (_experiment_duplicates, "labels", _SELECTION_FLAGS | {"k_values"}),
    # fixed-length fits: negfrac runs every start with grad_tol = 0
    "negfrac": (_experiment_negfrac, "rows", frozenset({
        "a", "kernel", "sigma", "n_init", "m", "n_z", "seed", "lr", "n_iters"})),
    "consistency": (_experiment_consistency, None, frozenset({
        "sample_sizes", "n_reps", "grid_lo", "grid_hi", "grid_n", "n_z", "seed", "lr",
        "n_iters", "grad_tol"})),
}


def cmd_experiment(args) -> int:
    run, data, flags = _PROTOCOLS[args.protocol]
    accepted = flags | {"protocol", "out"} | ({"data", "label_column"} if data else set())
    unread = _given(args) - accepted
    if unread:
        names = ", ".join("--" + d.replace("_", "-") for d in sorted(unread))
        raise _UsageError(f"protocol {args.protocol!r} does not read {names}")
    record = {"kind": "experiment", "protocol": args.protocol}
    ds = None
    if data:
        if not args.data:
            raise _UsageError(f"--data is required for protocol {args.protocol!r}")
        ds = load_csv(args.data, args.label_column)
        if data == "labels" and ds.y is None:
            raise DataError(f"{args.data}: labels required; pass --label-column or "
                            "add a 'label' column")
        record["dataset"] = ds.name
    record.update(run(argparse.Namespace(**{f: getattr(args, f) for f in flags}), ds))
    _write_json(args.out, record)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="sosrep", description="Pre-density estimation in a "
                     "Sobolev RKHS with sampled frequencies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model and write it as JSON")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--label-column", default=None,
                   help="label column to drop (default: auto-detect 'label')")
    p.add_argument("--a", type=float, required=True, help="smoothness parameter")
    _add_kernel_flags(p)
    p.add_argument("--exact-normalization", action="store_true",
                   help="scale the sampled kernel by 2W instead of targeting 1/2 "
                        "on the diagonal")
    p.add_argument("--method", default=SolverOptions.method, choices=_METHODS,
                   help="gradient iteration (default %(default)s)")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--metrics", default=None, help="optional metrics JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="evaluate a fitted model on query rows")
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--data", required=True, help="query CSV")
    p.add_argument("--label-column", default=None,
                   help="label column to drop (default: auto-detect 'label')")
    p.add_argument("--out", required=True, help="scores CSV path")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("tune", help="select the smoothness parameter by "
                       "Fisher divergence")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--eval-data", default=None,
                   help="held-out CSV; defaults to an internal split of --data")
    p.add_argument("--label-column", default=None)
    _add_fd_flags(p)
    _add_kernel_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="selection JSON path")
    p.add_argument("--profile-out", default=None, help="optional profile CSV path")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("two-block", help="validate the solver on the "
                       "two-cluster kernel")
    p.add_argument("--n", type=int, default=100,
                   help="rows per block (default 100)")
    p.add_argument("--N", type=int, default=None, help="override first block size")
    p.add_argument("--M", type=int, default=None, help="override second block size")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--gamma-prime", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    _add_solver_flags(p, defaults=VERIFY_OPTIONS)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_two_block)

    p = sub.add_parser("experiment", help="run an evaluation protocol")
    p.add_argument("--protocol", required=True, choices=tuple(_PROTOCOLS))
    p.add_argument("--data", default=None, help="dataset CSV (not used by "
                   "consistency)")
    p.add_argument("--label-column", default=None)
    p.add_argument("--methods", default="all",
                   help="comma list of methods or 'all'")
    p.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)),
                   help="comma list (default %(default)s)")
    _add_fd_flags(p)
    p.add_argument("--sigma-grid", default=None,
                   help="bandwidth grid for the closed-form kernels "
                        "(default log:0.05:10:25)")
    _add_kernel_flags(p)
    _add_solver_flags(p)
    p.add_argument("--fd-max-rows", type=int, default=None,
                   help="subsample held-out rows for the divergence statistic")
    p.add_argument("--k-values", default=",".join(map(str, range(1, _MAX_DUPLICATES + 1))),
                   help="duplication factors for --protocol duplicates")
    p.add_argument("--a", type=float, default=1.0, help="negfrac smoothness")
    p.add_argument("--kernel", default="sdo", choices=BACKENDS,
                   help="negfrac kernel family")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="negfrac closed-form bandwidth")
    p.add_argument("--n-init", type=int, default=50,
                   help="negfrac initializations (default 50)")
    p.add_argument("--sample-sizes", default="50,100,200,400,800",
                   help="consistency sample sizes")
    p.add_argument("--n-reps", type=int, default=5,
                   help="consistency repetitions per size")
    p.add_argument("--grid-lo", type=float, default=-1.2)
    p.add_argument("--grid-hi", type=float, default=1.2)
    p.add_argument("--grid-n", type=int, default=801)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--summary-csv", default=None,
                   help="optional dataset x method AUC/rank table (ad protocol)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except (ValidationError, DataError) as exc:
        _emit_error("validation" if isinstance(exc, ValidationError) else "data",
                    str(exc))
        return 2
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    except (NumericsError, FloatingPointError) as exc:
        _emit_error("numeric", str(exc))
        return 3
    except SosrepError as exc:
        _emit_error("error", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
