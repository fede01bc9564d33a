"""Command-line interface.

Subcommands: fit, score, tune, two-block, experiment.  Errors are reported as
a single JSON object on stderr; exit code 2 flags usage/data/io problems and
3 flags numeric failures.  All file outputs are written atomically (temp file
plus rename) and refits with identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DataError, NumericsError, SosrepError, ValidationError
from .harness import (
    AD_METHODS,
    AdConfig,
    SmoothBumpDensity,
    consistency_experiment,
    duplicate_anomalies,
    load_csv,
    negative_fraction_experiment,
    rank_aggregate,
    run_ad,
    split,
    _make_fit_fn,
)
from .score_fd import FdOptions, profile_to_csv, tune, write_atomic
from .sdo_kernel import SdoParams
from .solver import SolverOptions, evaluate_density, fit_model, model_from_json, model_to_json
from .two_block import BlockSpec, verify_against_solver

_DEFAULT_A_GRID_SPEC = "log:1e-6:1e2:25"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting so main() controls the exit code."""

    def error(self, message):
        raise _UsageError(message)


def _emit_error(kind: str, message: str) -> None:
    json.dump({"error": {"kind": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")


def _n_threads() -> int:
    raw = os.environ.get("SOSREP_THREADS", "1")
    try:
        v = int(raw)
    except ValueError:
        raise ValidationError(f"SOSREP_THREADS must be an integer, got {raw!r}")
    if v < 1:
        raise ValidationError(f"SOSREP_THREADS must be >= 1, got {v}")
    return v


def _parse_seeds(text: str) -> tuple:
    try:
        seeds = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise _UsageError(f"could not parse seed list {text!r}")
    if not seeds:
        raise _UsageError("seed list is empty")
    return seeds


def _parse_a_grid(text: str) -> tuple:
    """Either 'log:lo:hi:n' (descending geometric grid) or a comma list."""
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise _UsageError(f"expected log:lo:hi:n, got {text!r}")
        try:
            lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise _UsageError(f"could not parse grid spec {text!r}")
        if lo <= 0 or hi <= 0 or n < 2:
            raise _UsageError("grid bounds must be positive and n >= 2")
        return tuple(np.geomspace(max(lo, hi), min(lo, hi), n))
    try:
        vals = sorted({float(t) for t in text.split(",") if t.strip()}, reverse=True)
    except ValueError:
        raise _UsageError(f"could not parse candidate list {text!r}")
    if not vals:
        raise _UsageError("candidate list is empty")
    return tuple(vals)


def _load_dataset(path, label_column, require_labels=False):
    """Load a CSV; label_column=None auto-detects a column named 'label'."""
    if label_column is None:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataError(f"{path}: empty file, expected a header row")
        if "label" in [h.strip() for h in header]:
            label_column = "label"
    ds = load_csv(path, label_column=label_column)
    if require_labels and ds.y is None:
        raise DataError(
            f"{path}: labels required; pass --label-column or add a 'label' column"
        )
    return ds


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", default="natural", choices=["natural", "standard"],
                   help="gradient iteration (default natural)")
    p.add_argument("--lr", type=float, default=0.1, help="step size (default 0.1)")
    p.add_argument("--n-iters", type=int, default=1000,
                   help="maximum iterations (default 1000)")
    p.add_argument("--grad-tol", type=float, default=1e-8,
                   help="sup-norm stopping tolerance (default 1e-8)")


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", default="auto",
                   help="Sobolev order; 'auto' means floor(d/2)+1 (default auto)")
    p.add_argument("--n-z", type=int, default=4096,
                   help="number of sampled frequencies T (default 4096)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--exact-normalization", action="store_true",
                   help="scale the sampled kernel by 2W instead of targeting 1/2 "
                        "on the diagonal")


def _resolve_m(arg, d: int):
    if arg is None or arg == "auto":
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
    ds = _load_dataset(args.data, args.label_column)
    if ds.n == 0:
        raise DataError(f"{args.data}: cannot fit on an empty dataset")
    m = _resolve_m(args.m, ds.d)
    params = SdoParams(a=args.a, d=ds.d, m=m)
    opts = SolverOptions(
        method=args.method, lr=args.lr, n_iters=args.n_iters,
        seed=args.seed, grad_tol=args.grad_tol,
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
        metrics = {
            "format_version": "1",
            "kind": "fit_metrics",
            "n_train": ds.n,
            "d": ds.d,
            "run_config": run_config,
            **model.fit_info,
        }
        write_atomic(args.metrics, json.dumps(metrics, sort_keys=True, indent=1) + "\n")
    return 0


def cmd_score(args) -> int:
    with open(args.model, encoding="utf-8") as fh:
        model = model_from_json(fh.read())
    ds = _load_dataset(args.data, args.label_column)
    if ds.n and ds.d != model.fs.base_params.d:
        raise DataError(
            f"query dimension {ds.d} does not match model dimension "
            f"{model.fs.base_params.d}"
        )
    dens = evaluate_density(model, ds.X) if ds.n else np.empty(0)
    buf = io.StringIO()
    buf.write("pre_density,anomaly_score\n")
    for v in dens:
        buf.write(f"{_fmt(v)},{_fmt(-v)}\n")
    write_atomic(args.out, buf.getvalue())
    return 0


def cmd_tune(args) -> int:
    ds = _load_dataset(args.data, args.label_column)
    if args.eval_data:
        eval_ds = _load_dataset(args.eval_data, args.label_column)
        train_X, eval_X = ds.X, eval_ds.X
    else:
        train, test = split(ds, args.seed, args.train_frac)
        train_X, eval_X = train.X, test.X
    if train_X.shape[0] == 0 or eval_X.shape[0] == 0:
        raise DataError("both the fit part and the evaluation part must be nonempty")
    m = _resolve_m(args.m, train_X.shape[1])
    a_grid = _parse_a_grid(args.a_grid)
    config = AdConfig(
        T=args.n_z, m=m, lr=args.lr, n_iters=args.n_iters, grad_tol=args.grad_tol,
        n_fd_iters=args.n_fd_iters, h=args.h, probe=args.probe, a_grid=a_grid,
    )
    candidates, fit_fn, _cache = _make_fit_fn("sosrep_sdo", train_X, args.seed, config)
    fd_opts = FdOptions(n_fd_iters=args.n_fd_iters, h=args.h, probe=args.probe,
                        seed=args.seed)
    a_star, profile = tune(candidates, fit_fn, eval_X, fd_opts)
    selection = {
        "format_version": "1",
        "kind": "tune_selection",
        "a_star": a_star,
        "n_evaluated": len(profile),
        "n_candidates": len(candidates),
        "run_config": config.snapshot(),
        "seed": args.seed,
    }
    write_atomic(args.out, json.dumps(selection, sort_keys=True, indent=1) + "\n")
    if args.profile_out:
        write_atomic(args.profile_out, profile_to_csv(profile))
    return 0


def cmd_two_block(args) -> int:
    N = args.N if args.N is not None else args.n
    M = args.M if args.M is not None else args.n
    spec = BlockSpec(N=N, M=M, gamma=args.gamma,
                     gamma_prime=args.gamma_prime, beta=args.beta)
    opts = SolverOptions(method="natural", lr=args.lr, n_iters=args.n_iters,
                         seed=0, grad_tol=args.grad_tol)
    report = verify_against_solver(spec, opts=opts)
    report["format_version"] = "1"
    report["kind"] = "two_block_report"
    report["run_config"] = {
        "N": N, "M": M, "gamma": args.gamma, "gamma_prime": args.gamma_prime,
        "beta": args.beta, "lr": args.lr, "n_iters": args.n_iters,
        "grad_tol": args.grad_tol,
    }
    write_atomic(args.out, json.dumps(report, sort_keys=True, indent=1) + "\n")
    return 0


def _experiment_ad(args, ds) -> dict:
    methods = AD_METHODS if args.methods == "all" else tuple(args.methods.split(","))
    for m in methods:
        if m not in AD_METHODS:
            raise _UsageError(f"unknown method {m!r}; expected one of {AD_METHODS}")
    seeds = _parse_seeds(args.seeds)
    config = _config_from_args(args)
    threads = _n_threads()

    def one(method):
        return run_ad(ds, method, seeds=seeds, config=config)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            reports = list(ex.map(one, methods))
    else:
        reports = [one(m) for m in methods]
    out = {
        "kind": "experiment",
        "protocol": "ad",
        "dataset": ds.name,
        "reports": {r.method: r.to_dict() for r in reports},
        "mean_aucs": {r.method: r.mean_auc for r in reports},
    }
    if len(reports) > 1:
        table = {r.method: {ds.name: r.mean_auc} for r in reports}
        rank_table, mean_ranks = rank_aggregate(table)
        out["rank"] = {"per_dataset": rank_table, "mean": mean_ranks}
    if args.summary_csv:
        buf = io.StringIO()
        buf.write("dataset,method,mean_auc,rank\n")
        for r in reports:
            rank = out.get("rank", {}).get("per_dataset", {}).get(r.method, {})
            rank_val = rank.get(ds.name, 1.0) if isinstance(rank, dict) else 1.0
            buf.write(f"{ds.name},{r.method},{_fmt(r.mean_auc)},{_fmt(rank_val)}\n")
        write_atomic(args.summary_csv, buf.getvalue())
    return out


def _experiment_duplicates(args, ds) -> dict:
    ks = tuple(int(t) for t in args.k_values.split(",") if t.strip())
    if not ks:
        raise _UsageError("empty duplication list")
    methods = AD_METHODS if args.methods == "all" else tuple(args.methods.split(","))
    seeds = _parse_seeds(args.seeds)
    config = _config_from_args(args)
    threads = _n_threads()
    jobs = [(k, m) for k in ks for m in methods]

    def one(job):
        k, method = job
        dup = duplicate_anomalies(ds, k)
        return k, method, run_ad(dup, method, seeds=seeds, config=config)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(one, jobs))
    else:
        results = [one(j) for j in jobs]
    nested: dict = {}
    for k, method, report in results:
        nested.setdefault(str(k), {})[method] = report.to_dict()
    return {
        "kind": "experiment",
        "protocol": "duplicates",
        "dataset": ds.name,
        "k_values": list(ks),
        "reports": nested,
    }


def _experiment_negfrac(args, ds) -> dict:
    out = negative_fraction_experiment(
        ds, a=args.a, T=args.n_z, m=_resolve_m(args.m, ds.d),
        n_init=args.n_init, n_iters=args.n_iters, lr=args.lr,
        seed=args.seed, kernel=args.kernel, sigma=args.sigma,
    )
    out.update({"kind": "experiment", "protocol": "negfrac", "dataset": ds.name})
    return out


def _experiment_consistency(args) -> dict:
    Ns = tuple(int(t) for t in args.sample_sizes.split(",") if t.strip())
    if not Ns:
        raise _UsageError("empty sample-size list")
    grid = np.linspace(args.grid_lo, args.grid_hi, args.grid_n)
    density = SmoothBumpDensity()
    results = consistency_experiment(
        density, Ns, grid, n_reps=args.n_reps, T=args.n_z, seed=args.seed,
        lr=args.lr, n_iters=args.n_iters, grad_tol=args.grad_tol,
    )
    return {
        "kind": "experiment",
        "protocol": "consistency",
        "density": {"center": density.center, "width": density.width},
        "grid": {"lo": args.grid_lo, "hi": args.grid_hi, "n": args.grid_n},
        "results": results,
    }


def _config_from_args(args) -> AdConfig:
    kwargs = dict(
        T=args.n_z, lr=args.lr, n_iters=args.n_iters, grad_tol=args.grad_tol,
        n_fd_iters=args.n_fd_iters, h=args.h, probe=args.probe,
        train_frac=args.train_frac, fd_max_rows=args.fd_max_rows,
        m=_resolve_m(args.m, 0),
        a_grid=_parse_a_grid(args.a_grid),
    )
    if args.sigma_grid:
        kwargs["sigma_grid"] = _parse_a_grid(args.sigma_grid)
    return AdConfig(**kwargs)


def cmd_experiment(args) -> int:
    if args.protocol == "consistency":
        out = _experiment_consistency(args)
    else:
        if not args.data:
            raise _UsageError(f"--data is required for protocol {args.protocol!r}")
        require_labels = args.protocol in ("ad", "duplicates")
        ds = _load_dataset(args.data, args.label_column, require_labels=require_labels)
        if args.protocol == "ad":
            out = _experiment_ad(args, ds)
        elif args.protocol == "duplicates":
            out = _experiment_duplicates(args, ds)
        else:
            out = _experiment_negfrac(args, ds)
    out["format_version"] = "1"
    write_atomic(args.out, json.dumps(out, sort_keys=True, indent=1) + "\n")
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
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--a-grid", default=_DEFAULT_A_GRID_SPEC,
                   help="'log:lo:hi:n' or comma list (default log:1e-6:1e2:25)")
    _add_kernel_flags(p)
    _add_solver_flags(p)
    p.add_argument("--n-fd-iters", type=int, default=100,
                   help="probes per query row (default 100)")
    p.add_argument("--h", type=float, default=1e-4,
                   help="finite-difference step (default 1e-4)")
    p.add_argument("--probe", default="rademacher",
                   choices=["rademacher", "paper_three_point"])
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
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--n-iters", type=int, default=20000)
    p.add_argument("--grad-tol", type=float, default=1e-12)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_two_block)

    p = sub.add_parser("experiment", help="run an evaluation protocol")
    p.add_argument("--protocol", required=True,
                   choices=["ad", "duplicates", "negfrac", "consistency"])
    p.add_argument("--data", default=None, help="dataset CSV (not used by "
                   "consistency)")
    p.add_argument("--label-column", default=None)
    p.add_argument("--methods", default="all",
                   help="comma list of methods or 'all'")
    p.add_argument("--seeds", default="0,1,2,3", help="comma list (default 0,1,2,3)")
    p.add_argument("--a-grid", default=_DEFAULT_A_GRID_SPEC)
    p.add_argument("--sigma-grid", default="",
                   help="bandwidth grid for the closed-form kernels "
                        "(default log grid 10..0.05, 25 points)")
    _add_kernel_flags(p)
    _add_solver_flags(p)
    p.add_argument("--n-fd-iters", type=int, default=100)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--probe", default="rademacher",
                   choices=["rademacher", "paper_three_point"])
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--fd-max-rows", type=int, default=None,
                   help="subsample held-out rows for the divergence statistic")
    p.add_argument("--k-values", default="1,2,3,4,5,6",
                   help="duplication factors for --protocol duplicates")
    p.add_argument("--a", type=float, default=1.0, help="negfrac smoothness")
    p.add_argument("--kernel", default="sdo",
                   choices=["sdo", "gaussian", "laplacian"],
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
