"""Layer boundaries of sosrep that the traced run wraps, and the per-layer metrics.

Span names are "<layer>.<function>", where the layer is the sosrep module
that owns the code.  The root span of each operation is "harness.<protocol>",
so `harness.self_s` is the protocol call's own work (split, standardize, AUC,
data sampling, the closed-form model's glue) outside every wrapped boundary.
"""

from __future__ import annotations

import numpy as np
from sosrep.errors import SolverDivergence
from sosrep.score_fd import stable_minimum

from spans import Span, self_times

LAYERS = ("score_fd", "solver", "sdo_kernel", "baseline_kernels", "harness")


def _rows(a) -> int:
    return np.atleast_2d(np.asarray(a)).shape[0]


def _count_tune(c, args, result, exc):
    if exc is None:
        a_star, profile = result
        c["candidates"] = len(profile)
        c["failed_candidates"] = int(np.sum(np.isinf(profile.fd_values())))
        c["stable"] = int(stable_minimum(profile) == a_star)


def _count_fd(c, args, result, exc):
    if exc is None:
        c["rows_retained"] = result.retained_rows
        c["rows_skipped"] = result.skipped_rows
    else:
        c["rows_skipped"] = _rows(args[1])


def _count_fit(c, args, result, exc):
    if exc is None:
        c["iters"] = result.n_iters_run
        c["converged"] = int(result.converged)
        c["clamp_warnings"] = result.clamp_warnings
    elif isinstance(exc, SolverDivergence):
        c["diverged"] = 1


def _count_query_rows(c, args, result, exc):
    c["rows"] = _rows(args[1])  # (self, Y)


def _count_cells(c, args, result, exc):
    c["cells"] = _rows(args[0]) * args[1].T  # (X, fs, ...)


def _count_pairs(c, args, result, exc):
    c["pairs"] = _rows(args[1]) * _rows(args[2])  # (kernel, X, Y)


# (span name, module, attribute, counter)
BOUNDARIES = (
    ("score_fd.tune", "sosrep.score_fd", "tune", _count_tune),
    ("score_fd.fd_statistic", "sosrep.score_fd", "fd_statistic", _count_fd),
    ("solver.fit_model", "sosrep.solver", "fit_model", None),
    ("solver.fit", "sosrep.solver", "fit", _count_fit),
    ("solver.score_batch", "sosrep.solver", "FittedModel.score_batch", None),
    ("solver.f_and_grad", "sosrep.solver", "FittedModel.f_and_grad", _count_query_rows),
    ("solver.f_values", "sosrep.solver", "FittedModel.f_values", _count_query_rows),
    ("harness.score_batch", "sosrep.harness", "ClosedFormRepresenterModel.score_batch", None),
    ("sdo_kernel.sample_frequencies", "sosrep.sdo_kernel", "sample_frequencies", None),
    ("sdo_kernel.feature_map", "sosrep.sdo_kernel", "feature_map", _count_cells),
    ("sdo_kernel.kernel_matrix", "sosrep.sdo_kernel", "kernel_matrix", None),
    ("baseline_kernels.kernel_matrix_closed_form", "sosrep.baseline_kernels",
     "kernel_matrix_closed_form", _count_pairs),
    ("baseline_kernels.kernel_gradient_closed_form", "sosrep.baseline_kernels",
     "kernel_gradient_closed_form", None),
)
_MODEL_EVALS = ("solver.score_batch", "harness.score_batch")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span], n_ops: int) -> dict:
    """Per-layer metrics of `n_ops` traced protocol calls whose spans are `spans`.

    Times and counts are per protocol call (totals divided by n_ops); the
    fractions and per-unit figures are ratios of the totals.  `<name>.s` is the
    time inside spans of that name, not counting a span nested in another of
    the same name; `self_s` subtracts the spans' children.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    model_evals = 0
    for i, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        own[s.name] = own.get(s.name, 0.0) + selfs[i]
        layer_self[s.layer] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            incl[s.name] = incl.get(s.name, 0.0) + s.duration
        for key, v in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + v
        if s.name in _MODEL_EVALS and s.parent >= 0 and spans[s.parent].name == "score_fd.fd_statistic":
            model_evals += 1

    root_s = sum(s.duration for s in spans if s.parent < 0)
    n = max(n_ops, 1)

    def per_op(value):
        return value / n

    def c(name):
        return counts.get(name, 0)

    tune, fd, fit = "score_fd.tune", "score_fd.fd_statistic", "solver.fit"
    fag, fmc, fgc = "solver.f_and_grad", "baseline_kernels.kernel_matrix_closed_form", \
        "baseline_kernels.kernel_gradient_closed_form"
    fm = "sdo_kernel.feature_map"
    m = {
        "score_fd.tune.s": per_op(incl.get(tune, 0.0)),
        "score_fd.tune.candidates": per_op(c(f"{tune}.candidates")),
        "score_fd.tune.failed_candidates": per_op(c(f"{tune}.failed_candidates")),
        "score_fd.tune.stable_frac": _ratio(c(f"{tune}.stable"), calls.get(tune, 0)),
        "score_fd.fd_statistic.calls": per_op(calls.get(fd, 0)),
        "score_fd.fd_statistic.self_s": per_op(own.get(fd, 0.0)),
        "score_fd.fd_statistic.model_evals": _ratio(model_evals, calls.get(fd, 0)),
        "score_fd.fd_statistic.rows_retained": per_op(c(f"{fd}.rows_retained")),
        "score_fd.fd_statistic.rows_skipped": per_op(c(f"{fd}.rows_skipped")),
        "solver.f_and_grad.calls": per_op(calls.get(fag, 0)),
        "solver.f_and_grad.s": per_op(incl.get(fag, 0.0)),
        "solver.f_and_grad.rows": per_op(c(f"{fag}.rows")),
        "solver.f_values.s": per_op(incl.get("solver.f_values", 0.0)),
        "solver.fit.calls": per_op(calls.get(fit, 0)),
        "solver.fit.s": per_op(incl.get(fit, 0.0)),
        "solver.fit.iters": per_op(c(f"{fit}.iters")),
        "solver.fit.s_per_iter": _ratio(incl.get(fit, 0.0), c(f"{fit}.iters")),
        "solver.fit.converged_frac": _ratio(c(f"{fit}.converged"), calls.get(fit, 0)),
        "solver.fit.clamp_warnings": per_op(c(f"{fit}.clamp_warnings")),
        "solver.fit.diverged": per_op(c(f"{fit}.diverged")),
        "solver.fit_model.self_s": per_op(own.get("solver.fit_model", 0.0)),
        "sdo_kernel.feature_map.calls": per_op(calls.get(fm, 0)),
        "sdo_kernel.feature_map.s": per_op(incl.get(fm, 0.0)),
        "sdo_kernel.feature_map.cells": per_op(c(f"{fm}.cells")),
        "sdo_kernel.sample_frequencies.s": per_op(incl.get("sdo_kernel.sample_frequencies", 0.0)),
        "sdo_kernel.kernel_matrix.s": per_op(incl.get("sdo_kernel.kernel_matrix", 0.0)),
        f"{fmc}.calls": per_op(calls.get(fmc, 0)),
        f"{fmc}.s": per_op(incl.get(fmc, 0.0)),
        f"{fmc}.pairs": per_op(c(f"{fmc}.pairs")),
        f"{fgc}.calls": per_op(calls.get(fgc, 0)),
        f"{fgc}.s": per_op(incl.get(fgc, 0.0)),
        "traced_run_s": per_op(root_s),
        "accounted_frac": _ratio(sum(layer_self.values()), root_s),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(layer_self[layer])
    return m
