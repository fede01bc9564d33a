"""End-to-end tests of the command-line interface via main(argv)."""

import argparse
import json
import math
import re

import numpy as np
import pytest

import sosrep as sp
from sosrep.cli import _PROTOCOLS, _parse_grid, _parse_list, _UsageError, build_parser, main
from sosrep.harness import _MAX_DUPLICATES, SdoKdeModel
from sosrep.score_fd import profile_from_csv, selection_kind

import oracles
from conftest import make_mixture2d, make_two_clusters, philox


def _write_csv(path, X, y=None, feature_prefix="f"):
    X = np.atleast_2d(X)
    cols = [f"{feature_prefix}{j}" for j in range(X.shape[1])]
    if y is not None:
        cols.append("label")
    lines = [",".join(cols)]
    for i in range(X.shape[0]):
        row = [f"{v:.17g}" for v in X[i]]
        if y is not None:
            row.append(str(int(y[i])))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def gaussian_csv(tmp_path):
    X = philox(0, 11).standard_normal((120, 1))
    return _write_csv(tmp_path / "gauss.csv", X)


@pytest.fixture
def mixture_csv(tmp_path):
    ds = make_mixture2d(n=240, seed=0)
    return _write_csv(tmp_path / "mixture.csv", ds.X, ds.y)


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])["error"]


def _only_stderr_error(capsys):
    """The error of a run whose stderr is exactly one JSON line."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])["error"]


FIT_FLAGS = ["--a", "0.5", "--n-z", "256", "--n-iters", "400", "--seed", "3"]


class TestFit:
    def test_writes_model_and_metrics(self, tmp_path, gaussian_csv):
        model_p = tmp_path / "model.json"
        metrics_p = tmp_path / "metrics.json"
        rc = main(["fit", "--data", gaussian_csv, *FIT_FLAGS,
                   "--out", str(model_p), "--metrics", str(metrics_p)])
        assert rc == 0
        record = json.loads(model_p.read_text())
        assert record["kind"] == "sosrep_model"
        assert record["run_config"]["a"] == 0.5
        metrics = json.loads(metrics_p.read_text())
        assert metrics["kind"] == "fit_metrics"
        assert metrics["converged"]
        assert abs(metrics["rkhs_norm_sq"] - 1.0) <= 1e-3
        assert metrics["format_version"] == "1"
        assert metrics["run_config"]["n_z"] == 256

    def test_refit_is_byte_identical(self, tmp_path, gaussian_csv):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = ["fit", "--data", gaussian_csv, *FIT_FLAGS]
        assert main(argv + ["--out", str(p1)]) == 0
        assert main(argv + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--a", "1.0",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "io"

    def test_label_column_auto_detected(self, tmp_path, mixture_csv):
        model_p = tmp_path / "model.json"
        rc = main(["fit", "--data", mixture_csv, "--a", "1.0", "--n-z", "128",
                   "--n-iters", "100", "--out", str(model_p)])
        assert rc == 0
        record = json.loads(model_p.read_text())
        assert record["params"]["d"] == 2  # the label column was split off

    def test_label_column_auto_detected_after_byte_order_mark(self, tmp_path):
        ds = make_mixture2d(n=40, seed=0)
        data_p = tmp_path / "bom.csv"
        lines = ["label,f0,f1", *(f"{c},{x0:.17g},{x1:.17g}" for (x0, x1), c in zip(ds.X, ds.y))]
        data_p.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        model_p = tmp_path / "model.json"
        rc = main(["fit", "--data", str(data_p), "--a", "1.0", "--n-z", "128",
                   "--n-iters", "100", "--out", str(model_p)])
        assert rc == 0
        assert json.loads(model_p.read_text())["params"]["d"] == 2

    def test_out_directory_is_io_error_leaving_no_temp_file(self, tmp_path, gaussian_csv,
                                                              capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        rc = main(["fit", "--data", gaussian_csv, *FIT_FLAGS, "--out", str(out)])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "io"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gauss.csv", "outdir"]

    def test_header_only_file_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("f0,f1\n")
        rc = main(["fit", "--data", str(p), "--a", "1.0",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "data"

    def test_missing_required_flag_is_usage_error(self, tmp_path, gaussian_csv, capsys):
        rc = main(["fit", "--data", gaussian_csv, "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "usage"

    def test_accepts_method_and_exact_normalization(self, tmp_path, gaussian_csv):
        model_p = tmp_path / "model.json"
        rc = main(["fit", "--data", gaussian_csv, *FIT_FLAGS, "--method", "standard",
                   "--lr", "0.01", "--exact-normalization", "--out", str(model_p)])
        assert rc == 0
        run_config = json.loads(model_p.read_text())["run_config"]
        assert run_config["method"] == "standard"
        assert run_config["exact_normalization"] is True

    def test_divergence_is_numeric_exit_3(self, tmp_path, gaussian_csv, capsys):
        rc = main(["fit", "--data", gaussian_csv, "--a", "0.5", "--n-z", "128",
                   "--method", "standard", "--lr", "1e9", "--n-iters", "50",
                   "--grad-tol", "0", "--out", str(tmp_path / "m.json")])
        assert rc == 3
        assert _stderr_error(capsys)["kind"] == "numeric"


class TestScore:
    @pytest.fixture
    def fitted(self, tmp_path, gaussian_csv):
        model_p = tmp_path / "model.json"
        assert main(["fit", "--data", gaussian_csv, *FIT_FLAGS,
                     "--out", str(model_p)]) == 0
        return str(model_p)

    def test_train_rows_reproduce_gram_values(self, tmp_path, gaussian_csv, fitted):
        out_p = tmp_path / "scores.csv"
        assert main(["score", "--model", fitted, "--data", gaussian_csv,
                     "--out", str(out_p)]) == 0
        lines = out_p.read_text().strip().splitlines()
        assert lines[0] == "pre_density,anomaly_score"
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        X = philox(0, 11).standard_normal((120, 1))
        assert rows.shape[0] == X.shape[0]
        model = sp.model_from_json((tmp_path / "model.json").read_text())
        Phi = sp.feature_map(X, model.fs)
        K = oracles.add_jitter(0.5 * (Phi @ Phi.T + (Phi @ Phi.T).T))
        f = K @ model.alpha
        np.testing.assert_allclose(rows[:, 0], f * f, atol=1e-10)
        np.testing.assert_array_equal(rows[:, 1], -rows[:, 0])

    def test_empty_query_writes_header_only(self, tmp_path, fitted):
        q = tmp_path / "empty.csv"
        q.write_text("f0\n")
        out_p = tmp_path / "scores.csv"
        assert main(["score", "--model", fitted, "--data", str(q),
                     "--out", str(out_p)]) == 0
        assert out_p.read_text() == "pre_density,anomaly_score\n"

    def test_unsquared_model_writes_density_header(self, tmp_path, gaussian_csv):
        X = philox(0, 11).standard_normal((120, 1))
        kde = SdoKdeModel(X, sp.sample_frequencies(sp.SdoParams(a=0.5, d=1), 128, 3))
        model_p, out_p = tmp_path / "kde.json", tmp_path / "scores.csv"
        model_p.write_text(sp.model_to_json(kde))
        assert main(["score", "--model", str(model_p), "--data", gaussian_csv,
                     "--out", str(out_p)]) == 0
        lines = out_p.read_text().strip().splitlines()
        assert lines[0] == "density,anomaly_score"
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(rows[:, 0], kde.f_values(X))

    @pytest.mark.parametrize("field, value", [("feature_weights", [0.5] * 3),
                                              ("alpha", ["x"]),
                                              ("T", "abc"),
                                              ("seed", 1.5),
                                              (None, []),
                                              ("squared", "false"),
                                              ("squared", 0),
                                              ("kernel_scale_flag", "no"),
                                              ("fit_info", [])])
    def test_malformed_model_vector_is_validation_error(self, tmp_path, gaussian_csv,
                                                        fitted, capsys, field, value):
        # field None replaces the whole record with value
        rec = json.loads((tmp_path / "model.json").read_text())
        rec = value if field is None else {**rec, field: value}
        bad_p, out_p = tmp_path / "bad.json", tmp_path / "scores.csv"
        bad_p.write_text(json.dumps(rec))
        rc = main(["score", "--model", str(bad_p), "--data", gaussian_csv,
                   "--out", str(out_p)])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "validation"
        assert (field or "malformed model record") in error["message"]
        assert not out_p.exists()

    def test_dimension_mismatch_rejected(self, tmp_path, fitted, capsys):
        q = tmp_path / "wide.csv"
        q.write_text("f0,f1\n0.0,0.0\n")
        rc = main(["score", "--model", fitted, "--data", str(q),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "data"


TUNE_FLAGS = ["--a-grid", "log:1e-4:1e2:9", "--n-z", "512", "--n-iters", "300",
              "--n-fd-iters", "10", "--seed", "0"]


class TestTune:
    def test_selection_consistent_with_profile(self, tmp_path, gaussian_csv):
        sel_p, prof_p = tmp_path / "sel.json", tmp_path / "prof.csv"
        rc = main(["tune", "--data", gaussian_csv, *TUNE_FLAGS,
                   "--out", str(sel_p), "--profile-out", str(prof_p)])
        assert rc == 0
        sel = json.loads(sel_p.read_text())
        assert sel["kind"] == "tune_selection"
        profile = profile_from_csv(prof_p.read_text())
        assert len(profile) == sel["n_evaluated"] <= sel["n_candidates"] == 9
        # the emitted selection must re-derive from the emitted profile
        stable = sp.stable_minimum(profile)
        if stable is None:
            fd = profile.fd_values()
            stable = profile.a_values()[int(np.argmin(fd))]
        assert sel["a_star"] == stable
        assert sel["a_star"] in profile.a_values()
        assert sel["selection"] == selection_kind(profile, sel["a_star"])

    @pytest.mark.parametrize("grid, kind", [
        ("log:1e-4:1e2:9", "stable"),
        ("log:1e-1:1e1:7", "fallback"),
        ("log:1e2:1e4:7", "edge"),  # picks a = 100, the grid's smallest value
    ])
    def test_selection_says_how_the_pick_was_made(self, tmp_path, gaussian_csv, grid, kind):
        sel_p, prof_p = tmp_path / "sel.json", tmp_path / "prof.csv"
        assert main(["tune", "--data", gaussian_csv, "--a-grid", grid, *TUNE_FLAGS[2:],
                     "--out", str(sel_p), "--profile-out", str(prof_p)]) == 0
        sel = json.loads(sel_p.read_text())
        profile = profile_from_csv(prof_p.read_text())
        assert sel["selection"] == kind == selection_kind(profile, sel["a_star"])

    def test_rerun_same_seed_identical(self, tmp_path, gaussian_csv):
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        argv = ["tune", "--data", gaussian_csv, *TUNE_FLAGS]
        assert main(argv + ["--out", str(p1)]) == 0
        assert main(argv + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_explicit_eval_data(self, tmp_path, gaussian_csv):
        eval_csv = _write_csv(tmp_path / "eval.csv",
                              philox(1, 11).standard_normal((60, 1)))
        sel_p = tmp_path / "sel.json"
        rc = main(["tune", "--data", gaussian_csv, "--eval-data", eval_csv,
                   *TUNE_FLAGS, "--out", str(sel_p)])
        assert rc == 0
        assert json.loads(sel_p.read_text())["a_star"] > 0

    def test_train_frac_is_recorded(self, tmp_path, gaussian_csv):
        sel_p = tmp_path / "sel.json"
        assert main(["tune", "--data", gaussian_csv, *TUNE_FLAGS, "--train-frac", "0.5",
                     "--out", str(sel_p)]) == 0
        assert json.loads(sel_p.read_text())["run_config"]["train_frac"] == 0.5

    def test_eval_data_records_no_split(self, tmp_path, gaussian_csv):
        eval_csv = _write_csv(tmp_path / "eval.csv",
                              philox(1, 11).standard_normal((60, 1)))
        sel_p = tmp_path / "sel.json"
        assert main(["tune", "--data", gaussian_csv, "--eval-data", eval_csv,
                     *TUNE_FLAGS, "--out", str(sel_p)]) == 0
        run_config = json.loads(sel_p.read_text())["run_config"]
        assert "train_frac" in run_config and run_config["train_frac"] is None

    @pytest.mark.parametrize("frac", ["0.3", "0.7"])
    def test_train_frac_with_eval_data_is_usage_error(self, tmp_path, gaussian_csv,
                                                      capsys, frac):
        eval_csv = _write_csv(tmp_path / "eval.csv",
                              philox(1, 11).standard_normal((60, 1)))
        rc = main(["tune", "--data", gaussian_csv, "--eval-data", eval_csv, *TUNE_FLAGS,
                   "--train-frac", frac, "--out", str(tmp_path / "sel.json")])
        assert rc == 2
        assert _only_stderr_error(capsys)["kind"] == "usage"
        assert not (tmp_path / "sel.json").exists()

    def test_comma_list_grid_matches_log_spec(self, tmp_path, gaussian_csv):
        log_p, list_p = tmp_path / "log.json", tmp_path / "list.json"
        flags = TUNE_FLAGS[2:]  # all but --a-grid
        assert main(["tune", "--data", gaussian_csv, *TUNE_FLAGS, "--out", str(log_p)]) == 0
        grid = json.loads(log_p.read_text())["run_config"]["a_grid"]
        comma = ",".join(repr(v) for v in reversed(grid))  # order does not matter
        assert main(["tune", "--data", gaussian_csv, "--a-grid", comma, *flags,
                     "--out", str(list_p)]) == 0
        assert list_p.read_bytes() == log_p.read_bytes()

    def test_integer_m_is_recorded(self, tmp_path, gaussian_csv):
        sel_p = tmp_path / "sel.json"
        assert main(["tune", "--data", gaussian_csv, *TUNE_FLAGS, "--m", "2",
                     "--out", str(sel_p)]) == 0
        assert json.loads(sel_p.read_text())["run_config"]["m"] == 2

    def test_bad_grid_spec_is_usage_error(self, tmp_path, gaussian_csv, capsys):
        rc = main(["tune", "--data", gaussian_csv, "--a-grid", "log:1:2",
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "usage"

    def test_empty_evaluation_part_is_data_error(self, tmp_path, gaussian_csv, capsys):
        eval_csv = tmp_path / "header_only.csv"
        eval_csv.write_text("f0\n")
        rc = main(["tune", "--data", gaussian_csv, "--eval-data", str(eval_csv), *TUNE_FLAGS,
                   "--out", str(tmp_path / "sel.json")])
        assert rc == 2
        assert _only_stderr_error(capsys) == {
            "kind": "data",
            "message": "both the fit part and the evaluation part must be nonempty"}
        assert not (tmp_path / "sel.json").exists()


class TestTwoBlock:
    def test_reference_ratios(self, tmp_path):
        out_p = tmp_path / "tb.json"
        rc = main(["two-block", "--n", "60", "--gamma", "0.8",
                   "--gamma-prime", "0.2", "--beta", "0.5", "--out", str(out_p)])
        assert rc == 0
        report = json.loads(out_p.read_text())
        assert report["kind"] == "two_block_report"
        np.testing.assert_allclose(report["kde_ratio"], 6.0, rtol=1e-12)
        np.testing.assert_allclose(report["ratio_closed_form"], 16.0, rtol=1e-9)
        assert report["solver"]["converged"]
        assert report["run_config"]["N"] == 60

    def test_equal_correlations_give_unit_ratios(self, tmp_path):
        out_p = tmp_path / "tb.json"
        rc = main(["two-block", "--n", "40", "--gamma", "0.5",
                   "--gamma-prime", "0.5", "--beta", "0.3", "--out", str(out_p)])
        assert rc == 0
        report = json.loads(out_p.read_text())
        np.testing.assert_allclose(report["kde_ratio"], 1.0, rtol=1e-12)
        np.testing.assert_allclose(report["ratio_closed_form"], 1.0, rtol=1e-9)
        np.testing.assert_allclose(report["ratio_solver"], 1.0, atol=1e-6)

    def test_invalid_spec_is_validation_error(self, tmp_path, capsys):
        rc = main(["two-block", "--gamma", "0.2", "--gamma-prime", "0.8",
                   "--out", str(tmp_path / "tb.json")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "validation"


EXP_FLAGS = ["--n-z", "256", "--n-iters", "150", "--n-fd-iters", "5",
             "--fd-max-rows", "64", "--a-grid", "log:1e-4:1e2:7",
             "--sigma-grid", "log:0.05:5:7", "--seeds", "0"]


class TestExperiment:
    def test_ad_protocol_reports_and_summary(self, tmp_path, mixture_csv):
        out_p, csv_p = tmp_path / "ad.json", tmp_path / "summary.csv"
        rc = main(["experiment", "--protocol", "ad", "--data", mixture_csv,
                   "--methods", "sosrep_sdo,kde_gaussian", *EXP_FLAGS,
                   "--out", str(out_p), "--summary-csv", str(csv_p)])
        assert rc == 0
        report = json.loads(out_p.read_text())
        assert report["protocol"] == "ad"
        assert set(report["reports"]) == {"sosrep_sdo", "kde_gaussian"}
        for method, rep in report["reports"].items():
            assert rep["mean_auc"] == report["mean_aucs"][method]
        assert "rank" in report
        lines = csv_p.read_text().strip().splitlines()
        assert lines[0] == "dataset,method,mean_auc,rank"
        assert len(lines) == 3

    def test_duplicates_protocol_one_report_per_k(self, tmp_path, mixture_csv):
        out_p = tmp_path / "dup.json"
        rc = main(["experiment", "--protocol", "duplicates", "--data", mixture_csv,
                   "--methods", "sosrep_sdo", "--k-values", "1,2", *EXP_FLAGS,
                   "--out", str(out_p)])
        assert rc == 0
        report = json.loads(out_p.read_text())
        assert set(report["reports"]) == {"1", "2"}
        assert report["k_values"] == [1, 2]
        assert "sosrep_sdo" in report["reports"]["1"]

    def test_negfrac_protocol(self, tmp_path):
        ds = make_two_clusters(n_per=60, seed=0)
        data = _write_csv(tmp_path / "clusters.csv", ds.X)
        out_p = tmp_path / "nf.json"
        rc = main(["experiment", "--protocol", "negfrac", "--data", data,
                   "--a", "1.0", "--n-z", "256", "--n-init", "5",
                   "--n-iters", "50", "--out", str(out_p)])
        assert rc == 0
        report = json.loads(out_p.read_text())
        assert report["protocol"] == "negfrac"
        for method in ("natural", "standard"):
            assert 0.0 <= report["methods"][method]["worst5_mean"] <= 1.0

    def test_consistency_protocol_emits_size_error_pairs(self, tmp_path):
        out_p = tmp_path / "cons.json"
        rc = main(["experiment", "--protocol", "consistency",
                   "--sample-sizes", "50,100", "--n-reps", "2", "--n-z", "256",
                   "--n-iters", "150", "--grid-n", "201", "--out", str(out_p)])
        assert rc == 0
        report = json.loads(out_p.read_text())
        assert [r["N"] for r in report["results"]] == [50, 100]
        for r in report["results"]:
            assert math.isfinite(r["median_l2_error"])
            assert r["a"] == 1.0 / r["N"]

    def test_unknown_protocol_is_usage_error(self, tmp_path, mixture_csv, capsys):
        rc = main(["experiment", "--protocol", "isolation", "--data", mixture_csv,
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "usage"

    def test_negfrac_without_data_is_usage_error(self, tmp_path, capsys):
        rc = main(["experiment", "--protocol", "negfrac",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "usage"

    def test_unknown_method_is_usage_error(self, tmp_path, mixture_csv, capsys):
        rc = main(["experiment", "--protocol", "ad", "--data", mixture_csv,
                   "--methods", "svm", *EXP_FLAGS, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "usage"

    @pytest.mark.parametrize("protocol", ["ad", "duplicates"])
    @pytest.mark.parametrize("methods", ["kde_gaussian,kde_gaussian",
                                         "sosrep_sdo,kde_gaussian,sosrep_sdo",
                                         "kde_gaussian,kde_gaussian,"])
    def test_repeated_method_is_usage_error(self, tmp_path, mixture_csv, capsys,
                                            protocol, methods):
        rc = main(["experiment", "--protocol", protocol, "--data", mixture_csv,
                   "--methods", methods, *EXP_FLAGS, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert _only_stderr_error(capsys)["kind"] == "usage"
        assert not (tmp_path / "x.json").exists()

    def test_repeated_method_reads_like_every_list_flag(self, tmp_path, mixture_csv, capsys):
        rc = main(["experiment", "--protocol", "ad", "--data", mixture_csv, "--methods",
                   "kde_gaussian,kde_gaussian", *EXP_FLAGS, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert _only_stderr_error(capsys) == {
            "kind": "usage", "message": "--methods list 'kde_gaussian,kde_gaussian' repeats a value"}

    def test_trailing_comma_in_methods_is_accepted(self, tmp_path, mixture_csv):
        # a trailing comma and spaces around an item read like the plain list
        for variants in (("kde_gaussian", "kde_gaussian,"),
                         ("kde_gaussian,kde_laplacian", " kde_gaussian, kde_laplacian ")):
            outputs = []
            for methods in variants:
                out_p = tmp_path / f"ad{len(outputs)}.json"
                assert main(["experiment", "--protocol", "ad", "--data", mixture_csv,
                             "--methods", methods, *EXP_FLAGS, "--out", str(out_p)]) == 0
                outputs.append(out_p.read_bytes())
            assert outputs[0] == outputs[1]

    def test_unknown_method_in_duplicates_is_usage_error(self, tmp_path, mixture_csv,
                                                         capsys):
        rc = main(["experiment", "--protocol", "duplicates", "--data", mixture_csv,
                   "--methods", "svm", *EXP_FLAGS, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "usage"

    def test_ad_on_unlabeled_data_is_data_error(self, tmp_path, gaussian_csv, capsys):
        rc = main(["experiment", "--protocol", "ad", "--data", gaussian_csv,
                   "--methods", "kde_gaussian", *EXP_FLAGS, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "data" and "labels required" in error["message"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("kernel", sp.harness.BACKENDS)
    @pytest.mark.parametrize("flags, message", [
        (["--a", "-5"], "smoothness a must be a positive finite real number"),
        (["--n-z", "0"], "T must be a positive integer"),
        (["--sigma", "0"], "sigma must be a positive finite real number"),
        (["--m", "0"], "derivative order m must be a positive integer, got 0"),
    ], ids=["a", "n-z", "sigma", "m"])
    def test_bad_negfrac_setting_is_validation_error(self, tmp_path, capsys, kernel, flags,
                                                     message):
        ds = make_two_clusters(n_per=10, seed=0)
        data = _write_csv(tmp_path / "clusters.csv", ds.X)
        out_p = tmp_path / "nf.json"
        rc = main(["experiment", "--protocol", "negfrac", "--data", data, "--kernel", kernel,
                   "--n-init", "5", "--n-iters", "10", *flags, "--out", str(out_p)])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "validation" and message in error["message"]
        assert not out_p.exists()

    @pytest.mark.parametrize("kernel", sp.harness.BACKENDS)
    def test_negfrac_records_m_whatever_the_kernel(self, tmp_path, kernel):
        ds = make_two_clusters(n_per=10, seed=0)
        data = _write_csv(tmp_path / "clusters.csv", ds.X)
        out_p = tmp_path / "nf.json"
        argv = ["experiment", "--protocol", "negfrac", "--data", data, "--kernel", kernel,
                "--n-z", "64", "--n-init", "5", "--n-iters", "10", "--out", str(out_p)]
        for m, recorded in (("auto", None), ("3", 3)):
            assert main([*argv, "--m", m]) == 0
            assert json.loads(out_p.read_text())["config"]["m"] == recorded


class TestSerialCells:
    def test_one_probe_plan_per_sweep_and_threads_variable_ignored(
            self, tmp_path, mixture_csv, monkeypatch):
        drawn = []
        draw = sp.score_fd._draw_probes
        monkeypatch.setattr(sp.score_fd, "_draw_probes",
                            lambda *args: drawn.append(args[1:]) or draw(*args))
        argv = ["experiment", "--protocol", "ad", "--data", mixture_csv,
                "--methods", "all", *EXP_FLAGS, "--seeds", "0,1"]
        monkeypatch.delenv("SOSREP_THREADS", raising=False)
        assert main(argv + ["--out", str(tmp_path / "unset.json")]) == 0
        monkeypatch.setenv("SOSREP_THREADS", "2")
        assert main(argv + ["--out", str(tmp_path / "two.json")]) == 0
        assert (tmp_path / "unset.json").read_bytes() == (tmp_path / "two.json").read_bytes()
        # a plan draws one row of probes per FD row: --fd-max-rows 64 of the
        # 72-row test split, so 64 draws are one plan; one plan per
        # (method, seed) sweep, in each of the two runs
        n_sweeps = len(sp.AD_METHODS) * 2
        assert drawn == [(5, 2, "rademacher")] * (64 * n_sweeps * 2)


class TestOutOfRangeSeeds:
    @pytest.mark.parametrize("argv", [
        ["fit", "--a", "0.5", "--n-z", "64", "--seed", "-1"],
        ["tune", *TUNE_FLAGS, "--seed", "-1"],
        ["experiment", "--protocol", "negfrac", "--n-z", "64", "--n-init", "5",
         "--n-iters", "20", "--seed", "-2"],
        ["experiment", "--protocol", "ad", "--methods", "kde_gaussian", *EXP_FLAGS,
         "--seeds", "-1"],
        ["experiment", "--protocol", "ad", "--methods", "kde_gaussian", *EXP_FLAGS,
         "--seeds", "0,-1"],
    ], ids=["fit", "tune", "negfrac", "ad", "ad-list"])
    def test_negative_seed_is_validation_error(self, tmp_path, mixture_csv, capsys, argv):
        out_p = tmp_path / "x.json"
        rc = main([*argv, "--data", mixture_csv, "--out", str(out_p)])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "validation" and "0..2**64-1" in error["message"]
        assert not out_p.exists()


class TestGradTol:
    """--grad-tol must be finite: a NaN one never ends a fit (gnorm < nan is
    false) and would write NaN, which is not JSON, into the run config."""

    @pytest.mark.parametrize("argv", [
        ["fit", *FIT_FLAGS, "--metrics", "{tmp}/m.json"],
        ["tune", *TUNE_FLAGS],
        ["experiment", "--protocol", "ad", "--methods", "kde_gaussian", *EXP_FLAGS],
        ["experiment", "--protocol", "duplicates", "--methods", "kde_gaussian", *EXP_FLAGS,
         "--k-values", "1"],
        ["experiment", "--protocol", "consistency", "--n-z", "64", "--n-iters", "20",
         "--sample-sizes", "20", "--n-reps", "1"],
    ], ids=["fit", "tune", "ad", "duplicates", "consistency"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_is_validation_error(self, tmp_path, mixture_csv, capsys, argv,
                                            value):
        out_p = tmp_path / "x.json"
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if argv[0] != "experiment" or argv[2] != "consistency":
            argv += ["--data", mixture_csv]
        rc = main([*argv, "--grad-tol", value, "--out", str(out_p)])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "validation" and "grad_tol must be" in error["message"]
        assert not out_p.exists() and not (tmp_path / "m.json").exists()


class TestConsistencyInputs:
    def test_report_records_its_settings(self, tmp_path):
        out_p = tmp_path / "cons.json"
        rc = main(["experiment", "--protocol", "consistency", "--sample-sizes", "20",
                   "--n-reps", "2", "--n-z", "64", "--seed", "7", "--lr", "0.05",
                   "--n-iters", "20", "--grad-tol", "1e-6", "--out", str(out_p)])
        assert rc == 0
        assert json.loads(out_p.read_text())["config"] == {
            "T": 64, "seed": 7, "n_reps": 2, "lr": 0.05, "n_iters": 20, "grad_tol": 1e-6}

    @pytest.mark.parametrize("flags", [
        ["--sample-sizes", "0"],
        ["--sample-sizes", "20,0"],
        ["--n-reps", "0"],
        ["--grid-lo", "1", "--grid-hi", "-1"],
        ["--grid-n", "1"],
        ["--grid-n", "-1"],
    ])
    def test_unusable_input_is_validation_error(self, tmp_path, capsys, flags):
        out_p = tmp_path / "cons.json"
        rc = main(["experiment", "--protocol", "consistency", "--n-z", "64",
                   "--n-iters", "20", *flags, "--out", str(out_p)])
        assert rc == 2
        assert _only_stderr_error(capsys)["kind"] == "validation"
        assert not out_p.exists()

    def test_seed_beyond_the_largest_fit_seed_is_validation_error(self, tmp_path, capsys):
        out_p = tmp_path / "cons.json"
        rc = main(["experiment", "--protocol", "consistency", "--n-z", "64",
                   "--n-iters", "20", "--seed", str(2**60), "--out", str(out_p)])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "validation" and "seed must be at most" in error["message"]
        assert not out_p.exists()


class TestRepeatedHeader:
    @pytest.mark.parametrize("argv", [
        ["fit", *FIT_FLAGS],
        ["tune", "--n-z", "64"],
        ["experiment", "--protocol", "ad", "--methods", "kde_gaussian"],
        ["experiment", "--protocol", "negfrac"],
    ])
    def test_header_that_repeats_a_name_is_data_error(self, tmp_path, capsys, argv):
        # the second label column would otherwise be read as a feature
        data = tmp_path / "twice.csv"
        data.write_text("f0,label,label\n0.5,0,0\n-1.5,1,1\n0.25,0,0\n")
        out_p = tmp_path / "out.json"
        rc = main([*argv, "--data", str(data), "--out", str(out_p)])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "data" and "['label']" in error["message"]
        assert not out_p.exists()


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert _stderr_error(capsys)["kind"] == "usage"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "fit" in capsys.readouterr().out


class TestAdConfigValidation:
    @pytest.mark.parametrize("flags", [
        ["--train-frac", "1.5"],
        ["--fd-max-rows", "0"],
        ["--fd-max-rows", "-5"],
        ["--n-fd-iters", "0"],
        ["--h", "0"],
        ["--lr", "-1"],
        ["--n-iters", "0"],
        ["--grad-tol", "-1"],
    ])
    def test_out_of_range_config_is_validation_error(self, tmp_path, mixture_csv,
                                                     capsys, flags):
        rc = main(["experiment", "--protocol", "ad", "--data", mixture_csv,
                   "--methods", "kde_gaussian", *EXP_FLAGS, *flags,
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert _stderr_error(capsys)["kind"] == "validation"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--n-z", "0"], "T must be a positive integer"),
        (["--m", "0"], "derivative order m"),
        (["--m", "1"], "2m > d"),
    ], ids=["n-z-0", "m-0", "m-1-on-2d"])
    @pytest.mark.parametrize("command", ["experiment", "tune"])
    def test_bad_kernel_size_is_validation_error(self, tmp_path, mixture_csv, capsys,
                                                 command, flags, message):
        argv = (["experiment", "--protocol", "ad", "--methods", "sosrep_sdo,kde_gaussian",
                 *EXP_FLAGS] if command == "experiment" else ["tune", *TUNE_FLAGS])
        out_p = tmp_path / "x.json"
        rc = main([*argv, "--data", mixture_csv, *flags, "--out", str(out_p)])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "validation" and message in error["message"]
        assert not out_p.exists()

    @pytest.mark.parametrize("m", ["1.5", "two", ""])
    @pytest.mark.parametrize("command", ["fit", "tune", "experiment"])
    def test_non_integer_m_is_usage_error(self, tmp_path, mixture_csv, capsys, command, m):
        argv = {"fit": ["fit", *FIT_FLAGS],
                "tune": ["tune", *TUNE_FLAGS],
                "experiment": ["experiment", "--protocol", "ad", "--methods", "sosrep_sdo",
                               *EXP_FLAGS]}[command]
        out_p = tmp_path / "x.json"
        rc = main([*argv, "--data", mixture_csv, "--m", m, "--out", str(out_p)])
        assert rc == 2
        assert _only_stderr_error(capsys) == {
            "kind": "usage", "message": f"--m must be an integer or 'auto', got {m!r}"}
        assert not out_p.exists()


class TestCandidateGrids:
    @pytest.mark.parametrize("protocol", ["ad", "duplicates"])
    @pytest.mark.parametrize("flags, grid", [
        (["--a-grid", "1,2,3"], "a_grid"),
        (["--a-grid", "log:1e-4:1e2:6"], "a_grid"),
        (["--sigma-grid=-1,2,3,4,5,6,7"], "sigma_grid"),
        (["--sigma-grid", "0,1,2,3,4,5,6"], "sigma_grid"),
    ])
    def test_bad_grid_fails_before_any_fit(self, tmp_path, mixture_csv, capsys, protocol,
                                           flags, grid):
        rc = main(["experiment", "--protocol", protocol, "--data", mixture_csv,
                   "--methods", "sosrep_sdo,kde_gaussian", *EXP_FLAGS, *flags,
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "validation"
        assert grid in error["message"]
        assert not (tmp_path / "x.json").exists()

    def test_short_grid_is_the_same_error_in_tune(self, tmp_path, gaussian_csv, capsys):
        rc = main(["tune", "--data", gaussian_csv, "--a-grid", "1,2,3",
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "validation"
        assert "a_grid" in error["message"]

    @pytest.mark.parametrize("command, flag", [
        ("tune", "--a-grid"), ("experiment", "--a-grid"), ("experiment", "--sigma-grid"),
    ])
    @pytest.mark.parametrize("grid, message", [
        ("1,1,0.5,0.25,0.1,0.05,0.02,0.01", "repeats a value"),  # 8 values, 7 distinct
        ("log:1:1:7", "repeats a value"),
        ("log:1:2", "expected log:lo:hi:n"),
        ("log:a:2:7", "could not parse"),
        ("log:0:2:7", "must be positive"),
        ("log:1:2:1", "n >= 2"),
    ])
    def test_bad_grid_spec_is_usage_error_naming_its_flag(
            self, tmp_path, gaussian_csv, mixture_csv, capsys, command, flag, grid, message):
        argv = {
            "tune": ["tune", "--data", gaussian_csv, *TUNE_FLAGS],
            "experiment": ["experiment", "--protocol", "ad", "--data", mixture_csv,
                           "--methods", "sosrep_sdo,kde_gaussian", *EXP_FLAGS],
        }[command]
        rc = main([*argv, flag, grid, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "usage"
        assert flag in error["message"]
        assert message in error["message"]
        assert not (tmp_path / "x.json").exists()


def _help_text(command, dest):
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    [action] = [a for a in commands.choices[command]._actions if a.dest == dest]
    return action.help


class TestDefaultsReadTheLibrary:
    @pytest.mark.parametrize("command, dest", [
        ("tune", "a_grid"), ("experiment", "a_grid"), ("experiment", "sigma_grid"),
    ])
    def test_grid_spec_in_help_is_the_config_default(self, command, dest):
        spec = re.fullmatch(r".*\(default (\S+)\)", _help_text(command, dest)).group(1)
        got = np.array(_parse_grid(spec, "--" + dest.replace("_", "-")))
        want = np.array(getattr(sp.AdConfig(), dest))
        assert got.tobytes() == want.tobytes()

    def test_k_values_default_is_every_allowed_duplication(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "--protocol", "duplicates", "--out", "x"])
        ks = _parse_list(args.k_values, "--k-values")
        assert ks == tuple(range(1, _MAX_DUPLICATES + 1)) == (1, 2, 3, 4, 5, 6)
        ds = make_mixture2d(n=40, seed=0)
        for k in ks:
            sp.duplicate_anomalies(ds, k)
        with pytest.raises(sp.ValidationError, match=f"1..{_MAX_DUPLICATES}, got"):
            sp.duplicate_anomalies(ds, _MAX_DUPLICATES + 1)


class TestFitOnlyFlags:
    @pytest.mark.parametrize("flag", [["--method", "standard"], ["--exact-normalization"]])
    @pytest.mark.parametrize("command", ["tune", "experiment"])
    def test_rejected_outside_fit(self, tmp_path, gaussian_csv, mixture_csv, capsys,
                                  command, flag):
        argv = {
            "tune": ["tune", "--data", gaussian_csv, *TUNE_FLAGS],
            "experiment": ["experiment", "--protocol", "ad", "--data", mixture_csv,
                           "--methods", "kde_gaussian", *EXP_FLAGS],
        }[command]
        rc = main([*argv, *flag, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert _only_stderr_error(capsys)["kind"] == "usage"
        assert not (tmp_path / "x.json").exists()


class TestIntegerLists:
    @pytest.mark.parametrize("text, expected", [
        ("0,1,2", (0, 1, 2)),
        (" 3, 1 ,", (3, 1)),
        ("-1", (-1,)),
    ])
    def test_parses_distinct_integers(self, text, expected):
        assert _parse_list(text, "seed") == expected

    @pytest.mark.parametrize("text", ["1,x", "1.5", "", " , ", "0,0", "2,1,2"])
    def test_rejects_non_integer_empty_or_repeated(self, text):
        with pytest.raises(_UsageError):
            _parse_list(text, "seed")

    @pytest.mark.parametrize("flags", [
        ["--protocol", "ad", "--seeds", "0,0"],
        ["--protocol", "duplicates", "--k-values", "1,x"],
        ["--protocol", "duplicates", "--k-values", "2,2"],
        ["--protocol", "consistency", "--sample-sizes", "50,abc"],
    ])
    def test_bad_list_flag_is_usage_error(self, tmp_path, mixture_csv, capsys, flags):
        # Only flags the protocol reads, so that the list parse is what fails.
        protocol, list_flag = flags[1], flags[2]
        read = [] if protocol == "consistency" else [
            "--data", mixture_csv, "--methods", "kde_gaussian", *EXP_FLAGS]
        rc = main(["experiment", *read, *flags, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        error = _only_stderr_error(capsys)
        assert error["kind"] == "usage"
        assert list_flag in error["message"]
        assert not (tmp_path / "x.json").exists()


class _ReadRecorder(argparse.Namespace):
    """Namespace that records the name of every public attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _run_recording_reads(argv):
    """Run one command; return (its flag dests, the dests the command read)."""
    ns = _ReadRecorder(_reads=set())
    build_parser().parse_args(argv, namespace=ns)
    ns._reads.clear()  # argparse itself reads every dest while parsing
    assert ns.func(ns) == 0
    dests = {k for k in vars(ns) if not k.startswith("_")} - {"command", "func"}
    return dests, set(ns._reads)


class TestEveryFlagIsRead:
    """A flag that a subcommand accepts but never reads is silently ignored."""

    def test_each_subcommand_reads_all_its_flags(self, tmp_path, gaussian_csv, mixture_csv):
        model = str(tmp_path / "model.json")
        fd = ["--n-z", "64", "--n-iters", "50", "--n-fd-iters", "2",
              "--a-grid", "log:1e-2:1e2:7"]
        ad = ["--data", mixture_csv, "--methods", "kde_gaussian", "--seeds", "0",
              "--sigma-grid", "log:0.05:5:7", "--fd-max-rows", "16", *fd]
        runs = {
            "fit": [["fit", "--data", gaussian_csv, "--a", "0.5", "--n-z", "64",
                     "--n-iters", "50", "--out", model]],
            "score": [["score", "--model", model, "--data", gaussian_csv,
                       "--out", str(tmp_path / "scores.csv")]],
            "tune": [["tune", "--data", gaussian_csv, *fd,
                      "--out", str(tmp_path / "sel.json")]],
            "two-block": [["two-block", "--n", "40", "--gamma", "0.8",
                           "--gamma-prime", "0.2", "--out", str(tmp_path / "tb.json")]],
            # experiment: each protocol reads its own flags; together they read all
            "experiment": [
                ["experiment", "--protocol", "ad", *ad, "--out", str(tmp_path / "ad.json"),
                 "--summary-csv", str(tmp_path / "ad.csv")],
                ["experiment", "--protocol", "duplicates", "--k-values", "2", *ad,
                 "--out", str(tmp_path / "dup.json")],
                ["experiment", "--protocol", "negfrac", "--data", mixture_csv,
                 "--n-z", "64", "--n-init", "5", "--n-iters", "20",
                 "--out", str(tmp_path / "nf.json")],
                ["experiment", "--protocol", "consistency", "--sample-sizes", "20",
                 "--n-reps", "1", "--n-z", "64", "--n-iters", "50", "--grid-n", "51",
                 "--out", str(tmp_path / "cons.json")],
            ],
        }
        unread = {}
        for command, argvs in runs.items():
            dests, reads = set(), set()
            for argv in argvs:
                d, r = _run_recording_reads(argv)
                dests |= d
                reads |= r
            if dests - reads:
                unread[command] = sorted(dests - reads)
        assert unread == {}


def _protocol_argv(protocol, tmp_path, mixture_csv):
    """A tiny run of one experiment protocol that passes only flags it reads."""
    fd = ["--n-z", "64", "--n-iters", "50", "--n-fd-iters", "2",
          "--a-grid", "log:1e-2:1e2:7"]
    ad = ["--data", mixture_csv, "--methods", "kde_gaussian", "--seeds", "0",
          "--sigma-grid", "log:0.05:5:7", "--fd-max-rows", "16", *fd]
    return ["experiment", "--protocol", protocol, *{
        "ad": [*ad, "--summary-csv", str(tmp_path / "ad.csv")],
        "duplicates": ["--k-values", "2", *ad],
        "negfrac": ["--data", mixture_csv, "--n-z", "64", "--n-init", "5",
                    "--n-iters", "20"],
        "consistency": ["--sample-sizes", "20", "--n-reps", "1", "--n-z", "64",
                        "--n-iters", "50", "--grid-n", "51"],
    }[protocol], "--out", str(tmp_path / "report.json")]


class TestProtocolFlags:
    """Each experiment protocol accepts exactly the flags it reads."""

    @pytest.mark.parametrize("protocol", ["ad", "duplicates", "negfrac", "consistency"])
    def test_unread_flags_are_usage_errors(self, tmp_path, mixture_csv, capsys, protocol):
        argv = _protocol_argv(protocol, tmp_path, mixture_csv)
        dests, reads = _run_recording_reads(argv)
        defaults = vars(build_parser().parse_args(
            ["experiment", "--protocol", protocol, "--out", "x"]))
        out_p = tmp_path / "unread.json"
        for dest in sorted(dests - reads):
            value = defaults[dest]
            flag = ["--" + dest.replace("_", "-"), "1" if value is None else str(value)]
            rc = main([*argv[:-2], *flag, "--out", str(out_p)])
            assert rc == 2, flag
            error = _only_stderr_error(capsys)
            assert error["kind"] == "usage" and flag[0] in error["message"]
            assert not out_p.exists()
        if protocol == "negfrac":
            assert {"a_grid", "n_fd_iters", "seeds", "methods", "grad_tol"} <= dests - reads
        if protocol == "consistency":
            assert {"a_grid", "n_fd_iters", "seeds", "methods", "data"} <= dests - reads

    @pytest.mark.parametrize("protocol", ["ad", "duplicates", "negfrac", "consistency"])
    def test_every_read_flag_is_accepted(self, tmp_path, mixture_csv, protocol):
        argv = _protocol_argv(protocol, tmp_path, mixture_csv)
        dests, reads = _run_recording_reads(argv)
        defaults = vars(build_parser().parse_args(
            ["experiment", "--protocol", protocol, "--out", "x"]))
        given = set(build_parser().parse_args(argv)._given)
        extra = []
        for dest in sorted((reads & dests) - given - {"label_column"}):
            extra += ["--" + dest.replace("_", "-"), str(defaults[dest])]
        if "label_column" in reads:
            extra += ["--label-column", "label"]
        assert main([*argv[:-2], *extra, *argv[-2:]]) == 0


class TestProtocolTable:
    """_PROTOCOLS hands each runner exactly the flags that the runner reads."""

    @pytest.mark.parametrize("protocol", list(_PROTOCOLS))
    def test_each_runner_reads_every_flag_of_its_entry(self, tmp_path, mixture_csv,
                                                       protocol):
        run, data, flags = _PROTOCOLS[protocol]
        args = build_parser().parse_args(_protocol_argv(protocol, tmp_path, mixture_csv))
        ns = _ReadRecorder(_reads=set(), **{f: getattr(args, f) for f in flags})
        run(ns, sp.load_csv(mixture_csv) if data else None)
        assert ns._reads == set(flags)
