"""Tests for dataset handling, splits, AUC, and the experiment protocols."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sosrep as sp
from sosrep import harness
from sosrep.errors import DataError, NumericsError, ValidationError
from sosrep.harness import (
    ClosedFormRepresenterModel,
    SdoKdeModel,
    select,
)

from conftest import make_mixture2d, make_two_clusters, philox


SMALL_AD_CONFIG = sp.AdConfig(
    T=256,
    n_iters=150,
    n_fd_iters=5,
    fd_max_rows=64,
    a_grid=tuple(np.geomspace(100.0, 1e-4, 7)),
    sigma_grid=tuple(np.geomspace(5.0, 0.05, 7)),
)


class TestDataset:
    def test_basic_construction(self):
        ds = sp.Dataset(X=np.zeros((3, 2)), y=np.array([0, 1, 0]), name="toy")
        assert ds.X.shape == (3, 2) and ds.name == "toy"

    def test_labels_optional(self):
        ds = sp.Dataset(X=np.zeros((3, 2)))
        assert ds.y is None

    def test_rejects_nonfinite_features(self):
        X = np.zeros((3, 2))
        X[1, 0] = np.nan
        with pytest.raises(DataError):
            sp.Dataset(X=X)

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(DataError):
            sp.Dataset(X=np.zeros((3, 1)), y=np.array([0, 1, 2]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            sp.Dataset(X=np.zeros((3, 1)), y=np.array([0, 1]))


class TestLoadCsv:
    def test_labeled_file(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("f0,f1,label\n0.5,1.0,0\n-1.5,2.0,1\n0.0,0.0,0\n")
        ds = sp.load_csv(str(p), label_column="label")
        assert ds.X.shape == (3, 2)
        np.testing.assert_array_equal(ds.y, [0, 1, 0])
        assert ds.name == "toy"

    def test_unlabeled_file(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        ds = sp.load_csv(str(p))
        assert ds.y is None and ds.X.shape == (2, 2)

    def test_nan_cell_reports_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3,NaN\n5,6\n")
        with pytest.raises(DataError) as exc:
            sp.load_csv(str(p))
        assert "1" in str(exc.value)  # 0-based data row of the offending cell

    def test_missing_cells_reported(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("a,b\n1,2\n3,\n,4\n")
        with pytest.raises(DataError) as exc:
            sp.load_csv(str(p))
        msg = str(exc.value)
        assert "missing" in msg.lower()

    def test_unparseable_cell_reports_file_line(self, tmp_path):
        p = tmp_path / "junk.csv"
        p.write_text("a,b\n1,2\nx,4\n")
        with pytest.raises(DataError) as exc:
            sp.load_csv(str(p))
        assert "3" in str(exc.value)  # header is line 1, bad cell on line 3

    def test_nonbinary_label_rejected(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("a,label\n1,0\n2,2\n")
        with pytest.raises(DataError):
            sp.load_csv(str(p), label_column="label")

    def test_unknown_label_column_rejected(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("a,b\n1,0\n2,1\n")
        with pytest.raises(DataError):
            sp.load_csv(str(p), label_column="target")


class TestSplit:
    def test_deterministic(self, mixture2d):
        t1, e1 = sp.split(mixture2d, seed=5)
        t2, e2 = sp.split(mixture2d, seed=5)
        np.testing.assert_array_equal(t1.X, t2.X)
        np.testing.assert_array_equal(e1.X, e2.X)
        np.testing.assert_array_equal(t1.y, t2.y)

    def test_seed_changes_split(self, mixture2d):
        t1, _ = sp.split(mixture2d, seed=5)
        t2, _ = sp.split(mixture2d, seed=6)
        assert not np.array_equal(t1.X, t2.X)

    def test_train_size_rounding(self):
        ds = sp.Dataset(X=np.arange(10.0).reshape(10, 1))
        train, test = sp.split(ds, seed=0, train_frac=0.7)
        assert train.X.shape[0] == 7 and test.X.shape[0] == 3

    def test_partition_is_exact(self, mixture2d):
        train, test = sp.split(mixture2d, seed=1)
        combined = np.vstack([train.X, test.X])
        assert combined.shape == mixture2d.X.shape
        # every original row appears exactly once
        order = np.lexsort(combined.T)
        orig = np.lexsort(mixture2d.X.T)
        np.testing.assert_array_equal(combined[order], mixture2d.X[orig])

    def test_stratification_within_one_sample(self):
        rng = philox(3, 1)
        X = rng.normal(size=(1000, 2))
        y = np.zeros(1000)
        y[:100] = 1.0
        ds = sp.Dataset(X=X, y=y)
        train, test = sp.split(ds, seed=11, train_frac=0.7)
        assert abs(train.y.sum() - 70) <= 1
        assert abs(test.y.sum() - 30) <= 1
        frac = test.y.mean()
        assert 0.09 <= frac <= 0.11

    @given(seed=st.integers(0, 50), n_anom=st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_stratification_property(self, seed, n_anom):
        n = 120
        X = philox(seed, 2).normal(size=(n, 1))
        y = np.zeros(n)
        y[:n_anom] = 1.0
        train, test = sp.split(sp.Dataset(X=X, y=y), seed=seed)
        target = round(0.7 * n_anom)
        assert abs(train.y.sum() - target) <= 1

    def test_invalid_fraction_rejected(self, mixture2d):
        with pytest.raises(ValidationError):
            sp.split(mixture2d, seed=0, train_frac=1.0)
        with pytest.raises(ValidationError):
            sp.split(mixture2d, seed=0, train_frac=0.0)


class TestStandardize:
    def test_train_becomes_zero_mean_unit_std(self, mixture2d):
        train, test = sp.split(mixture2d, seed=0)
        tr, te, stats = sp.standardize(train, test)
        np.testing.assert_allclose(tr.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(tr.X.std(axis=0), 1.0, atol=1e-12)

    def test_test_uses_train_statistics(self):
        train = sp.Dataset(X=np.array([[0.0], [2.0]]))
        test = sp.Dataset(X=np.array([[10.0], [20.0]]))
        _, te, stats = sp.standardize(train, test)
        np.testing.assert_allclose(te.X[:, 0], [(10.0 - 1.0) / 1.0, (20.0 - 1.0) / 1.0])
        np.testing.assert_allclose(stats["mean"], [1.0])
        np.testing.assert_allclose(stats["std"], [1.0])

    def test_constant_column_centered_not_scaled(self):
        train = sp.Dataset(X=np.column_stack([np.full(4, 3.0), np.arange(4.0)]))
        test = sp.Dataset(X=np.column_stack([np.full(2, 3.0), np.arange(2.0)]))
        tr, te, stats = sp.standardize(train, test)
        np.testing.assert_array_equal(tr.X[:, 0], np.zeros(4))
        np.testing.assert_array_equal(te.X[:, 0], np.zeros(2))
        assert stats["zero_variance_columns"] == [0]


class TestAucRoc:
    def test_perfect_separation(self):
        assert sp.auc_roc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_perfect_inversion(self):
        assert sp.auc_roc([0.9, 0.8, 0.3, 0.2], [0, 0, 1, 1]) == 0.0

    def test_all_ties_give_half(self):
        assert sp.auc_roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_known_mixed_case(self):
        # pairs: (0.35 > 0.1), (0.35 < 0.4), (0.8 > both) -> 3/4
        np.testing.assert_allclose(
            sp.auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]), 0.75
        )

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            sp.auc_roc([0.1, 0.2], [1, 1])

    def test_nan_score_rejected(self):
        with pytest.raises(NumericsError, match="NaN"):
            sp.auc_roc([math.nan, 1.0, 2.0, 0.5], [0, 1, 0, 1])

    @given(seed=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        scores = np.round(rng.normal(size=n), 1)  # rounding forces some ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        np.testing.assert_allclose(
            sp.auc_roc(scores, labels), wins / (len(pos) * len(neg)), rtol=1e-12
        )

    @given(seed=st.integers(0, 100), scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_transform_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=25)
        labels = rng.integers(0, 2, size=25)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = sp.auc_roc(scores, labels)
        np.testing.assert_allclose(sp.auc_roc(np.exp(scores), labels), base, rtol=1e-12)
        np.testing.assert_allclose(
            sp.auc_roc(scale * scores + 3.0, labels), base, rtol=1e-12
        )


class TestDuplicateAnomalies:
    def test_identity_at_one(self, mixture2d):
        dup = sp.duplicate_anomalies(mixture2d, 1)
        np.testing.assert_array_equal(dup.X, mixture2d.X)
        np.testing.assert_array_equal(dup.y, mixture2d.y)

    def test_counts_at_two(self, mixture2d):
        n_anom = int(mixture2d.y.sum())
        dup = sp.duplicate_anomalies(mixture2d, 2)
        assert int(dup.y.sum()) == 2 * n_anom
        assert dup.X.shape[0] == mixture2d.X.shape[0] + n_anom

    def test_inliers_unchanged(self, mixture2d):
        dup = sp.duplicate_anomalies(mixture2d, 3)
        np.testing.assert_array_equal(dup.X[dup.y == 0], mixture2d.X[mixture2d.y == 0])

    def test_out_of_range_k(self, mixture2d):
        for k in (0, 7):
            with pytest.raises(ValidationError):
                sp.duplicate_anomalies(mixture2d, k)

    def test_requires_labels(self, two_clusters):
        with pytest.raises(DataError):
            sp.duplicate_anomalies(two_clusters, 2)

    def test_duplicates_land_in_both_parts(self, mixture2d):
        dup = sp.duplicate_anomalies(mixture2d, 6)
        train, test = sp.split(dup, seed=0)
        anom_rows = dup.X[dup.y == 1]
        row = anom_rows[0]
        in_train = np.any(np.all(train.X == row, axis=1))
        in_test = np.any(np.all(test.X == row, axis=1))
        assert in_train and in_test

    def test_swapping_identical_copies_is_a_no_op(self, mixture2d):
        # duplicated rows are bit-identical, so permuting copies leaves the
        # data matrix (and hence any downstream split) unchanged
        dup = sp.duplicate_anomalies(mixture2d, 3)
        X2 = dup.X.copy()
        idx = np.flatnonzero(dup.y == 1)[:3]  # three copies of the first anomaly
        X2[idx] = X2[idx[::-1]]
        np.testing.assert_array_equal(X2, dup.X)


class TestRunAd:
    def test_report_shape_and_determinism(self, mixture2d):
        r1 = sp.run_ad(mixture2d, "sosrep_sdo", seeds=(0, 1), config=SMALL_AD_CONFIG)
        r2 = sp.run_ad(mixture2d, "sosrep_sdo", seeds=(0, 1), config=SMALL_AD_CONFIG)
        assert r1.method == "sosrep_sdo" and r1.dataset == "mixture2d"
        assert set(r1.aucs) == {0, 1}
        np.testing.assert_allclose(r1.mean_auc, np.mean(list(r1.aucs.values())))
        assert r1.to_dict() == r2.to_dict()

    def test_separates_planted_outliers(self, mixture2d):
        report = sp.run_ad(mixture2d, "sosrep_sdo", seeds=(0,), config=SMALL_AD_CONFIG)
        assert report.mean_auc >= 0.85

    def test_kde_baseline_runs(self, mixture2d):
        report = sp.run_ad(mixture2d, "kde_gaussian", seeds=(0,), config=SMALL_AD_CONFIG)
        assert 0.5 <= report.mean_auc <= 1.0
        assert report.chosen[0] in SMALL_AD_CONFIG.sigma_grid

    def test_unknown_method_rejected(self, mixture2d):
        with pytest.raises(ValidationError):
            sp.run_ad(mixture2d, "isolation_forest", config=SMALL_AD_CONFIG)

    def test_requires_labels(self, two_clusters):
        with pytest.raises(DataError):
            sp.run_ad(two_clusters, "sosrep_sdo", config=SMALL_AD_CONFIG)

    def test_config_snapshot_is_complete(self, mixture2d):
        report = sp.run_ad(mixture2d, "sosrep_sdo", seeds=(0,), config=SMALL_AD_CONFIG)
        snap = report.config
        for key in ("T", "lr", "n_iters", "n_fd_iters", "h", "probe",
                    "a_grid", "train_frac"):
            assert key in snap

    def test_standardization_is_recorded_per_seed(self, mixture2d):
        report = sp.run_ad(mixture2d, "kde_gaussian", seeds=(0, 1), config=SMALL_AD_CONFIG)
        assert set(report.standardization) == {0, 1}
        for seed in (0, 1):
            train, test = sp.split(mixture2d, seed, SMALL_AD_CONFIG.train_frac)
            assert report.standardization[seed] == sp.standardize(train, test)[2]
        assert report.standardization[0]["mean"] != report.standardization[1]["mean"]
        assert set(report.to_dict()["standardization"]) == {"0", "1"}

    def test_report_dict_carries_profiles_and_selection(self, mixture2d):
        report = sp.run_ad(mixture2d, "kde_gaussian", seeds=(0, 1), config=SMALL_AD_CONFIG)
        out = report.to_dict()
        for seed in (0, 1):
            entries = report.profiles[seed].entries
            assert out["profiles"][str(seed)] == [
                {"a": e.a, "fd": e.fd, "retained_rows": e.retained_rows,
                 "skipped_rows": e.skipped_rows}
                for e in entries
            ]
            assert out["selection"][str(seed)] in ("stable", "fallback", "edge")

    def test_nan_scores_become_a_seed_warning(self, mixture2d, monkeypatch):
        real_select = sp.harness.select

        class NanDensity:
            def density(self, Y):
                return np.full(len(Y), math.nan)

        def select_nan_at_seed_0(method, train_X, Y_fd, seed, config):
            a_star, profile, model = real_select(method, train_X, Y_fd, seed, config)
            return a_star, profile, NanDensity() if seed == 0 else model

        monkeypatch.setattr(sp.harness, "select", select_nan_at_seed_0)
        report = sp.run_ad(mixture2d, "kde_gaussian", seeds=(0, 1), config=SMALL_AD_CONFIG)
        assert set(report.aucs) == {1}
        [warning] = report.warnings
        assert warning.startswith("seed 0: NumericsError:") and "NaN" in warning
        json.dumps(report.to_dict(), allow_nan=False)

    def test_failed_candidate_serializes_as_null(self):
        cand = np.geomspace(5.0, 0.05, 7)
        fds = [math.inf, 3.0, 2.0, 1.0, 2.0, 3.0, 4.0]
        profile = sp.FdProfile(entries=tuple(
            sp.FdEntry(a=float(a), fd=v, retained_rows=0 if math.isinf(v) else 10,
                       skipped_rows=10 if math.isinf(v) else 0)
            for a, v in zip(cand, fds)))
        report = sp.ExperimentReport(
            dataset="d", method="kde_gaussian", seeds=(0,), aucs={0: 0.9}, mean_auc=0.9,
            config={}, chosen={0: float(cand[3])}, standardization={}, warnings=(),
            profiles={0: profile})
        out = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert out["profiles"]["0"][0] == {"a": float(cand[0]), "fd": None,
                                           "retained_rows": 0, "skipped_rows": 10}
        assert [e["fd"] for e in out["profiles"]["0"][1:]] == fds[1:]
        assert out["selection"] == {"0": "stable"}

    @pytest.mark.parametrize("seeds", [(-1,), (0, -1), (2**64,)])
    def test_out_of_range_seed_fails_before_any_split(self, mixture2d, monkeypatch, seeds):
        def no_split(*args, **kwargs):
            raise AssertionError("split reached")

        monkeypatch.setattr(harness, "split", no_split)
        with pytest.raises(ValidationError, match="0..2"):
            sp.run_ad(mixture2d, "kde_gaussian", seeds=seeds, config=SMALL_AD_CONFIG)


class TestAdConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_fd_iters": 0},
        {"h": 0.0},
        {"probe": "gaussian"},
        {"lr": -1.0},
        {"n_iters": 0},
        {"grad_tol": -1.0},
        {"a_grid": (3.0, 2.0, 1.0)},
        {"a_grid": (7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 2.0)},
        {"sigma_grid": (6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0)},
        {"sigma_grid": (7.0, 6.0, 5.0, math.nan, 3.0, 2.0, 1.0)},
    ])
    def test_invalid_value_rejected_at_construction(self, kwargs):
        with pytest.raises(ValidationError):
            sp.AdConfig(**kwargs)


class TestSelect:
    @pytest.mark.parametrize("method", sp.AD_METHODS)
    def test_returns_the_model_fitted_at_the_pick(self, mixture2d, method):
        train, test = sp.split(mixture2d, 0)
        a_star, profile, model = select(method, train.X, test.X[:32], 0, SMALL_AD_CONFIG)
        assert a_star in profile.a_values()
        fitted_at = model.fs.base_params.a if method.endswith("_sdo") else model.kernel.sigma
        assert fitted_at == a_star
        assert model.squared == method.startswith("sosrep_")


class TestNegativeFraction:
    def test_cone_invariance_of_natural_method(self, two_clusters):
        out = sp.negative_fraction_experiment(
            two_clusters, a=1.0, T=512, n_init=5, n_iters=50, lr=0.1, seed=0
        )
        assert out["init"]["mean_fraction"] == 0.0
        nat = out["methods"]["natural"]
        assert nat["worst5_mean"] == 0.0
        assert all(f == 0.0 for f in nat["fractions"])

    def test_fractions_within_unit_interval(self, two_clusters):
        out = sp.negative_fraction_experiment(
            two_clusters, a=1.0, T=512, n_init=6, n_iters=50, lr=0.1, seed=1
        )
        for method in ("natural", "standard"):
            fr = out["methods"][method]["fractions"]
            assert len(fr) == 6
            assert all(0.0 <= f <= 1.0 for f in fr)

    def test_too_few_initializations_rejected(self, two_clusters):
        with pytest.raises(ValidationError):
            sp.negative_fraction_experiment(two_clusters, n_init=4, n_iters=10)

    def test_gaussian_kernel_variant_runs(self, two_clusters):
        out = sp.negative_fraction_experiment(
            two_clusters, T=256, n_init=5, n_iters=30, lr=0.1, seed=0,
            kernel="gaussian", sigma=1.0,
        )
        assert out["config"]["kernel"] == "gaussian"


class TestSmoothBumpDensity:
    def test_pdf_normalized(self):
        bump = sp.SmoothBumpDensity()
        x = np.linspace(-1.0, 1.0, 20001)
        total = np.trapezoid(bump.pdf(x), x)
        np.testing.assert_allclose(total, 1.0, atol=1e-6)

    def test_support_and_tails(self):
        bump = sp.SmoothBumpDensity(center=0.5, width=2.0)
        lo, hi = bump.support()
        assert (lo, hi) == (-1.5, 2.5)
        np.testing.assert_array_equal(bump.pdf(np.array([-1.6, 2.6])), [0.0, 0.0])

    def test_sqrt_pdf_squares_to_pdf(self):
        bump = sp.SmoothBumpDensity()
        x = np.linspace(-0.99, 0.99, 101)
        np.testing.assert_allclose(bump.sqrt_pdf(x) ** 2, bump.pdf(x), rtol=1e-10)

    def test_sampling_matches_cdf(self):
        bump = sp.SmoothBumpDensity()
        rng = philox(0, 3)
        xs = bump.sample(20000, rng)
        assert xs.shape == (20000, 1)
        assert xs.min() > -1.0 and xs.max() < 1.0
        # compare empirical CDF at 0 (symmetric density: should be ~0.5)
        np.testing.assert_allclose(np.mean(xs <= 0.0), 0.5, atol=0.02)


class TestConsistencyExperiment:
    def test_structure_and_exact_a(self):
        grid = np.linspace(-1.2, 1.2, 401)
        rows = sp.consistency_experiment(
            sp.SmoothBumpDensity(), (50, 100), grid, n_reps=2, T=512,
            seed=0, n_iters=200,
        )
        assert [r["N"] for r in rows] == [50, 100]
        for r in rows:
            assert r["a"] == 1.0 / r["N"]
            assert len(r["errors"]) == 2
            assert np.isfinite(r["median_l2_error"]) and r["median_l2_error"] > 0.0


    @pytest.mark.parametrize("kwargs", [
        {"Ns": (50, 0)},
        {"Ns": (-3,)},
        {"n_reps": 0},
        {"grid": np.linspace(1.2, -1.2, 11)},
        {"grid": np.array([0.0, 0.5, 0.5, 1.0])},
        {"grid": np.array([0.0])},
        {"grid": np.array([0.0, np.nan, 1.0])},
    ])
    def test_unusable_input_rejected_before_any_fit(self, monkeypatch, kwargs):
        def no_fit(*args, **kw):
            raise AssertionError("fit reached")

        monkeypatch.setattr(harness, "fit_model", no_fit)
        args = {"Ns": (50,), "grid": np.linspace(-1.2, 1.2, 11), "n_reps": 2, **kwargs}
        with pytest.raises(ValidationError):
            sp.consistency_experiment(sp.SmoothBumpDensity(), args.pop("Ns"),
                                      args.pop("grid"), **args)


class TestRankAggregate:
    # the table is method -> dataset -> AUC; higher AUC earns the higher rank
    def test_two_methods(self):
        results = {"m1": {"ds1": 0.9}, "m2": {"ds1": 0.8}}
        table, means = sp.rank_aggregate(results)
        assert table["m1"]["ds1"] == 2.0 and table["m2"]["ds1"] == 1.0
        assert means == {"m1": 2.0, "m2": 1.0}

    def test_ties_average(self):
        results = {"m1": {"ds1": 0.7}, "m2": {"ds1": 0.7}}
        table, _ = sp.rank_aggregate(results)
        assert table["m1"]["ds1"] == 1.5 and table["m2"]["ds1"] == 1.5

    def test_mean_over_datasets(self):
        results = {
            "m1": {"ds1": 0.9, "ds2": 0.6},
            "m2": {"ds1": 0.8, "ds2": 0.7},
        }
        _, means = sp.rank_aggregate(results)
        assert means == {"m1": 1.5, "m2": 1.5}

    def test_method_order_invariance(self):
        a = {"m1": {"ds1": 0.9, "ds2": 0.6}, "m2": {"ds1": 0.8, "ds2": 0.7}}
        b = {"m2": {"ds2": 0.7, "ds1": 0.8}, "m1": {"ds2": 0.6, "ds1": 0.9}}
        assert sp.rank_aggregate(a) == sp.rank_aggregate(b)

    def test_incomplete_table_rejected(self):
        with pytest.raises(DataError):
            sp.rank_aggregate({"m1": {"ds1": 0.9, "ds2": 0.6}, "m2": {"ds1": 0.8}})

    def test_nan_cell_rejected(self):
        with pytest.raises(DataError, match="ds2"):
            sp.rank_aggregate({"m1": {"ds1": 0.9, "ds2": math.nan},
                               "m2": {"ds1": 0.8, "ds2": 0.7}})


class TestInternalModels:
    def test_closed_form_representer_density_and_score(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(20, 2))
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        K = sp.kernel_matrix_closed_form(k, X, X)
        res = sp.fit(K, sp.SolverOptions(n_iters=600))
        model = ClosedFormRepresenterModel(X, res.alpha, k, squared=True)
        q = rng.normal(size=(5, 2))
        f = res.alpha @ sp.kernel_matrix_closed_form(k, X, q)
        np.testing.assert_allclose(model.density(q), f * f, rtol=1e-12)
        # score = 2 grad f / f, cross-checked by finite differences
        S, fv = model.score_batch(q)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            num = (np.log(model.density(q + e)) - np.log(model.density(q - e))) / (2 * h)
            np.testing.assert_allclose(S[:, j], num, atol=1e-5)

    def test_sdo_kde_model_matches_kde_density(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(15, 2))
        fs = sp.sample_frequencies(sp.SdoParams(a=0.5, d=2, m=2), 256, seed=32)
        model = SdoKdeModel(X, fs)
        q = rng.normal(size=(6, 2))
        np.testing.assert_allclose(model.density(q), sp.kernel_matrix(q, X, fs).mean(axis=1),
                                   rtol=1e-12)


class TestRepresenterProtocol:
    @pytest.mark.parametrize("family", ["gaussian", "laplacian"])
    @pytest.mark.parametrize("squared", [True, False])
    def test_closed_form_score_matches_public_kernels(self, family, squared):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(25, 2))
        Y = np.vstack([rng.normal(size=(7, 2)), X[:2]])  # X rows: Laplacian cusp
        alpha = rng.random(25)
        k = sp.ClosedFormKernel(family=family, sigma=0.8, d=2)
        model = ClosedFormRepresenterModel(X, alpha, k, squared=squared)
        f = alpha @ sp.kernel_matrix_closed_form(k, X, Y)
        G = np.einsum("n,nmd->md", alpha, sp.kernel_gradient_closed_form(k, X, Y))
        S, fv = model.score_batch(Y)
        np.testing.assert_array_equal(fv, f)
        np.testing.assert_array_equal(S, (2.0 if squared else 1.0) * G / f[:, None])
        np.testing.assert_array_equal(model.density(Y), f * f if squared else f)

    def test_sdo_kde_score_is_grad_over_f(self):
        rng = np.random.default_rng(34)
        X = rng.normal(size=(15, 2))
        fs = sp.sample_frequencies(sp.SdoParams(a=0.5, d=2, m=2), 128, seed=35)
        model = SdoKdeModel(X, fs)
        q = rng.normal(size=(6, 2))
        f, G = model.f_and_grad(q)
        S, fv = model.score_batch(q)
        np.testing.assert_array_equal(fv, f)
        np.testing.assert_array_equal(S, G / f[:, None])
        np.testing.assert_array_equal(model.density(q), model.f_values(q))
