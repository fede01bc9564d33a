"""Tests for dataset handling, splits, AUC, and the experiment protocols."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sosrep as sp
from sosrep import harness, score_fd
from sosrep.errors import DataError, NumericsError, ValidationError
from sosrep.harness import (
    ClosedFormRepresenterModel,
    SdoKdeModel,
    select,
)
from sosrep.sdo_kernel import rng_from_seed

import oracles
from conftest import make_mixture2d, make_two_clusters, philox


CLOSED_FORM_METHODS = [m for m in sp.AD_METHODS if not m.endswith("_sdo")]
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

    def test_label_header_detected_without_label_column(self, tmp_path):
        p = tmp_path / "auto.csv"
        p.write_text("f0,label,f1\n0.5,1,1.0\n-1.5,0,2.0\n")
        ds = sp.load_csv(str(p))
        np.testing.assert_array_equal(ds.X, [[0.5, 1.0], [-1.5, 2.0]])
        np.testing.assert_array_equal(ds.y, [1, 0])

    def test_label_detection_reads_the_header_after_bom_and_blank_lines(self, tmp_path):
        p = tmp_path / "auto_bom.csv"
        p.write_text("\n\n label ,f0\n\n1,0.5\n0,-1.5\n", encoding="utf-8-sig")
        ds = sp.load_csv(str(p))
        np.testing.assert_array_equal(ds.X, [[0.5], [-1.5]])
        np.testing.assert_array_equal(ds.y, [1, 0])

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

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_text("label,f0,f1\n0,0.5,1.0\n1,-1.5,2.0\n", encoding="utf-8-sig")
        ds = sp.load_csv(str(p), label_column="label")
        assert ds.X.shape == (2, 2)
        np.testing.assert_array_equal(ds.y, [0, 1])

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("a,b\n1,2\n\n3,4\n\n")
        ds = sp.load_csv(str(p))
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_keep_file_lines_in_errors(self, tmp_path):
        p = tmp_path / "blank_junk.csv"
        p.write_text("a,b\n1,2\n\nx,4\n")
        with pytest.raises(DataError, match="line 4"):
            sp.load_csv(str(p))

    @pytest.mark.parametrize("header, names", [
        ("a,label,label", "['label']"), ("a,b,a", "['a']"), (" b ,a,b,a", "['a', 'b']"),
    ])
    def test_repeated_header_name_rejected_before_any_row(self, tmp_path, header, names):
        # the data row does not parse: the header error comes first
        p = tmp_path / "twice.csv"
        p.write_text(f"{header}\nx,y,z,w\n")
        with pytest.raises(DataError, match=re.escape(f"repeats column names {names}")):
            sp.load_csv(str(p))
        with pytest.raises(DataError, match="repeats column names"):
            sp.load_csv(str(p), label_column="a")

    def test_row_of_empty_cells_is_still_missing_values(self, tmp_path):
        p = tmp_path / "blank_cells.csv"
        p.write_text("a,b\n1,2\n,\n3,4\n\n")
        with pytest.raises(DataError, match=r"rows with missing values: \[1\]"):
            sp.load_csv(str(p))

    @pytest.mark.parametrize("text, label_column, match", [
        ("", None, "empty file, expected a header row"),
        ("\n\n", None, "empty file, expected a header row"),
        ("label\n1\n0\n", None, "no feature columns"),
        ("a,label\n1,0\n2,x\n", None, "line 3: could not parse label 'x'"),
    ], ids=["empty", "blank-lines-only", "label-only", "unparsable-label"])
    def test_unusable_file_rejected(self, tmp_path, text, label_column, match):
        p = tmp_path / "unusable.csv"
        p.write_text(text)
        with pytest.raises(DataError, match=re.escape(match)):
            sp.load_csv(str(p), label_column=label_column)


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

    @given(n0=st.integers(0, 80), n1=st.integers(0, 80),
           train_frac=st.one_of(
               st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
               st.floats(min_value=2.0**-53, max_value=1.0 - 2.0**-53)))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:stratum")
    def test_largest_remainder_allocation(self, n0, n1, train_frac):
        # class c trains on floor(train_frac * n_c) rows, plus one for each of
        # the first `leftover` classes by decreasing remainder, ties to class 0
        assume(n0 + n1 >= 2)
        y = np.array([0] * n0 + [1] * n1)
        train, _ = sp.split(sp.Dataset(X=np.zeros((n0 + n1, 1)), y=y), seed=0,
                            train_frac=train_frac)
        quotas = [train_frac * n0, train_frac * n1]
        base = [math.floor(q) for q in quotas]
        leftover = round(train_frac * (n0 + n1)) - sum(base)
        assert 0 <= leftover <= 2
        by_remainder = sorted((0, 1), key=lambda c: (base[c] - quotas[c], c))
        want = [base[c] + (c in by_remainder[:leftover]) for c in (0, 1)]
        assert [int(np.sum(train.y == c)) for c in (0, 1)] == want

    def test_invalid_fraction_rejected(self, mixture2d):
        with pytest.raises(ValidationError):
            sp.split(mixture2d, seed=0, train_frac=1.0)
        with pytest.raises(ValidationError):
            sp.split(mixture2d, seed=0, train_frac=0.0)

    @pytest.mark.parametrize("train_frac", ["x", None, True])
    def test_non_real_fraction_rejected(self, mixture2d, train_frac):
        with pytest.raises(ValidationError, match="train_frac must be a real number"):
            sp.split(mixture2d, seed=0, train_frac=train_frac)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_rejected(self, n):
        with pytest.raises(ValidationError, match="need at least 2 rows to split"):
            sp.split(sp.Dataset(X=np.zeros((n, 1)), y=np.zeros(n)), seed=0)

    @pytest.mark.parametrize("train_frac, part", [(0.3, "train"), (0.7, "test")])
    def test_lone_anomaly_warns_of_an_empty_stratum(self, train_frac, part):
        # one anomaly in ten rows lands wholly in one part
        ds = sp.Dataset(X=np.arange(10.0)[:, None], y=[1] + [0] * 9)
        with pytest.warns(RuntimeWarning, match=f"stratum 1 has zero rows in the {part} part"):
            train, test = sp.split(ds, seed=0, train_frac=train_frac)
        assert (train if part == "test" else test).y.sum() == 1


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

    def test_empty_train_set_rejected(self):
        with pytest.raises(ValidationError, match="train set must be nonempty"):
            sp.standardize(sp.Dataset(X=np.empty((0, 2))), sp.Dataset(X=np.zeros((3, 2))))


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

    @pytest.mark.parametrize("scores, labels, match", [
        ([0.1, 0.2, 0.3], [0, 1], "equal length"),
        ([0.1, 0.2], [0, 2], "binary 0/1"),
        ([0.1, 0.2], [0.5, 1], "binary 0/1"),
    ])
    def test_mismatched_or_nonbinary_labels_rejected(self, scores, labels, match):
        with pytest.raises(DataError, match=match):
            sp.auc_roc(scores, labels)

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

    @pytest.mark.parametrize("k", [2.9, 2.0, True])
    def test_non_integer_k_rejected(self, mixture2d, k):
        with pytest.raises(ValidationError, match="k must be an integer"):
            sp.duplicate_anomalies(mixture2d, k)

    def test_numpy_integer_k_accepted(self, mixture2d):
        dup = sp.duplicate_anomalies(mixture2d, np.int64(2))
        np.testing.assert_array_equal(dup.X, sp.duplicate_anomalies(mixture2d, 2).X)
        assert dup.name == "mixture2d#dup2"

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

    def test_every_seed_failing_raises(self, mixture2d, monkeypatch):
        def select_fails(method, train_X, Y_fd, seed, config):
            raise NumericsError(f"no fit at seed {seed}")

        monkeypatch.setattr(sp.harness, "select", select_fails)
        with pytest.raises(NumericsError, match=re.escape(
                "all seeds failed for method kde_gaussian: seed 0: NumericsError: no fit at "
                "seed 0; seed 1: NumericsError: no fit at seed 1")):
            sp.run_ad(mixture2d, "kde_gaussian", seeds=(0, 1), config=SMALL_AD_CONFIG)

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

    @pytest.mark.parametrize("seeds", [(1.7,), (0, 1.0), (True,)])
    def test_non_integer_seed_fails_before_any_split(self, mixture2d, monkeypatch, seeds):
        def no_split(*args, **kwargs):
            raise AssertionError("split reached")

        monkeypatch.setattr(harness, "split", no_split)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            sp.run_ad(mixture2d, "kde_gaussian", seeds=seeds, config=SMALL_AD_CONFIG)

    def test_numpy_integer_seeds_accepted(self, mixture2d):
        got = sp.run_ad(mixture2d, "kde_gaussian", seeds=[np.int64(0)], config=SMALL_AD_CONFIG)
        want = sp.run_ad(mixture2d, "kde_gaussian", seeds=(0,), config=SMALL_AD_CONFIG)
        assert got.seeds == (0,) and type(got.seeds[0]) is int
        assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("seeds", [(-1,), (0, -1), (2**64,)])
    def test_out_of_range_seed_fails_before_any_split(self, mixture2d, monkeypatch, seeds):
        def no_split(*args, **kwargs):
            raise AssertionError("split reached")

        monkeypatch.setattr(harness, "split", no_split)
        with pytest.raises(ValidationError, match="0..2"):
            sp.run_ad(mixture2d, "kde_gaussian", seeds=seeds, config=SMALL_AD_CONFIG)

    @pytest.mark.parametrize("seeds, match", [((), "must not be empty"),
                                              ([], "must not be empty"),
                                              ((0, 0), "repeat a value"),
                                              ((1, np.int64(1)), "repeat a value"),
                                              ((0, 1, 0), "repeat a value"),
                                              (5, "seeds must be a sequence"),
                                              (None, "seeds must be a sequence")])
    def test_empty_or_repeating_seeds_fail_before_any_split(self, mixture2d, monkeypatch,
                                                            seeds, match):
        def no_split(*args, **kwargs):
            raise AssertionError("split reached")

        monkeypatch.setattr(harness, "split", no_split)
        with pytest.raises(ValidationError, match=match):
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
        {"T": 0},
        {"T": 2.5},
        {"T": True},
        {"m": 0},
        {"m": 1.5},
        {"m": True},
        {"fd_max_rows": 0},
        {"fd_max_rows": 2.5},
        {"fd_max_rows": True},
    ])
    def test_invalid_value_rejected_at_construction(self, kwargs):
        with pytest.raises(ValidationError):
            sp.AdConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        ({"grad_tol": math.nan}, "grad_tol"),
        ({"grad_tol": math.inf}, "grad_tol"),
        ({"grad_tol": True}, "grad_tol"),
        ({"lr": True}, "lr"),
        ({"lr": "x"}, "lr"),
        ({"h": True}, "h"),
        ({"h": "x"}, "h"),
        ({"train_frac": "x"}, "train_frac"),
        ({"train_frac": True}, "train_frac"),
        ({"train_frac": None}, "train_frac"),
        ({"a_grid": tuple("gfedcba")}, "a_grid"),
        ({"sigma_grid": (7.0, 6.0, 5.0, None, 3.0, 2.0, 1.0)}, "sigma_grid"),
        ({"a_grid": None}, "a_grid must be a sequence"),
        ({"sigma_grid": 5}, "sigma_grid must be a sequence"),
    ])
    def test_non_real_or_non_finite_value_rejected_naming_its_field(self, kwargs, field):
        with pytest.raises(ValidationError, match=field):
            sp.AdConfig(**kwargs)

    def test_numpy_reals_accepted(self):
        config = sp.AdConfig(lr=np.float32(0.2), h=np.float64(1e-3), grad_tol=np.int64(0),
                             train_frac=np.float64(0.6))
        assert config.options(0)[0].grad_tol == 0

    def test_numpy_scalars_are_stored_as_python_numbers(self, mixture2d):
        kwargs = dict(T=64, m=2, lr=0.1, n_iters=50, grad_tol=1e-8, n_fd_iters=3, h=1e-4,
                      train_frac=0.7, fd_max_rows=8, a_grid=SMALL_AD_CONFIG.a_grid,
                      sigma_grid=SMALL_AD_CONFIG.sigma_grid)
        config = sp.AdConfig(**kwargs)
        numpy_config = sp.AdConfig(**{
            **kwargs, "T": np.int64(64), "m": np.int32(2), "lr": np.float32(0.1),
            "n_iters": np.int64(50), "grad_tol": np.float64(1e-8), "n_fd_iters": np.uint8(3),
            "h": np.float64(1e-4), "train_frac": np.float64(0.7), "fd_max_rows": np.int64(8)})
        for name in ("T", "m", "n_iters", "n_fd_iters", "fd_max_rows"):
            assert type(getattr(numpy_config, name)) is int, name
        for name in ("lr", "grad_tol", "h", "train_frac"):
            assert type(getattr(numpy_config, name)) is float, name
        # Python-typed inputs keep their bits; a float32 lr is widened exactly
        assert dataclasses.replace(numpy_config, lr=0.1) == config
        assert numpy_config.lr == float(np.float32(0.1))
        report = sp.run_ad(mixture2d, "sosrep_sdo", seeds=(0,), config=numpy_config)
        assert json.loads(json.dumps(report.to_dict()))["config"]["T"] == 64

    @pytest.mark.parametrize("method", [m for m in sp.AD_METHODS if m.endswith("_sdo")])
    def test_order_too_low_for_the_dimension_fails_before_any_split(
            self, mixture2d, monkeypatch, method):
        def no_split(*args, **kwargs):
            raise AssertionError("split reached")

        monkeypatch.setattr(harness, "split", no_split)
        config = dataclasses.replace(SMALL_AD_CONFIG, m=1)
        with pytest.raises(ValidationError, match="2m > d"):
            sp.run_ad(mixture2d, method, seeds=(0,), config=config)

    def test_order_is_not_read_by_the_closed_form_methods(self, mixture2d):
        config = dataclasses.replace(SMALL_AD_CONFIG, m=1)
        want = sp.run_ad(mixture2d, "kde_gaussian", seeds=(0,), config=SMALL_AD_CONFIG)
        got = sp.run_ad(mixture2d, "kde_gaussian", seeds=(0,), config=config)
        assert got.aucs == want.aucs and got.chosen == want.chosen


class TestSelect:
    @pytest.mark.parametrize("method", sp.AD_METHODS)
    def test_returns_the_model_fitted_at_the_pick(self, mixture2d, method):
        train, test = sp.split(mixture2d, 0)
        a_star, profile, model = select(method, train.X, test.X[:32], 0, SMALL_AD_CONFIG)
        assert a_star in profile.a_values()
        fitted_at = model.fs.base_params.a if method.endswith("_sdo") else model.kernel.sigma
        assert fitted_at == a_star
        assert model.squared == method.startswith("sosrep_")
        assert getattr(model, "reuse", None) is None  # the sweep's scope ends with it

    @pytest.mark.parametrize("method", CLOSED_FORM_METHODS)
    def test_results_do_not_depend_on_the_reuse_scope(self, mixture2d, monkeypatch, method):
        # profile, pick and the model's outputs, bit for bit, with the sweep's
        # DistanceReuse scope and with every call computed afresh
        train, test = sp.split(mixture2d, 0)
        runs = [select(method, train.X, test.X[:32], 0, SMALL_AD_CONFIG)]
        monkeypatch.setattr(harness, "DistanceReuse", lambda: None)
        runs.append(select(method, train.X, test.X[:32], 0, SMALL_AD_CONFIG))
        (a_star, profile, model), (a_fresh, profile_fresh, model_fresh) = runs
        assert a_star == a_fresh and profile == profile_fresh
        assert model.alpha.tobytes() == model_fresh.alpha.tobytes()
        assert model.density(test.X).tobytes() == model_fresh.density(test.X).tobytes()
        for got, want in zip(model.score_batch(test.X), model_fresh.score_batch(test.X)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("method", CLOSED_FORM_METHODS)
    def test_the_scope_holds_one_record_per_content(self, mixture2d, monkeypatch, method):
        # the FD statistic makes its displaced rows anew for every candidate;
        # their content finds the first candidate's records
        scopes = []

        class Spy(harness.DistanceReuse):
            def __init__(self):
                super().__init__()
                scopes.append(self)

        monkeypatch.setattr(harness, "DistanceReuse", Spy)
        train, test = sp.split(mixture2d, 0)
        _, profile, _ = select(method, train.X, test.X[:32], 0, SMALL_AD_CONFIG)
        assert len(scopes) == 1 and len(profile) > 1
        # one block of training rows; the test rows and one displaced copy
        # per round of distinct probes; a sosrep fit adds its Gram's rows
        fd_opts = SMALL_AD_CONFIG.options(0)[1]
        queries = 1 + score_fd._probe_plan(fd_opts, 32, 2).first.shape[1]
        gram = method.startswith("sosrep_")
        assert len(scopes[0]._rows) == 1 + queries + gram
        assert len(scopes[0]._pairs) == queries + gram


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

    @staticmethod
    def _serial(ds, T, n_init, n_iters, lr, seed):
        """The per-method results from one fit call per start, in start order."""
        fs = sp.sample_frequencies(sp.SdoParams(a=1.0, d=ds.d), T, seed)
        K = oracles.add_jitter(sp.kernel_matrix(ds.X, None, fs))
        inits = [np.abs(rng_from_seed(seed, i + 1).standard_normal(K.shape[0]))
                 for i in range(n_init)]
        methods, warn_list = {}, []
        for method in ("natural", "standard"):
            fracs, n_divergent = [], 0
            for i, a0 in enumerate(inits):
                opts = sp.SolverOptions(method=method, lr=lr, n_iters=n_iters, grad_tol=0.0)
                try:
                    fracs.append(float(np.mean(K @ sp.fit(K, opts, alpha0=a0).alpha < 0.0)))
                except NumericsError as exc:
                    fracs.append(1.0)
                    n_divergent += 1
                    warn_list.append(f"{method} init {i}: {exc}")
            methods[method] = (fracs, n_divergent)
        init_fracs = [float(np.mean(K @ a0 < 0.0)) for a0 in inits]
        return methods, warn_list, init_fracs

    @pytest.mark.parametrize("n_iters, lr", [(200, 50.0), (200, 0.5), (60, 0.1)],
                             ids=["all-diverge", "standard-diverges", "none-diverge"])
    def test_batched_fits_match_serial_fits(self, two_clusters, n_iters, lr):
        cfg = dict(T=256, n_init=8, n_iters=n_iters, lr=lr, seed=4)
        out = sp.negative_fraction_experiment(two_clusters, a=1.0, **cfg)
        methods, warn_list, init_fracs = self._serial(two_clusters, **cfg)
        for method, (fracs, n_divergent) in methods.items():
            assert out["methods"][method]["fractions"] == fracs
            assert out["methods"][method]["n_divergent"] == n_divergent
        assert out["warnings"] == warn_list
        assert out["init"]["mean_fraction"] == float(np.mean(init_fracs))
        if lr == 50.0:
            assert warn_list[0] == "natural init 0: objective became non-finite at iteration 77"
            assert len(warn_list) == 16
        elif lr == 0.5:
            assert 0 < len(warn_list) < 16
        else:
            assert warn_list == [] and any(f > 0.0 for f in methods["standard"][0])

    @pytest.mark.parametrize("T", [2.5, True])
    def test_non_integer_T_rejected(self, two_clusters, T):
        with pytest.raises(ValidationError, match="T must be a positive integer"):
            sp.negative_fraction_experiment(two_clusters, T=T, n_init=5, n_iters=10)

    def test_too_few_initializations_rejected(self, two_clusters):
        with pytest.raises(ValidationError):
            sp.negative_fraction_experiment(two_clusters, n_init=4, n_iters=10)

    @pytest.mark.parametrize("n_init", [5.5, 6.0, True])
    def test_non_integer_n_init_rejected(self, two_clusters, n_init):
        with pytest.raises(ValidationError, match="n_init must be an integer"):
            sp.negative_fraction_experiment(two_clusters, T=64, n_init=n_init, n_iters=10)

    @pytest.mark.parametrize("kwargs, field", [
        ({"kernel": "gaussian", "sigma": None}, "sigma"),
        ({"kernel": "laplacian", "sigma": True}, "sigma"),
        ({"lr": True}, "lr"),
    ])
    def test_non_real_setting_rejected(self, two_clusters, kwargs, field):
        with pytest.raises(ValidationError, match=f"{field} must be a positive finite real"):
            sp.negative_fraction_experiment(two_clusters, T=64, n_init=5, n_iters=10, **kwargs)

    @pytest.mark.parametrize("kernel", harness.BACKENDS)
    @pytest.mark.parametrize("kwargs, match", [
        ({"a": -5.0}, "smoothness a must be a positive finite real number"),
        ({"a": math.nan}, "smoothness a must be a positive finite real number"),
        ({"sigma": 0.0}, "sigma must be a positive finite real number"),
        ({"T": 0}, "T must be a positive integer"),
        ({"seed": -1}, "seed and stream must lie in 0..2**64-1"),
        ({"seed": 1.0}, "seed must be an integer"),
        ({"m": 0}, "derivative order m must be a positive integer, got 0"),
        ({"m": 2.0}, "derivative order m must be a positive integer, got 2.0"),
    ], ids=["a-negative", "a-nan", "sigma-zero", "T-zero", "seed-negative", "seed-float",
            "m-zero", "m-float"])
    def test_settings_are_checked_whatever_the_kernel(self, two_clusters, kernel, kwargs,
                                                      match):
        cfg = {"T": 64, "n_init": 5, "n_iters": 10, "kernel": kernel, **kwargs}
        with pytest.raises(ValidationError, match=re.escape(match)):
            sp.negative_fraction_experiment(two_clusters, **cfg)

    @pytest.mark.parametrize("kernel", harness.BACKENDS)
    def test_numpy_scalars_are_recorded_as_python_numbers(self, two_clusters, kernel):
        numpy_cfg = dict(a=np.float32(0.5), T=np.int64(64), n_init=np.int64(5),
                         n_iters=np.int64(10), lr=np.float32(0.1), seed=np.uint8(3),
                         sigma=np.float32(0.7))
        out = sp.negative_fraction_experiment(two_clusters, kernel=kernel, **numpy_cfg)
        python_cfg = {k: v.item() for k, v in numpy_cfg.items()}
        assert out == sp.negative_fraction_experiment(two_clusters, kernel=kernel, **python_cfg)
        config = out["config"]
        assert {k: type(config[k]) for k in numpy_cfg} == {
            "a": float, "T": int, "n_init": int, "n_iters": int, "lr": float, "seed": int,
            "sigma": float}
        assert config["a"] == float(np.float32(0.5)) and config["T"] == 64
        json.dumps(out)

    @pytest.mark.parametrize("kernel", harness.BACKENDS)
    def test_config_records_m(self, two_clusters, kernel):
        cfg = dict(T=64, n_init=5, n_iters=10, kernel=kernel)
        assert sp.negative_fraction_experiment(two_clusters, **cfg)["config"]["m"] is None
        m = sp.negative_fraction_experiment(two_clusters, m=np.int64(3), **cfg)["config"]["m"]
        assert m == 3 and type(m) is int

    def test_unknown_kernel_rejected(self, two_clusters):
        with pytest.raises(ValidationError, match="unknown kernel 'cauchy'"):
            sp.negative_fraction_experiment(two_clusters, T=64, n_init=5, n_iters=10,
                                            kernel="cauchy")

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

    @pytest.mark.parametrize("kwargs, field", [
        ({"width": 0.0}, "width"), ({"width": "x"}, "width"), ({"width": True}, "width"),
        ({"width": math.inf}, "width"), ({"center": None}, "center"),
        ({"center": math.nan}, "center"),
    ])
    def test_bad_shape_rejected(self, kwargs, field):
        with pytest.raises(ValidationError, match=f"{field} must be"):
            sp.SmoothBumpDensity(**kwargs)

    def test_shape_is_stored_as_python_floats(self):
        bump = sp.SmoothBumpDensity(center=np.float32(0.5), width=np.int64(2))
        assert (type(bump.center), type(bump.width)) == (float, float)
        assert bump == sp.SmoothBumpDensity(center=0.5, width=2.0)

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


    @pytest.mark.parametrize("Ns", [5, None])
    def test_non_iterable_sample_sizes_rejected(self, Ns):
        with pytest.raises(ValidationError, match="sample sizes must be a sequence"):
            sp.consistency_experiment(sp.SmoothBumpDensity(), Ns, np.linspace(-1, 1, 11))

    def test_seed_stream_map_is_pinned(self, monkeypatch):
        # Repetition rep of sample size i_n draws from stream (seed, sub) and
        # fits with seed * 1000003 + sub, sub = i_n * max(1000, n_reps) + rep + 1.
        draws, fits = [], []
        real_rng, real_fit = harness.rng_from_seed, harness.fit_model

        def rng(seed, stream=0):
            draws.append((seed, stream))
            return real_rng(seed, stream)

        def fit(X, params, T, seed, opts):
            fits.append(seed)
            return real_fit(X, params, T, seed=seed, opts=opts)

        monkeypatch.setattr(harness, "rng_from_seed", rng)
        monkeypatch.setattr(harness, "fit_model", fit)
        sp.consistency_experiment(sp.SmoothBumpDensity(), (20, 30), np.linspace(-1, 1, 21),
                                  n_reps=2, T=16, seed=5, n_iters=5)
        subs = [1, 2, 1001, 1002]
        assert draws == [(5, sub) for sub in subs]
        assert fits == [5 * 1_000_003 + sub for sub in subs]

    def test_seed_is_bounded_by_the_largest_fit_seed_before_any_draw(self, monkeypatch):
        # Repetition `sub` fits with seed * 1000003 + sub; with two sample
        # sizes of two repetitions the last sub is 1002.
        grid = np.linspace(-1.2, 1.2, 51)
        largest = (2**64 - 1 - 1002) // 1_000_003
        assert largest * 1_000_003 + 1002 < 2**64 <= (largest + 1) * 1_000_003 + 1002
        run = dict(n_reps=2, T=16, n_iters=5)
        rows = sp.consistency_experiment(sp.SmoothBumpDensity(), (20, 30), grid,
                                         seed=np.uint64(largest), **run)
        assert [len(r["errors"]) for r in rows] == [2, 2]

        def no_draw(*args, **kwargs):
            raise AssertionError("draw reached")

        monkeypatch.setattr(harness, "rng_from_seed", no_draw)
        for seed in (largest + 1, 2**60, 2**64):
            with pytest.raises(ValidationError, match=f"seed must be at most {largest} "):
                sp.consistency_experiment(sp.SmoothBumpDensity(), (20, 30), grid,
                                          seed=seed, **run)

    @pytest.mark.parametrize("kwargs", [
        {"Ns": (50, 0)},
        {"Ns": (-3,)},
        {"n_reps": 0},
        {"Ns": (20.9,)},
        {"Ns": (50, np.float64(100.0))},
        {"n_reps": 1.5},
        {"n_reps": True},
        {"grid": np.linspace(1.2, -1.2, 11)},
        {"grid": np.array([0.0, 0.5, 0.5, 1.0])},
        {"grid": np.array([0.0])},
        {"grid": np.array([0.0, np.nan, 1.0])},
        {"grad_tol": np.nan},
        {"lr": True},
        {"n_iters": 0},
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

    def test_empty_table_rejected(self):
        with pytest.raises(DataError, match="empty results table"):
            sp.rank_aggregate({})

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

    @pytest.mark.parametrize("alpha, match", [
        (np.ones(21), r"^alpha must be a 1-D array of 20 weights.*shape \(21,\)$"),
        (np.ones(19), r"^alpha must be a 1-D array of 20 weights.*shape \(19,\)$"),
        (np.ones((20, 1)), r"^alpha must be a 1-D array of 20 weights.*shape \(20, 1\)$"),
        (np.r_[np.ones(19), np.nan], "^alpha must be finite$"),
        (np.r_[np.ones(19), -np.inf], "^alpha must be finite$"),
    ], ids=["long", "short", "2-d", "nan", "inf"])
    def test_closed_form_representer_rejects_bad_alpha(self, alpha, match):
        # a longer alpha would be cut to the training rows by the blocked f and grad f
        X = np.random.default_rng(30).normal(size=(20, 2))
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        with pytest.raises(ValidationError, match=match):
            ClosedFormRepresenterModel(X, alpha, k, squared=True)

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
        f_ref = alpha @ sp.kernel_matrix_closed_form(k, X, Y)
        G_ref = np.einsum("n,nmd->md", alpha, sp.kernel_gradient_closed_form(k, X, Y))
        # f and grad f by matrix products: within their rounding bound
        f, G = model.f_and_grad(Y)
        oracles.assert_within_error_bounds(k, X, Y, alpha, f, G, f_ref, G_ref)
        S, fv = model.score_batch(Y)
        np.testing.assert_array_equal(fv, f)
        np.testing.assert_array_equal(S, (2.0 if squared else 1.0) * G / f[:, None])
        # density reads the same f as the score
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
