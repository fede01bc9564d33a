"""Tests for the objective, its two gradients, the fit loop, and the model."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sosrep as sp
from sosrep.errors import NumericsError, SolverDivergence, ValidationError
from sosrep.solver import data_hash


def _psd_gram(n, seed, sigma=1.0, d=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    k = sp.ClosedFormKernel(family="gaussian", sigma=sigma, d=d)
    return sp.add_jitter(sp.kernel_matrix_closed_form(k, X, X))


class TestObjective:
    def test_single_point_identity(self):
        assert sp.objective(np.array([1.0]), np.array([[1.0]])) == 1.0

    def test_single_point_known_value(self):
        # f = 2: -2 log 2 + 4 = 4 - log 4
        val = sp.objective(np.array([2.0]), np.array([[1.0]]))
        np.testing.assert_allclose(val, 4.0 - math.log(4.0), rtol=1e-15)

    def test_sign_flip_invariance(self):
        K = _psd_gram(6, seed=0)
        alpha = np.random.default_rng(1).normal(size=6)
        assert sp.objective(alpha, K) == sp.objective(-alpha, K)

    def test_zero_density_raises(self):
        with pytest.raises(NumericsError):
            sp.objective(np.array([0.0]), np.array([[1.0]]))


class TestGradStandard:
    def test_single_point_fixed_point(self):
        g = sp.grad_standard(np.array([1.0]), np.array([[1.0]]))
        np.testing.assert_array_equal(g, [0.0])

    def test_identity_gram_two_points(self):
        g = sp.grad_standard(np.array([1.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(g, [1.0, 1.0], rtol=1e-15)

    def test_matches_finite_difference(self):
        K = _psd_gram(8, seed=2)
        alpha = np.abs(np.random.default_rng(3).standard_normal(8))
        g = sp.grad_standard(alpha, K)
        h = 1e-6
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            num = (sp.objective(alpha + e, K) - sp.objective(alpha - e, K)) / (2 * h)
            assert abs(g[i] - num) < 1e-6


class TestGradNatural:
    def test_single_point_fixed_point(self):
        g = sp.grad_natural(np.array([1.0]), np.array([[1.0]]))
        np.testing.assert_array_equal(g, [0.0])

    def test_kernel_times_natural_equals_standard(self):
        K = _psd_gram(10, seed=4)
        alpha = np.abs(np.random.default_rng(5).standard_normal(10))
        np.testing.assert_allclose(
            K @ sp.grad_natural(alpha, K), sp.grad_standard(alpha, K), atol=1e-12
        )

    def test_equicorrelated_stationary_point(self):
        # K = [[1, rho], [rho, 1]]: alpha = (t, t) with t = 1/sqrt(2(1+rho))
        rho = 0.5
        t = 1.0 / math.sqrt(2.0 * (1.0 + rho))
        K = np.array([[1.0, rho], [rho, 1.0]])
        g = sp.grad_natural(np.array([t, t]), K)
        np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 20),
    lr=st.floats(min_value=1e-4, max_value=0.499),
    seed=st.integers(0, 1000),
)
def test_natural_step_preserves_positivity(n, lr, seed):
    """Entrywise-nonnegative K, alpha >= 0, lr < 1/2 keeps f = K alpha positive."""
    rng = np.random.default_rng(seed)
    K = rng.uniform(0.0, 1.0, size=(n, n))
    K = 0.5 * (K + K.T)
    alpha = np.abs(rng.standard_normal(n))
    for _ in range(5):
        f = K @ alpha
        if np.any(f == 0.0):  # probability zero, but keep the property honest
            return
        alpha = sp.natural_step(alpha, K, lr)
    assert np.all(K @ alpha > 0.0)


class TestFit:
    def test_single_point_converges_to_one(self):
        res = sp.fit(np.array([[1.0]]))
        assert res.converged
        np.testing.assert_allclose(abs(res.alpha[0]), 1.0, atol=1e-8)
        np.testing.assert_allclose(res.objective, 1.0, atol=1e-8)

    def test_equicorrelated_minimizer(self):
        rho = 0.5
        K = np.array([[1.0, rho], [rho, 1.0]])
        res = sp.fit(K, sp.SolverOptions(n_iters=5000, grad_tol=1e-12))
        t = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(res.alpha, [t, t], atol=1e-6)

    def test_same_seed_identical_trajectory(self):
        K = _psd_gram(12, seed=6)
        opts = sp.SolverOptions(n_iters=200, seed=7)
        r1, r2 = sp.fit(K, opts), sp.fit(K, opts)
        np.testing.assert_array_equal(r1.alpha, r2.alpha)
        np.testing.assert_array_equal(r1.objective_history, r2.objective_history)

    def test_objective_monotone_decrease(self):
        K = _psd_gram(15, seed=8)
        res = sp.fit(K, sp.SolverOptions(n_iters=500))
        assert np.all(np.diff(res.objective_history) <= 1e-9)

    def test_fixed_point_residual(self):
        K = _psd_gram(9, seed=9)
        res = sp.fit(K, sp.SolverOptions(n_iters=8000, grad_tol=1e-13))
        f = K @ res.alpha
        np.testing.assert_allclose(res.alpha * f, np.full(9, 1.0 / 9.0), atol=1e-6)
        np.testing.assert_allclose(sp.rkhs_norm_sq(res.alpha, K), 1.0, atol=1e-6)

    def test_iteration_cap_and_history_length(self):
        K = _psd_gram(5, seed=10)
        res = sp.fit(K, sp.SolverOptions(n_iters=3, grad_tol=1e-16))
        assert not res.converged
        assert res.n_iters_run == 3
        assert res.objective_history.shape == (4,)

    def test_immediate_convergence_leaves_init(self):
        K = _psd_gram(5, seed=11)
        res = sp.fit(K, sp.SolverOptions(grad_tol=1e9))
        assert res.converged and res.n_iters_run == 0
        assert res.objective_history.shape == (1,)

    def test_natural_kernel_rescaling_trajectory(self):
        # beta_t = 2 alpha_t maps fit(K) onto fit(4K); exact for power-of-two scales
        K = _psd_gram(13, seed=12)
        a0 = np.abs(np.random.default_rng(13).standard_normal(13))
        r_base = sp.fit(K, sp.SolverOptions(init="user", alpha0=2.0 * a0, grad_tol=0.0, n_iters=50))
        r_scaled = sp.fit(4.0 * K, sp.SolverOptions(init="user", alpha0=a0, grad_tol=0.0, n_iters=50))
        np.testing.assert_array_equal(r_base.alpha, 2.0 * r_scaled.alpha)

    def test_standard_method_also_minimizes(self):
        rho = 0.5
        K = np.array([[1.0, rho], [rho, 1.0]])
        res = sp.fit(K, sp.SolverOptions(method="standard", lr=0.05, n_iters=20000, grad_tol=1e-12))
        t = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(res.alpha, [t, t], atol=1e-6)

    def test_divergence_raises_with_iteration(self):
        K = _psd_gram(10, seed=14)
        with pytest.raises(SolverDivergence) as exc:
            sp.fit(K, sp.SolverOptions(method="standard", lr=1e9, n_iters=200, grad_tol=0.0))
        assert exc.value.iteration >= 1

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            sp.fit(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            sp.SolverOptions(method="newton")
        with pytest.raises(ValidationError):
            sp.SolverOptions(lr=0.0)
        with pytest.raises(ValidationError):
            sp.SolverOptions(n_iters=0)
        with pytest.raises(ValidationError):
            sp.SolverOptions(init="user")  # missing alpha0
        with pytest.raises(ValidationError):
            sp.fit(np.eye(3), sp.SolverOptions(init="user", alpha0=np.ones(2)))


class TestRkhsNorm:
    def test_zero_alpha(self):
        assert sp.rkhs_norm_sq(np.zeros(4), np.eye(4)) == 0.0

    def test_quadratic_scaling(self):
        K = _psd_gram(6, seed=15)
        alpha = np.random.default_rng(16).normal(size=6)
        base = sp.rkhs_norm_sq(alpha, K)
        np.testing.assert_allclose(sp.rkhs_norm_sq(3.0 * alpha, K), 9.0 * base, rtol=1e-12)


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(30, 2))
    params = sp.SdoParams(a=0.5, d=2, m=2)
    return sp.fit_model(X, params, T=256, seed=18,
                        opts=sp.SolverOptions(n_iters=2000, grad_tol=1e-10)), X


class TestFittedModel:
    def test_density_nonnegative(self, model):
        m, X = model
        rng = np.random.default_rng(19)
        Y = rng.normal(size=(50, 2)) * 3.0
        assert np.all(sp.evaluate_density(m, Y) >= 0.0)

    def test_train_density_matches_gram(self, model):
        m, X = model
        Phi = sp.feature_map(X, m.fs)
        K = sp.add_jitter(0.5 * (Phi @ Phi.T + (Phi @ Phi.T).T))
        f = K @ m.alpha
        np.testing.assert_allclose(m.density(X), f * f, atol=1e-10)

    def test_fit_info_reports_unit_norm(self, model):
        m, _ = model
        assert m.fit_info["converged"]
        np.testing.assert_allclose(m.fit_info["rkhs_norm_sq"], 1.0, atol=1e-6)

    def test_exact_normalization_preserves_ranking(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(25, 1))
        q = np.linspace(-3.0, 3.0, 40).reshape(-1, 1)
        params = sp.SdoParams(a=0.5, d=1, m=1)
        opts = sp.SolverOptions(n_iters=4000, grad_tol=1e-12, seed=3)
        m0 = sp.fit_model(X, params, T=512, seed=8, opts=opts)
        m1 = sp.fit_model(X, params, T=512, seed=8, opts=opts, exact_normalization=True)
        d0, d1 = m0.density(q), m1.density(q)
        np.testing.assert_array_equal(np.argsort(d0), np.argsort(d1))
        ratio = d1 / d0
        assert np.ptp(ratio) / ratio.mean() < 1e-9

    def test_f_and_grad_consistent_with_density(self, model):
        m, _ = model
        rng = np.random.default_rng(21)
        Y = rng.normal(size=(10, 2))
        f, _ = m.f_and_grad(Y)
        np.testing.assert_allclose(f, m.f_values(Y), rtol=1e-12)
        np.testing.assert_allclose(f * f, m.density(Y), rtol=1e-12)


class TestSerialization:
    def test_roundtrip_reproduces_evaluations(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(20, 3))
        m = sp.fit_model(X, sp.SdoParams(a=1.0, d=3, m=2), T=128, seed=23)
        back = sp.model_from_json(sp.model_to_json(m, run_config={"note": "x"}))
        Y = rng.normal(size=(7, 3))
        np.testing.assert_array_equal(back.f_values(Y), m.f_values(Y))
        np.testing.assert_array_equal(back.alpha, m.alpha)
        assert back.train_data_hash == m.train_data_hash
        assert back.fit_info == m.fit_info

    def test_record_shape(self):
        X = np.zeros((2, 1))
        m = sp.fit_model(X, sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        assert rec["kind"] == "sosrep_model"
        for key in ("format_version", "seed", "T", "params", "alpha",
                    "feature_weights", "train_data_hash"):
            assert key in rec

    def test_rejects_wrong_kind_and_malformed(self):
        with pytest.raises(ValidationError):
            sp.model_from_json(json.dumps({"kind": "other"}))
        with pytest.raises(ValidationError):
            sp.model_from_json("{not json")
        with pytest.raises(ValidationError):
            sp.model_from_json(json.dumps({"kind": "sosrep_model"}))  # missing fields


class TestHelpers:
    def test_add_jitter_touches_diagonal_only(self):
        K = np.arange(9.0).reshape(3, 3)
        J = sp.add_jitter(K)
        np.testing.assert_allclose(np.diag(J) - np.diag(K), np.full(3, 1e-10 * 4.0))
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_array_equal(J[off], K[off])

    def test_data_hash_discriminates(self):
        X = np.arange(6.0).reshape(3, 2)
        assert data_hash(X) == data_hash(X.copy())
        Y = X.copy()
        Y[0, 0] += 1e-12
        assert data_hash(X) != data_hash(Y)


class TestModelQueryDimension:
    def test_wrong_dimension_query_is_validation_error(self):
        rng = np.random.default_rng(40)
        model = sp.fit_model(rng.normal(size=(12, 2)), sp.SdoParams(a=0.5, d=2), T=64,
                             seed=1, opts=sp.SolverOptions(n_iters=20))
        Y = rng.normal(size=(3, 3))
        with pytest.raises(ValidationError):
            model.f_and_grad(Y)
        with pytest.raises(ValidationError):
            model.laplacian_f(Y)
