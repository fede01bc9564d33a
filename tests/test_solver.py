"""Tests for the objective, its two gradients, the fit loop, and the model."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sosrep as sp
from sosrep.errors import NumericsError, SolverDivergence, ValidationError
from sosrep.solver import _draw_init, data_hash


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


def _fit_reference(K, opts):
    """The fit loop as it stood before the lean rewrite, kept verbatim as an oracle."""

    def _clamped_inverse(f):
        small = np.abs(f) < 1e-12
        n_clamped = int(small.sum())
        if n_clamped == 0:
            return 1.0 / f, 0
        inv = np.empty_like(f)
        safe = ~small
        inv[safe] = 1.0 / f[safe]
        signs = np.sign(f[small])
        signs[signs == 0.0] = 1.0
        inv[small] = signs * 1e12
        return inv, n_clamped

    def _objective_value(alpha, f):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return float(-2.0 * np.mean(np.log(np.abs(f))) + alpha @ f)

    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if opts.init == "user":
        alpha = np.asarray(opts.alpha0, dtype=float).copy()
    else:
        alpha = _draw_init(n, opts.seed, K)

    f = K @ alpha
    history = np.empty(opts.n_iters + 1)
    history[0] = _objective_value(alpha, f)
    if not np.isfinite(history[0]):
        raise SolverDivergence("objective non-finite at initialization", iteration=0)

    clamp_warnings = 0
    converged = False
    it = 0
    gnorm = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, opts.n_iters + 1):
            inv, n_clamped = _clamped_inverse(f)
            clamp_warnings += n_clamped
            if opts.method == "natural":
                g = 2.0 * (alpha - inv / n)
            else:
                g = 2.0 * (f - (K @ inv) / n)
            gnorm = float(np.max(np.abs(g)))
            if gnorm < opts.grad_tol:
                converged = True
                it -= 1
                break
            alpha = alpha - opts.lr * g
            f = K @ alpha
            obj = _objective_value(alpha, f)
            if not np.isfinite(obj):
                raise SolverDivergence(
                    f"objective became non-finite at iteration {it}", iteration=it
                )
            history[it] = obj
    history = history[: it + 1]
    return sp.FitResult(
        alpha=alpha,
        objective=float(history[-1]),
        grad_sup_norm=gnorm,
        n_iters_run=it,
        converged=converged,
        clamp_warnings=clamp_warnings,
        objective_history=history,
    )


def _mixed_sign_init(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


# (name, K, options, what the run must exercise)
_IDENTITY_CASES = [
    ("natural-abs_gaussian-fixed", _psd_gram(20, seed=30),
     dict(method="natural", lr=0.1, n_iters=300, seed=3, grad_tol=0.0), "fixed"),
    ("standard-abs_gaussian-fixed", _psd_gram(20, seed=31),
     dict(method="standard", lr=0.02, n_iters=300, seed=4, grad_tol=0.0), "fixed"),
    ("natural-user-mixed-sign", _psd_gram(16, seed=32),
     dict(method="natural", lr=0.05, n_iters=200, init="user",
          alpha0=_mixed_sign_init(16, 33), grad_tol=0.0), "fixed"),
    ("standard-user-mixed-sign", _psd_gram(16, seed=34),
     dict(method="standard", lr=0.02, n_iters=200, init="user",
          alpha0=_mixed_sign_init(16, 35), grad_tol=0.0), "fixed"),
    ("natural-converges-early", _psd_gram(8, seed=36),
     dict(method="natural", lr=0.1, n_iters=5000, seed=5, grad_tol=1e-8), "converged"),
    ("standard-converges-early", np.array([[1.0, 0.5], [0.5, 1.0]]),
     dict(method="standard", lr=0.05, n_iters=20000, seed=6, grad_tol=1e-8), "converged"),
    ("natural-clamp", np.eye(4),
     dict(method="natural", lr=0.1, n_iters=50, init="user",
          alpha0=np.array([1.0, -2e-13, 5e-13, -0.5]), grad_tol=0.0), "clamped"),
    ("standard-clamp", np.eye(4),
     dict(method="standard", lr=0.1, n_iters=50, init="user",
          alpha0=np.array([1.0, -2e-13, 5e-13, -0.5]), grad_tol=0.0), "clamped"),
]


class TestFitMatchesReference:
    """fit is bit for bit the reference loop: every FitResult field, every error."""

    @staticmethod
    def _assert_identical(res, ref):
        for fld in dataclasses.fields(sp.FitResult):
            got, want = getattr(res, fld.name), getattr(ref, fld.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), fld.name
            else:
                assert got == want, fld.name

    @pytest.mark.parametrize("name,K,kwargs,kind", _IDENTITY_CASES,
                             ids=[c[0] for c in _IDENTITY_CASES])
    def test_fit_result_identical(self, name, K, kwargs, kind):
        opts = sp.SolverOptions(**kwargs)
        res, ref = sp.fit(K, opts), _fit_reference(K, opts)
        self._assert_identical(res, ref)
        if kind == "fixed":
            assert res.n_iters_run == opts.n_iters and not res.converged
        elif kind == "converged":
            assert res.converged and res.n_iters_run < opts.n_iters
        else:
            assert res.clamp_warnings > 0

    def test_mixed_sign_runs_keep_negative_f(self):
        # the clamp test must read |f|: these runs pass through negative f
        # of ordinary size that must not be clamped
        for name, K, kwargs, _ in _IDENTITY_CASES:
            if "mixed-sign" in name:
                res = sp.fit(K, sp.SolverOptions(**kwargs))
                assert np.any(K @ res.alpha < -1e-3) and res.clamp_warnings == 0

    @pytest.mark.parametrize("K,kwargs", [
        (_psd_gram(10, seed=14),
         dict(method="standard", lr=1e9, n_iters=200, grad_tol=0.0)),
        (np.eye(3), dict(init="user", alpha0=np.array([1.0, 0.0, 2.0]))),
        (np.eye(2), dict(init="user", alpha0=np.array([1.0, np.inf]))),
    ], ids=["standard-diverges", "zero-f-at-init", "inf-at-init"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_divergence_identical(self, K, kwargs):
        opts = sp.SolverOptions(**kwargs)
        with pytest.raises(SolverDivergence) as got:
            sp.fit(K, opts)
        with pytest.raises(SolverDivergence) as want:
            _fit_reference(K, opts)
        assert str(got.value) == str(want.value)
        assert got.value.iteration == want.value.iteration
        if opts.lr == 1e9:
            assert got.value.iteration >= 1
        else:
            assert got.value.iteration == 0


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
