"""Tests for the two-cluster block oracle and its solver cross-check."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sosrep as sp
from sosrep.errors import ValidationError

SPEC = sp.BlockSpec(N=100, M=100, gamma=0.8, gamma_prime=0.2, beta=0.5)


class TestBlockSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            sp.BlockSpec(N=0, M=1, gamma=0.5, gamma_prime=0.2, beta=0.0)
        with pytest.raises(ValidationError):  # gamma_prime > gamma
            sp.BlockSpec(N=1, M=1, gamma=0.2, gamma_prime=0.5, beta=0.0)
        with pytest.raises(ValidationError):  # gamma > 1
            sp.BlockSpec(N=1, M=1, gamma=1.5, gamma_prime=0.5, beta=0.0)
        with pytest.raises(ValidationError):  # beta out of range
            sp.BlockSpec(N=1, M=1, gamma=0.5, gamma_prime=0.2, beta=1.5)

    @pytest.mark.parametrize("sizes, name", [(dict(N=2.5, M=2), "N"), (dict(N=2, M=2.0), "M"),
                                             (dict(N=True, M=2), "N")])
    def test_non_integer_cluster_size_rejected(self, sizes, name):
        with pytest.raises(ValidationError, match=f"cluster size {name} must be a positive integer"):
            sp.BlockSpec(**sizes, gamma=0.5, gamma_prime=0.2, beta=0.0)

    @pytest.mark.parametrize("name, value", [("gamma", "x"), ("gamma_prime", True),
                                             ("beta", None)])
    def test_non_real_correlation_rejected(self, name, value):
        values = {"gamma": 0.5, "gamma_prime": 0.2, "beta": 0.0, name: value}
        with pytest.raises(ValidationError, match=f"{name} must be a real number"):
            sp.BlockSpec(N=2, M=2, **values)

    def test_numpy_integer_cluster_sizes_accepted(self):
        spec = sp.BlockSpec(N=np.int64(2), M=np.uint8(3), gamma=0.5, gamma_prime=0.2, beta=0.0)
        assert (spec.N, spec.M) == (2, 3) and type(spec.N) is int and type(spec.M) is int

    def test_equal_correlations_allowed(self):
        sp.BlockSpec(N=2, M=2, gamma=0.5, gamma_prime=0.5, beta=0.3)

    def test_numpy_reals_are_stored_as_python_floats(self):
        spec = sp.BlockSpec(N=20, M=20, gamma=np.float32(0.8), gamma_prime=np.float16(0.2),
                            beta=np.float64(0.5))
        widened = sp.BlockSpec(N=20, M=20, gamma=float(np.float32(0.8)),
                               gamma_prime=float(np.float16(0.2)), beta=0.5)
        assert spec == widened
        assert {type(v) for v in (spec.gamma, spec.gamma_prime, spec.beta)} == {float}
        report = sp.verify_against_solver(spec)
        assert report == sp.verify_against_solver(widened)
        json.dumps(report)


class TestBuildBlockKernel:
    def test_structure(self):
        K = sp.build_block_kernel(sp.BlockSpec(N=2, M=3, gamma=0.8, gamma_prime=0.2, beta=0.5))
        assert K.shape == (5, 5)
        np.testing.assert_array_equal(np.diag(K), np.ones(5))
        assert K[0, 1] == 0.8 * 0.8
        assert K[3, 4] == 0.2 * 0.2
        assert K[0, 3] == 0.5 * 0.8 * 0.2
        np.testing.assert_array_equal(K, K.T)


class TestKdeRatio:
    def test_known_value(self):
        np.testing.assert_allclose(sp.kde_ratio(SPEC), 6.0, rtol=1e-15)

    def test_formula(self):
        spec = sp.BlockSpec(N=10, M=10, gamma=0.7, gamma_prime=0.3, beta=0.4)
        cross = 0.4 * 0.7 * 0.3
        expected = (0.49 + cross) / (0.09 + cross)
        np.testing.assert_allclose(sp.kde_ratio(spec), expected, rtol=1e-15)

    def test_equal_correlations_give_one(self):
        spec = sp.BlockSpec(N=5, M=5, gamma=0.6, gamma_prime=0.6, beta=0.2)
        np.testing.assert_allclose(sp.kde_ratio(spec), 1.0, rtol=1e-15)

    def test_requires_equal_sizes(self):
        with pytest.raises(ValidationError):
            sp.kde_ratio(sp.BlockSpec(N=2, M=3, gamma=0.8, gamma_prime=0.2, beta=0.5))


class TestSolveTwoBlock:
    def test_decoupled_closed_form(self):
        sol = sp.solve_two_block(4.0, 0.0, 0.0, 1.0)
        np.testing.assert_allclose([sol.a, sol.b], [2.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(sol.ratio, 4.0, rtol=1e-12)

    def test_residual_small_and_equations_hold(self):
        H = (64.36, 8.0, 8.0, 4.96)
        sol = sp.solve_two_block(*H)
        np.testing.assert_allclose(sol.a, H[0] / sol.a + H[1] / sol.b, rtol=1e-10)
        np.testing.assert_allclose(sol.b, H[2] / sol.a + H[3] / sol.b, rtol=1e-10)
        assert sol.residual <= 1e-8 * max(sol.a, sol.b)

    def test_log_uniform_sweep(self):
        rng = np.random.default_rng(20)
        for H in 10.0 ** rng.uniform(-6.0, 6.0, size=(2000, 4)):
            sol = sp.solve_two_block(*H)
            assert sol.residual <= 1e-15 * max(sol.a, sol.b)
            np.testing.assert_allclose(sol.ratio, (sol.a / sol.b) ** 2, rtol=1e-14)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValidationError):
            sp.solve_two_block(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            sp.solve_two_block(1.0, -0.5, 0.5, 1.0)
        with pytest.raises(ValidationError):
            sp.solve_two_block(1.0, math.inf, 0.5, 1.0)


class TestExactSystem:
    def test_coefficients_at_reference_spec(self):
        H11, H12, H21, H22 = sp.exact_system_coefficients(SPEC)
        np.testing.assert_allclose(H11, 1.0 + 99 * 0.64, rtol=1e-15)
        np.testing.assert_allclose(H22, 1.0 + 99 * 0.04, rtol=1e-15)
        np.testing.assert_allclose(H12, 100 * 0.5 * 0.8 * 0.2, rtol=1e-15)
        assert H12 == H21

    def test_reference_ratio_value(self):
        sol = sp.solve_two_block(*sp.exact_system_coefficients(SPEC))
        np.testing.assert_allclose(sol.ratio, 12.9758, atol=1e-4)

    def test_asymmetric_sizes_solve(self):
        spec = sp.BlockSpec(N=60, M=140, gamma=0.8, gamma_prime=0.2, beta=0.5)
        sol = sp.solve_two_block(*sp.exact_system_coefficients(spec))
        assert sol.ratio > 0 and np.isfinite(sol.ratio)


class TestApproxSystemRatio:
    def test_reference_value(self):
        np.testing.assert_allclose(sp.sosrep_block_ratio(SPEC), 16.0, rtol=1e-9)

    def test_equal_correlations_give_one(self):
        spec = sp.BlockSpec(N=5, M=5, gamma=0.6, gamma_prime=0.6, beta=0.2)
        np.testing.assert_allclose(sp.sosrep_block_ratio(spec), 1.0, rtol=1e-9)

    def test_seeded_sweep_is_beta_independent(self):
        rng = np.random.default_rng(21)
        for gamma, ratio_gp, beta in rng.uniform((0.05, 0.05, 0.0), (1.0, 1.0, 1.0),
                                                 size=(2000, 3)):
            gamma_prime = gamma * ratio_gp
            spec = sp.BlockSpec(N=10, M=10, gamma=gamma, gamma_prime=gamma_prime, beta=beta)
            np.testing.assert_allclose(
                sp.sosrep_block_ratio(spec), (gamma / gamma_prime) ** 2, rtol=1e-14
            )

    def test_requires_equal_sizes(self):
        with pytest.raises(ValidationError):
            sp.sosrep_block_ratio(sp.BlockSpec(N=2, M=3, gamma=0.8, gamma_prime=0.2, beta=0.5))


@settings(max_examples=25, deadline=None)
@given(
    gamma=st.floats(min_value=0.3, max_value=0.95),
    ratio_gp=st.floats(min_value=0.15, max_value=0.9),
    beta=st.floats(min_value=0.0, max_value=0.95),
)
def test_approx_ratio_is_beta_independent(gamma, ratio_gp, beta):
    """The approximate-system cluster ratio is (gamma/gamma')^2 for every beta."""
    gamma_prime = gamma * ratio_gp
    spec = sp.BlockSpec(N=10, M=10, gamma=gamma, gamma_prime=gamma_prime, beta=beta)
    np.testing.assert_allclose(
        sp.sosrep_block_ratio(spec), (gamma / gamma_prime) ** 2, rtol=1e-6
    )


class TestVerifyAgainstSolver:
    def test_reference_spec_report(self):
        report = sp.verify_against_solver(SPEC)
        assert report["solver"]["converged"]
        assert report["rel_dev_solver_vs_exact"] < 1e-8
        np.testing.assert_allclose(report["ratio_exact_system"], 12.9758, atol=1e-4)
        np.testing.assert_allclose(report["ratio_approx_system"], 16.0, rtol=1e-12)
        np.testing.assert_allclose(report["kde_ratio"], 6.0, rtol=1e-12)
        np.testing.assert_allclose(report["ratio_closed_form"], 16.0, rtol=1e-9)
        assert report["alpha_intra_cluster_spread"] < 1e-8
        np.testing.assert_allclose(report["solver"]["rkhs_norm_sq"], 1.0, atol=1e-8)

    def test_unequal_sizes_skip_kde_ratio(self):
        spec = sp.BlockSpec(N=30, M=50, gamma=0.8, gamma_prime=0.3, beta=0.4)
        report = sp.verify_against_solver(spec)
        assert "kde_ratio" not in report
        assert report["rel_dev_solver_vs_exact"] < 1e-6

    def test_desk_scale_guard(self):
        big = sp.BlockSpec(N=500, M=500, gamma=0.8, gamma_prime=0.2, beta=0.5)
        with pytest.raises(ValidationError):
            sp.verify_against_solver(big)
