"""Tests for the objective, its two gradients, the fit loop, and the model."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sosrep as sp
from sosrep.errors import NumericsError, SolverDivergence, ValidationError
from sosrep.harness import SdoKdeModel
from sosrep.solver import _draw_init, _matvecs

import oracles
from conftest import make_mixture2d


def _psd_gram(n, seed, sigma=1.0, d=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    k = sp.ClosedFormKernel(family="gaussian", sigma=sigma, d=d)
    return oracles.add_jitter(sp.kernel_matrix_closed_form(k, X, X))


class TestObjective:
    def test_single_point_identity(self):
        assert oracles.objective(np.array([1.0]), np.array([[1.0]])) == 1.0

    def test_single_point_known_value(self):
        # f = 2: -2 log 2 + 4 = 4 - log 4
        val = oracles.objective(np.array([2.0]), np.array([[1.0]]))
        np.testing.assert_allclose(val, 4.0 - math.log(4.0), rtol=1e-15)

    def test_sign_flip_invariance(self):
        K = _psd_gram(6, seed=0)
        alpha = np.random.default_rng(1).normal(size=6)
        assert oracles.objective(alpha, K) == oracles.objective(-alpha, K)

    def test_zero_density_raises(self):
        with pytest.raises(NumericsError):
            oracles.objective(np.array([0.0]), np.array([[1.0]]))


class TestGradStandard:
    def test_single_point_fixed_point(self):
        g = oracles.grad_standard(np.array([1.0]), np.array([[1.0]]))
        np.testing.assert_array_equal(g, [0.0])

    def test_identity_gram_two_points(self):
        g = oracles.grad_standard(np.array([1.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(g, [1.0, 1.0], rtol=1e-15)

    def test_matches_finite_difference(self):
        K = _psd_gram(8, seed=2)
        alpha = np.abs(np.random.default_rng(3).standard_normal(8))
        g = oracles.grad_standard(alpha, K)
        h = 1e-6
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            num = (oracles.objective(alpha + e, K) - oracles.objective(alpha - e, K)) / (2 * h)
            assert abs(g[i] - num) < 1e-6


class TestGradNatural:
    def test_single_point_fixed_point(self):
        g = oracles.grad_natural(np.array([1.0]), np.array([[1.0]]))
        np.testing.assert_array_equal(g, [0.0])

    def test_kernel_times_natural_equals_standard(self):
        K = _psd_gram(10, seed=4)
        alpha = np.abs(np.random.default_rng(5).standard_normal(10))
        np.testing.assert_allclose(
            K @ oracles.grad_natural(alpha, K), oracles.grad_standard(alpha, K), atol=1e-12
        )

    def test_equicorrelated_stationary_point(self):
        # K = [[1, rho], [rho, 1]]: alpha = (t, t) with t = 1/sqrt(2(1+rho))
        rho = 0.5
        t = 1.0 / math.sqrt(2.0 * (1.0 + rho))
        K = np.array([[1.0, rho], [rho, 1.0]])
        g = oracles.grad_natural(np.array([t, t]), K)
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
        alpha = oracles.natural_step(alpha, K, lr)
    assert np.all(K @ alpha > 0.0)


def _cone_cases(n_trials=300, seed=2027):
    """Criterion-4-style inputs: (K, alpha, lr) with K = B B^T, B and alpha >= 0."""
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        n = int(rng.integers(2, 41))
        B = rng.uniform(0.0, 1.0, size=(n, n))
        alpha = rng.uniform(0.0, 2.0, size=n)
        yield B @ B.T, alpha, float(rng.uniform(1e-6, 0.4999))


class TestLoopMatchesFormulas:
    """The loop fit runs is the paper's objective and gradients, bit for bit."""

    def test_natural_fit_is_five_natural_steps(self):
        for K, alpha, lr in _cone_cases():
            res = sp.fit(K, sp.SolverOptions(lr=lr, n_iters=5, grad_tol=0.0), alpha0=alpha)
            want = alpha
            for _ in range(5):
                want = oracles.natural_step(want, K, lr)
            assert np.array_equal(res.alpha, want)

    def test_standard_fit_step_is_a_standard_gradient_step(self):
        for K, alpha, lr in _cone_cases():
            opts = sp.SolverOptions(method="standard", lr=lr, n_iters=1, grad_tol=0.0)
            res = sp.fit(K, opts, alpha0=alpha)
            assert np.array_equal(res.alpha, alpha - lr * oracles.grad_standard(alpha, K))

    def test_first_history_entry_is_the_objective(self):
        for K, alpha, lr in _cone_cases():
            res = sp.fit(K, sp.SolverOptions(lr=lr, n_iters=1, grad_tol=0.0), alpha0=alpha)
            assert res.objective_history[0] == oracles.objective(alpha, K)


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
        opts = sp.SolverOptions(n_iters=200)
        r1, r2 = sp.fit(K, opts, seed=7), sp.fit(K, opts, seed=7)
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
        np.testing.assert_allclose(oracles.rkhs_norm_sq(res.alpha, K), 1.0, atol=1e-6)

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
        opts = sp.SolverOptions(grad_tol=0.0, n_iters=50)
        r_base = sp.fit(K, opts, alpha0=2.0 * a0)
        r_scaled = sp.fit(4.0 * K, opts, alpha0=a0)
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
        with pytest.raises(ValidationError, match="alpha0 must have shape"):
            sp.fit(np.eye(3), alpha0=np.ones(2))

    def test_options_hold_the_iteration_settings_only(self):
        names = [f.name for f in dataclasses.fields(sp.SolverOptions)]
        assert names == ["method", "lr", "n_iters", "grad_tol"]

    @pytest.mark.parametrize("kwargs, field", [
        (dict(seed=1.5), "seed"), (dict(seed=1.0), "seed"), (dict(seed=True), "seed"),
        (dict(n_iters=2.5), "n_iters"), (dict(n_iters=True), "n_iters"),
        (dict(n_iters=10.0), "n_iters"),
    ])
    def test_non_integer_seed_or_iteration_count_rejected(self, kwargs, field):
        # the seed of the start is an argument of fit, n_iters a solver option
        with pytest.raises(ValidationError, match=f"{field} must be"):
            if field == "seed":
                sp.fit(np.eye(2), **kwargs)
            else:
                sp.SolverOptions(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(grad_tol=math.nan), "grad_tol"), (dict(grad_tol=math.inf), "grad_tol"),
        (dict(grad_tol=True), "grad_tol"), (dict(grad_tol="x"), "grad_tol"),
        (dict(grad_tol=None), "grad_tol"), (dict(grad_tol=-1e-9), "grad_tol"),
        (dict(lr=True), "lr"), (dict(lr="x"), "lr"), (dict(lr=None), "lr"),
        (dict(lr=math.inf), "lr"),
    ])
    def test_non_real_or_non_finite_setting_rejected(self, kwargs, field):
        # a NaN grad_tol never ends a fit (gnorm < nan is false) and is not JSON
        with pytest.raises(ValidationError, match=f"{field} must be a .* real number"):
            sp.SolverOptions(**kwargs)

    def test_numpy_real_settings_accepted(self):
        opts = sp.SolverOptions(lr=np.float32(0.25), grad_tol=np.int64(0))
        assert opts.lr == np.float32(0.25) and opts.grad_tol == 0

    def test_settings_are_stored_as_python_numbers(self):
        opts = sp.SolverOptions(lr=np.float32(0.25), n_iters=np.int32(7), grad_tol=np.int64(0))
        assert (type(opts.lr), type(opts.n_iters), type(opts.grad_tol)) == (float, int, float)
        assert opts == sp.SolverOptions(lr=0.25, n_iters=7, grad_tol=0.0)
        json.dumps(dataclasses.asdict(opts))

    def test_numpy_integer_seed_and_iteration_count_accepted(self):
        K = _psd_gram(6, seed=12)
        want = sp.fit(K, sp.SolverOptions(n_iters=7, grad_tol=0.0), seed=3)
        got = sp.fit(K, sp.SolverOptions(n_iters=np.int32(7), grad_tol=0.0), seed=np.uint64(3))
        np.testing.assert_array_equal(got.alpha, want.alpha)
        assert got.n_iters_run == 7


def _fit_reference(K, opts, alpha):
    """The fit loop as it stood before the lean rewrite, kept verbatim as an oracle.

    It runs from the start alpha; _start gives the start that fit uses.
    """

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
    alpha = np.asarray(alpha, dtype=float).copy()

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
        f=f,
        objective=float(history[-1]),
        grad_sup_norm=gnorm,
        n_iters_run=it,
        converged=converged,
        clamp_warnings=clamp_warnings,
        objective_history=history,
    )


def _mixed_sign_init(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


def _options_and_start(kwargs):
    """The case's SolverOptions, and the seed= or alpha0= keywords it passes to fit."""
    start = {k: v for k, v in kwargs.items() if k in ("seed", "alpha0")}
    opts = sp.SolverOptions(**{k: v for k, v in kwargs.items() if k not in start})
    return opts, start


def _start(K, start):
    """The start vector fit runs from, given its seed= or alpha0= keywords."""
    if "alpha0" in start:
        return start["alpha0"]
    return _draw_init(K.shape[0], start.get("seed", 0))


# (name, K, solver options plus the seed or alpha0 of the start, what the run must exercise)
_IDENTITY_CASES = [
    ("natural-abs_gaussian-fixed", _psd_gram(20, seed=30),
     dict(method="natural", lr=0.1, n_iters=300, seed=3, grad_tol=0.0), "fixed"),
    ("standard-abs_gaussian-fixed", _psd_gram(20, seed=31),
     dict(method="standard", lr=0.02, n_iters=300, seed=4, grad_tol=0.0), "fixed"),
    ("natural-user-mixed-sign", _psd_gram(16, seed=32),
     dict(method="natural", lr=0.05, n_iters=200,
          alpha0=_mixed_sign_init(16, 33), grad_tol=0.0), "fixed"),
    ("standard-user-mixed-sign", _psd_gram(16, seed=34),
     dict(method="standard", lr=0.02, n_iters=200,
          alpha0=_mixed_sign_init(16, 35), grad_tol=0.0), "fixed"),
    ("natural-converges-early", _psd_gram(8, seed=36),
     dict(method="natural", lr=0.1, n_iters=5000, seed=5, grad_tol=1e-8), "converged"),
    ("standard-converges-early", np.array([[1.0, 0.5], [0.5, 1.0]]),
     dict(method="standard", lr=0.05, n_iters=20000, seed=6, grad_tol=1e-8), "converged"),
    ("natural-clamp", np.eye(4),
     dict(method="natural", lr=0.1, n_iters=50,
          alpha0=np.array([1.0, -2e-13, 5e-13, -0.5]), grad_tol=0.0), "clamped"),
    ("standard-clamp", np.eye(4),
     dict(method="standard", lr=0.1, n_iters=50,
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
        opts, start = _options_and_start(kwargs)
        res, ref = sp.fit(K, opts, **start), _fit_reference(K, opts, _start(K, start))
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
                opts, start = _options_and_start(kwargs)
                res = sp.fit(K, opts, **start)
                assert np.any(K @ res.alpha < -1e-3) and res.clamp_warnings == 0

    @pytest.mark.parametrize("K,kwargs", [
        (_psd_gram(10, seed=14),
         dict(method="standard", lr=1e9, n_iters=200, grad_tol=0.0)),
        (np.eye(3), dict(alpha0=np.array([1.0, 0.0, 2.0]))),
        (np.eye(2), dict(alpha0=np.array([1.0, np.inf]))),
    ], ids=["standard-diverges", "zero-f-at-init", "inf-at-init"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_divergence_identical(self, K, kwargs):
        opts, start = _options_and_start(kwargs)
        with pytest.raises(SolverDivergence) as got:
            sp.fit(K, opts, **start)
        with pytest.raises(SolverDivergence) as want:
            _fit_reference(K, opts, _start(K, start))
        assert str(got.value) == str(want.value)
        assert got.value.iteration == want.value.iteration
        if opts.lr == 1e9:
            assert got.value.iteration >= 1
        else:
            assert got.value.iteration == 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_seeded_start_on_a_zero_row_ends_at_initialization(self, seed):
        # (K alpha)_1 is zero for every start, so no draw can help: the
        # seeded start ends at the loop's one exit, as the same given start does
        K = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(SolverDivergence) as seeded:
            sp.fit(K, seed=seed)
        with pytest.raises(SolverDivergence) as given_start:
            sp.fit(K, alpha0=_draw_init(3, seed))
        assert str(seeded.value) == str(given_start.value) == (
            "objective non-finite at initialization")
        assert seeded.value.iteration == given_start.value.iteration == 0


# One shared K = diag(1, 1, 1, 16).  At lr = 0.25 the standard step is
# Newton's iteration on the first three coordinates (fixed point 0.5) and
# unstable on the fourth, whose fixed point 0.125 is exact: a start that sits
# there stays put, one that does not grows until its objective overflows.
_MANY_K = np.diag([1.0, 1.0, 1.0, 16.0])
_MANY_STARTS = [  # (start, what the standard run must do)
    ([1e100, 1.0, 1.0, 0.125], "fixed"),
    ([2.0, 3.0, 0.7, 0.125], "converged"),
    ([1e-13, 1.0, 1.0, 0.125], "clamped"),
    ([1.0, 1.0, 1.0, 1e30], "diverges"),
    ([1.0, 0.0, 1.0, 0.125], "diverges at init"),
    ([0.5, 0.5, 0.5, 0.125], "converged"),
    ([1.0, 1.0, 1.0, 3.0], "diverges"),
]


class TestFitBatch:
    """fit with a B x N alpha0: every entry is the reference loop's result for its start."""

    @staticmethod
    def _reference(K, start, opts):
        try:
            return _fit_reference(K, opts, start)
        except SolverDivergence as exc:
            return exc

    @staticmethod
    def _assert_same(got, want):
        if isinstance(want, SolverDivergence):
            assert isinstance(got, SolverDivergence)
            assert (str(got), got.iteration) == (str(want), want.iteration)
        else:
            assert isinstance(got, sp.FitResult)
            TestFitMatchesReference._assert_identical(got, want)

    @pytest.mark.parametrize("method", ["standard", "natural"])
    def test_mixed_batch_matches_reference_per_start(self, method):
        opts = sp.SolverOptions(method=method, lr=0.25, n_iters=250, grad_tol=1e-8)
        A0 = np.array([start for start, _ in _MANY_STARTS])
        got = sp.fit(_MANY_K, opts, alpha0=A0)
        assert len(got) == len(_MANY_STARTS)
        for entry, start in zip(got, A0):
            self._assert_same(entry, self._reference(_MANY_K, start, opts))
        if method == "standard":
            for entry, (_, kind) in zip(got, _MANY_STARTS):
                if kind == "fixed":
                    assert entry.n_iters_run == opts.n_iters and not entry.converged
                elif kind == "converged":
                    assert entry.converged and entry.n_iters_run < opts.n_iters
                elif kind == "clamped":
                    assert entry.clamp_warnings > 0 and entry.converged
                elif kind == "diverges":
                    assert 1 <= entry.iteration < opts.n_iters
                else:
                    assert entry.iteration == 0
            diverged_at = {e.iteration for e in got if isinstance(e, SolverDivergence)}
            assert len(diverged_at) == 3  # at init and at two different iterations

    @pytest.mark.parametrize("method,lr", [("natural", 0.05), ("standard", 0.02)])
    def test_dense_gram_batch_matches_reference_per_start(self, method, lr):
        # A dense Gram's batch product is one gemm, whose rows differ from the
        # lone fits' gemvs in the last bits.  With one gemv per start
        # (oracles.per_start_products) each entry is the reference bit for
        # bit; the package's entry keeps the reference's counts, and its alpha,
        # gradient norm and objective history lie within the one-ulp gate's
        # bound of the reference, from the spread of the reference on K and
        # on 8 one-ulp copies of K.
        K = _psd_gram(16, seed=32)
        A0 = np.vstack([np.abs(_mixed_sign_init(16, 40)), _mixed_sign_init(16, 33),
                        _mixed_sign_init(16, 35), _draw_init(16, 5)])
        opts = sp.SolverOptions(method=method, lr=lr, n_iters=200, grad_tol=0.0)
        with oracles.per_start_products():
            per_start = sp.fit(K, opts, alpha0=A0)
        copies = oracles.ulp_copies(K, 8)
        for entry, alone, start in zip(sp.fit(K, opts, alpha0=A0), per_start, A0):
            ref = self._reference(K, start, opts)
            self._assert_same(alone, ref)
            runs = [ref] + [_fit_reference(Kc, opts, start) for Kc in copies]
            assert ((entry.n_iters_run, entry.converged, entry.clamp_warnings)
                    == (ref.n_iters_run, ref.converged, ref.clamp_warnings))
            for name in ("alpha", "grad_sup_norm", "objective_history"):
                got, want = getattr(entry, name), getattr(ref, name)
                width = np.ptp([getattr(r, name) for r in runs], axis=0)
                assert np.all(np.abs(got - want) <= oracles.spread_bound(want, width)), name

    def test_every_start_ending_early_ends_the_loop(self):
        opts = sp.SolverOptions(method="standard", lr=0.25, n_iters=250, grad_tol=1e-8)
        A0 = np.array([[1.0, 0.0, 1.0, 0.125], [2.0, 3.0, 0.7, 0.125], [1.0, 1.0, 1.0, 3.0]])
        for k in range(1, 4):
            for entry, start in zip(sp.fit(_MANY_K, opts, alpha0=A0[:k]), A0):
                self._assert_same(entry, self._reference(_MANY_K, start, opts))

    @pytest.mark.parametrize("method", ["standard", "natural"])
    def test_start_converging_at_the_last_iteration(self, method):
        opts = sp.SolverOptions(method=method, lr=0.25, n_iters=250, grad_tol=1e-8)
        converging = np.array([2.0, 3.0, 0.7, 0.125])
        last = sp.fit(_MANY_K, opts, alpha0=converging)
        opts = dataclasses.replace(opts, n_iters=last.n_iters_run + 1)
        A0 = np.array([[1e100, 1.0, 1.0, 0.125], converging, [1e100, 2.0, 1.0, 0.125]])
        got = sp.fit(_MANY_K, opts, alpha0=A0)
        assert got[1].converged and not got[0].converged and not got[2].converged
        for entry, start in zip(got, A0):
            self._assert_same(entry, self._reference(_MANY_K, start, opts))

    @pytest.mark.parametrize("name,K,kwargs,kind", _IDENTITY_CASES,
                             ids=[c[0] for c in _IDENTITY_CASES])
    def test_one_start_is_fit(self, name, K, kwargs, kind):
        opts, start = _options_and_start(kwargs)
        (got,) = sp.fit(K, opts, alpha0=_start(K, start)[None])
        self._assert_same(got, sp.fit(K, opts, **start))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 200])
    def test_one_start_product_is_the_lone_product(self, n):
        # numpy runs a one-row batch product as a matrix-vector product, so a
        # lone fit, and the last start left in a compacted batch, makes
        # K @ alpha's bits; a larger batch's product comes out in rows
        K = _psd_gram(n, seed=40 + n)
        A = np.random.default_rng(n).standard_normal((5, n))
        for a in A:
            assert np.array_equal(_matvecs(K, a[None]), (K @ a)[None])
        keep = np.array([False, False, True, False, False])
        assert np.array_equal(_matvecs(K, A[keep]), (K @ A[2])[None])
        assert _matvecs(K, A).flags.c_contiguous

    def test_fit_with_a_batch_of_starts_returns_the_batch(self):
        opts = sp.SolverOptions(method="standard", lr=0.25, n_iters=250, grad_tol=1e-8)
        A0 = np.array([start for start, _ in _MANY_STARTS])
        got = sp.fit(_MANY_K, opts, alpha0=A0)
        assert isinstance(got, sp.FitBatch)
        assert len(got) == len(A0)
        for entry, start in zip(got, A0):
            try:
                alone = sp.fit(_MANY_K, opts, alpha0=start)
            except SolverDivergence as exc:
                alone = exc
            self._assert_same(entry, alone)
        finished = [e for e in got if isinstance(e, sp.FitResult)]
        assert 0 < len(finished) < len(got)
        assert got.n_iters_run == sum(e.n_iters_run for e in finished)
        assert got.clamp_warnings == sum(e.clamp_warnings for e in finished) > 0
        assert not got.converged

    def test_batch_summary_fields(self):
        opts = sp.SolverOptions(method="standard", lr=0.25, n_iters=250, grad_tol=1e-8)
        converging = np.array([[2.0, 3.0, 0.7, 0.125], [0.5, 0.5, 0.5, 0.125]])
        got = sp.fit(_MANY_K, opts, alpha0=converging)
        assert got.converged and all(e.converged for e in got)
        assert got.n_iters_run == got[0].n_iters_run + got[1].n_iters_run
        diverged = sp.fit(_MANY_K, opts, alpha0=np.array([[1.0, 1.0, 1.0, 3.0]]))
        assert isinstance(diverged[0], SolverDivergence)
        assert (diverged.n_iters_run, diverged.converged, diverged.clamp_warnings) == (0, False, 0)

    def test_batch_of_starts_with_wrong_n_rejected(self):
        with pytest.raises(ValidationError, match="alpha0 must have shape"):
            sp.fit(_MANY_K, alpha0=np.ones((2, 3)))

    def test_start_rows_are_not_modified(self):
        A0 = np.array([[1.0, 2.0, 0.125, 0.125], [1e-13, 1.0, 1.0, 0.125]])
        before = A0.copy()
        sp.fit(_MANY_K, sp.SolverOptions(method="natural", lr=0.25, n_iters=20), alpha0=A0)
        np.testing.assert_array_equal(A0, before)

    @pytest.mark.parametrize("A0", [np.ones(3), np.array(1.0), np.ones((1, 1, 4)),
                                    np.ones((2, 3)), np.empty((0, 4))],
                             ids=["1-D-wrong-N", "0-D", "3-D", "wrong-N", "no-rows"])
    def test_bad_starts_rejected(self, A0):
        with pytest.raises(ValidationError, match="alpha0 must have shape"):
            sp.fit(_MANY_K, alpha0=A0)

    def test_non_square_gram_rejected(self):
        with pytest.raises(ValidationError, match="K must be square"):
            sp.fit(np.ones((2, 3)), alpha0=np.ones((1, 3)))

    @pytest.mark.parametrize("alpha0", [None, np.ones(0), np.ones((1, 0))])
    def test_empty_gram_rejected(self, alpha0):
        with pytest.raises(ValidationError, match="K must be at least 1x1"):
            sp.fit(np.zeros((0, 0)), alpha0=alpha0)


class TestFitValues:
    """A FitResult's f is K alpha, its row of the loop's last product."""

    @pytest.mark.parametrize("name,K,kwargs,kind", _IDENTITY_CASES,
                             ids=[c[0] for c in _IDENTITY_CASES])
    def test_lone_fit_f_is_the_product(self, name, K, kwargs, kind):
        # seeded and given starts, fixed-length, converged and clamped runs
        opts, start = _options_and_start(kwargs)
        res = sp.fit(K, opts, **start)
        assert np.array_equal(res.f, K @ res.alpha)
        assert res.summary()["rkhs_norm_sq"] == oracles.rkhs_norm_sq(res.alpha, K)

    @pytest.mark.parametrize("method,lr", [("natural", 0.05), ("standard", 0.02)])
    def test_batch_f_within_the_spread_bound(self, method, lr):
        # a batch row differs from K @ alpha in the last bits: held to the
        # one-ulp gate's bound from the spread of K @ alpha over one-ulp copies
        K = _psd_gram(16, seed=32)
        A0 = np.vstack([np.abs(_mixed_sign_init(16, 40)), _mixed_sign_init(16, 33),
                        _draw_init(16, 5)])
        opts = sp.SolverOptions(method=method, lr=lr, n_iters=200, grad_tol=0.0)
        copies = oracles.ulp_copies(K, 8)
        for res in sp.fit(K, opts, alpha0=A0):
            want = K @ res.alpha
            width = np.ptp([want] + [Kc @ res.alpha for Kc in copies], axis=0)
            assert np.all(np.abs(res.f - want) <= oracles.spread_bound(want, width))

    def test_f_is_not_a_view_of_the_batch_product(self):
        A0 = np.array([[1.0, 2.0, 0.125, 0.125], [2.0, 3.0, 0.7, 0.125]])
        got = sp.fit(_MANY_K, sp.SolverOptions(n_iters=3), alpha0=A0)
        assert all(r.f.base is None and r.f.shape == (4,) for r in got)


class TestNegativeWeights:
    def test_summary_counts_negative_weights(self):
        # on the identity the natural step keeps each weight's sign
        alpha0 = np.array([1.0, -2.0, -0.5, 3.0])
        res = sp.fit(np.eye(4), sp.SolverOptions(n_iters=5), alpha0=alpha0)
        count = res.summary()["negative_weights"]
        assert type(count) is int and count == 2 == int(np.sum(res.alpha < 0.0))

    def test_start_dependence_on_criterion_10_data(self):
        # ROADMAP item 16 on criterion 10's seed-0 split, at run_ad's fit
        # settings: 8 starts (streams 0-7) in one batch fit reach one
        # fixed point at a = 6.31, with no negative weight, and different
        # ones at a = 0.1, each with negative weights.
        ds = make_mixture2d(n=2000, outlier_frac=0.05, seed=0)
        X = sp.standardize(*sp.split(ds, 0))[0].X
        a_grid = np.geomspace(1e2, 1e-4, 11)
        opts = sp.SolverOptions(method="natural", lr=0.1, n_iters=500, grad_tol=1e-8)
        starts = np.array([_draw_init(X.shape[0], 0, stream) for stream in range(8)])
        for a, unique in ((a_grid[2], True), (a_grid[5], False)):
            fs = sp.sample_frequencies(sp.SdoParams(a=float(a), d=2), 2048, seed=0)
            batch = sp.fit(oracles.add_jitter(sp.kernel_matrix(X, None, fs)), opts,
                           alpha0=starts)
            objectives = [res.objective for res in batch]
            negative = [res.summary()["negative_weights"] for res in batch]
            spread = max(objectives) - min(objectives)
            if unique:
                assert spread <= 1e-12 and negative == [0] * 8, (a, spread, negative)
            else:
                assert spread > 1e-12 and min(negative) > 0, (a, spread, negative)


class TestRkhsNorm:
    def test_zero_alpha(self):
        assert oracles.rkhs_norm_sq(np.zeros(4), np.eye(4)) == 0.0

    def test_quadratic_scaling(self):
        K = _psd_gram(6, seed=15)
        alpha = np.random.default_rng(16).normal(size=6)
        base = oracles.rkhs_norm_sq(alpha, K)
        np.testing.assert_allclose(oracles.rkhs_norm_sq(3.0 * alpha, K), 9.0 * base, rtol=1e-12)


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
        assert np.all(oracles.evaluate_density(m, Y) >= 0.0)

    def test_train_density_matches_gram(self, model):
        m, X = model
        Phi = sp.feature_map(X, m.fs)
        K = oracles.add_jitter(0.5 * (Phi @ Phi.T + (Phi @ Phi.T).T))
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
        opts = sp.SolverOptions(n_iters=4000, grad_tol=1e-12)
        m0 = sp.fit_model(X, params, T=512, seed=8, opts=opts)
        m1 = sp.fit_model(X, params, T=512, seed=8, opts=opts, exact_normalization=True)
        d0, d1 = m0.density(q), m1.density(q)
        np.testing.assert_array_equal(np.argsort(d0), np.argsort(d1))
        ratio = d1 / d0
        assert np.ptp(ratio) / ratio.mean() < 1e-9

    @pytest.mark.parametrize("exact_normalization", [False, True])
    def test_alpha_equals_fit_on_symmetrized_gram(self, exact_normalization):
        X = np.random.default_rng(41).normal(size=(60, 2))
        params = sp.SdoParams(a=0.5, d=2)
        # the one seed draws both the frequencies and the start
        opts = sp.SolverOptions(n_iters=300)
        m = sp.fit_model(X, params, T=256, seed=4, opts=opts,
                         exact_normalization=exact_normalization)
        Phi = sp.feature_map(X, m.fs, exact_normalization)
        K = Phi @ Phi.T
        ref = sp.fit(oracles.add_jitter(0.5 * (K + K.T)), opts, seed=4)
        assert np.array_equal(m.alpha, ref.alpha)

    def test_f_and_grad_consistent_with_density(self, model):
        m, _ = model
        rng = np.random.default_rng(21)
        Y = rng.normal(size=(10, 2))
        f, _ = m.f_and_grad(Y)
        assert np.array_equal(f, m.f_values(Y))
        assert np.array_equal(f * f, m.density(Y))

    @pytest.mark.parametrize("n", [1, 7, 192, 601])
    @pytest.mark.parametrize("squared", [True, False])
    def test_density_and_score_batch_read_one_f(self, n, squared):
        # f_values and f_and_grad form f from the same cosines in the same
        # order, so density and score_batch agree bit for bit
        rng = np.random.default_rng(22)
        X = rng.normal(size=(40, 2))
        fs = sp.sample_frequencies(sp.SdoParams(a=1e-3, d=2), 333, seed=6)
        m = (sp.fit_model(X, fs.base_params, T=333, seed=6, opts=sp.SolverOptions(n_iters=30))
             if squared else SdoKdeModel(X, fs))
        Y = rng.normal(size=(n, 2)) * 3.0
        _, f = m.score_batch(Y)
        assert np.array_equal(m.f_values(Y), f)
        assert np.array_equal(m.density(Y), f * f if squared else f)

    @pytest.mark.parametrize("a, T, d, exact_normalization, spread", [
        (0.5, 256, 2, False, 1.0),
        (1e-4, 2048, 2, False, 1.0),  # large frequencies, phases up to about 1e3
        (1e-4, 2048, 2, True, 30.0),
        (1.0, 512, 3, False, 100.0),
    ])
    def test_f_and_grad_within_rounding_of_cos_and_sin(self, a, T, d, exact_normalization,
                                                        spread):
        rng = np.random.default_rng(2102)
        X = rng.normal(size=(40, d))
        m = sp.fit_model(X, sp.SdoParams(a=a, d=d), T=T, seed=3,
                         opts=sp.SolverOptions(n_iters=100),
                         exact_normalization=exact_normalization)
        oracles.assert_f_and_grad_within_rounding(m, rng.normal(size=(64, d)) * spread)


class TestFAndGradMemory:
    def test_peak_holds_two_phase_arrays(self):
        # the phases U and one second array: the cosines in the second, the
        # sines and then sin * w in U itself; three arrays read 3.0 n T 8 bytes
        n, T = 192, 2048
        rng = np.random.default_rng(2103)
        m = sp.fit_model(rng.normal(size=(20, 2)), sp.SdoParams(a=0.5, d=2), T=T, seed=7,
                         opts=sp.SolverOptions(n_iters=5))
        Y = rng.normal(size=(n, 2))
        tracemalloc.start()
        try:
            m.f_and_grad(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * T * 8


class TestFitModelInputs:
    @pytest.mark.parametrize("T", [2.5, True])
    def test_non_integer_T_rejected(self, T):
        with pytest.raises(ValidationError, match="T must be a positive integer"):
            sp.fit_model(np.zeros((3, 1)), sp.SdoParams(a=1.0, d=1), T=T, seed=0)


class TestFitModelMemory:
    @staticmethod
    def _peak(N, T, data_seed, seed):
        """tracemalloc's peak over one fit_model on N points with T features."""
        X = np.random.default_rng(data_seed).normal(size=(N, 2))
        params = sp.SdoParams(a=0.5, d=2)
        sp.sample_frequencies(params, T, seed=seed)  # builds the cached radial grid
        tracemalloc.start()
        try:
            sp.fit_model(X, params, T=T, seed=seed, opts=sp.SolverOptions(n_iters=20))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_holds_one_gram_matrix(self):
        # N > T, so the N x N Gram dominates the N x T features; a jittered
        # copy of the Gram would put the peak at about Phi + 2 K.
        N, T = 600, 128
        phi_bytes, gram_bytes = N * T * 8, N * N * 8
        assert self._peak(N, T, data_seed=42, seed=5) < phi_bytes + 1.5 * gram_bytes

    def test_peak_holds_one_feature_matrix(self):
        # T > N, so the N x T features dominate; computing the cosines into a
        # second array would put the peak at about 2 Phi.
        N, T = 200, 2048
        assert self._peak(N, T, data_seed=43, seed=6) < 1.5 * N * T * 8


class TestSerialization:
    def test_roundtrip_reproduces_evaluations(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(20, 3))
        m = sp.fit_model(X, sp.SdoParams(a=1.0, d=3, m=2), T=128, seed=23)
        back = sp.model_from_json(sp.model_to_json(m, run_config={"note": "x"}))
        Y = rng.normal(size=(7, 3))
        np.testing.assert_array_equal(back.f_values(Y), m.f_values(Y))
        np.testing.assert_array_equal(back.alpha, m.alpha)
        assert back.fit_info == m.fit_info

    def test_record_shape(self):
        X = np.zeros((2, 1))
        m = sp.fit_model(X, sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        assert rec["kind"] == "sosrep_model"
        for key in ("format_version", "seed", "T", "params", "alpha",
                    "feature_weights"):
            assert key in rec
        assert "train_data_hash" not in rec

    def test_record_with_a_data_hash_still_loads(self):
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        rec["train_data_hash"] = "0" * 64
        back = sp.model_from_json(json.dumps(rec))
        np.testing.assert_array_equal(back.alpha, m.alpha)

    def test_roundtrip_keeps_unsquared_flag(self):
        rng = np.random.default_rng(24)
        fs = sp.sample_frequencies(sp.SdoParams(a=0.5, d=2), 64, 25)
        m = SdoKdeModel(rng.normal(size=(15, 2)), fs)
        back = sp.model_from_json(sp.model_to_json(m))
        assert back.squared is False
        Y = rng.normal(size=(6, 2))
        np.testing.assert_array_equal(back.density(Y), m.density(Y))

    def test_record_without_squared_loads_squared(self):
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        assert rec["squared"] is True
        del rec["squared"]
        assert sp.model_from_json(json.dumps(rec)).squared is True

    def test_rejects_wrong_kind_and_malformed(self):
        with pytest.raises(ValidationError):
            sp.model_from_json(json.dumps({"kind": "other"}))
        with pytest.raises(ValidationError):
            sp.model_from_json("{not json")
        with pytest.raises(ValidationError):
            sp.model_from_json(json.dumps({"kind": "sosrep_model"}))  # missing fields
        with pytest.raises(ValidationError, match="malformed model record: expected a JSON"):
            sp.model_from_json("[]")
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        good = json.loads(sp.model_to_json(m))
        for key, value in [("T", "abc"), ("T", 8.0), ("seed", 1.5), ("seed", True)]:
            with pytest.raises(ValidationError, match=f"malformed model record: {key} must be"):
                sp.model_from_json(json.dumps({**good, key: value}))

    @pytest.mark.parametrize("key, value, field", [
        ("a", "x", "smoothness a"), ("a", True, "smoothness a"), ("a", None, "smoothness a"),
        ("d", True, "dimension d"), ("d", 1.0, "dimension d"), ("d", "1", "dimension d"),
        ("m", True, "derivative order m"), ("m", 1.5, "derivative order m"),
    ])
    def test_bad_params_rejected_naming_the_field(self, key, value, field):
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        rec["params"][key] = value
        with pytest.raises(ValidationError, match=field):
            sp.model_from_json(json.dumps(rec))

    def test_integer_a_and_missing_m_still_load(self):
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        rec["params"].update(a=1, m=None)
        back = sp.model_from_json(json.dumps(rec))
        assert (back.fs.base_params.a, back.fs.base_params.m) == (1.0, 1)
        np.testing.assert_array_equal(back.f_values(np.ones((3, 1))), m.f_values(np.ones((3, 1))))

    def test_feature_weights_of_wrong_length_rejected(self):
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        rec["feature_weights"] = rec["feature_weights"][:-1]
        with pytest.raises(ValidationError, match="feature_weights has 7 entries"):
            sp.model_from_json(json.dumps(rec))

    @pytest.mark.parametrize("field", ["squared", "kernel_scale_flag"])
    @pytest.mark.parametrize("value", ["false", "no", [0], 2, 0, None])
    def test_non_boolean_flag_rejected_naming_the_field(self, field, value):
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        rec[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be a JSON boolean"):
            sp.model_from_json(json.dumps(rec))

    @pytest.mark.parametrize("value", [[], "x", 1, None])
    def test_fit_info_must_be_an_object(self, value):
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        rec["fit_info"] = value
        with pytest.raises(ValidationError, match="fit_info must be a JSON object"):
            sp.model_from_json(json.dumps(rec))

    def test_record_without_fit_info_loads(self):
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        del rec["fit_info"]
        assert sp.model_from_json(json.dumps(rec)).fit_info == {}

    def test_fit_info_without_negative_weights_loads(self):
        # records written before the summary counted negative weights
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        assert rec["fit_info"]["negative_weights"] == int(np.sum(m.alpha < 0.0))
        del rec["fit_info"]["negative_weights"]
        back = sp.model_from_json(json.dumps(rec))
        assert back.fit_info == rec["fit_info"]
        np.testing.assert_array_equal(back.alpha, m.alpha)

    @pytest.mark.parametrize("field", ["alpha", "feature_weights"])
    @pytest.mark.parametrize("value", ["abc", ["x"] * 8, [[1.0]] * 8, [None] * 8, 1.0])
    def test_non_numeric_vector_rejected(self, field, value):
        m = sp.fit_model(np.zeros((2, 1)), sp.SdoParams(a=1.0, d=1, m=1), T=8, seed=0)
        rec = json.loads(sp.model_to_json(m))
        rec[field] = value
        with pytest.raises(ValidationError, match=field):
            sp.model_from_json(json.dumps(rec))


class TestHelpers:
    def test_add_jitter_touches_diagonal_only(self):
        K = np.arange(9.0).reshape(3, 3)
        J = oracles.add_jitter(K)
        np.testing.assert_allclose(np.diag(J) - np.diag(K), np.full(3, 1e-10 * 4.0))
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_array_equal(J[off], K[off])


class TestModelQueryDimension:
    def test_wrong_dimension_query_is_validation_error(self):
        rng = np.random.default_rng(40)
        model = sp.fit_model(rng.normal(size=(12, 2)), sp.SdoParams(a=0.5, d=2), T=64,
                             seed=1, opts=sp.SolverOptions(n_iters=20))
        Y = rng.normal(size=(3, 3))
        with pytest.raises(ValidationError):
            model.f_and_grad(Y)
        with pytest.raises(ValidationError):
            oracles.laplacian_f(model, Y)
