"""Tests for scores, Hutchinson traces, the FD statistic, and tuning."""

import math

import numpy as np
import pytest

import sosrep as sp
from sosrep.errors import (
    AllCandidatesFailed,
    NumericsError,
    ValidationError,
    VanishingDensity,
)
from sosrep.harness import ClosedFormRepresenterModel, SdoKdeModel
from sosrep.score_fd import (
    _DENSITY_FLOOR,
    _THREE_POINT_CORRECTION,
    FdEntry,
    FdStat,
    _draw_probes,
    _probe_plan,
    profile_from_csv,
    profile_to_csv,
    selection_kind,
    write_atomic,
)
from sosrep.sdo_kernel import rng_from_seed

import oracles


def _fit_toy_model(seed=0, n=40, d=2, a=0.7, T=256):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    params = sp.SdoParams(a=a, d=d)
    return sp.fit_model(X, params, T=T, seed=seed + 1,
                        opts=sp.SolverOptions(n_iters=1500, grad_tol=1e-10))


def _cosine_model(Z, b, weights, d):
    """Hand-built feature-space model f(x) = cos(x Z^T + b) @ w / sqrt(T)."""
    Z = np.asarray(Z, dtype=float)
    fs = sp.FrequencySample(Z=Z, b=np.asarray(b, dtype=float), T=Z.shape[0],
                            seed=0, base_params=sp.SdoParams(a=1.0, d=d, m=d // 2 + 1))
    return sp.FittedModel(alpha=np.asarray(weights, dtype=float), fs=fs,
                          feature_weights=np.asarray(weights, dtype=float))


class TestScore:
    def test_matches_log_density_gradient(self):
        model = _fit_toy_model()
        x = np.array([0.4, -0.3])
        s = sp.score(model, x)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            num = (
                math.log(model.density(x + e)[0]) - math.log(model.density(x - e)[0])
            ) / (2 * h)
            assert abs(s[j] - num) < 1e-5

    def test_constant_feature_gives_zero_score(self):
        # a single zero frequency makes f constant, so the score vanishes
        model = _cosine_model(Z=np.zeros((1, 2)), b=[0.0], weights=[1.0], d=2)
        s = sp.score(model, [1.3, -2.2])
        np.testing.assert_array_equal(s, [0.0, 0.0])

    def test_antisymmetric_for_even_f(self):
        # with all phases zero, f is even, so the score is odd
        rng = np.random.default_rng(2)
        model = _cosine_model(Z=rng.normal(size=(32, 1)), b=np.zeros(32),
                              weights=rng.normal(size=32), d=1)
        x = np.array([0.37])
        np.testing.assert_allclose(sp.score(model, -x), -sp.score(model, x), atol=1e-12)

    def test_vanishing_density_raises(self):
        model = _cosine_model(Z=np.ones((1, 1)), b=[0.0], weights=[0.0], d=1)
        with pytest.raises(VanishingDensity):
            sp.score(model, [0.0])


class TestHutchinsonTrace:
    def test_linear_isotropic_score_is_exact(self):
        # s(x) = -x has Jacobian -I; Rademacher probes are exact for diagonals
        opts = sp.FdOptions(n_fd_iters=200, h=1e-4, seed=4)
        est = oracles.hutchinson_trace(lambda x: -x, np.zeros(3), opts)
        np.testing.assert_allclose(est, -3.0, rtol=1e-10)

    def test_linear_diagonal_score_is_exact(self):
        A = np.diag([1.0, 2.0, 3.0])
        opts = sp.FdOptions(n_fd_iters=50, h=1e-4, seed=4)
        est = oracles.hutchinson_trace(lambda x: A @ x, np.zeros(3), opts)
        np.testing.assert_allclose(est, 6.0, rtol=1e-10)

    def test_three_point_probe_unbiased_after_correction(self):
        A = np.diag([1.0, 2.0, 3.0])
        opts = sp.FdOptions(n_fd_iters=200, h=1e-4, seed=4, probe="paper_three_point")
        est = oracles.hutchinson_trace(lambda x: A @ x, np.zeros(3), opts)
        np.testing.assert_allclose(est, 6.0, rtol=0.03)

    def test_single_probe_deterministic(self):
        opts = sp.FdOptions(n_fd_iters=1, h=1e-4, seed=9)
        f = lambda x: np.sin(x)
        e1 = oracles.hutchinson_trace(f, np.array([0.2, 0.4]), opts)
        e2 = oracles.hutchinson_trace(f, np.array([0.2, 0.4]), opts)
        assert e1 == e2

    def test_row_index_changes_probes(self):
        opts = sp.FdOptions(n_fd_iters=3, h=1e-4, seed=9, probe="paper_three_point")
        f = lambda x: np.sin(3 * x) * x
        e1 = oracles.hutchinson_trace(f, np.array([0.2, 0.4]), opts, row_index=0)
        e2 = oracles.hutchinson_trace(f, np.array([0.2, 0.4]), opts, row_index=1)
        assert e1 != e2

    def test_matches_analytic_jacobian_trace(self):
        model = _fit_toy_model(seed=5)
        x = np.array([0.1, 0.6])
        analytic = oracles.score_jacobian_trace(model, x)
        opts = sp.FdOptions(n_fd_iters=400, h=1e-5, seed=0)
        est = oracles.hutchinson_trace(lambda y: sp.score(model, y), x, opts)
        np.testing.assert_allclose(est, analytic, rtol=0.05)

    def test_matches_analytic_jacobian_trace_unsquared(self):
        # an unsquared model's score is grad f / f, half the squared factor
        X = np.random.default_rng(6).normal(size=(200, 2))
        model = SdoKdeModel(X, sp.sample_frequencies(sp.SdoParams(a=0.5, d=2), 512, 7))
        x = np.array([0.3, -0.2])
        analytic = oracles.score_jacobian_trace(model, x)
        opts = sp.FdOptions(n_fd_iters=2000, h=1e-5, seed=0)
        est = oracles.hutchinson_trace(lambda y: sp.score(model, y), x, opts)
        np.testing.assert_allclose(est, analytic, rtol=0.05)

    def test_options_validation(self):
        with pytest.raises(ValidationError):
            sp.FdOptions(n_fd_iters=0)
        with pytest.raises(ValidationError):
            sp.FdOptions(h=0.0)
        with pytest.raises(ValidationError):
            sp.FdOptions(probe="gaussian")

    @pytest.mark.parametrize("h", [True, "x", None, math.nan, math.inf])
    def test_non_real_or_non_finite_step_rejected(self, h):
        with pytest.raises(ValidationError, match="h must be a positive finite real number"):
            sp.FdOptions(h=h)

    def test_numpy_real_step_accepted(self):
        assert sp.FdOptions(h=np.float32(1e-3)).h == np.float32(1e-3)

    @pytest.mark.parametrize("n_fd_iters", [2.5, 3.0, True])
    def test_non_integer_probe_count_rejected(self, n_fd_iters):
        with pytest.raises(ValidationError, match="n_fd_iters must be a positive integer"):
            sp.FdOptions(n_fd_iters=n_fd_iters)


class TestFdStatistic:
    def test_zero_score_model_gives_zero(self):
        model = _cosine_model(Z=np.zeros((1, 2)), b=[0.0], weights=[1.0], d=2)
        stat = sp.fd_statistic(model, np.zeros((4, 2)), sp.FdOptions(n_fd_iters=5))
        assert stat.value == 0.0
        assert stat.retained_rows == 4 and stat.skipped_rows == 0

    def test_vanishing_rows_are_skipped_and_counted(self):
        # f(x) = cos(x) vanishes at pi/2; the surviving row has s = -2 tan x
        model = _cosine_model(Z=np.ones((1, 1)), b=[0.0], weights=[1.0], d=1)
        Y = np.array([[0.0], [math.pi / 2.0]])
        stat = sp.fd_statistic(model, Y, sp.FdOptions(n_fd_iters=20, h=1e-4, seed=1))
        assert stat.retained_rows == 1 and stat.skipped_rows == 1
        np.testing.assert_allclose(stat.value, -2.0, atol=1e-6)

    def test_all_rows_vanishing_raises(self):
        model = _cosine_model(Z=np.ones((1, 1)), b=[0.0], weights=[1.0], d=1)
        with pytest.raises(NumericsError):
            sp.fd_statistic(model, np.array([[math.pi / 2.0]]), sp.FdOptions(n_fd_iters=3))

    def test_empty_rows_rejected(self):
        model = _cosine_model(Z=np.zeros((1, 1)), b=[0.0], weights=[1.0], d=1)
        with pytest.raises(ValidationError):
            sp.fd_statistic(model, np.zeros((0, 1)), sp.FdOptions())

    def test_deterministic(self):
        model = _fit_toy_model(seed=6)
        Y = np.random.default_rng(7).normal(size=(12, 2))
        opts = sp.FdOptions(n_fd_iters=10, h=1e-4, seed=3)
        s1 = sp.fd_statistic(model, Y, opts)
        s2 = sp.fd_statistic(model, Y, opts)
        assert s1 == s2

    def test_invariant_to_density_scale(self):
        # scores ignore normalization; a power-of-two weight scale is bit-exact
        model = _fit_toy_model(seed=8)
        scaled = sp.FittedModel(
            alpha=model.alpha, fs=model.fs,
            feature_weights=4.0 * model.feature_weights,
        )
        Y = np.random.default_rng(9).normal(size=(10, 2))
        opts = sp.FdOptions(n_fd_iters=8, h=1e-4, seed=2)
        assert sp.fd_statistic(model, Y, opts) == sp.fd_statistic(scaled, Y, opts)

    def test_prefers_matched_smoothness(self):
        # on standard normal data the FD statistic ranks a sane bandwidth
        # far below a grossly oversmoothed one
        rng = np.random.default_rng(10)
        X, Y = rng.normal(size=(200, 1)), rng.normal(size=(100, 1))
        opts = sp.FdOptions(n_fd_iters=30, h=1e-4, seed=0)
        fds = {}
        for a in (0.1, 100.0):
            m = sp.fit_model(X, sp.SdoParams(a=a, d=1, m=1), T=512, seed=11,
                             opts=sp.SolverOptions(n_iters=800))
            fds[a] = sp.fd_statistic(m, Y, opts).value
        assert fds[0.1] < fds[100.0]


def _fd_statistic_reference(model, Y, opts):
    """fd_statistic as one model call per probe: the oracle for the
    distinct-probe evaluation, which must reproduce it bit for bit."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n_rows, d = Y.shape
    if n_rows < 1:
        raise ValidationError("fd_statistic requires at least one test row")
    S0, f0 = model.score_batch(Y)
    ok = np.abs(f0) >= _DENSITY_FLOOR

    eps = np.empty((n_rows, opts.n_fd_iters, d))
    for i in range(n_rows):
        eps[i] = _draw_probes(rng_from_seed(opts.seed, i), opts.n_fd_iters, d, opts.probe)

    trace_acc = np.zeros(n_rows)
    for j in range(opts.n_fd_iters):
        E = eps[:, j, :]
        Sj, fj = model.score_batch(Y + opts.h * E)
        ok &= np.abs(fj) >= _DENSITY_FLOOR
        with np.errstate(invalid="ignore"):
            trace_acc += np.einsum("md,md->m", Sj - S0, E)
    trace = trace_acc / (opts.n_fd_iters * opts.h)
    if opts.probe == "paper_three_point":
        trace *= _THREE_POINT_CORRECTION

    with np.errstate(invalid="ignore"):
        vals = trace + 0.5 * np.einsum("md,md->m", S0, S0)
    ok &= np.isfinite(vals)
    retained = int(ok.sum())
    if retained == 0:
        raise NumericsError("all rows skipped: the density vanishes at every test row")
    return FdStat(
        value=float(np.mean(vals[ok])),
        retained_rows=retained,
        skipped_rows=int(n_rows - retained),
    )


def _backend_model(backend, d, seed=40):
    rng = np.random.default_rng(seed + d)
    X = rng.normal(size=(30, d))
    params = sp.SdoParams(a=0.7, d=d)
    if backend == "sdo_squared":
        return sp.fit_model(X, params, T=128, seed=seed,
                            opts=sp.SolverOptions(n_iters=100))
    if backend == "sdo_kde":
        return SdoKdeModel(X, sp.sample_frequencies(params, 128, seed))
    kernel = sp.ClosedFormKernel(family=backend, sigma=0.8, d=d)
    return ClosedFormRepresenterModel(X, rng.random(30), kernel, squared=True)


class TestFdStatisticDistinctProbes:
    @pytest.mark.parametrize("backend", ["sdo_squared", "sdo_kde", "gaussian", "laplacian"])
    @pytest.mark.parametrize("probe", ["rademacher", "paper_three_point"])
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_equals_one_call_per_probe(self, backend, probe, d):
        model = _backend_model(backend, d)
        Y = np.random.default_rng(41 + d).normal(size=(17, d))
        opts = sp.FdOptions(n_fd_iters=25, h=1e-4, probe=probe, seed=3)
        assert sp.fd_statistic(model, Y, opts) == _fd_statistic_reference(model, Y, opts)

    @pytest.mark.parametrize("probe", ["rademacher", "paper_three_point"])
    def test_vanishing_rows_match_one_call_per_probe(self, probe):
        model = _cosine_model(Z=np.ones((1, 1)), b=[0.0], weights=[1.0], d=1)
        Y = np.array([[0.0], [math.pi / 2.0], [0.3]])
        opts = sp.FdOptions(n_fd_iters=20, h=1e-4, probe=probe, seed=1)
        stat = sp.fd_statistic(model, Y, opts)
        assert stat == _fd_statistic_reference(model, Y, opts)
        assert stat.skipped_rows == 1


def _counting_draws(monkeypatch):
    """Record the (n, d, probe) of every _draw_probes call: one per plan row."""
    drawn = []
    draw = sp.score_fd._draw_probes
    monkeypatch.setattr(sp.score_fd, "_draw_probes",
                        lambda *args: drawn.append(args[1:]) or draw(*args))
    return drawn


def _gaussian_fit_fn(X):
    def fit_fn(sigma):
        kernel = sp.ClosedFormKernel(family="gaussian", sigma=sigma, d=X.shape[1])
        return ClosedFormRepresenterModel(X, np.full(len(X), 1.0 / len(X)), kernel,
                                          squared=False)
    return fit_fn


class TestProbePlan:
    def test_calls_after_a_first_call_equal_one_call_per_probe(self):
        Y = np.random.default_rng(50).normal(size=(11, 2))
        base = sp.FdOptions(n_fd_iters=25, h=1e-4, probe="rademacher", seed=3)
        model = _backend_model("gaussian", 2)
        sp.fd_statistic(model, Y, base)
        cases = [
            (model, Y, base),
            (model, Y, sp.FdOptions(n_fd_iters=25, h=1e-4, probe="rademacher", seed=4)),
            (model, Y, sp.FdOptions(n_fd_iters=25, h=1e-4, probe="paper_three_point", seed=3)),
            (model, Y, sp.FdOptions(n_fd_iters=24, h=1e-4, probe="rademacher", seed=3)),
            (model, Y[:7], base),
            (_backend_model("gaussian", 3), np.random.default_rng(51).normal(size=(11, 3)), base),
        ]
        for m, rows, opts in cases:
            assert sp.fd_statistic(m, rows, opts) == _fd_statistic_reference(m, rows, opts)

    def test_tune_draws_one_plan_for_all_candidates_and_drops_it(self, monkeypatch):
        Y = np.random.default_rng(52).normal(size=(9, 2))
        opts = sp.FdOptions(n_fd_iters=10, seed=7)
        X = np.random.default_rng(53).normal(size=(20, 2))
        drawn = _counting_draws(monkeypatch)
        _, profile = sp.tune(np.geomspace(5.0, 0.05, 9), _gaussian_fit_fn(X), Y, opts)
        assert len(profile) > 1
        assert drawn == [(10, 2, "rademacher")] * len(Y)  # one row of probes each, once

    def test_nested_sweeps_each_draw_one_plan(self, monkeypatch):
        # the outer sweep's second fit runs a whole inner sweep on other rows
        # with another seed; neither sweep redraws its plan
        rng = np.random.default_rng(54)
        X, Y_out, Y_in = rng.normal(size=(20, 2)), rng.normal(size=(9, 2)), rng.normal(size=(6, 2))
        grid = np.geomspace(5.0, 0.05, 9)
        outer_opts = sp.FdOptions(n_fd_iters=10, seed=7)
        inner_opts = sp.FdOptions(n_fd_iters=10, seed=8)
        outer_fit = _gaussian_fit_fn(X)
        solo_outer = sp.tune(grid, outer_fit, Y_out, outer_opts)
        solo_inner = sp.tune(grid, outer_fit, Y_in, inner_opts)

        inner = []

        def fit_fn(sigma):
            if len(inner) == 0 and sigma == grid[1]:
                inner.append(sp.tune(grid, outer_fit, Y_in, inner_opts))
            return outer_fit(sigma)

        drawn = _counting_draws(monkeypatch)
        nested_outer = sp.tune(grid, fit_fn, Y_out, outer_opts)
        assert len(inner) == 1
        assert drawn == [(10, 2, "rademacher")] * (9 + 6)
        for got, want in ((nested_outer, solo_outer), (inner[0], solo_inner)):
            assert got[0] == want[0] and got[1] == want[1]

    def test_plan_drawn_for_other_options_or_rows_rejected(self):
        model = _backend_model("gaussian", 2)
        Y = np.random.default_rng(55).normal(size=(6, 2))
        opts = sp.FdOptions(n_fd_iters=8, seed=1)
        plan = _probe_plan(opts, 6, 2)
        assert sp.fd_statistic(model, Y, opts, plan) == sp.fd_statistic(model, Y, opts)
        for other, rows in [(sp.FdOptions(n_fd_iters=8, seed=2), Y),
                            (sp.FdOptions(n_fd_iters=8, seed=1, probe="paper_three_point"), Y),
                            (sp.FdOptions(n_fd_iters=8, seed=1, h=1e-3), Y),
                            (sp.FdOptions(n_fd_iters=9, seed=1), Y),
                            (opts, Y[:5]),
                            (opts, np.zeros((6, 3)))]:
            with pytest.raises(ValidationError, match="probe plan drawn for"):
                sp.fd_statistic(model, rows, other, plan)

    def test_tune_rejects_empty_rows_before_any_fit(self):
        fits = []
        with pytest.raises(ValidationError, match="requires at least one test row"):
            sp.tune(np.geomspace(5.0, 0.05, 7), fits.append, np.zeros((0, 2)))
        assert fits == []


class _HoleModel:
    """s(y) = -2 y and f = 1, except f = 1e-13, below the density floor, where
    y_0 > 1, and a NaN score where y_1 > 2 or an infinite one where y_1 < -2."""

    def score_batch(self, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        S, f = -2.0 * Y, np.ones(len(Y))
        f[Y[:, 0] > 1.0] = 1e-13
        S[Y[:, 1] > 2.0] = np.nan
        S[Y[:, 1] < -2.0, 0] = np.inf
        return S, f


class TestLoopOracles:
    """The sort-numbered plan and the one-pass gather equal the loops they
    replaced (tests/oracles.py) bit for bit."""

    @pytest.mark.parametrize("n_fd_iters", [1, 3, 25, 100])
    @pytest.mark.parametrize("probe", ["rademacher", "paper_three_point"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13])
    def test_plan_equals_the_loops(self, d, probe, n_fd_iters):
        opts = sp.FdOptions(n_fd_iters=n_fd_iters, probe=probe, seed=5)
        plan = _probe_plan(opts, 23, d)
        drawn = [_draw_probes(rng_from_seed(opts.seed, i), n_fd_iters, d, probe)
                 for i in range(23)]
        assert plan.eps.dtype == np.int8 and np.array_equal(plan.eps, np.stack(drawn))
        slot, first = oracles.distinct_probes(plan.eps)
        for got, want in ((plan.slot, slot), (plan.first, first)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n_fd_iters", [1, 3, 25, 100])
    @pytest.mark.parametrize("probe", ["rademacher", "paper_three_point"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13])
    def test_statistic_equals_the_probe_by_probe_gather(self, d, probe, n_fd_iters):
        model = _backend_model("gaussian", d)
        Y = np.random.default_rng(60 + d).normal(size=(11, d))
        opts = sp.FdOptions(n_fd_iters=n_fd_iters, h=1e-4, probe=probe, seed=3)
        assert sp.fd_statistic(model, Y, opts) == oracles.fd_statistic_probe_by_probe(
            model, Y, opts)

    def test_rows_with_a_single_distinct_probe(self):
        # row 0 repeats one probe, row 1 two, row 2 starts with a repeat, and
        # row 3 holds all 27 three-point probes of d = 3 twice
        grid = np.array(np.meshgrid(*[[-1, 0, 1]] * 3, indexing="ij")).reshape(3, -1).T
        eps = np.zeros((4, 54, 3), dtype=np.int8)
        eps[0] = [1, -1, 0]
        eps[1, ::2], eps[1, 1::2] = [0, 0, 1], [-1, -1, -1]
        eps[2] = grid[np.random.default_rng(61).integers(0, 27, 54)]
        eps[2, :3] = eps[2, 0]
        eps[3] = np.vstack([grid[::-1], grid])
        slot, first = sp.score_fd._distinct_probes(eps)
        want_slot, want_first = oracles.distinct_probes(eps)
        assert np.array_equal(slot, want_slot) and np.array_equal(first, want_first)
        assert (slot[0] == 0).all() and first.shape == (4, 27)
        assert (first[0] == 0).all() and first[1, :2].tolist() == [0, 1]

    @pytest.mark.parametrize("n_fd_iters", [1, 3, 25])
    @pytest.mark.parametrize("probe", ["rademacher", "paper_three_point"])
    def test_rows_with_non_finite_scores_or_f_below_the_floor(self, probe, n_fd_iters):
        # row 1 falls below f's floor at a probe with a positive first
        # coordinate, row 2 lies below it, row 3 scores NaN and row 4 inf;
        # rows 0 and 5 are retained
        Y = np.array([[0.0, 0.0], [1.0 - 0.5e-4, 0.0], [2.0, 0.5], [0.0, 2.5],
                      [0.0, -2.5], [0.3, -0.1]])
        opts = sp.FdOptions(n_fd_iters=n_fd_iters, h=1e-4, probe=probe, seed=2)
        stat = sp.fd_statistic(_HoleModel(), Y, opts)
        assert stat == oracles.fd_statistic_probe_by_probe(_HoleModel(), Y, opts)
        assert stat == _fd_statistic_reference(_HoleModel(), Y, opts)
        assert stat.retained_rows + stat.skipped_rows == 6 and stat.skipped_rows >= 3


class _RecordingModel:
    """Passes score_batch through and records the row count of each call."""

    def __init__(self, model):
        self.model = model
        self.rows = []

    def score_batch(self, Y):
        self.rows.append(len(Y))
        return self.model.score_batch(Y)


def _most_distinct_probes(n_rows, d, opts):
    return max(
        len(np.unique(_draw_probes(rng_from_seed(opts.seed, i), opts.n_fd_iters, d, opts.probe),
                      axis=0))
        for i in range(n_rows)
    )


class TestFdStatisticCallShape:
    def _calls(self, d, opts, n_rows=9):
        model = _RecordingModel(_LinearScoreModel(1.0))
        sp.fd_statistic(model, np.random.default_rng(42).normal(size=(n_rows, d)), opts)
        assert model.rows == [n_rows] * len(model.rows)
        return len(model.rows)

    @pytest.mark.parametrize("probe", ["rademacher", "paper_three_point"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_call_per_round_of_distinct_probes(self, probe, d):
        opts = sp.FdOptions(n_fd_iters=25, probe=probe, seed=5)
        assert self._calls(d, opts) == 1 + _most_distinct_probes(9, d, opts)

    def test_one_dimensional_rademacher_makes_three_calls(self):
        assert self._calls(1, sp.FdOptions(n_fd_iters=100, seed=0)) == 3

    @pytest.mark.parametrize("probe", ["rademacher", "paper_three_point"])
    def test_never_more_calls_than_one_per_probe(self, probe):
        opts = sp.FdOptions(n_fd_iters=20, probe=probe, seed=6)
        assert self._calls(13, opts) <= 1 + opts.n_fd_iters


class _LinearScoreModel:
    """score_batch returns s(y) = -c y with f = 1; FD value is c^2 - 2c at
    the single test row (1, 1): trace -2c plus half squared norm c^2."""

    def __init__(self, c):
        self.c = float(c)

    def score_batch(self, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return -self.c * Y, np.ones(Y.shape[0])


_FD_TEST_ROW = np.array([[1.0, 1.0]])


def _c_for_target(v):
    # solve c^2 - 2c = v for the root >= 1
    return 1.0 + math.sqrt(1.0 + v)


def _profile_fixture(targets):
    cand = list(np.geomspace(100.0, 0.001, len(targets)))
    entries = tuple(FdEntry(a=a, fd=float(v)) for a, v in zip(cand, targets))
    return cand, sp.FdProfile(entries=entries)


class TestStableMinimum:
    def test_interior_minimum_found(self):
        cand, profile = _profile_fixture([7, 5, 4, 3, 4, 5, 6])
        assert sp.stable_minimum(profile) == cand[3]

    def test_monotone_profile_has_none(self):
        _, profile = _profile_fixture([9, 8, 7, 6, 5, 4, 3])
        assert sp.stable_minimum(profile) is None

    def test_two_minima_prefers_larger_candidate(self):
        cand, profile = _profile_fixture([9, 8, 7, 3, 6, 7, 8, 2, 8, 9, 9.5])
        assert sp.stable_minimum(profile) == cand[3]

    def test_infinite_entries_never_selected(self):
        cand, profile = _profile_fixture([9, 8, 7, math.inf, 6, 7, 8])
        assert sp.stable_minimum(profile) is None

    def test_short_profile_rejected(self):
        _, profile = _profile_fixture([3, 2, 1])
        with pytest.raises(ValidationError):
            sp.stable_minimum(profile)

    def test_profile_validation(self):
        with pytest.raises(ValidationError):  # ascending candidates
            sp.FdProfile(entries=(FdEntry(a=1.0, fd=0.0), FdEntry(a=2.0, fd=0.0)))
        with pytest.raises(ValidationError):  # NaN statistic
            sp.FdProfile(entries=(FdEntry(a=2.0, fd=math.nan), FdEntry(a=1.0, fd=0.0)))
        with pytest.raises(ValidationError):  # nonpositive candidate
            sp.FdProfile(entries=(FdEntry(a=1.0, fd=0.0), FdEntry(a=-1.0, fd=0.0)))


class TestTune:
    def _run(self, targets, n_extra_after_min=None):
        cand = list(np.geomspace(100.0, 0.001, len(targets)))
        table = {a: _c_for_target(v) for a, v in zip(cand, targets)}
        calls = []

        def fit_fn(a):
            calls.append(a)
            return _LinearScoreModel(table[a])

        a_star, profile = sp.tune(cand, fit_fn, _FD_TEST_ROW,
                                  sp.FdOptions(n_fd_iters=4, h=1e-3, seed=0))
        return cand, a_star, profile, calls

    def test_agrees_with_full_sweep(self):
        targets = [7, 5, 4, 3, 4, 5, 6]
        cand, a_star, profile, _ = self._run(targets)
        assert a_star == cand[3]
        # full profile re-derivation picks the same candidate
        full = sp.FdProfile(entries=tuple(
            FdEntry(a=a, fd=float(v)) for a, v in zip(cand, targets)))
        assert sp.stable_minimum(full) == a_star
        np.testing.assert_allclose(profile.fd_values(), targets, atol=1e-9)

    def test_lazy_sweep_stops_at_certification(self):
        # stable center at index 3 is certified once index 6 is evaluated,
        # so later candidates (including a smaller global value) are not fit
        targets = [7, 5, 4, 3, 4, 5, 6, 2, 9, 1]
        cand, a_star, profile, calls = self._run(targets)
        assert a_star == cand[3]
        assert len(calls) == 7
        assert len(profile) == 7

    def test_each_candidate_fit_once(self):
        targets = [7, 5, 4, 3, 4, 5, 6]
        cand, _, _, calls = self._run(targets)
        assert sorted(calls, reverse=True) == sorted(set(calls), reverse=True)
        assert len(calls) == len(set(calls))

    def test_no_stable_minimum_falls_back_to_global(self):
        targets = [9, 8, 7, 6, 5, 4, 3]
        cand, a_star, profile, calls = self._run(targets)
        assert a_star == cand[6]
        assert len(calls) == 7

    def test_flat_profile_returns_largest(self):
        targets = [4, 4, 4, 4, 4, 4, 4]
        cand, a_star, _, _ = self._run(targets)
        assert a_star == cand[0]

    def test_failed_fit_recorded_as_inf(self):
        cand = list(np.geomspace(100.0, 0.001, 7))
        targets = [7, 5, 4, 3, 4, 5, 6]
        table = {a: _c_for_target(v) for a, v in zip(cand, targets)}

        def fit_fn(a):
            if a == cand[1]:
                raise NumericsError("synthetic failure")
            return _LinearScoreModel(table[a])

        a_star, profile = sp.tune(cand, fit_fn, _FD_TEST_ROW,
                                  sp.FdOptions(n_fd_iters=4, h=1e-3, seed=0))
        assert profile.entries[1].fd == math.inf
        assert a_star == cand[3]  # 3 < inf still qualifies as stable

    def test_all_failures_raise(self):
        cand = list(np.geomspace(100.0, 0.001, 7))

        def fit_fn(a):
            raise NumericsError("synthetic failure")

        with pytest.raises(AllCandidatesFailed):
            sp.tune(cand, fit_fn, _FD_TEST_ROW, sp.FdOptions(n_fd_iters=2))

    def test_candidate_validation(self):
        with pytest.raises(ValidationError):
            sp.tune([3.0, 2.0, 1.0], lambda a: None, _FD_TEST_ROW)  # too few
        with pytest.raises(ValidationError):
            sp.tune([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], lambda a: None, _FD_TEST_ROW)

    @pytest.mark.parametrize("bad", ["x", None, True])
    def test_non_real_candidate_rejected(self, bad):
        grid = [7.0, 6.0, 5.0, bad, 3.0, 2.0, 1.0]
        with pytest.raises(ValidationError, match=f"must be positive finite real numbers, got {bad!r}"):
            sp.tune(grid, lambda a: None, _FD_TEST_ROW)
        with pytest.raises(ValidationError, match="must be positive finite real numbers"):
            sp.tune(["g", "f", "e", "d", "c", "b", "a"], lambda a: None, _FD_TEST_ROW)

    def test_numpy_real_candidates_accepted(self):
        grid = [np.float32(7.0), 6.0, np.int64(5), 4.0, 3.0, 2.0, 1.0]
        a_star, profile = sp.tune(grid, lambda a: _LinearScoreModel(_c_for_target(a)),
                                  _FD_TEST_ROW, sp.FdOptions(n_fd_iters=2))
        assert len(profile) == 7


class TestSelectionKind:
    def _tune(self, targets):
        cand = list(np.geomspace(100.0, 0.001, len(targets)))
        table = {a: _c_for_target(v) for a, v in zip(cand, targets)}
        a_star, profile = sp.tune(cand, lambda a: _LinearScoreModel(table[a]), _FD_TEST_ROW,
                                  sp.FdOptions(n_fd_iters=4, h=1e-3, seed=0))
        return cand, a_star, profile

    def test_stable_minimum(self):
        cand, a_star, profile = self._tune([7, 5, 4, 3, 4, 5, 6])
        assert a_star == cand[3]
        assert selection_kind(profile, a_star) == "stable"

    def test_fallback_on_the_last_grid_value_is_edge(self):
        cand, a_star, profile = self._tune([9, 8, 7, 6, 5, 4, 3])
        assert a_star == cand[-1]
        assert selection_kind(profile, a_star) == "edge"

    def test_fallback_on_the_first_grid_value_is_edge(self):
        cand, a_star, profile = self._tune([3, 4, 5, 6, 7, 8, 9])
        assert a_star == cand[0]
        assert selection_kind(profile, a_star) == "edge"

    def test_interior_fallback(self):
        # the global minimum at index 2 has only two neighbors on its left
        cand, a_star, profile = self._tune([9, 8, 2, 7, 6, 5, 4])
        assert a_star == cand[2]
        assert selection_kind(profile, a_star) == "fallback"


class TestProfileCsv:
    def test_roundtrip_exact(self):
        _, profile = _profile_fixture([7, 5, math.inf, 3, 4, 5, 6])
        text = profile_to_csv(profile)
        back = profile_from_csv(text)
        assert back == profile

    def test_file_roundtrip(self, tmp_path):
        _, profile = _profile_fixture([7, 5, 4, 3, 4, 5, 6])
        path = tmp_path / "profile.csv"
        write_atomic(str(path), profile_to_csv(profile))
        back = profile_from_csv(path.read_text(encoding="utf-8"))
        assert back == profile

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            profile_from_csv("x,y\n1,2\n")

    @pytest.mark.parametrize("row", ["1,2,3", "1,2,3,4,5", "x,2,3,4", "1,2,3.5,4"])
    def test_malformed_row_rejected_naming_its_line(self, row):
        text = f"a,fd,retained_rows,skipped_rows\n2,1.5,4,0\n{row}\n"
        with pytest.raises(ValidationError, match="line 3"):
            profile_from_csv(text)


class TestAtomicWrite:
    def test_profile_file_ignores_a_stale_fixed_temp_name(self, tmp_path):
        # A leftover "<path>.tmp" from another writer must not block this one.
        _, profile = _profile_fixture([7, 5, 4, 3, 4, 5, 6])
        path = tmp_path / "profile.csv"
        (tmp_path / "profile.csv.tmp").mkdir()
        write_atomic(str(path), profile_to_csv(profile))
        assert profile_from_csv(path.read_text(encoding="utf-8")) == profile
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.csv", "profile.csv.tmp"]

    def test_failed_write_removes_the_temp_file(self, tmp_path):
        # a lone surrogate cannot be encoded as UTF-8, so the write itself
        # fails; the error surfaces and no "<path>.tmp.<pid>" is left behind
        path = tmp_path / "out.txt"
        with pytest.raises(UnicodeEncodeError):
            write_atomic(str(path), "ok\ud800")
        assert list(tmp_path.iterdir()) == []
