"""Tests for the Gaussian/Laplacian baseline kernels and KDE."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sosrep as sp
from sosrep import baseline_kernels
from sosrep.baseline_kernels import FAMILIES, f_and_grad_closed_form
from sosrep.errors import DataError, ValidationError
from sosrep.harness import ClosedFormRepresenterModel, SdoKdeModel

import oracles


class TestClosedFormKernel:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValidationError):
            sp.ClosedFormKernel(family="cubic", sigma=1.0, d=1)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            sp.ClosedFormKernel(family="gaussian", sigma=0.0, d=1)
        with pytest.raises(ValidationError):
            sp.ClosedFormKernel(family="gaussian", sigma=float("nan"), d=1)

    @pytest.mark.parametrize("sigma", [True, None, "x"])
    def test_rejects_non_real_sigma(self, sigma):
        with pytest.raises(ValidationError, match="sigma must be a positive finite real"):
            sp.ClosedFormKernel(family="gaussian", sigma=sigma, d=2)

    def test_accepts_numpy_real_sigma(self):
        for sigma in (np.float32(0.5), np.int64(2)):
            assert sp.ClosedFormKernel(family="gaussian", sigma=sigma, d=2).sigma == sigma

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValidationError):
            sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=0)

    @pytest.mark.parametrize("d", [2.5, 2.0, True])
    def test_rejects_non_integer_dimension(self, d):
        with pytest.raises(ValidationError, match="dimension d must be a positive integer"):
            sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=d)

    def test_accepts_numpy_integer_dimension(self):
        assert sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=np.int64(2)).d == 2

    @pytest.mark.parametrize("family", FAMILIES)
    def test_numpy_sigma_and_dimension_are_stored_as_python_numbers(self, family):
        # a float32 sigma kept as given made -2 sigma^2, sigma^-d and the exp
        # bound float32: values off by up to 4e-6 relative for one bandwidth
        k32 = sp.ClosedFormKernel(family, np.float32(0.3), np.int64(2))
        k = sp.ClosedFormKernel(family, float(np.float32(0.3)), 2)
        assert type(k32.sigma) is float and type(k32.d) is int
        assert k32 == k
        X = _standardized_rows(60, 5)
        assert sp.kernel_matrix_closed_form(k32, X, X[:9]).tobytes() == \
            sp.kernel_matrix_closed_form(k, X, X[:9]).tobytes()


class TestGaussianKernel:
    def test_diagonal_value(self):
        # normalization sigma^{-d}: equals 1 at sigma=1
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        assert oracles.eval_kernel(k, [0.3, -1.2], [0.3, -1.2]) == 1.0

    def test_known_offdiagonal(self):
        # ||x-y||^2 = 2 at sigma=1: exp(-1)
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        np.testing.assert_allclose(
            oracles.eval_kernel(k, [0.0, 0.0], [1.0, 1.0]), math.exp(-1.0), rtol=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3))
        k = sp.ClosedFormKernel(family="gaussian", sigma=0.8, d=3)
        K = sp.kernel_matrix_closed_form(k, X, X)
        np.testing.assert_allclose(K, K.T, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        with pytest.raises(DataError):
            sp.kernel_matrix_closed_form(k, np.zeros((2, 3)), np.zeros((2, 3)))


class TestLaplacianKernel:
    def test_known_value(self):
        # sigma^{-d} exp(-|dx|/sigma) at sigma=2, d=1, |dx|=2: e^{-1}/2
        k = sp.ClosedFormKernel(family="laplacian", sigma=2.0, d=1)
        np.testing.assert_allclose(
            oracles.eval_kernel(k, [0.0], [2.0]), math.exp(-1.0) / 2.0, rtol=1e-12
        )

    def test_matches_sdo_closed_form_up_to_half(self):
        # 1-d sampled-kernel closed form is exp(-|dx|/sqrt(a)) / (2 sqrt(a)):
        # exactly half the Laplacian with sigma = sqrt(a)
        a = 0.09
        rng = np.random.default_rng(3)
        X, Y = rng.normal(size=(5, 1)), rng.normal(size=(4, 1))
        k = sp.ClosedFormKernel(family="laplacian", sigma=math.sqrt(a), d=1)
        K = sp.kernel_matrix_closed_form(k, X, Y)
        expected = 2.0 * oracles.closed_form_kernel_1d(X, Y.T, a)
        np.testing.assert_allclose(K, expected, rtol=1e-12)

    def test_multivariate_uses_l2_norm(self):
        k = sp.ClosedFormKernel(family="laplacian", sigma=1.0, d=2)
        np.testing.assert_allclose(
            oracles.eval_kernel(k, [0.0, 0.0], [3.0, 4.0]), math.exp(-5.0), rtol=1e-12
        )


class TestKernelGradient:
    def test_gaussian_gradient_matches_finite_difference(self):
        k = sp.ClosedFormKernel(family="gaussian", sigma=0.9, d=3)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=(3, 3))
        G = sp.kernel_gradient_closed_form(k, X, Y)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            num = (
                sp.kernel_matrix_closed_form(k, X, Y + e)
                - sp.kernel_matrix_closed_form(k, X, Y - e)
            ) / (2.0 * h)
            np.testing.assert_allclose(G[:, :, j], num, atol=1e-8)

    def test_laplacian_gradient_matches_finite_difference(self):
        k = sp.ClosedFormKernel(family="laplacian", sigma=1.3, d=2)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(4, 2))
        Y = rng.normal(size=(3, 2)) + 5.0  # keep away from the kink at x = y
        G = sp.kernel_gradient_closed_form(k, X, Y)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            num = (
                sp.kernel_matrix_closed_form(k, X, Y + e)
                - sp.kernel_matrix_closed_form(k, X, Y - e)
            ) / (2.0 * h)
            np.testing.assert_allclose(G[:, :, j], num, atol=1e-7)

    def test_laplacian_gradient_zero_at_coincidence(self):
        k = sp.ClosedFormKernel(family="laplacian", sigma=1.0, d=2)
        X = np.array([[1.0, 2.0]])
        G = sp.kernel_gradient_closed_form(k, X, X)
        np.testing.assert_array_equal(G, np.zeros((1, 1, 2)))


class TestKde:
    def test_single_training_point_peak(self):
        X = np.array([[0.0, 0.0]])
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        np.testing.assert_allclose(oracles.kde_density(X, X, k), [1.0])

    def test_reflection_symmetry(self):
        # density at +c of a mass at 0 equals density at 0 of a mass at +c
        k = sp.ClosedFormKernel(family="gaussian", sigma=0.7, d=1)
        v1 = oracles.kde_density(np.array([[0.0]]), np.array([[1.5]]), k)
        v2 = oracles.kde_density(np.array([[1.5]]), np.array([[0.0]]), k)
        np.testing.assert_allclose(v1, v2, rtol=1e-15)

    def test_mixture_linearity(self):
        rng = np.random.default_rng(1)
        A, B = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        q = rng.normal(size=(6, 2))
        k = sp.ClosedFormKernel(family="laplacian", sigma=1.2, d=2)
        both = oracles.kde_density(np.vstack([A, B]), q, k)
        va = oracles.kde_density(A, q, k)
        vb = oracles.kde_density(B, q, k)
        np.testing.assert_allclose(both, (3 * va + 5 * vb) / 8.0, rtol=1e-12)

    def test_gaussian_total_mass(self):
        # sigma^{-d} normalization integrates to (2 pi)^{d/2}, not 1
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 1))
        grid = np.linspace(-12.0, 12.0, 4001).reshape(-1, 1)
        k = sp.ClosedFormKernel(family="gaussian", sigma=0.5, d=1)
        dens = oracles.kde_density(X, grid, k)
        total = np.trapezoid(dens, grid[:, 0])
        np.testing.assert_allclose(total, math.sqrt(2.0 * np.pi), rtol=1e-6)

    def test_empty_training_set_rejected(self):
        # neither KDE model has a density without training rows
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        fs = sp.sample_frequencies(sp.SdoParams(a=0.5, d=2, m=2), 64, seed=11)
        with pytest.raises(DataError, match="nonempty training set"):
            ClosedFormRepresenterModel(np.zeros((0, 2)), np.zeros(0), k, squared=False)
        with pytest.raises(DataError, match="nonempty training set"):
            SdoKdeModel(np.zeros((0, 2)), fs)

    def test_sampled_kernel_rejected(self):
        # the sampled-kernel KDE is SdoKdeModel; the closed-form functions,
        # and the model that evaluates through them, name the kernel they take
        fs = sp.sample_frequencies(sp.SdoParams(a=0.5, d=2, m=2), 256, seed=11)
        X, Y = np.zeros((3, 2)), np.zeros((1, 2))
        for call in (lambda: sp.kernel_matrix_closed_form(fs, X, Y),
                     lambda: sp.kernel_gradient_closed_form(fs, X, Y),
                     lambda: f_and_grad_closed_form(fs, X, np.ones(3), Y),
                     lambda: ClosedFormRepresenterModel(X, np.full(3, 1.0 / 3.0), fs,
                                                        squared=False)):
            with pytest.raises(ValidationError, match="take a ClosedFormKernel, got FrequencySample"):
                call()


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["gaussian", "laplacian"]),
    sigma=st.floats(min_value=0.1, max_value=5.0),
    seed=st.integers(0, 100),
)
def test_gram_psd_property(family, sigma, seed):
    """Both families are positive definite, so Grams have no negative spectrum."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(12, 2))
    k = sp.ClosedFormKernel(family=family, sigma=sigma, d=2)
    K = sp.kernel_matrix_closed_form(k, X, X)
    eigs = np.linalg.eigvalsh((K + K.T) / 2.0)
    assert eigs.min() >= -1e-10 * max(1.0, np.trace(K))


def _broadcast_reference(k, X, Y):
    """(values, gradients) by length-d broadcasts over all pairs, the per-pair
    oracle of the closed-form path."""
    diff = X[:, None, :] - Y[None, :, :]  # (N, M, d)
    norm = k.sigma ** (-k.d)
    if k.family == "gaussian":
        sq = np.einsum("nmd,nmd->nm", diff, diff)
        vals = norm * np.exp(-sq / (2.0 * k.sigma**2))
        return vals, vals[:, :, None] * diff / k.sigma**2
    dist = np.sqrt(np.einsum("nmd,nmd->nm", diff, diff))
    vals = norm * np.exp(-dist / k.sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = diff / dist[:, :, None]
    unit[~np.isfinite(unit)] = 0.0
    return vals, vals[:, :, None] * unit / k.sigma


def _assert_matches_the_broadcast(k, X, Y, alpha):
    """The gradient tensor bit for bit; the kernel matrix and f and grad f
    (for alpha and for the KDE's uniform weights) within the rounding bounds
    of tests/oracles.py; f_values, kde_density and the KDE model's density
    are f_and_grad's f."""
    vals, grads = _broadcast_reference(k, X, Y)

    def same(a, b):
        return a.shape == b.shape and np.array_equal(a, b)

    assert same(sp.kernel_gradient_closed_form(k, X, Y), grads)
    oracles.assert_matrix_within_error_bounds(k, X, Y, sp.kernel_matrix_closed_form(k, X, Y), vals)
    uniform = np.full(len(X), 1.0 / len(X))
    for weights in (alpha, uniform):
        f, G = f_and_grad_closed_form(k, X, weights, Y)
        oracles.assert_within_error_bounds(k, X, Y, weights, f, G, weights @ vals,
                                           np.einsum("n,nmd->md", weights, grads))
    kde = oracles.kde_density(X, Y, k)
    assert same(kde, f)  # f of the uniform weights, the loop's last
    assert same(ClosedFormRepresenterModel(X, uniform, k, squared=False).density(Y), kde)
    model = ClosedFormRepresenterModel(X, alpha, k, squared=True)
    assert same(model.f_values(Y), model.f_and_grad(Y)[0])
    if k.family == "laplacian":  # zero gradient at coinciding points
        assert not grads[(X[:, None] == Y[None]).all(axis=2)].any()


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    d=st.integers(1, 13),
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    sigma=st.floats(min_value=0.05, max_value=5.0),
    spread=st.floats(min_value=0.01, max_value=10.0),
    seed=st.integers(0, 2**32 - 1),
    block_rows=st.sampled_from([None, 1, 2, 3, 7]),
    extra_cells=st.integers(0, 12),
)
def test_closed_form_path_matches_the_broadcast(family, d, n, m, sigma, spread, seed,
                                               block_rows, extra_cells):
    # block_rows None keeps the module's budget (one block at these sizes);
    # otherwise the budget holds that many rows of squared distances plus a
    # few cells (half as many rows for the Laplacian f and grad f)
    rng = np.random.default_rng(seed)
    X = spread * rng.normal(size=(n, d))
    Y = spread * rng.normal(size=(m, d))
    Y[0] = X[-1]  # coinciding points: the Laplacian's zero gradient
    k = sp.ClosedFormKernel(family=family, sigma=sigma, d=d)
    alpha = rng.random(n)
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(baseline_kernels, "_BLOCK_CELLS",
                       block_rows * m + min(extra_cells, m - 1))
        _assert_matches_the_broadcast(k, X, Y, alpha)


class TestRowBlocks:
    """The closed-form path in blocks of training rows, whatever the block
    size: within the rounding bounds of one broadcast over all pairs."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 3, 13])
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 6), (7, 1), (10, 6)])
    @pytest.mark.parametrize("cells", [1, 2, 5, 19, 40])
    def test_tiny_budgets_match_the_broadcast(self, monkeypatch, family, d, n, m, cells):
        # a budget of a few cells gives one-row blocks or, when a few rows
        # fit, a ragged last block
        monkeypatch.setattr(baseline_kernels, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(100 * d + 10 * n + m)
        X = rng.normal(size=(n, d))
        Y = rng.normal(size=(m, d))
        Y[0] = X[-1]
        k = sp.ClosedFormKernel(family=family, sigma=0.7, d=d)
        _assert_matches_the_broadcast(k, X, Y, rng.random(n))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("cells", [1, 3 * 9 * 4 + 5, 1 << 17])
    def test_gram_is_exactly_symmetric(self, monkeypatch, family, cells):
        monkeypatch.setattr(baseline_kernels, "_BLOCK_CELLS", cells)
        X = np.random.default_rng(2).normal(size=(9, 4))
        K = sp.kernel_matrix_closed_form(sp.ClosedFormKernel(family, 1.3, 4), X, X)
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n, m", [(1400, 600), (1400, 1400)], ids=["query", "gram"])
    def test_peak_memory_is_the_output_and_one_block(self, family, n, m):
        # d = 2: an (N, M, d) difference tensor alone would be twice the output
        rng = np.random.default_rng(0)
        X = rng.normal(size=(n, 2))
        Y = X if m == n else rng.normal(size=(m, 2))
        k = sp.ClosedFormKernel(family, 0.7, 2)
        tracemalloc.start()
        try:
            K = sp.kernel_matrix_closed_form(k, X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.shape == (n, m)
        assert peak < 1.5 * K.nbytes

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [2, 8])
    def test_f_and_grad_peak_memory_is_a_few_blocks(self, family, d):
        # the (N, M, d) gradient tensor alone would be 13 MiB at d = 2
        rng = np.random.default_rng(1)
        X, Y = rng.normal(size=(1400, d)), rng.normal(size=(600, d))
        k = sp.ClosedFormKernel(family, 0.7, d)
        alpha = rng.random(1400)
        tracemalloc.start()
        try:
            f, G = f_and_grad_closed_form(k, X, alpha, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.shape == (600,) and G.shape == (600, d)
        assert peak < 3 * 2**20


    @pytest.mark.parametrize("family", FAMILIES)
    def test_density_peak_memory_is_a_few_blocks(self, family):
        # the 1400 x 600 kernel matrix alone would be 6.7 MB
        rng = np.random.default_rng(2)
        X, Y = rng.normal(size=(1400, 2)), rng.normal(size=(600, 2))
        model = ClosedFormRepresenterModel(X, rng.random(1400), sp.ClosedFormKernel(family, 0.7, 2),
                                           squared=True)
        tracemalloc.start()
        try:
            dens = model.density(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dens.shape == (600,)
        assert peak < 3 * 2**20
        f = model.score_batch(Y)[1]
        assert np.array_equal(dens, f * f)


class TestFAndGradNearPoints:
    """Query rows on or near training rows, where the squared distance from
    the augmented-row product cancels and is recomputed from differences."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 8, 13])
    @pytest.mark.parametrize("offset", [0.0, 1e-4, 1e-7])
    def test_matches_the_broadcast(self, family, d, offset):
        rng = np.random.default_rng(d)
        X = rng.normal(size=(30, d))
        step = rng.normal(size=(5, d))
        step *= offset / np.linalg.norm(step, axis=1, keepdims=True)
        Y = np.vstack([X[:5] + step, rng.normal(size=(4, d))])
        k = sp.ClosedFormKernel(family, 0.5, d)
        _assert_matches_the_broadcast(k, X, Y, rng.random(30))

    @pytest.mark.parametrize("seed", range(5))
    def test_laplacian_gradient_near_a_training_row(self, seed):
        # d = 13, spread 10, offset 1e-7: W^T X - (1^T W) y would cancel terms
        # of size alpha k |x| / r, about 1e8 times the pair's alpha k, where the
        # pair's own term alpha k (x - y) / r keeps the bound at a few u
        rng = np.random.default_rng(seed)
        X = 10.0 * rng.normal(size=(40, 13))
        step = rng.normal(size=(5, 13))
        step *= 1e-7 / np.linalg.norm(step, axis=1, keepdims=True)
        Y = np.vstack([X[:5] + step, 10.0 * rng.normal(size=(4, 13))])
        k = sp.ClosedFormKernel("laplacian", 5.0, 13)
        alpha = rng.random(40)
        vals, grads = _broadcast_reference(k, X, Y)
        f, G = f_and_grad_closed_form(k, X, alpha, Y)
        oracles.assert_within_error_bounds(k, X, Y, alpha, f, G, alpha @ vals,
                                           np.einsum("n,nmd->md", alpha, grads))

    @pytest.mark.parametrize("d", [1, 2, 8, 13])
    def test_coincident_points_have_zero_distance(self, d):
        # a query on the one training row: k = sigma^-d, and the Laplacian's
        # undefined gradient contributes exactly zero
        x = np.random.default_rng(d).normal(size=(1, d)) * 10.0
        for family in FAMILIES:
            k = sp.ClosedFormKernel(family, 0.5, d)
            f, G = f_and_grad_closed_form(k, x, [2.0], x)
            assert f[0] == 2.0 * 0.5 ** (-d)
            if family == "laplacian":
                assert not G.any()


class TestShapesAndErrors:
    @pytest.mark.parametrize("fn", [
        sp.kernel_matrix_closed_form, sp.kernel_gradient_closed_form,
        lambda k, X, Y: f_and_grad_closed_form(k, X, np.ones(len(X)), Y),
    ])
    def test_dimension_mismatch_messages(self, fn):
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        with pytest.raises(DataError, match=r"^dimension mismatch: 3 vs 2$"):
            fn(k, np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(DataError,
                           match=r"^data dimension 3 does not match kernel dimension 2$"):
            fn(k, np.zeros((2, 3)), np.zeros((4, 3)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_empty_query_set(self, family):
        k = sp.ClosedFormKernel(family=family, sigma=1.0, d=2)
        X, Y = np.ones((5, 2)), np.zeros((0, 2))
        assert sp.kernel_matrix_closed_form(k, X, Y).shape == (5, 0)
        assert sp.kernel_gradient_closed_form(k, X, Y).shape == (5, 0, 2)
        f, G = f_and_grad_closed_form(k, X, np.ones(5), Y)
        assert f.shape == (0,) and G.shape == (0, 2)
        assert oracles.kde_density(X, Y, k).shape == (0,)
        model = ClosedFormRepresenterModel(X, np.ones(5), k, squared=True)
        assert model.f_values(Y).shape == (0,)

    def test_empty_training_set_gives_empty_rows(self):
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        assert sp.kernel_matrix_closed_form(k, np.zeros((0, 2)), np.ones((3, 2))).shape == (0, 3)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_empty_training_set_gives_zero_f_and_grad(self, family):
        k = sp.ClosedFormKernel(family=family, sigma=1.0, d=2)
        f, G = f_and_grad_closed_form(k, np.zeros((0, 2)), np.zeros(0), np.ones((3, 2)))
        assert np.array_equal(f, np.zeros(3)) and np.array_equal(G, np.zeros((3, 2)))

    @pytest.mark.parametrize("alpha, match", [
        (np.ones(4), r"^alpha must be a 1-D array of 5 weights.*shape \(4,\)$"),
        (np.ones(6), r"^alpha must be a 1-D array of 5 weights.*shape \(6,\)$"),
        (np.ones((1, 5)), r"^alpha must be a 1-D array of 5 weights.*shape \(1, 5\)$"),
        ([1.0, 1.0, np.nan, 1.0, 1.0], "^alpha must be finite$"),
        ([1.0, 1.0, 1.0, np.inf, 1.0], "^alpha must be finite$"),
    ], ids=["short", "long", "2-d", "nan", "inf"])
    def test_f_and_grad_rejects_bad_weights(self, alpha, match):
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        with pytest.raises(ValidationError, match=match):
            f_and_grad_closed_form(k, np.zeros((5, 2)), alpha, np.ones((3, 2)))

    @pytest.mark.parametrize("squared", ["yes", 1, None, np.array([True])])
    def test_model_rejects_a_non_boolean_squared(self, squared):
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        with pytest.raises(ValidationError, match="squared must be a boolean"):
            ClosedFormRepresenterModel(np.zeros((5, 2)), np.ones(5), k, squared)
        assert ClosedFormRepresenterModel(np.zeros((5, 2)), np.ones(5), k, np.True_).squared is True

    def test_model_rejects_a_kernel_of_another_dimension(self):
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=3)
        with pytest.raises(DataError, match="^data dimension 2 does not match kernel dimension 3$"):
            ClosedFormRepresenterModel(np.zeros((5, 2)), np.ones(5), k, squared=True)

    def test_single_rows_are_promoted(self):
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        K = sp.kernel_matrix_closed_form(k, [0.0, 0.0], [[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(K, [[math.exp(-1.0), 1.0]])


def _exp_arguments():
    """exp arguments across its fast range, the split's two thresholds and
    their neighbours, its slow path's edge, the subnormal band and far below."""
    edges = []
    for t in (baseline_kernels._EXP_SLOW, baseline_kernels._EXP_ZERO):
        edges += [t, np.nextafter(t, 0.0), np.nextafter(t, -np.inf)]
    fast = [-0.0, -1e-150, -0.5, -1.0, -37.0, -699.9]
    slow_edge = [-707.7, -708.3964185322641, -708.4]  # log of the smallest normal
    subnormal = [-709.0, -720.0, -740.0, -744.4, -745.1, -745.13, -745.14, -745.9]
    below = [-746.5, -800.0, -1e3, -1e5, -1e150]
    return np.array(fast + edges + slow_edge + subnormal + below)


def _plain_values(k, sq):
    """The kernel values by their formulas, in one np.exp over the array."""
    norm = k.sigma ** (-k.d)
    if k.family == "gaussian":
        return norm * np.exp(-sq / (2.0 * k.sigma**2))
    return norm * np.exp(-np.sqrt(sq) / k.sigma)


def _squared_distances(family, z, sigma=0.5):
    """Squared distances whose exp arguments are about z, and exactly z at
    sigma = 0.5: then -sq / (2 sigma^2) = -2 sq, and sqrt(r * r) = r."""
    return -2.0 * sigma**2 * z if family == "gaussian" else (sigma * z) ** 2


class TestValuesInPlace:
    """_values_in_place, whose exp keeps underflowing arguments out of
    np.exp's slow path, gives the plain formulas' values bit for bit."""

    @staticmethod
    def _assert_same_bits(k, sq):
        got = baseline_kernels._values_in_place(k, sq.copy())
        assert got.tobytes() == _plain_values(k, sq).tobytes()
        if k.family == "laplacian":  # and the distances, when asked for them
            dist = np.empty_like(sq)
            baseline_kernels._values_in_place(k, sq.copy(), dist)
            assert dist.tobytes() == np.sqrt(sq).tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_every_lane_and_length_matches_the_formula(self, family, d):
        # every argument in every lane of arrays of 1-17 entries, whether or
        # not its array holds one below the split's threshold
        k = sp.ClosedFormKernel(family, 0.5, d)
        z = _exp_arguments()
        sq = _squared_distances(family, z)
        assert np.array_equal(-2.0 * (sq if family == "gaussian" else np.sqrt(sq)), z)
        for length in range(1, 18):
            for start in range(len(sq)):
                self._assert_same_bits(k, np.take(sq, range(start, start + length), mode="wrap"))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 3.0])
    @pytest.mark.parametrize("low", [600.0, 2000.0], ids=["sparse", "split"])
    def test_a_full_block_matches_the_formula(self, family, d, sigma, low):
        # one block of _BLOCK_CELLS entries, with arguments from 0 to -low
        # and the listed ones among them: 0.2% of them below -746 takes one
        # np.exp, 39% the split
        rng = np.random.default_rng(d)
        rows, m = 256, baseline_kernels._BLOCK_CELLS // 256
        z = -low * rng.uniform(0.0, 1.0, (rows, m)) ** 2
        z.flat[rng.choice(z.size, 50 * len(_exp_arguments()), replace=False)] = np.repeat(
            _exp_arguments(), 50)
        sq = _squared_distances(family, z, sigma)
        k = sp.ClosedFormKernel(family, sigma, d)
        self._assert_same_bits(k, sq)

    def test_exp_is_plus_zero_at_and_below_the_zero_threshold(self):
        # the split sets these results to +0.0 instead of calling np.exp
        t = baseline_kernels._EXP_ZERO
        rng = np.random.default_rng(0)
        z = np.concatenate([
            [t, np.nextafter(t, -np.inf), -np.finfo(float).max, -np.inf],
            -np.geomspace(-t, 1e308, 4000),
            rng.uniform(t - 60.0, t, 20000),
        ])
        assert (z <= t).all()
        for length in (1, 7, 8, 9, 16, 17, z.size):  # whole vectors and tails
            for start in range(0, z.size - length + 1, max(1, length * 97)):
                assert not np.exp(z[start:start + length]).view(np.uint64).any()


def _squared_blocks(X, Y):
    """The squared distances _sq_blocks gives for X and Y, and its sq_max."""
    blocks = [(buf[0].copy(), sq_max) for _, _, buf, _, sq_max in baseline_kernels._sq_blocks(X, Y)]
    return np.vstack([sq for sq, _ in blocks]), blocks[0][1]


def _standardized_rows(n, seed):
    """n standardized 2-D rows: three Gaussian blobs and 5% uniform outliers."""
    rng = np.random.default_rng(seed)
    centers = np.array([[-4.0, 0.0], [0.0, 4.0], [4.0, -1.0]])
    X = np.vstack([centers[rng.integers(0, 3, n - n // 20)] + rng.normal(size=(n - n // 20, 2)),
                   rng.uniform(-10.0, 10.0, (n // 20, 2))])
    return (X - X.mean(axis=0)) / X.std(axis=0)


class TestExpGate:
    """A call whose row norms bound every exp argument above _EXP_ZERO skips
    _exp_in_place's check for underflowing arguments; the values stay those
    of one np.exp either way."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_values_equal_one_exp_across_the_sigma_grid(self, family):
        # the bench's sigma grid, on standardized rows and on rows 40 times
        # as far apart, where the Laplacian's arguments fall below -746 too
        skips = set()
        for scale in (1.0, 40.0):
            X, Y = scale * _standardized_rows(300, 70), scale * _standardized_rows(120, 71)
            sq, sq_max = _squared_blocks(X, Y)
            for sigma in np.geomspace(5.0, 0.05, 11):
                k = sp.ClosedFormKernel(family, sigma, 2)
                skips.add(not baseline_kernels._may_underflow(k, sq_max))
                got = sp.kernel_matrix_closed_form(k, X, Y)
                assert got.tobytes() == _plain_values(k, sq).tobytes()
        assert skips == {True, False}

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_nan_row_keeps_the_bound_and_the_values(self, family):
        # fmax skips the NaN row's norm, as it does for tol, so the bound
        # still skips the check at the large sigmas
        X, Y = _standardized_rows(300, 72), _standardized_rows(120, 73)
        _, sq_max = _squared_blocks(X, Y)
        X[17] = np.nan
        with np.errstate(invalid="ignore"):
            sq, nan_sq_max = _squared_blocks(X, Y)
        assert nan_sq_max == sq_max and np.isnan(sq[17]).all()
        assert not baseline_kernels._may_underflow(sp.ClosedFormKernel(family, 5.0, 2), sq_max)
        for sigma in np.geomspace(5.0, 0.05, 11):
            k = sp.ClosedFormKernel(family, sigma, 2)
            with np.errstate(invalid="ignore"):
                got = sp.kernel_matrix_closed_form(k, X, Y)
                want = _plain_values(k, sq)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 8, 13])
    def test_bound_never_skips_where_an_argument_is_below_the_zero_threshold(self, family, d):
        # an antipodal pair at the largest norms makes the bound tight; sigma
        # sweeps the farthest argument across -744..-748
        rng = np.random.default_rng(74 + d)
        X, Y = rng.normal(size=(40, d)), 3.0 * rng.normal(size=(30, d))
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        X[0] = np.linalg.norm(X, axis=1).max() * u
        Y[0] = -np.linalg.norm(Y, axis=1).max() * u
        sq, sq_max = _squared_blocks(X, Y)
        outcomes = set()
        for far in np.linspace(744.0, 748.0, 401):
            if family == "gaussian":
                sigma = math.sqrt(sq_max / (2.0 * far))
                z = sq / (-2.0 * sigma**2)
            else:
                sigma = math.sqrt(sq_max) / far
                z = np.sqrt(sq) / -sigma
            below = bool(z.min() < baseline_kernels._EXP_ZERO)
            skip = not baseline_kernels._may_underflow(sp.ClosedFormKernel(family, sigma, d), sq_max)
            assert not (skip and below)
            outcomes.add((skip, below))
        assert {(True, False), (False, True)} <= outcomes


class TestSquaredDistanceBlocks:
    @pytest.mark.parametrize("nan_row", [False, True])
    @pytest.mark.parametrize("cells", [7, 1 << 17])
    def test_no_negative_entry_where_the_product_rounds_below_zero(self, monkeypatch, cells,
                                                                    nan_row):
        # near-coincident points of norm about 1e3: |x|^2 - 2 x.y + |y|^2
        # rounds to about +-1e-10 where the distance is about 1e-9 squared;
        # with a NaN training row the other rows' entries are still recomputed
        monkeypatch.setattr(baseline_kernels, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(4)
        X = 1e3 * rng.normal(size=(40, 3))
        Y = X[:30] + 1e-9 * rng.normal(size=(30, 3))
        xx, yy = (X * X).sum(axis=1), (Y * Y).sum(axis=1)
        product = (np.hstack([X, xx[:, None], np.ones((40, 1))])
                   @ np.hstack([-2.0 * Y, np.ones((30, 1)), yy[:, None]]).T)
        assert (product[:30] < 0.0).any()
        if nan_row:
            X[35] = np.nan
        exact = np.einsum("nmd,nmd->nm", X[:, None] - Y[None], X[:, None] - Y[None])
        rows = 0
        with np.errstate(invalid="ignore"):
            for lo, hi, buf, *_ in baseline_kernels._sq_blocks(X, Y):
                sq, ref = buf[0], exact[lo:hi]
                assert np.array_equal(np.isnan(sq), np.isnan(ref))
                assert not (sq < 0.0).any()
                near = ref < 1e-12
                assert np.array_equal(sq[near], ref[near])
                rows += hi - lo
        assert rows == 40


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDistanceReuse:
    """A DistanceReuse scope records the sigma-independent squared-distance
    work of the first call on some rows; later calls on rows of the same
    content, in other arrays, give the values of a fresh call bit for bit."""

    SIGMAS = np.geomspace(5.0, 0.05, 11)  # the bench's grid

    @staticmethod
    def _rows(scale=1.0):
        # standardized training rows with a NaN row; query rows on, near and
        # off the training rows, so some entries cancel and are recomputed
        X = scale * _standardized_rows(300, 90)
        X[17] = np.nan
        rng = np.random.default_rng(91)
        Y = np.vstack([X[:40], X[40:80] + 1e-7 * scale * rng.normal(size=(40, 2)),
                       scale * _standardized_rows(100, 92)])
        Y[-3] = np.nan
        return X, Y

    def _assert_reuse_is_bit_for_bit(self, family, call):
        """call(k, reuse) over the grid, without and with one scope; on rows
        40 times as far apart as well, where the Laplacian's exp splits too."""
        splits = 0
        for scale in (1.0, 40.0):
            X, Y = self._rows(scale)
            sq, _ = _squared_blocks(X, Y)
            reuse = baseline_kernels.DistanceReuse()
            for sigma in self.SIGMAS:
                k = sp.ClosedFormKernel(family, sigma, 2)
                with np.errstate(invalid="ignore"):
                    fresh, reused = call(k, X, Y, None), call(k, X, Y, reuse)
                    z = sq / (-2.0 * sigma**2) if family == "gaussian" else np.sqrt(sq) / -sigma
                for a, b in zip(fresh, reused):
                    assert _same_bits(a, b)
                splits += np.mean(z < baseline_kernels._EXP_ZERO) > 1 / 16
            assert reuse._pairs  # recorded by the first call, read by the others
        assert splits  # some calls run _exp_in_place's split

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("cells", [1000, 1 << 17])  # several blocks, one block
    def test_kernel_matrix(self, monkeypatch, family, cells):
        monkeypatch.setattr(baseline_kernels, "_BLOCK_CELLS", cells)

        def matrix(k, X, Y, reuse):  # new arrays each call: records are found by content
            return (sp.kernel_matrix_closed_form(k, X.copy(), Y.copy(), reuse=reuse),)

        self._assert_reuse_is_bit_for_bit(family, matrix)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("cells", [1000, 1 << 17])
    def test_gram_stays_exactly_symmetric(self, monkeypatch, family, cells):
        monkeypatch.setattr(baseline_kernels, "_BLOCK_CELLS", cells)

        def gram(k, X, Y, reuse):
            Xc = X.copy()
            K = sp.kernel_matrix_closed_form(k, Xc, Xc, reuse=reuse)
            assert np.array_equal(K, K.T, equal_nan=True)
            return (K,)

        self._assert_reuse_is_bit_for_bit(family, gram)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("cells", [1000, 1 << 17])
    def test_f_and_grad(self, monkeypatch, family, cells):
        monkeypatch.setattr(baseline_kernels, "_BLOCK_CELLS", cells)

        def f_and_grad(k, X, Y, reuse):
            X = X[np.isfinite(X).all(axis=1)]  # a NaN training row would make every f NaN
            alpha = np.random.default_rng(93).random(len(X))
            return f_and_grad_closed_form(k, X, alpha, Y.copy(), reuse=reuse)

        self._assert_reuse_is_bit_for_bit(family, f_and_grad)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_record_per_content(self, monkeypatch, family):
        # 45 training rows and two query sets, each evaluated at every sigma
        # from arrays made anew
        X, Y = self._rows()
        X = X[np.isfinite(X).all(axis=1)][:45]
        alpha = np.ones(len(X))
        monkeypatch.setattr(baseline_kernels, "_BLOCK_CELLS", 10 * len(Y) * 2)
        reuse = baseline_kernels.DistanceReuse()
        for sigma in self.SIGMAS:
            k = sp.ClosedFormKernel(family, sigma, 2)
            for Q in (Y, Y + 1e-4):
                with np.errstate(invalid="ignore"):
                    f_and_grad_closed_form(k, X.copy(), alpha, Q.copy(), reuse=reuse)
        # the Gaussian calls kernel_matrix_closed_form on each block of 20
        # training rows, the Laplacian reads one call's blocks of 10 rows
        blocks = 3 if family == "gaussian" else 1
        queries = 2
        assert len(reuse._rows) == blocks + queries
        assert len(reuse._pairs) == blocks * queries
