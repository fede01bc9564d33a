"""Tests for the sampled-frequency kernel: radial law, sampler, oracles."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import sosrep as sp
from sosrep.errors import NumericsError, ValidationError
from sosrep.solver import FittedModel
from sosrep.sdo_kernel import (
    _MAX_M,
    _cos_sin,
    _count,
    _positive,
    _radial_mass,
    _radial_support,
    _radial_table,
    feature_phases,
    rng_from_seed,
)

import oracles


class TestCheckedValues:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint8(2), 2**70])
    def test_count_returns_a_python_int(self, value):
        got = _count(value, "n")
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [0, -1, np.int64(0), 2.0, True, "1", None])
    def test_count_rejects_naming_the_argument(self, value):
        with pytest.raises(ValidationError) as got:
            _count(value, "n")
        assert str(got.value) == f"n must be a positive integer, got {value!r}"

    @pytest.mark.parametrize("value", [0.1, 2, 1e-300, np.float32(0.1), np.int64(3)])
    def test_positive_returns_a_python_float(self, value):
        got = _positive(value, "x")
        assert type(got) is float and got == value

    @pytest.mark.parametrize("value", [0, -1.0, 0.0, math.nan, math.inf, np.float32(-1),
                                       True, "1", None])
    def test_positive_rejects_naming_the_argument(self, value):
        with pytest.raises(ValidationError) as got:
            _positive(value, "x")
        assert str(got.value) == f"x must be a positive finite real number, got {value!r}"

    def test_rule_phrase_replaces_the_default(self):
        with pytest.raises(ValidationError, match=r"^m must be None or a positive integer, got 0$"):
            _count(0, "m", "None or a positive integer")
        with pytest.raises(ValidationError, match=r"^g must be positive finite real numbers, got -1$"):
            _positive(-1, "g", "positive finite real numbers")


class TestSdoParams:
    def test_default_m_is_half_d_plus_one(self):
        assert sp.SdoParams(a=1.0, d=1).m == 1
        assert sp.SdoParams(a=1.0, d=2).m == 2
        assert sp.SdoParams(a=1.0, d=5).m == 3

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValidationError):
            sp.SdoParams(a=0.0, d=1)
        with pytest.raises(ValidationError):
            sp.SdoParams(a=-1.0, d=1)

    def test_rejects_too_small_m(self):
        # 2m > d is required for the defining integral to converge
        with pytest.raises(ValidationError):
            sp.SdoParams(a=1.0, d=2, m=1)
        with pytest.raises(ValidationError):
            sp.SdoParams(a=1.0, d=0)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(a="x", d=1), "smoothness a"), (dict(a=True, d=1), "smoothness a"),
        (dict(a=[1.0], d=1), "smoothness a"), (dict(a=1.0, d=True), "dimension d"),
        (dict(a=1.0, d=2.0), "dimension d"), (dict(a=1.0, d=1, m=True), "derivative order m"),
        (dict(a=1.0, d=1, m=1.0), "derivative order m"),
        (dict(a=1.0, d="2"), "dimension d"), (dict(a=1.0, d=None), "dimension d"),
    ])
    def test_rejects_non_numeric_or_bool_fields(self, kwargs, field):
        with pytest.raises(ValidationError, match=field):
            sp.SdoParams(**kwargs)

    def test_largest_m_is_the_last_finite_radial_constant(self):
        # (2 pi)^(2m) is finite in float64 up to m = 193 and overflows from 194
        params = sp.SdoParams(a=1.0, d=1, m=193)
        assert math.isfinite((2.0 * math.pi) ** (2 * params.m))
        with pytest.raises(OverflowError):
            (2.0 * math.pi) ** (2 * 194)
        assert math.isfinite(sp.spectral_mass(params))
        assert sp.radial_density(1.0, params) > 0.0
        for d in (1, 385):
            with pytest.raises(ValidationError, match="derivative order m must be at most 193"):
                sp.SdoParams(a=1.0, d=d, m=194)

    def test_accepts_python_and_numpy_numbers(self):
        p = sp.SdoParams(a=np.float32(0.5), d=np.int64(3), m=np.uint8(2))
        assert (p.a, p.d, p.m) == (0.5, 3, 2)
        assert sp.SdoParams(a=2, d=1).a == 2.0


class TestRadialDensity:
    def test_r_zero_d2_is_zero(self):
        assert sp.radial_density(0.0, sp.SdoParams(a=1.0, d=2)) == 0.0

    def test_r_zero_d1_is_one(self):
        assert sp.radial_density(0.0, sp.SdoParams(a=1.0, d=1)) == 1.0

    @pytest.mark.parametrize("r", [-1e-300, [0.0, 1.0, -2.0]])
    def test_negative_radius_rejected(self, r):
        with pytest.raises(ValidationError, match="radius must be nonnegative"):
            sp.radial_density(r, sp.SdoParams(a=1.0, d=2))

    def test_half_at_unit_radius(self):
        # a (2 pi)^2 r^2 = 1 at r=1 when a = 1/(2 pi)^2
        a = 1.0 / (2.0 * np.pi) ** 2
        val = sp.radial_density(1.0, sp.SdoParams(a=a, d=1, m=1))
        np.testing.assert_allclose(val, 0.5, rtol=1e-12)

    def test_vectorized_matches_formula(self):
        params = sp.SdoParams(a=0.3, d=3, m=2)
        r = np.linspace(0.0, 5.0, 50)
        expected = r ** 2 / (1.0 + 0.3 * (2 * np.pi) ** 4 * r ** 4)
        np.testing.assert_allclose(sp.radial_density(r, params), expected, rtol=1e-12)


class TestRadialGrid:
    # _radial_table, the sampler's one grid: the a = 1 radial law of each (m, d).
    def test_cdf_monotone_and_normalized(self):
        r, cdf = _radial_table(1, 1)
        assert r[0] == 0.0 and cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.all(np.diff(r) > 0.0)
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.all(np.diff(cdf[1:]) > 0.0)  # strictly increasing where zeta > 0
        assert not (r.flags.writeable or cdf.flags.writeable)  # one cached table per (m, d)

    def test_argmax_matches_stationarity(self):
        # (d-1)(1 + C r^{2m}) = 2m C r^{2m}  =>  r* = ((d-1)/(C(2m-d+1)))^{1/(2m)} at a = 1
        d, m = 3, 2
        r, _ = _radial_table(m, d)
        C = (2.0 * np.pi) ** (2 * m)
        r_star = ((d - 1) / (C * (2 * m - d + 1))) ** (1.0 / (2 * m))
        r_argmax = r[np.argmax(sp.radial_density(r, sp.SdoParams(a=1.0, d=d, m=m)))]
        assert abs(r_argmax - r_star) <= r[1] - r[0]

    def test_tail_mass_below_threshold(self):
        r, _ = _radial_table(1, 1)
        c = (2 * np.pi) ** 2
        total, _ = quad(lambda x: 1.0 / (1.0 + c * x * x), 0.0, np.inf)
        tail, _ = quad(lambda x: 1.0 / (1.0 + c * x * x), r[-1], np.inf)
        assert tail <= 1.001e-4 * total

    def test_total_mass_matches_quadrature(self):
        r, _ = _radial_table(1, 1)
        c = (2 * np.pi) ** 2
        total, _ = quad(lambda x: 1.0 / (1.0 + c * x * x), 0.0, np.inf)
        tabulated = np.trapezoid(sp.radial_density(r, sp.SdoParams(a=1.0, d=1, m=1)), r)
        np.testing.assert_allclose(tabulated, total, rtol=2e-4)


    # Both dispatches of numpy's SIMD loops give other table bits (np.power
    # differs), so the chunked build is held to the oracle within one process.
    @pytest.mark.parametrize("m, d", [(m, d) for d in (1, 2, 3, 5, 8, 16)
                                      for m in range(d // 2 + 1, 10)])
    def test_table_matches_whole_array_oracle(self, m, d):
        r, cdf = _radial_table.__wrapped__(m, d)
        r_ref, cdf_ref = oracles.radial_table(m, d)
        assert np.array_equal(r, r_ref) and np.array_equal(cdf, cdf_ref)

    def test_support_is_the_least_power_of_two_meeting_the_tail_rule(self):
        # every (m, d) that SdoParams accepts: the one ceil of a log2 is the
        # smallest power of two whose tail bound r_max^(-p) / (c p), taken in
        # log space since c p can overflow, is at most 1e-4 of the radial mass
        for m in range(1, _MAX_M + 1):
            c = (2.0 * np.pi) ** (2 * m)
            for d in range(1, 2 * m):
                p = 2 * m - d
                threshold = math.log2(1e-4) + math.log2(_radial_mass(c, d, 2 * m))
                r_max = _radial_support(m, d)
                k = math.log2(r_max)
                assert k == int(k) >= 0, (m, d)
                assert -p * k - math.log2(c) - math.log2(p) <= threshold, (m, d)
                assert k == 0 or -p * (k - 1) - math.log2(c) - math.log2(p) > threshold, (m, d)

    @pytest.mark.parametrize("d, r_max", [(381, 2.0), (382, 2.0), (383, 4.0), (384, 16.0)])
    def test_support_where_the_tail_bound_overflows(self, d, r_max):
        # at m = 193, c p overflows float64 for these d: a float tail bound
        # reads 0 and would keep r_max = 1, which leaves 1e-4 to 2.5e-2 of
        # the radial mass beyond the table.  The table builds on the whole
        # support or raises; at d = 384 the density is NaN on [0, 16].
        m, c = 193, (2.0 * np.pi) ** 386
        assert math.isinf(c * (2 * m - d))
        assert _radial_support(m, d) == r_max
        with np.errstate(over="ignore", invalid="ignore"):
            if d == 384:
                with pytest.raises(NumericsError, match=r"total is nan on \[0, 16.0\]"):
                    _radial_table.__wrapped__(m, d)
            else:
                r, cdf = _radial_table.__wrapped__(m, d)
                assert r[-1] == r_max and cdf[-1] == 1.0 and np.all(np.isfinite(cdf))

    @pytest.mark.parametrize("d", [4, 6, 7, 10, 12, 20, 24, 31, 32, 40, 48, 63, 64])
    def test_support_matches_the_doubling_oracle(self, d):
        for m in (d // 2 + 1, d // 2 + 2, d // 2 + 4, d // 2 + 8):
            assert _radial_support(m, d) == oracles.radial_table(m, d)[0][-1], (m, d)

    @pytest.mark.parametrize("m, d", [(100, 199), (150, 299), (193, 385)])
    def test_overflowing_density_is_numerics_error(self, m, d):
        # the density is inf / inf on part of [0, r_max]: one pass, then a
        # typed error, not a NaN table or an OverflowError
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match="radial table total is nan"):
                _radial_table.__wrapped__(m, d)

    def test_table_where_the_full_mass_underflows(self):
        # sphere_area(300) times the radial mass underflows to 0, yet the
        # radial mass is positive and the table builds on [0, 1]
        assert sp.spectral_mass(sp.SdoParams(a=1.0, d=300, m=193)) == 0.0
        r, cdf = _radial_table.__wrapped__(193, 300)
        assert r[-1] == 1.0 and cdf[-1] == 1.0 and np.all(np.isfinite(cdf))

    def test_build_peak_memory_near_the_table(self):
        # uncached build: no table-sized temporary beside r and cdf
        tracemalloc.start()
        try:
            r, cdf = _radial_table.__wrapped__(2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (r.nbytes + cdf.nbytes)


class TestRngFromSeed:
    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
    def test_key_outside_64_bits_is_validation_error(self, seed, stream):
        with pytest.raises(ValidationError, match="0..2"):
            rng_from_seed(seed, stream)

    def test_largest_key_accepted(self):
        assert 0.0 <= rng_from_seed(2**64 - 1, 2**64 - 1).random() < 1.0

    @pytest.mark.parametrize("seed, stream, name", [
        (1.5, 0, "seed"), (1.0, 0, "seed"), (True, 0, "seed"), ("1", 0, "seed"),
        (np.float64(1.0), 0, "seed"), (0, 2.0, "stream"), (0, False, "stream"),
    ])
    def test_non_integer_key_is_validation_error(self, seed, stream, name):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            rng_from_seed(seed, stream)

    @pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (3, 191), (2**64 - 1, 2**64 - 1)])
    def test_stream_is_philox_keyed_by_seed_and_stream(self, seed, stream):
        # the state and every kind of draw are those of Philox(key=...),
        # counter 0, the constructor tests/conftest.py seeds with
        key = np.array([seed, stream], dtype=np.uint64)
        got, want = rng_from_seed(seed, stream), np.random.Generator(np.random.Philox(key=key))
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        for draw in (lambda g: g.integers(0, 2, size=(25, 3)), lambda g: g.integers(-1, 2, 7),
                     lambda g: g.random(5), lambda g: g.standard_normal(9),
                     lambda g: g.permutation(600)):
            np.testing.assert_array_equal(draw(got), draw(want))

    def test_numpy_integer_key_accepted(self):
        want = rng_from_seed(7, 3).random(4)
        for seed, stream in [(np.int64(7), np.uint32(3)), (np.uint64(7), np.int8(3))]:
            np.testing.assert_array_equal(rng_from_seed(seed, stream).random(4), want)


class TestFrequencySample:
    @pytest.mark.parametrize("seed, match", [
        ("a", "seed must be an integer"), (1.5, "seed must be an integer"),
        (True, "seed must be an integer"), (-1, "0..2"), (2**64, "0..2"),
    ])
    def test_seed_is_checked_as_rng_from_seed_checks_it(self, seed, match):
        with pytest.raises(ValidationError, match=match):
            sp.FrequencySample(Z=np.zeros((1, 1)), b=np.zeros(1), T=1, seed=seed,
                               base_params=sp.SdoParams(a=1.0, d=1, m=1))

    @pytest.mark.parametrize("Z, b, match", [
        (np.zeros((2, 1)), np.zeros(1), re.escape("Z must have shape (T, d) = (1, 1)")),
        (np.zeros(1), np.zeros(1), re.escape("Z must have shape (T, d) = (1, 1)")),
        (np.zeros((1, 1)), np.zeros(2), re.escape("b must have shape (1,)")),
        (np.full((1, 1), np.inf), np.zeros(1), "frequency rows must be finite"),
        (np.full((1, 1), np.nan), np.zeros(1), "frequency rows must be finite"),
        (np.zeros((1, 1)), np.array([-0.1]), re.escape("phases must lie in [0, 2*pi)")),
        (np.zeros((1, 1)), np.array([2.0 * np.pi]), re.escape("phases must lie in [0, 2*pi)")),
    ])
    def test_malformed_sample_rejected(self, Z, b, match):
        with pytest.raises(ValidationError, match=match):
            sp.FrequencySample(Z=Z, b=b, T=1, seed=0, base_params=sp.SdoParams(a=1.0, d=1, m=1))


class TestSampleFrequencies:
    def test_deterministic(self):
        params = sp.SdoParams(a=0.5, d=2, m=2)
        fs1 = sp.sample_frequencies(params, 128, seed=9)
        fs2 = sp.sample_frequencies(params, 128, seed=9)
        np.testing.assert_array_equal(fs1.Z, fs2.Z)
        np.testing.assert_array_equal(fs1.b, fs2.b)

    def test_seed_changes_sample(self):
        params = sp.SdoParams(a=0.5, d=2, m=2)
        fs1 = sp.sample_frequencies(params, 128, seed=9)
        fs2 = sp.sample_frequencies(params, 128, seed=10)
        assert not np.array_equal(fs1.Z, fs2.Z)

    def test_directions_in_1d_are_signs(self):
        fs = sp.sample_frequencies(sp.SdoParams(a=1.0, d=1, m=1), 1000, seed=0)
        z = fs.Z[:, 0]
        assert np.all(z != 0.0)
        assert (z > 0).any() and (z < 0).any()

    def test_power_of_two_rescaling_is_bitexact(self):
        # a=16, m=1: radii scale by 16^{-1/2} = 0.25 exactly
        fs1 = sp.sample_frequencies(sp.SdoParams(a=1.0, d=1, m=1), 256, seed=3)
        fs16 = sp.sample_frequencies(sp.SdoParams(a=16.0, d=1, m=1), 256, seed=3)
        np.testing.assert_array_equal(fs16.Z, 0.25 * fs1.Z)
        np.testing.assert_array_equal(fs16.b, fs1.b)

    # The first three rows of two samples.  How frequencies are drawn is
    # fixed: the acceptance suite's sampled-kernel bound holds at its one
    # frequency seed, so a change to the draws must show here first.
    @pytest.mark.parametrize("a, d, m, seed, Z3, b3", [
        (0.3, 2, 2, 5,
         [[-2.001500496695206, 0.31786713496935365], [-1.5588224365806302, 0.07471674101190888],
          [-0.5861787296398097, 0.5238623343557716]],
         [0.30892389014578187, 3.883939585442643, 3.2846621141739054]),
        (1.0, 1, 1, 0,
         [[-0.018145184207839782], [0.3988469836537684], [-0.17689285870524654]],
         [5.498717173501189, 3.8972235733896694, 4.934757124855724]),
    ])
    def test_draws_are_pinned(self, a, d, m, seed, Z3, b3):
        fs = sp.sample_frequencies(sp.SdoParams(a=a, d=d, m=m), 64, seed=seed)
        np.testing.assert_allclose(fs.Z[:3], Z3, rtol=1e-12)
        np.testing.assert_allclose(fs.b[:3], b3, rtol=1e-12)

    @pytest.mark.parametrize("T", [0, 2.5, 3.0, True, "8"])
    def test_non_positive_or_non_integer_T_rejected(self, T):
        with pytest.raises(ValidationError, match="T must be a positive integer"):
            sp.sample_frequencies(sp.SdoParams(a=1.0, d=2), T, seed=0)

    def test_numpy_integer_T_accepted(self):
        params = sp.SdoParams(a=1.0, d=2)
        fs = sp.sample_frequencies(params, np.int64(16), seed=0)
        np.testing.assert_array_equal(fs.Z, sp.sample_frequencies(params, 16, seed=0).Z)

    def test_phases_in_range(self):
        fs = sp.sample_frequencies(sp.SdoParams(a=1.0, d=2, m=2), 4096, seed=1)
        assert np.all(fs.b >= 0.0) and np.all(fs.b < 2.0 * np.pi)

    def test_radii_reproduce_grid_cdf(self):
        # KS statistic of 1e5 sampled radii against the sampling CDF below 0.01
        fs = sp.sample_frequencies(sp.SdoParams(a=1.0, d=2, m=2), 100_000, seed=0)
        radii = np.linalg.norm(fs.Z, axis=1) / (2.0 * np.pi)
        radii.sort()
        r, cdf = _radial_table(2, 2)
        model_cdf = np.interp(radii, r, cdf)
        empirical = np.arange(1, radii.size + 1) / radii.size
        ks = float(np.max(np.abs(model_cdf - empirical)))
        assert ks < 0.01


class TestFeatureMap:
    def test_entries_bounded(self):
        fs = sp.sample_frequencies(sp.SdoParams(a=1.0, d=2, m=2), 64, seed=0)
        rng = np.random.default_rng(42)
        Phi = sp.feature_map(rng.normal(size=(10, 2)), fs)
        assert np.all(np.abs(Phi) <= 1.0 / math.sqrt(64) + 1e-15)

    def test_single_zero_frequency(self):
        fs = sp.FrequencySample(
            Z=np.zeros((1, 1)), b=np.zeros(1), T=1, seed=0,
            base_params=sp.SdoParams(a=1.0, d=1, m=1),
        )
        Phi = sp.feature_map(np.array([[3.7]]), fs)
        np.testing.assert_array_equal(Phi, [[1.0]])

    def test_diagonal_concentrates_at_half(self):
        fs = sp.sample_frequencies(sp.SdoParams(a=1.0, d=1, m=1), 100_000, seed=4)
        x = np.array([[0.3]])
        k_xx = sp.kernel_matrix(x, None, fs)[0, 0]
        assert abs(k_xx - 0.5) < 0.01

    def test_dimension_mismatch(self):
        fs = sp.sample_frequencies(sp.SdoParams(a=1.0, d=2, m=2), 16, seed=0)
        with pytest.raises(ValidationError):
            sp.feature_map(np.zeros((3, 3)), fs)

    @staticmethod
    def _phase_sample(T=4):
        """T features whose phases are the data values: Z = 1, b = 0, d = 1."""
        return sp.FrequencySample(Z=np.ones((T, 1)), b=np.zeros(T), T=T, seed=0,
                                  base_params=sp.SdoParams(a=1.0, d=1, m=1))

    @pytest.mark.parametrize("exact_normalization", [False, True])
    def test_within_4_eps_of_numpy_cosines(self, exact_normalization):
        # |U| up to 1e4 with both signs, and the neighbours of odd multiples
        # of pi, where t = tan(U/2) is huge
        rng = np.random.default_rng(3101)
        odd = np.arange(1.0, 3183.0, 2.0) * np.pi  # odd k pi up to 1e4
        U = np.concatenate([
            rng.uniform(-1e4, 1e4, 20_000), 10.0 ** rng.uniform(-300.0, 4.0, 5_000),
            [0.0, np.pi / 2, 1e4], odd, np.nextafter(odd, np.inf), np.nextafter(odd, -np.inf),
            odd + 3 * np.spacing(odd), odd - 40 * np.spacing(odd),
        ])
        X = np.concatenate([U, -U])[:, None]
        fs = self._phase_sample()
        Phi = sp.feature_map(X, fs, exact_normalization)
        ref = oracles.feature_map(X, fs, exact_normalization)
        scale = feature_phases(X[:1], fs, exact_normalization)[1]
        assert Phi.shape == ref.shape == (X.shape[0], fs.T)
        assert np.max(np.abs(Phi - ref)) <= 4 * np.finfo(float).eps * scale

    def test_non_finite_phases_give_nan(self):
        X = np.array([[np.inf], [-np.inf], [np.nan]])
        with np.errstate(invalid="ignore"):
            Phi = sp.feature_map(X, self._phase_sample())
            assert np.all(np.isnan(oracles.feature_map(X, self._phase_sample())))
        assert np.all(np.isnan(Phi))

    def test_peak_holds_one_phase_array(self):
        # the phases become the features in place; two arrays read 2.0 n T 8 bytes
        n, T = 700, 1024
        X = np.random.default_rng(3102).normal(size=(n, 2))
        fs = sp.sample_frequencies(sp.SdoParams(a=0.5, d=2), T, seed=5)
        tracemalloc.start()
        try:
            sp.feature_map(X, fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * T * 8


class TestCosSin:
    """sdo_kernel._cos_sin's half-angle identities against np.cos and np.sin."""

    @staticmethod
    def _phases():
        """|U| from 0 to 1e6 with both signs: uniform and log-uniform draws,
        0, multiples of pi/2 and pi, and the neighbours of odd multiples of
        pi, where tan(U/2) blows up."""
        rng = np.random.default_rng(2101)
        k = np.arange(1.0, 318_000.0, 70.0)  # odd k, k pi up to 1e6
        odd = k * np.pi
        near_odd = [np.nextafter(odd, np.inf), np.nextafter(odd, -np.inf)]
        near_odd += [odd + s * j * np.spacing(odd) for s in (-1, 1) for j in (2, 5, 50)]
        U = np.concatenate([
            rng.uniform(0.0, 1e6, 50_000),
            10.0 ** rng.uniform(-300.0, 6.0, 50_000),
            [0.0, np.pi / 2, np.pi, 1e6],
            k * np.pi / 2, (k + 1.0) * np.pi, odd, *near_odd,
        ])
        return np.concatenate([U, -U])

    def test_within_4_eps_of_cos_and_sin(self):
        U = self._phases()
        C, S = _cos_sin(U.copy())
        eps = np.finfo(float).eps
        assert np.max(np.abs(C - np.cos(U))) <= 4 * eps
        assert np.max(np.abs(S - np.sin(U))) <= 4 * eps

    def test_values_stay_in_unit_interval(self):
        # tan(U/2) is near +-1 by pi/2 and near its poles by odd multiples of pi
        ulps = np.arange(-50_000, 50_001)
        U = np.concatenate([self._phases()] + [
            b + ulps * np.spacing(b) for b in (np.pi / 2, 3 * np.pi / 2, np.pi, 1e5 * np.pi + np.pi / 2)
        ])
        C, S = _cos_sin(U)
        assert np.max(np.abs(C)) <= 1.0 and np.max(np.abs(S)) <= 1.0

    def test_non_finite_phases_give_nan(self):
        U = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            C, S = _cos_sin(U.copy())
            assert np.all(np.isnan(np.cos(U)))
        assert np.all(np.isnan(C)) and np.all(np.isnan(S))

    def test_sin_overwrites_the_phases(self):
        U = np.linspace(-4.0, 4.0, 12).reshape(3, 4)
        C, S = _cos_sin(U)
        assert S is U and C.shape == U.shape and C is not U

    def test_cos_alone_overwrites_the_phases_with_the_same_bits(self):
        U = self._phases()
        C, _ = _cos_sin(U.copy())
        V = U.copy()
        assert _cos_sin(V, sin=False) is V
        assert np.array_equal(V, C)


class TestKernelMatrix:
    def test_transpose_symmetry(self):
        fs = sp.sample_frequencies(sp.SdoParams(a=0.5, d=2, m=2), 128, seed=2)
        rng = np.random.default_rng(42)
        X, Y = rng.normal(size=(6, 2)), rng.normal(size=(4, 2))
        np.testing.assert_array_equal(
            sp.kernel_matrix(X, Y, fs), sp.kernel_matrix(Y, X, fs).T
        )

    def test_self_kernel_symmetric_and_psd(self):
        fs = sp.sample_frequencies(sp.SdoParams(a=0.5, d=2, m=2), 256, seed=2)
        rng = np.random.default_rng(42)
        X = rng.normal(size=(30, 2))
        K = sp.kernel_matrix(X, None, fs)
        np.testing.assert_array_equal(K, K.T)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-9 * (np.trace(K) / K.shape[0])

    @pytest.mark.parametrize("n, T", [(1400, 2048), (200, 2048), (37, 64), (501, 333),
                                      (1, 5)])
    def test_feature_gram_is_exactly_symmetric(self, n, T):
        # numpy forms Phi @ Phi.T by a symmetric rank-k update; kernel_matrix
        # and fit_model rely on that and do not symmetrize the product.
        X = np.random.default_rng(n).normal(size=(n, 2))
        fs = sp.sample_frequencies(sp.SdoParams(a=0.5, d=2), T, seed=3)
        Phi = sp.feature_map(X, fs)
        K = Phi @ Phi.T
        np.testing.assert_array_equal(K, K.T)
        K_self = sp.kernel_matrix(X, None, fs)
        np.testing.assert_array_equal(K_self, K)
        assert K_self.ctypes.data % 64 == 0  # the solver's products run faster on it

    def test_exact_normalization_scales_by_2w(self):
        params = sp.SdoParams(a=0.04, d=1, m=1)
        fs = sp.sample_frequencies(params, 512, seed=0)
        rng = np.random.default_rng(42)
        X, Y = rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
        base = sp.kernel_matrix(X, Y, fs)
        scaled = sp.kernel_matrix(X, Y, fs, exact_normalization=True)
        np.testing.assert_allclose(scaled, 2.0 * sp.spectral_mass(params) * base, rtol=1e-12)

    def test_monte_carlo_error_decays_with_t(self):
        # RMS error over seeds decays roughly like T^{-1/2}
        params = sp.SdoParams(a=0.04, d=1, m=1)
        x, y = 0.1, 0.25
        truth = oracles.closed_form_kernel_1d(x, y, 0.04)
        w2 = 2.0 * sp.spectral_mass(params)
        rms = []
        for T in (1000, 10_000, 100_000):
            errs = []
            for seed in range(8):
                fs = sp.sample_frequencies(params, T, seed=seed)
                khat = sp.kernel_matrix(np.array([[x]]), np.array([[y]]), fs)[0, 0]
                errs.append(w2 * khat - truth)
            rms.append(float(np.sqrt(np.mean(np.square(errs)))))
        assert rms[0] > rms[1] > rms[2]
        assert rms[0] / rms[2] > 3.0


class TestOracles1d:
    def test_closed_form_values(self):
        np.testing.assert_allclose(oracles.closed_form_kernel_1d(0.0, 0.0, 1.0), 0.5)
        np.testing.assert_allclose(
            oracles.closed_form_kernel_1d(0.0, 0.2, 0.04), (1.0 / 0.4) * math.exp(-1.0)
        )

    def test_quadrature_at_equal_points(self):
        val = oracles.numeric_kernel_1d(1.3, 1.3, sp.SdoParams(a=1.0, d=1, m=1))
        np.testing.assert_allclose(val, 0.5, atol=1e-9)

    def test_quadrature_symmetric(self):
        params = sp.SdoParams(a=0.5, d=1, m=1)
        assert oracles.numeric_kernel_1d(0.1, 0.9, params) == pytest.approx(
            oracles.numeric_kernel_1d(0.9, 0.1, params), abs=1e-12
        )

    def test_quadrature_matches_closed_form(self):
        for a in (0.01, 0.04, 1.0):
            params = sp.SdoParams(a=a, d=1, m=1)
            for delta in (0.0, 0.5, 1.5, 3.0):
                dx = delta * math.sqrt(a)
                np.testing.assert_allclose(
                    oracles.numeric_kernel_1d(0.0, dx, params),
                    oracles.closed_form_kernel_1d(0.0, dx, a),
                    atol=1e-9,
                )

    def test_quadrature_known_value_m1(self):
        # (1/(2 sqrt(a))) e^{-|dx|/sqrt(a)} at a=0.04, |dx|=0.2
        val = oracles.numeric_kernel_1d(0.0, 0.2, sp.SdoParams(a=0.04, d=1, m=1))
        np.testing.assert_allclose(val, (1.0 / 0.4) * math.exp(-1.0), atol=1e-9)

    def test_quadrature_rejects_high_dimension(self):
        with pytest.raises(ValidationError):
            oracles.numeric_kernel_1d(0.0, 1.0, sp.SdoParams(a=1.0, d=2, m=2))


def _kelvin_case(a):
    """12 training rows, 12 query rows (three on training rows) and weights;
    the rows are scaled by a^(1/4), so at every a their distances cover the
    kernel's peak and its negative lobe alike."""
    rng = np.random.default_rng(20261022)
    X, Y = rng.uniform(-3.0, 3.0, (12, 2)), rng.uniform(-3.0, 3.0, (12, 2))
    Y[:3] = X[:3]
    return a**0.25 * X, a**0.25 * Y, rng.uniform(0.5, 1.5, 12)


class TestOracles2d:
    """The exact d = m = 2 kernel, -(2/pi) kei(|x - y| a^(-1/4)), against the
    sampled kernel at T = 2e5.  The tolerances come from 16 frequency seeds
    (100-115) per a: the largest entry error read 0.0019-0.0041 for the
    kernel (a Monte Carlo sd of about 0.0011 per entry), 0.0066-0.0226 for f
    and 0.0105-0.0263 a^(-1/4) for grad f."""

    @pytest.mark.parametrize("a", [1.0, 0.1])
    def test_oracle_is_the_spectral_integral(self, a):
        # k / (2W) = (1 / 2W) * integral of 2 pi r J0(2 pi r |x - y|) w^a(r) dr
        from scipy import integrate, special
        c = a * (2.0 * np.pi) ** 4
        w2 = 2.0 * sp.spectral_mass(sp.SdoParams(a=a, d=2, m=2))
        for delta in (0.0, 0.7, 2.0, 4.93 * a**0.25):
            val, _ = integrate.quad(
                lambda r: 2.0 * np.pi * r * special.j0(2.0 * np.pi * r * delta) / (1.0 + c * r**4),
                0.0, np.inf, limit=400)
            got = oracles.closed_form_kernel_2d(np.zeros((1, 2)), np.array([[delta, 0.0]]), a)
            assert got[0, 0] == pytest.approx(val / w2, abs=1e-8)

    def test_oracle_peak_minimum_and_gradient(self):
        a = 0.1
        x = np.zeros((1, 2))
        assert oracles.closed_form_kernel_2d(x, x, a)[0, 0] == 0.5
        r = np.linspace(4.8, 5.1, 301)[:, None] * a**0.25 * np.array([[1.0, 0.0]])
        k = oracles.closed_form_kernel_2d(x, r, a)[0]
        assert abs(r[np.argmin(k), 0] / a**0.25 - 4.93) < 0.01
        assert k.min() == pytest.approx(-0.00714, abs=1e-5)
        X, Y, _ = _kelvin_case(a)
        G = oracles.closed_form_kernel_grad_2d(X, Y, a)
        h = 1e-6
        for axis in range(2):
            e = h * np.eye(2)[axis]
            fd = (oracles.closed_form_kernel_2d(X, Y + e, a)
                  - oracles.closed_form_kernel_2d(X, Y - e, a)) / (2.0 * h)
            np.testing.assert_allclose(G[:, 3:, axis], fd[:, 3:], atol=1e-8)
        assert not G[[0, 1, 2], [0, 1, 2]].any()  # coinciding rows

    @pytest.mark.parametrize("a, seed", [(1.0, 1), (0.1, 2), (0.01, 3)])
    def test_kernel_matrix_matches_the_closed_form(self, a, seed):
        X, Y, _ = _kelvin_case(a)
        fs = sp.sample_frequencies(sp.SdoParams(a=a, d=2, m=2), 200_000, seed)
        err = np.abs(sp.kernel_matrix(X, Y, fs) - oracles.closed_form_kernel_2d(X, Y, a))
        assert err.max() <= 0.006

    def test_f_and_grad_match_the_closed_form(self):
        a = 0.1
        X, Y, alpha = _kelvin_case(a)
        fs = sp.sample_frequencies(sp.SdoParams(a=a, d=2, m=2), 200_000, 4)
        model = FittedModel(alpha=alpha, fs=fs, feature_weights=sp.feature_map(X, fs).T @ alpha)
        f, G = model.f_and_grad(Y)
        f_ref = alpha @ oracles.closed_form_kernel_2d(X, Y, a)
        G_ref = np.einsum("n,nmd->md", alpha, oracles.closed_form_kernel_grad_2d(X, Y, a))
        assert np.abs(f - f_ref).max() <= 0.035
        assert np.abs(G - G_ref).max() <= 0.04 * a**-0.25


class TestSpectralMass:
    @pytest.mark.parametrize("d, m, a", [(3, 2, 1.0), (5, 3, 1.0), (1, 1, 100.0)])
    def test_matches_quadrature(self, d, m, a):
        # W = S_(d-1) * integral over r > 0 of r^(d-1) / (1 + a (2 pi)^(2m) r^(2m))
        from scipy import integrate

        c = a * (2.0 * np.pi) ** (2 * m)
        radial, _ = integrate.quad(lambda r: r ** (d - 1) / (1.0 + c * r ** (2 * m)),
                                   0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        np.testing.assert_allclose(sp.spectral_mass(sp.SdoParams(a=a, d=d, m=m)),
                                   sp.sphere_area(d) * radial, rtol=1e-12)

    def test_is_the_sphere_area_times_the_radial_mass(self):
        # the radial mass the table's support reads, times the sphere's area,
        # rounded as the one expression exact_normalization has always used
        for d, m, a in [(1, 1, 0.01), (2, 2, 6.31), (3, 2, 0.7), (5, 3, 1e-4), (16, 9, 40.0)]:
            c = a * (2.0 * math.pi) ** (2 * m)
            radial = c ** (-d / (2 * m)) * math.pi / (2 * m * math.sin(math.pi * d / (2 * m)))
            assert _radial_mass(c, d, 2 * m) == radial
            assert sp.spectral_mass(sp.SdoParams(a=a, d=d, m=m)) == (
                sp.sphere_area(d) * c ** (-d / (2 * m)) * math.pi
                / (2 * m * math.sin(math.pi * d / (2 * m))))

    def test_1d_closed_form(self):
        # W = 2 * integral of 1/(1 + a (2 pi r)^2) dr = 1/(2 sqrt(a))
        np.testing.assert_allclose(
            sp.spectral_mass(sp.SdoParams(a=0.01, d=1, m=1)), 5.0, rtol=1e-4
        )

    def test_scaling_law(self):
        # W_a = a^{-d/(2m)} W_1
        for (d, m, a) in [(1, 1, 0.25), (2, 2, 3.0), (3, 2, 0.7)]:
            w1 = sp.spectral_mass(sp.SdoParams(a=1.0, d=d, m=m))
            wa = sp.spectral_mass(sp.SdoParams(a=a, d=d, m=m))
            np.testing.assert_allclose(wa, a ** (-d / (2.0 * m)) * w1, rtol=1e-4)


class TestSphereArea:
    def test_known_values(self):
        np.testing.assert_allclose(sp.sphere_area(1), 2.0)
        np.testing.assert_allclose(sp.sphere_area(2), 2.0 * np.pi)
        np.testing.assert_allclose(sp.sphere_area(3), 4.0 * np.pi)

    @pytest.mark.parametrize("d", [0, -1])
    def test_nonpositive_dimension_rejected(self, d):
        with pytest.raises(ValidationError, match="dimension must be positive"):
            sp.sphere_area(d)


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=20.0),
    dm=st.sampled_from([(1, 1), (2, 2), (3, 2)]),
)
def test_rescaling_identity_property(a, dm):
    """k^a(x, y) equals k^1(a^{-1/(2m)} x, a^{-1/(2m)} y) under a shared seed."""
    d, m = dm
    T = 512
    fs_a = sp.sample_frequencies(sp.SdoParams(a=a, d=d, m=m), T, seed=17)
    fs_1 = sp.sample_frequencies(sp.SdoParams(a=1.0, d=d, m=m), T, seed=17)
    c = a ** (-1.0 / (2 * m))
    rng = np.random.default_rng(42)
    X, Y = rng.normal(size=(8, d)), rng.normal(size=(8, d))
    ka = sp.kernel_matrix(X, Y, fs_a)
    k1 = sp.kernel_matrix(c * X, c * Y, fs_1)
    np.testing.assert_allclose(ka, k1, atol=1e-12)
