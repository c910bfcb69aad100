import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import crandn
from dmimo import (
    ChannelErrorModel,
    LinkRealization,
    empirical_cdf,
    guaranteed_sinr,
    inject_channel_error,
    mrt,
    noise_variance_from_floor,
    sinr,
    sinr_all,
    zf,
)
from dmimo.errors import NoDataError
from dmimo.metrics import sorted_quantile


def sinr_loop_oracle(h, w, noise_var, k):
    """Literal scalar-loop evaluation of the SINR definition."""
    m, n_users = h.shape
    signal = 0.0j
    for i in range(m):
        signal += np.conj(h[i, k]) * w[i, k]
    signal = abs(signal) ** 2
    interference = 0.0
    for l in range(n_users):
        if l == k:
            continue
        term = 0.0j
        for i in range(m):
            term += np.conj(h[i, k]) * w[i, l]
        interference += abs(term) ** 2
    return signal / (interference + noise_var)


class TestSinr:
    def test_single_user_is_snr(self, rng):
        h = crandn(rng, 8, 1)
        w = mrt(h[:, 0])[:, None]
        noise = 0.3
        linear, db = sinr(LinkRealization(h, w, noise), 0)
        expected = float(np.linalg.norm(h) ** 2) / noise
        assert linear == pytest.approx(expected, rel=1e-12)
        assert db == pytest.approx(10 * np.log10(expected), rel=1e-12)

    def test_zf_prenormalized_reaches_noise_limit(self, rng):
        # unnormalized ZF satisfies H^H W = I: zero interference, unit signal
        h = crandn(rng, 8, 3)
        w = zf(h, normalize=False)
        noise = 0.05
        linear, _ = sinr_all(LinkRealization(h, w, noise))
        np.testing.assert_allclose(linear, 1.0 / noise, rtol=1e-8)

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(50):
            h = crandn(rng, 4, 2)
            w = crandn(rng, 4, 2)
            noise = float(rng.uniform(0.01, 1.0))
            link = LinkRealization(h, w, noise)
            for k in range(2):
                linear, _ = sinr(link, k)
                assert linear == pytest.approx(
                    sinr_loop_oracle(h, w, noise, k), rel=1e-12
                )

    def test_phase_rotation_invariance(self, rng):
        h = crandn(rng, 6, 3)
        w = crandn(rng, 6, 3)
        link_a = LinkRealization(h, w, 0.1)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
        link_b = LinkRealization(h, w * phases, 0.1)
        np.testing.assert_allclose(sinr_all(link_a)[0], sinr_all(link_b)[0], rtol=1e-12)

    def test_removing_interferer_never_hurts(self, rng):
        h = crandn(rng, 6, 4)
        w = crandn(rng, 6, 4)
        noise = 0.2
        full, _ = sinr(LinkRealization(h, w, noise), 0)
        reduced_w = w.copy()
        reduced_w[:, 2] = 0.0
        reduced, _ = sinr(LinkRealization(h, reduced_w, noise), 0)
        assert reduced >= full - 1e-15

    def test_zf_interference_free_identity(self, rng):
        h = crandn(rng, 8, 4)
        w = zf(h)
        noise = 0.07
        link = LinkRealization(h, w, noise)
        linear, _ = sinr_all(link)
        signal = np.abs(np.diag(h.conj().T @ w)) ** 2
        np.testing.assert_allclose(linear * noise, signal, rtol=1e-8)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            LinkRealization(crandn(rng, 4, 2), crandn(rng, 4, 3), 0.1)

    def test_noise_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            LinkRealization(crandn(rng, 4, 2), crandn(rng, 4, 2), 0.0)


class TestSinrStack:
    def test_slices_match_single_precoders(self, rng):
        h = crandn(rng, 8, 3)
        w = crandn(rng, 4, 8, 3)
        w[2] = np.nan  # a failed build
        linear, db = sinr_all(LinkRealization(h, w, 0.1))
        assert db.shape == (4, 3)
        for s in (0, 1, 3):
            np.testing.assert_array_equal(db[s], sinr_all(LinkRealization(h, w[s], 0.1))[1])
        assert np.isnan(db[2]).all()

    def test_stack_shape_must_match_channel(self, rng):
        with pytest.raises(ValueError):
            LinkRealization(crandn(rng, 8, 3), crandn(rng, 2, 8, 4), 0.1)


class TestInjectChannelError:
    def test_zero_variance(self, rng):
        h = crandn(rng, 8, 4)
        h_hat, nmse = inject_channel_error(h, ChannelErrorModel(0.0, rng_seed=1))
        np.testing.assert_array_equal(h_hat, h)
        assert nmse == 0.0

    def test_realized_nmse_concentrates(self, rng):
        # law of large numbers on a 64x10 matrix: realized NMSE within 5%
        # of sigma_e2 * IJ / sum|H|^2
        h = crandn(rng, 64, 10)
        sigma_e2 = 0.02
        _, nmse = inject_channel_error(h, ChannelErrorModel(sigma_e2, rng_seed=6))
        expected = sigma_e2 * h.size / float(np.sum(np.abs(h) ** 2))
        assert nmse == pytest.approx(expected, rel=0.05)

    def test_deterministic_per_seed(self, rng):
        h = crandn(rng, 8, 4)
        a, _ = inject_channel_error(h, ChannelErrorModel(0.1, rng_seed=9))
        b, _ = inject_channel_error(h, ChannelErrorModel(0.1, rng_seed=9))
        np.testing.assert_array_equal(a, b)

    def test_same_seed_scales_same_noise(self, rng):
        h = crandn(rng, 8, 4)
        a, _ = inject_channel_error(h, ChannelErrorModel(0.04, rng_seed=3))
        b, _ = inject_channel_error(h, ChannelErrorModel(0.16, rng_seed=3))
        np.testing.assert_allclose((b - h), 2.0 * (a - h), rtol=1e-12)

    def test_estimate_vs_truth_evaluation_protocol(self, rng):
        # precoders built from the estimate, evaluated against the truth:
        # with zero error both SINRs agree, with error they differ
        h = crandn(rng, 16, 4)
        h_hat, _ = inject_channel_error(h, ChannelErrorModel(0.5, rng_seed=2))
        w_true = zf(h)
        w_est = zf(h_hat)
        noise = 0.05
        true_link = sinr_all(LinkRealization(h, w_true, noise))[0]
        est_link = sinr_all(LinkRealization(h, w_est, noise))[0]
        assert np.all(est_link <= true_link + 1e-9)

    def test_sequence_draws_unit_noise_once(self, rng):
        # a stack of S variances: each slice and NMSE what that variance
        # alone gives, bit for bit
        h = crandn(rng, 8, 4)
        sigmas = (0.0, 0.01, 0.04)
        stack, nmse = inject_channel_error(h, ChannelErrorModel(sigmas, rng_seed=[5, 1]))
        assert stack.shape == (3, 8, 4) and nmse.shape == (3,)
        for s, sigma in enumerate(sigmas):
            h_hat, expected = inject_channel_error(h, ChannelErrorModel(sigma, rng_seed=[5, 1]))
            np.testing.assert_array_equal(stack[s], h_hat)
            assert nmse[s] == expected
        with pytest.raises(ValueError):
            ChannelErrorModel((0.1, -0.1))

    def test_negative_variance(self):
        with pytest.raises(ValueError):
            ChannelErrorModel(-0.1)


class TestGuaranteedSinr:
    def test_constant_samples(self):
        assert guaranteed_sinr([3.5] * 10, 0.9) == 3.5

    def test_interpolated_tenth_percentile(self):
        samples = np.arange(100, dtype=float)
        assert guaranteed_sinr(samples, 0.9) == pytest.approx(9.9, abs=1e-12)

    def test_median(self):
        samples = np.array([1.0, 2.0, 3.0, 10.0])
        assert guaranteed_sinr(samples, 0.5) == pytest.approx(2.5)

    def test_empty_raises(self):
        with pytest.raises(NoDataError):
            guaranteed_sinr([], 0.9)

    @pytest.mark.parametrize("coverage", [0.0, 1.0, -0.5, 2.0])
    def test_coverage_domain(self, coverage):
        with pytest.raises(ValueError):
            guaranteed_sinr([1.0], coverage)


class TestEmpiricalCdf:
    def test_single_sample(self):
        values, probs = empirical_cdf([4.2])
        np.testing.assert_array_equal(values, [4.2])
        np.testing.assert_array_equal(probs, [1.0])

    def test_duplicates_keep_increasing_probability(self):
        values, probs = empirical_cdf([1.0, 1.0, 2.0])
        np.testing.assert_array_equal(values, [1.0, 1.0, 2.0])
        np.testing.assert_allclose(probs, [1 / 3, 2 / 3, 1.0])

    def test_quantile_duality(self, rng):
        samples = rng.normal(10.0, 3.0, 5000)
        q = guaranteed_sinr(samples, 0.9)
        values, probs = empirical_cdf(samples)
        idx = np.searchsorted(values, q)
        assert probs[min(idx, len(probs) - 1)] == pytest.approx(0.1, abs=0.01)

    def test_empty_raises(self):
        with pytest.raises(NoDataError):
            empirical_cdf([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
    def test_monotone_support(self, samples):
        values, probs = empirical_cdf(samples)
        assert np.all(np.diff(values) >= 0)
        assert np.all(np.diff(probs) > 0)
        assert probs[-1] == 1.0


def same_float(a: float, b) -> bool:
    """Bitwise equal, both NaN (numpy returns a sample's own NaN), or both
    zero: the sign of a zero result is unspecified, as numpy's sort and
    partition need not keep each zero's sign in its slot."""
    a, b = np.float64(a), np.float64(b)
    return bool(np.isnan(a) and np.isnan(b) or a == b == 0) or a.tobytes() == b.tobytes()


class TestSortedQuantile:
    """The median and the 10th percentile read off sorted samples, as
    np.median and np.quantile(method="linear") compute them."""

    CASES = [
        [4.2],
        [1.0, 2.0],
        [3.0, 1.0, 2.0],
        [0.1, 0.7, 0.2, 0.3],
        [1.0, 1.0, 1.0, 2.0, 2.0],
        [5.0, 5.0, 5.0, 5.0, 5.0, 5.0],
        [-np.inf, 1.0, 2.0, np.inf],
        [-np.inf, -np.inf, 3.0],
        [np.inf, np.inf],
        [np.inf],
        [-np.inf, np.inf],
        [1.0, np.nan, 2.0],
        [np.nan],
        [np.nan, np.inf, -np.inf, 0.0],
        [1e308, 1e308],
        [-0.0, 0.0, -0.0],
        # np.quantile gives 0.0 at q = 0.1, the sorted samples -0.0
        [-0.0, 0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
        list(np.linspace(-30.0, 40.0, 101) ** 3),
        list(np.arange(1000.0) / 7.0),
    ]

    @staticmethod
    def check(samples):
        x = np.asarray(samples, dtype=float)
        values = np.sort(x)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, as numpy warns
            median, p10 = np.median(x), np.quantile(x, 1.0 - 0.9, method="linear")
            assert same_float(sorted_quantile(values), median)
            assert same_float(sorted_quantile(values, 1.0 - 0.9), p10)
            assert same_float(guaranteed_sinr(x, 0.9), p10)

    @pytest.mark.parametrize("samples", CASES, ids=range(len(CASES)))
    def test_fixed_cases(self, samples):
        self.check(samples)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40)
           | st.lists(st.sampled_from([-np.inf, -3.0, -0.0, 0.0, 0.5, 2.0, np.inf]),
                      min_size=1, max_size=40))
    def test_equals_numpy(self, samples):
        self.check(samples)

    def test_nan_wins(self):
        assert np.isnan(sorted_quantile(np.sort([1.0, 2.0, np.nan]), 0.5))
        assert np.isnan(sorted_quantile(np.sort([np.nan, -np.inf])))

    def test_empty_raises(self):
        with pytest.raises(NoDataError):
            sorted_quantile(np.array([]))


class TestNoiseFloor:
    def test_minus_20_db(self):
        assert noise_variance_from_floor(-20.0, 5.0) == pytest.approx(0.05)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            noise_variance_from_floor(np.inf, 1.0)
        with pytest.raises(ValueError):
            noise_variance_from_floor(-20.0, 0.0)
