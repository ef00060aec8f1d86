import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftinterp import interpolate, signals
from fftinterp.interpolate import (
    METHODS,
    _half_turns,
    _phase_tables,
    dirichlet_interp_spectrum,
    dirichlet_upsample_direct,
    fft_upsample,
    sinc_interp,
    spectrum_upsample,
    upsample,
)
from fftinterp.kernels import (
    _BLOCK_ENTRIES,
    _dirichlet_lags,
    _quotient,
    _sin_pi,
    _sinc_lags,
    dirichlet,
)
from fftinterp.transforms import (
    Sequence,
    dft,
    dft_naive,
    dtft_at,
    idft_naive,
)


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# each direct oracle route, with its kernel at integer lags d as kernel(N, M, d)
ORACLES = {
    "dirichlet": (dirichlet_upsample_direct, _dirichlet_lags),
    "sinc": (
        lambda x, factor: upsample(x, factor, "sinc"),
        lambda n, factor, d: _sinc_lags(factor, d),
    ),
}


class TestSincInterp:
    def test_single_term_analytic(self):
        x = Sequence([1, 0, 0, 0], sample_period=1.0)
        assert sinc_interp(x, 0.5) == pytest.approx(2 / np.pi, abs=1e-15)

    def test_reproduces_samples_at_grid(self):
        x = Sequence(random_complex(16, 2), sample_period=0.25)
        for m in range(16):
            assert abs(sinc_interp(x, m * 0.25) - x.samples[m]) < 1e-12

    def test_truncation_error_of_cosine(self):
        # oracle: closed form cos(2*pi*t/8); bounds frozen from measurement
        n = np.arange(64)
        x = Sequence(np.cos(2 * np.pi * n / 8), sample_period=1.0)
        interior = abs(sinc_interp(x, 31.5) - np.cos(2 * np.pi * 31.5 / 8))
        assert interior < 2e-2
        edge = abs(sinc_interp(x, 3.5) - np.cos(2 * np.pi * 3.5 / 8))
        assert edge < 5e-2

    def test_requires_sample_period(self):
        with pytest.raises(ValueError):
            sinc_interp(Sequence([1, 2, 3]), 0.5)

    def test_rejects_non_finite_time(self):
        x = Sequence([1, 2], sample_period=1.0)
        with pytest.raises(ValueError):
            sinc_interp(x, np.nan)

    @pytest.mark.parametrize("period", [1.0, 0.25])
    def test_grid_times_return_samples_bit_for_bit(self, period):
        # (t - n*Ts)/Ts is an exact integer here, where sin(pi*u) is exactly 0
        x = Sequence(random_complex(37, 3), sample_period=period)
        out = sinc_interp(x, np.arange(37) * period)
        assert np.array_equal(out.view(np.uint64), x.samples.view(np.uint64))

    def test_equals_kernel_matrix_taken_a_block_of_rows_at_a_time(self):
        n, period = 300, 0.37
        x = Sequence(random_complex(n, 5), sample_period=period)
        t = np.random.default_rng(6).uniform(-20.0, 130.0, 1000)
        u = (t[:, None] - period * np.arange(n)) / period
        matrix = _quotient(_sin_pi(u), np.pi * u)
        rows = _BLOCK_ENTRIES // n
        expected = np.concatenate(
            [matrix[lo : lo + rows] @ x.samples for lo in range(0, t.size, rows)]
        )
        assert np.array_equal(sinc_interp(x, t).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("period,t", [(1e-300, 1e10), (1.0, 1.7e308), (1.7e308, 0.0)])
    def test_time_out_of_range_is_one_value_error_naming_time_and_period(self, period, t):
        # (t - n*Ts)/Ts, or n*Ts itself, overflows although t and Ts are finite
        x = Sequence([1, 2, 3], sample_period=period)
        with pytest.raises(ValueError) as excinfo:
            sinc_interp(x, [0.0, t])
        message = str(excinfo.value)
        assert f"evaluation time {t!r}" in message and f"sample period {period!r}" in message


class TestDirichletInterpSpectrum:
    def test_reproduces_grid_values(self):
        spectrum = random_complex(8, 4)
        w0 = 2 * np.pi / 8
        for k in range(8):
            assert abs(dirichlet_interp_spectrum(spectrum, k * w0) - spectrum[k]) < 1e-12

    def test_matches_dtft_of_time_sequence(self):
        spectrum = random_complex(8, 9)
        x = idft_naive(spectrum)
        rng = np.random.default_rng(12)
        for w in rng.uniform(-2 * np.pi, 2 * np.pi, 200):
            assert abs(dirichlet_interp_spectrum(spectrum, w) - dtft_at(x, w)) < 1e-11

    def test_single_term_closed_form(self):
        n = 6
        values = np.zeros(n, dtype=complex)
        values[0] = 1.0
        w = np.linspace(-np.pi, np.pi, 41)
        expected = np.exp(-0.5j * (n - 1) * w) * dirichlet(n, w)
        np.testing.assert_allclose(
            dirichlet_interp_spectrum(values, w), expected, rtol=0, atol=1e-13
        )

    def test_rejects_empty_spectrum(self):
        with pytest.raises(ValueError):
            dirichlet_interp_spectrum([], 0.5)


@pytest.mark.parametrize("route", ["dtft_at", "dirichlet_interp_spectrum"])
def test_pointwise_sum_memory_does_not_grow_with_points(route):
    # the whole 20000 x 1024 kernel matrix would take about 330 MB
    x = random_complex(1024, 8)
    w = np.linspace(-np.pi, np.pi, 20_000)
    spectrum = dft(x)
    evaluate = {
        "dtft_at": lambda: dtft_at(x, w),
        "dirichlet_interp_spectrum": lambda: dirichlet_interp_spectrum(spectrum, w),
    }[route]
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        evaluate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("route", sorted(ORACLES))
def test_oracle_memory_stays_linear_in_output(route):
    # the whole N x MN kernel matrix would take 1.07 GB
    x = random_complex(4096, 77)
    oracle = ORACLES[route][0]
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        oracle(x, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


class TestPhaseTables:
    def test_quarter_turns_are_exact(self):
        den = 6
        out = _half_turns(np.array([0, 3, 6, 9, 12, -3, 27]), den)
        assert np.array_equal(out, [1, 1j, -1, -1j, 1, -1j, 1j])

    @pytest.mark.parametrize("length", [1, 2, 3, 255, 4097, 65536, 1_000_001])
    @pytest.mark.parametrize(
        "slope,offset,den",
        [(1, 0, 1), (3, -7, 11), (-5, -12_345, 997), (999_999, -3_999_999, 4_000_000)],
    )
    def test_split_table_matches_full_table(self, length, slope, offset, den):
        (table,) = _phase_tables([slope], [offset], den, length)
        k = np.arange(length, dtype=np.int64)
        full = _half_turns(slope * k + offset, den)
        assert table.shape == (length,)
        assert np.abs(table - full).max() <= 1e-15

    def test_tables_come_one_per_pair_and_are_writable(self):
        tables = list(_phase_tables([2, 4, 6], [-9, -18, -27], 40, 10))
        assert len(tables) == 3
        for r, table in enumerate(tables, start=1):
            full = _half_turns(2 * r * np.arange(10) - 9 * r, 40)
            assert np.abs(table - full).max() <= 1e-15
        tables[0] *= 0
        assert np.all(tables[1] != 0)


def bits(seq):
    return seq.samples.view(np.uint64)


class TestPolyphaseTableCache:
    """``fft_upsample`` keeps the phase tables of its last (N, M)."""

    def test_cached_tables_are_read_only(self):
        twist, untwist, ramps = interpolate._polyphase_tables(12, 3)
        assert len(ramps) == 2
        for table in (twist, untwist, *ramps):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    # every length here has a largest prime factor p with p*p <= N, so it
    # fills through _polyphase (TestConvolutionFill has the other lengths)
    def test_only_the_last_size_is_kept(self):
        fft_upsample(random_complex(12, 1), 3)
        fft_upsample(random_complex(8, 2), 2)
        assert interpolate._polyphase_tables.cache_info().currsize == 1

    def test_repeat_eviction_and_clear_match_first_call_bit_for_bit(self):
        x = random_complex(36, 4)
        interpolate._polyphase_tables.cache_clear()
        first = bits(fft_upsample(x, 4))
        hits = interpolate._polyphase_tables.cache_info().hits
        np.testing.assert_array_equal(bits(fft_upsample(x, 4)), first)
        assert interpolate._polyphase_tables.cache_info().hits == hits + 1
        fft_upsample(random_complex(12, 5), 3)
        np.testing.assert_array_equal(bits(fft_upsample(x, 4)), first)
        interpolate._polyphase_tables.cache_clear()
        np.testing.assert_array_equal(bits(fft_upsample(x, 4)), first)

    def test_threads_at_alternating_sizes_match_serial(self):
        threads_match_serial([(random_complex(96, 17), 4), (random_complex(63, 18), 3)])


def threads_match_serial(inputs):
    # 64 calls on 8 threads, alternating between the two (x, factor) inputs
    expected = [bits(fft_upsample(x, factor)) for x, factor in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda i: bits(fft_upsample(*inputs[i % 2])), range(64), timeout=60)
            )
    finally:
        sys.setswitchinterval(interval)
    for i, result in enumerate(results):
        np.testing.assert_array_equal(result, expected[i % 2])


def largest_prime_factor(n):
    return max((p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))),
               default=1)


def centered_tones(twice_h, amplitudes, count, period):
    # sum of a * exp(j*pi*(2h*t mod 2P)/P) at t = 0..count-1, 2h*t reduced
    # exactly in int64, so the truth carries no phase drift of its own
    t = np.arange(count, dtype=np.int64)
    return sum(a * np.exp(1j * np.pi * ((h2 * t) % (2 * period)) / period)
               for h2, a in zip(twice_h, amplitudes))


# lengths whose largest prime factor p has p*p > N: primes, 2*8209, 3*2731, 17*241
ROUGH_LENGTHS = [7, 251, 1031, 4099, 2 * 8209, 3 * 2731, 17 * 241]


class TestConvolutionFill:
    """``fft_upsample`` fills the phases of lengths whose largest prime factor
    p has p*p > N by FFT convolution with the Dirichlet lag table."""

    def test_rule_is_the_largest_prime_factor_test(self):
        for n in range(1, 400):
            p = largest_prime_factor(n)
            assert interpolate._bluestein_length(n) == (p * p > n), n

    def test_smooth_length_is_the_least_7_smooth_length_at_least_n(self):
        def smooth(k):
            for p in (2, 3, 5, 7):
                while k % p == 0:
                    k //= p
            return k == 1

        for n in [*range(1, 600), 32835, 65537]:
            length = interpolate._smooth_length(n)
            assert length >= n and smooth(length), n
            assert not any(smooth(k) for k in range(n, length)), n

    @pytest.mark.parametrize("n", [2**10, 2**13, 3 * 2**9, 3 * 2**12, 13 * 1024, 65536])
    def test_smooth_and_square_bounded_lengths_fill_through_polyphase(self, n):
        interpolate._polyphase_tables.cache_clear()
        fft_upsample(random_complex(n, 1), 2)
        assert interpolate._polyphase_tables.cache_info().misses == 1

    @pytest.mark.parametrize("n", ROUGH_LENGTHS)
    def test_rough_lengths_fill_by_convolution(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(interpolate, "_convolution", lambda *a: calls.append(a))
        interpolate._polyphase_tables.cache_clear()
        fft_upsample(random_complex(n, 2), 3)
        assert len(calls) == 1
        assert interpolate._polyphase_tables.cache_info().misses == 0

    @pytest.mark.parametrize("factor", [2, 3, 4, 7])
    @pytest.mark.parametrize("n", ROUGH_LENGTHS)
    def test_centered_tones_within_a_few_ulps_of_the_truth(self, n, factor):
        # the fill shares the oracle's kernel table, so it is checked
        # against the closed-form tones, not only against the oracle
        twice_h = [2 * q - (n - 1) for q in (0, n // 3, n - 1)]
        amplitudes = [1.0, 0.5 - 0.25j, 0.2j]
        x = centered_tones([factor * h2 for h2 in twice_h], amplitudes, n, factor * n)
        truth = centered_tones(twice_h, amplitudes, factor * n, factor * n)
        out = fft_upsample(x, factor).samples
        assert np.array_equal(bits(Sequence(out[::factor])), x.view(np.uint64))
        assert np.abs(out - truth).max() <= 4e-15 * np.abs(amplitudes).sum()

    def test_repeated_and_threaded_calls_are_bit_identical(self):
        threads_match_serial([(random_complex(251, 19), 4), (random_complex(3 * 2731, 20), 3)])


class TestFftUpsample:
    def test_factor_one_is_identity(self):
        x = random_complex(12, 6)
        out = fft_upsample(x, 1).samples
        np.testing.assert_allclose(out, x, rtol=0, atol=1e-12 * np.abs(x).max())

    def test_two_point_closed_form(self):
        # dirichlet(2, w) = cos(w/2) makes the N=2 case fully analytic
        out = fft_upsample(np.array([1.0, 0.0]), 2).samples
        expected = [1.0, np.cos(np.pi / 4), 0.0, np.cos(3 * np.pi / 4)]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_all_ones_ripple(self):
        out = fft_upsample(np.ones(4), 2).samples
        np.testing.assert_allclose(out[::2], np.ones(4), rtol=0, atol=1e-14)
        assert out[1].real == pytest.approx(2 * dirichlet(4, np.pi / 4), abs=1e-12)
        assert out[1].real == pytest.approx(1.3065629648763765, abs=1e-12)

    @pytest.mark.parametrize("n,factor", [(5, 2), (8, 3), (12, 4), (7, 7)])
    def test_matches_direct_oracle(self, n, factor):
        x = random_complex(n, 40 + n)
        fast = fft_upsample(x, factor).samples
        direct = dirichlet_upsample_direct(x, factor).samples
        np.testing.assert_allclose(fast, direct, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n,factor", [(6, 2), (9, 3), (16, 5)])
    def test_sample_preservation(self, n, factor):
        x = random_complex(n, 50 + n)
        out = fft_upsample(x, factor).samples
        np.testing.assert_allclose(
            out[::factor], x, rtol=1e-10, atol=1e-12 * np.abs(x).max()
        )

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(min_value=1, max_value=300),
        factor=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sample_preservation_is_bit_exact(self, n, factor, seed):
        x = random_complex(n, seed)
        out = fft_upsample(x, factor).samples
        kept = np.ascontiguousarray(out[::factor])
        assert np.array_equal(kept.view(np.uint64), x.view(np.uint64))
        if factor == 1:
            assert np.array_equal(out.view(np.uint64), x.view(np.uint64))

    @pytest.mark.parametrize("n", [2053, 2048, 2049])
    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_matches_direct_oracle_at_prime_even_and_odd_lengths(self, n, factor):
        x = random_complex(n, 45 + n + factor)
        fast = fft_upsample(x, factor).samples
        direct = dirichlet_upsample_direct(x, factor).samples
        assert np.abs(fast - direct).max() <= 1e-15 * np.abs(x).sum()

    def test_linearity(self):
        n, factor = 10, 3
        x = random_complex(n, 61)
        y = random_complex(n, 62)
        a, b = 0.7 - 0.3j, -1.2 + 0.8j
        combined = fft_upsample(a * x + b * y, factor).samples
        separate = a * fft_upsample(x, factor).samples + b * fft_upsample(y, factor).samples
        np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-10)

    def test_real_input_stays_real(self):
        x = np.random.default_rng(8).standard_normal(20)
        out = fft_upsample(x, 3).samples
        assert np.abs(out.imag).max() <= 1e-10 * np.abs(x).max()

    def test_carries_refined_sample_period(self):
        x = Sequence([1.0, 2.0, 3.0], sample_period=0.5)
        assert fft_upsample(x, 5).sample_period == pytest.approx(0.1)
        assert fft_upsample(np.ones(3), 2).sample_period is None

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            fft_upsample(np.ones(4), 0)
        with pytest.raises(ValueError):
            fft_upsample(np.ones(4), 1.5)

    @pytest.mark.parametrize("factor", [np.inf, np.nan, None, True, "2"])
    def test_rejects_non_integer_factor_by_name(self, factor):
        with pytest.raises(ValueError, match=re.escape(repr(factor))):
            fft_upsample(np.ones(4), factor)


class TestTrigonometricExactness:
    """The Dirichlet interpolant reproduces tones on the centered harmonic
    grid h = q - (N-1)/2: integers for odd N, half-integers for even N."""

    def test_odd_length_integer_multitone(self):
        n, factor = 15, 3
        spots = np.arange(n)
        harmonics = [(0, 1.0), (3, 0.5 - 0.25j), (-7, 0.2j)]
        x = sum(a * np.exp(2j * np.pi * h * spots / n) for h, a in harmonics)
        refined = np.arange(factor * n) / factor
        truth = sum(a * np.exp(2j * np.pi * h * refined / n) for h, a in harmonics)
        out = fft_upsample(x, factor).samples
        np.testing.assert_allclose(out, truth, rtol=0, atol=1e-8)

    def test_even_length_half_integer_multitone(self):
        n, factor = 16, 4
        spots = np.arange(n)
        harmonics = [(0.5, 1.0), (-2.5, 0.4 + 0.1j), (7.5, -0.3)]
        x = sum(a * np.exp(2j * np.pi * h * spots / n) for h, a in harmonics)
        refined = np.arange(factor * n) / factor
        truth = sum(a * np.exp(2j * np.pi * h * refined / n) for h, a in harmonics)
        out = fft_upsample(x, factor).samples
        np.testing.assert_allclose(out, truth, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("n", [1001, 4097, 65537, 1_000_001])
    def test_odd_length_tone_error_flat_in_n(self, n):
        # exp(2j*pi*h*m/P) with 2*h*m reduced mod 2*P in int64, so the
        # reference carries no phase drift of its own; one bound for every N
        # shows the pipeline's error does not grow with N
        factor, h = 2, n // 3

        def tone(m, period):
            return np.exp(1j * np.pi * ((2 * h * m) % (2 * period)) / period)

        x = tone(np.arange(n, dtype=np.int64), n)
        out = fft_upsample(x, factor).samples
        truth = tone(np.arange(factor * n, dtype=np.int64), factor * n)
        assert np.abs(out - truth).max() < 1e-13

    def test_even_length_constant_ripples(self):
        # off-grid points of an all-ones record do not stay at 1
        out = fft_upsample(np.ones(4), 2).samples
        assert abs(out[1] - 1.0) > 0.3


class TestDirichletUpsampleDirect:
    def test_sample_preservation_exact(self):
        x = random_complex(9, 70)
        out = dirichlet_upsample_direct(x, 4).samples
        np.testing.assert_allclose(out[::4], x, rtol=0, atol=1e-12 * np.abs(x).max())

    @pytest.mark.parametrize("factor", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 11, 255, 256])
    @pytest.mark.parametrize("method", ["dirichlet", "sinc"])
    def test_real_kernel_keeps_real_input_real(self, method, n, factor):
        # both direct kernels are real, so every imaginary part is +0.0
        x = np.random.default_rng(71).standard_normal(n)
        imag = upsample(x, factor, method).samples.imag
        assert not imag.any() and not np.signbit(imag).any()

    def test_factor_one_is_identity(self):
        x = random_complex(8, 72)
        np.testing.assert_allclose(
            dirichlet_upsample_direct(x, 1).samples, x, rtol=0, atol=1e-12
        )

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            dirichlet_upsample_direct(np.ones(4), -2)

    def test_large_record_matches_fast_path(self):
        # N*MN = 4.5e6 kernel entries, summed one output phase at a time
        x = random_complex(1500, 74)
        direct = dirichlet_upsample_direct(x, 2).samples
        fast = fft_upsample(x, 2).samples
        assert np.abs(direct - fast).max() <= 1e-13

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=200),
        factor=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fast_path_agrees_with_oracle(self, n, factor, seed):
        x = random_complex(n, seed)
        fast = fft_upsample(x, factor).samples
        direct = dirichlet_upsample_direct(x, factor).samples
        np.testing.assert_allclose(fast, direct, rtol=0, atol=1e-14 * np.abs(x).sum())


@pytest.mark.parametrize(
    "n,factor",
    [(1, 2), (2, 3), (9, 4), (64, 2), (255, 4), (10, 3), (33, 5)],
)
def test_lag_sum_indexes_like_the_entry_by_entry_matrix(n, factor):
    # an integer-valued kernel on Gaussian-integer samples makes every
    # product and partial sum exact, so any summation order gives the
    # matrix product bit for bit and only an indexing slip can differ
    def kernel(lags):
        return (lags * 7919 % 31 - 15).astype(float)

    rng = np.random.default_rng(75 + n)
    x = rng.integers(-8, 9, n) + 1j * rng.integers(-8, 9, n)
    grid = np.zeros((n, factor), dtype=np.complex128)
    interpolate._lag_sum(kernel, x, grid)
    m = np.arange(factor * n)
    expected = (kernel(m[:, None] - factor * np.arange(n)) @ x).reshape(n, factor)
    assert np.array_equal(grid[:, 1:], expected[:, 1:])


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="needs a long double wider than float64",
)
@pytest.mark.parametrize("route", sorted(ORACLES))
@pytest.mark.parametrize("n", [33, 255, 1023])
@pytest.mark.parametrize("factor", [2, 4])
def test_oracle_sums_within_a_few_ulps_of_extended_precision(route, n, factor):
    # error of each sum against the same kernel values summed in long
    # double, in units of eps * sum_k |K[m, k]| * |x[k]|
    oracle, lag_kernel = ORACLES[route]
    x = random_complex(n, 76 + n)
    out = oracle(x, factor).samples
    m = np.arange(factor * n)
    reference = np.zeros(factor * n, dtype=np.clongdouble)
    scale = np.zeros(factor * n)
    for k in range(n):
        column = lag_kernel(n, factor, m - factor * k)
        reference += column.astype(np.longdouble) * np.clongdouble(x[k])
        scale += np.abs(column) * abs(x[k])
    error = np.abs(out.astype(np.clongdouble) - reference).astype(np.float64)
    assert np.all(error <= 4 * np.finfo(np.float64).eps * scale)


@pytest.mark.parametrize("n", [251, 255, 256, 509, 1023, 1024, 1031])
@pytest.mark.parametrize("factor", [2, 3, 4])
def test_full_band_random_signal_matches_oracle(n, factor):
    # every harmonic the record can hold carries a seeded amplitude
    x = signals.generate(signals.SignalSpec(kind="bandlimited-random", length=n, seed=3))
    gap = np.abs(fft_upsample(x, factor).samples - dirichlet_upsample_direct(x, factor).samples)
    assert gap.max() <= 4e-15 * np.abs(x.samples).max()


class TestSpectrumUpsample:
    @pytest.mark.parametrize("n,factor", [(1, 3), (7, 2), (64, 4), (1009, 3)])
    def test_equals_transform_of_padded_copy(self, n, factor):
        x = random_complex(n, 85 + n)
        values = spectrum_upsample(x, factor)
        assert type(values) is np.ndarray
        assert np.array_equal(values, dft(np.concatenate((x, np.zeros((factor - 1) * n)))))

    def test_all_ones_dc_value(self):
        for n in (4, 9):
            values = spectrum_upsample(np.ones(n), 2)
            assert values[0] == pytest.approx(0.5, abs=1e-12)

    def test_zeros_stay_zero(self):
        values = spectrum_upsample(np.zeros(6), 3)
        np.testing.assert_array_equal(values, np.zeros(18))

    def test_matches_rescaled_dtft(self):
        n, factor = 8, 3
        x = random_complex(n, 80)
        values = spectrum_upsample(x, factor)
        total = factor * n
        for k in range(total):
            expected = (n / total) * dtft_at(x, 2 * np.pi * k / total)
            assert abs(values[k] - expected) < 1e-11

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("factor", [2, 3])
    def test_shared_grid_relation(self, n, factor):
        x = random_complex(n, 90 + n)
        values = spectrum_upsample(x, factor)
        base = dft_naive(x)
        total = factor * n
        for k in range(n):
            assert abs(total * values[factor * k] - n * base[k]) < 1e-10


class TestWindowingEffect:
    def test_fft_vs_sinc_disagree_most_at_edges(self):
        # time-limited smooth pulse: the periodic kernel and the truncated
        # sinc agree inside the record and split near its ends
        n, factor = 64, 2
        center, width = (n - 1) / 2, 8.0
        samples = np.exp(-((np.arange(n) - center) ** 2) / (2 * width**2))
        x = Sequence(samples, sample_period=1.0)
        times = np.arange(factor * n) / factor
        fast = fft_upsample(x, factor).samples
        baseline = sinc_interp(x, times)
        gap = np.abs(fast - baseline)
        interior = (times >= n / 4) & (times <= 3 * n / 4)
        assert gap[interior].max() < gap[~interior].max()


class TestDispatch:
    def test_methods_tuple(self):
        assert METHODS == ("fft", "dirichlet", "sinc")

    def test_upsample_dispatches_every_method(self):
        x = Sequence(random_complex(10, 99).real, sample_period=1.0)
        for method in METHODS:
            out = upsample(x, 2, method)
            assert len(out) == 20
            assert out.sample_period == pytest.approx(0.5)

    def test_sinc_method_matches_pointwise_evaluation(self):
        x = Sequence(random_complex(12, 101), sample_period=2.0)
        out = upsample(x, 3, "sinc").samples
        times = np.arange(36) * (2.0 / 3)
        np.testing.assert_allclose(out, sinc_interp(x, times), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_sinc_lags_are_the_sinc_interp_kernel_on_unit_period(self, factor):
        # with Ts = 1 and a power-of-two M the refined times are exact, so
        # every lag-table value is the one sinc_interp computes
        n = 33
        lags = np.arange(-(n - 1) * factor, factor * n)
        u = lags / factor
        expected = _quotient(_sin_pi(u), np.pi * u)
        assert np.array_equal(_sinc_lags(factor, lags).view(np.uint64), expected.view(np.uint64))
        x = Sequence(random_complex(n, 102), sample_period=1.0)
        out = upsample(x, factor, "sinc").samples
        times = np.arange(n * factor) * (1.0 / factor)
        np.testing.assert_allclose(out, sinc_interp(x, times), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 17, 64])
    @pytest.mark.parametrize("factor", [3, 7])
    @pytest.mark.parametrize("period", [2.0, 0.3])
    def test_sinc_method_close_to_pointwise_evaluation(self, n, factor, period):
        x = Sequence(random_complex(n, 103 + n), sample_period=period)
        out = upsample(x, factor, "sinc").samples
        times = np.arange(n * factor) * (period / factor)
        np.testing.assert_allclose(out, sinc_interp(x, times), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_takes_input_without_a_period(self, method):
        # the methods work on the index grid, where Ts cancels
        samples = random_complex(17, 106)
        bare = upsample(Sequence(samples), 3, method)
        unit = upsample(Sequence(samples, sample_period=1.0), 3, method)
        assert bare.sample_period is None
        assert np.array_equal(bare.samples.view(np.uint64), unit.samples.view(np.uint64))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n,factor", [(1, 3), (16, 2), (33, 5), (255, 4), (7, 1), (1, 1)])
    def test_phase_zero_is_the_input_bit_for_bit(self, method, n, factor):
        x = Sequence(random_complex(n, 105 + n), sample_period=0.3)
        kept = np.ascontiguousarray(upsample(x, factor, method).samples[::factor])
        assert np.array_equal(kept.view(np.uint64), x.samples.view(np.uint64))

    def test_dispatch_looks_routes_up_when_called(self, monkeypatch):
        # the benchmark tracer wraps these module attributes; a table of
        # functions taken at import time would bypass its wrappers
        calls = []
        for name in ("fft_upsample", "dirichlet_upsample_direct"):
            monkeypatch.setattr(
                interpolate, name, lambda x, factor, name=name: calls.append(name) or x
            )
        x = Sequence(np.ones(4))
        assert upsample(x, 2, "fft") is x
        assert upsample(x, 2, "dirichlet") is x
        assert calls == ["fft_upsample", "dirichlet_upsample_direct"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            upsample(np.ones(4), 2, "cubic")


# Every route onto the refined grid, by name.
REFINING_ROUTES = {
    "fft_upsample": fft_upsample,
    "dirichlet_upsample_direct": dirichlet_upsample_direct,
    "upsample-sinc": lambda x, factor: upsample(x, factor, "sinc"),
    "spectrum_upsample": spectrum_upsample,
}
# The routes onto the refined time grid: their interpolant of a record whose
# parts reach 1.7e308 can exceed float64, which the spectrum's values cannot.
TIME_ROUTES = {k: v for k, v in REFINING_ROUTES.items() if k != "spectrum_upsample"}


class TestOverflow:
    """Finite input whose interpolant overflows float64 gets one ValueError
    that says so, with no RuntimeWarning on the way."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("route", TIME_ROUTES.values(), ids=TIME_ROUTES.keys())
    @pytest.mark.parametrize("factor", [2, 3])
    def test_overflow_named_with_largest_input(self, route, factor):
        x = Sequence([1.7e308] * 4 + [-2.5e307j], sample_period=1.0)
        with pytest.raises(ValueError, match=r"overflows float64.* 1\.7e\+308$"):
            route(x, factor)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "x", [[1.7e308] * 4 + [-2.5e307j], [1e308] * 3], ids=["mixed", "constant"]
    )
    @pytest.mark.parametrize("factor", [2, 3])
    def test_spectrum_that_fits_is_kept_bit_for_bit(self, x, factor):
        # for M >= 2 each part of a spectrum value is at most 2*max|part|/M,
        # so it fits; scaling by a power of two is exact
        got = spectrum_upsample(x, factor)
        expected = 2**10 * spectrum_upsample(np.array(x) / 2**10, factor)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "route",
        [dirichlet_upsample_direct, lambda x, factor: upsample(x, factor, "dirichlet")],
        ids=["dirichlet_upsample_direct", "upsample-dirichlet"],
    )
    @pytest.mark.parametrize("factor", [2, 3])
    def test_direct_sum_keeps_a_result_whose_partial_sums_overflow(self, route, factor):
        # np.convolve's partial sums of five 1.7e308 overflow; the interpolant
        # fits, so the sums are redone on the record over 2**k and multiplied
        # back, exactly
        x = np.full(5, 1.7e308)
        k = len(x).bit_length() + 1
        got = route(x, factor).samples
        expected = 2**k * dirichlet_upsample_direct(x / 2**k, factor).samples
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        fast = fft_upsample(x, factor).samples
        assert np.max(np.abs(got - fast)) <= 4e-15 * 1.7e308

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("factor", [2, 3])
    def test_sinc_sum_that_does_not_fit_is_still_refused(self, factor):
        # the retry's bound: the sinc interpolant of the same record exceeds
        # float64, since 2**k times that of the record over 2**k peaks past
        # the largest float, so the multiply back overflows
        x = np.full(5, 1.7e308)
        k = len(x).bit_length() + 1
        scaled = upsample(x / 2**k, factor, "sinc").samples.view(np.float64)
        assert np.max(np.abs(scaled)) > np.finfo(np.float64).max / 2**k
        with pytest.raises(ValueError, match=r"^the result overflows float64; .* 1\.7e\+308$"):
            upsample(x, factor, "sinc")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("factor", [2, 3])
    def test_fast_route_spectrum_that_overflows_is_one_value_error(self, factor):
        # the twisted input's spectrum at bin 2 is (1 + 4/sqrt(3))/3 * 1.7e308,
        # beyond float64, so the fast route's forward transform refuses it;
        # the oracle agrees that the interpolant does not fit
        x = 1.7e308 * np.array([1, -1 / np.sqrt(3) + 1j, -1 / np.sqrt(3) - 1j])
        with pytest.raises(ValueError, match="overflows float64"):
            fft_upsample(x, factor)
        scaled = dirichlet_upsample_direct(x / 16, factor).samples.view(np.float64)
        assert np.max(np.abs(scaled)) > np.finfo(np.float64).max / 16

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fast_route_keeps_a_tone_whose_inverse_sums_overflow(self):
        # a tone on the centered grid, of magnitude 1.3e308 everywhere: the
        # inverse transforms' sums overflow, the interpolant fits, so the
        # fill is redone on the record over 2**k and multiplied back, exactly
        x = 1.3e308 * np.exp(-5j * np.pi * np.arange(8) / 8)
        k = len(x).bit_length() + 1
        got = fft_upsample(x, 2).samples
        expected = 2**k * fft_upsample(x / 2**k, 2).samples
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        direct = dirichlet_upsample_direct(x, 2).samples
        assert np.max(np.abs(got - direct)) <= 4e-15 * 1.3e308
        assert np.max(np.abs(got)) == pytest.approx(1.3e308, rel=4e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, factor, seed", [(3, 4, 1), (255, 3, 0)])
    def test_fast_route_keeps_random_records_at_the_float64_limit(self, n, factor, seed):
        # the largest part is 1.7e308; the fast route's sums overflow where
        # the oracle's interpolant fits, and both return it
        record = random_complex(n, seed)
        x = record / np.max(np.abs(record.view(np.float64))) * 1.7e308
        fast = fft_upsample(x, factor).samples
        direct = dirichlet_upsample_direct(x, factor).samples
        assert np.max(np.abs(fast - direct)) <= 4e-15 * 1.7e308

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("factor", [2, 3, 4])
    @pytest.mark.parametrize("n", [7, 11, 251, 1031])
    def test_convolution_fill_keeps_or_refuses_as_the_oracle_does(self, n, factor, seed):
        # the largest part is 1.7e308: a result that fits is kept, and one
        # that does not is refused with the oracle's message (both occur)
        record = random_complex(n, seed)
        x = record / np.max(np.abs(record.view(np.float64))) * 1.7e308
        try:
            direct = dirichlet_upsample_direct(x, factor).samples
        except ValueError as refused:
            with pytest.raises(ValueError) as excinfo:
                fft_upsample(x, factor)
            assert str(excinfo.value) == str(refused)
        else:
            fast = fft_upsample(x, factor).samples
            assert np.max(np.abs(fast - direct)) <= 4e-15 * 1.7e308

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [7, 251, 1031])
    def test_convolution_fill_keeps_a_constant_at_the_float64_limit(self, n):
        # the forward sums reach N*sqrt(2)*1.7e308 and overflow; on the record
        # over 2**k every value of the fill fits, and the odd-N interpolant
        # of a constant is that constant
        x = np.full(n, 1.7e308 + 1.7e308j)
        out = fft_upsample(x, 3).samples
        np.testing.assert_allclose(out, x[0], rtol=4e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pointwise_sinc_sum_keeps_a_value_whose_partial_sums_overflow(self):
        # the terms at n = 2 and 3 are each 2/pi * 1.7e308, so their sum
        # overflows; the whole sum is 0.976 * 1.7e308
        x = Sequence([1.7e308] * 5, sample_period=1.0)
        got = sinc_interp(x, 2.5)
        assert got == 2**4 * sinc_interp(Sequence([1.7e308 / 2**4] * 5, 1.0), 2.5)
        if np.finfo(np.longdouble).max <= np.finfo(np.float64).max:
            pytest.skip("long double has no wider range than float64 here")
        u = np.longdouble(2.5) - np.arange(5, dtype=np.longdouble)
        reference = float(np.longdouble(1.7e308) * np.sum(np.sin(np.pi * u) / (np.pi * u)))
        assert got.imag == 0.0
        assert abs(got.real - reference) <= 1e-15 * reference

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pointwise_sinc_sum_that_does_not_fit_is_still_refused(self):
        # at t = 0.5 the sum is 1.097 * 1.7e308, past the largest float
        x = Sequence([1.7e308] * 5, sample_period=1.0)
        scaled = sinc_interp(Sequence([1.7e308 / 2**4] * 5, 1.0), 0.5)
        assert scaled.real > np.finfo(np.float64).max / 2**4
        with pytest.raises(
            ValueError, match=r"^the result overflows float64 at evaluation time 0\.5$"
        ):
            sinc_interp(x, 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pointwise_dirichlet_sum_keeps_a_value_whose_partial_sums_overflow(self):
        # each X[k] undoes its kernel phase at w = pi, so term k is 1.7e308 *
        # dirichlet(5, pi - 2*pi*k/5); the terms at k = 2 and 3 are each
        # 0.647 * 1.7e308, and the whole sum is 1.7e308
        n, w = 5, np.pi
        offsets = w - 2 * np.pi * np.arange(n) / n
        spectrum = 1.7e308 * np.exp(0.5j * (n - 1) * offsets)
        got = dirichlet_interp_spectrum(spectrum, w)
        assert got == 2**4 * dirichlet_interp_spectrum(spectrum / 2**4, w)
        assert abs(got - 1.7e308 * np.sum(dirichlet(n, offsets))) <= 4e-15 * 1.7e308
        assert abs(got - 1.7e308) <= 4e-15 * 1.7e308

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fast_route_keeps_a_constant_whose_sums_overflow(self):
        # 255 * 1e306 overflows inside the forward transform; the result does not
        x = np.full(255, 1e306)
        fast = fft_upsample(x, 2).samples
        direct = dirichlet_upsample_direct(x, 2).samples
        assert np.max(np.abs(fast - direct)) <= 4e-15 * 1e306

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("route", REFINING_ROUTES.values(), ids=REFINING_ROUTES.keys())
    def test_refined_length_no_array_holds_names_m_and_n(self, route):
        # 2**58 is a valid count, but 2**58 * 4 = 2**60 refined samples are
        # more than one array can hold: refused before any allocation, by
        # what it is, not blamed on overflow
        with pytest.raises(ValueError) as excinfo:
            route(np.ones(4), 2**58)
        message = str(excinfo.value)
        assert f"factor {2**58} on 4 samples" in message and str(2**60) in message
        assert "overflows" not in message

    @pytest.mark.parametrize(
        "route",
        [fft_upsample, dirichlet_upsample_direct, lambda x, factor: upsample(x, factor, "sinc")],
        ids=["fft_upsample", "dirichlet_upsample_direct", "upsample-sinc"],
    )
    def test_period_that_underflows_is_not_called_overflow(self, route):
        with pytest.raises(ValueError) as excinfo:
            route(Sequence(np.ones(4), sample_period=5e-324), 2)
        assert str(excinfo.value) == (
            "the sample period 5e-324 divided by the factor 2 underflows to 0"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_finite_input_that_fits_is_kept(self):
        x = np.full(5, 1e307)
        np.testing.assert_allclose(fft_upsample(x, 2).samples, np.full(10, 1e307), rtol=1e-14)
