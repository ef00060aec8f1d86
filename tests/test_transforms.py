import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fftinterp.kernels import dirichlet
from fftinterp.transforms import (
    Sequence,
    dft,
    dft_naive,
    dtft_at,
    idft,
    idft_naive,
)


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestContainers:
    def test_sequence_holds_complex_samples(self):
        seq = Sequence([1, 2, 3])
        assert seq.samples.dtype == np.complex128
        assert len(seq) == 3
        assert seq.sample_period is None

    def test_sequence_rejects_empty(self):
        with pytest.raises(ValueError):
            Sequence([])

    def test_sequence_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Sequence([1.0, np.nan])
        with pytest.raises(ValueError):
            Sequence([1.0, np.inf * 1j])

    def test_sequence_keeps_signed_zero_and_subnormal(self):
        # a strided view whose skipped entry is nan: only the viewed entries count
        samples = np.array([complex(-0.0, 5e-324), np.nan, complex(5e-324, -0.0)])[::2]
        kept = np.ascontiguousarray(Sequence(samples).samples)
        expected = np.ascontiguousarray(samples)
        assert np.array_equal(kept.view(np.uint64), expected.view(np.uint64))

    def test_sequence_rejects_bad_period(self):
        with pytest.raises(ValueError):
            Sequence([1.0], sample_period=0.0)
        with pytest.raises(ValueError):
            Sequence([1.0], sample_period=-1.0)


class TestNaive:
    def test_impulse_spreads_flat(self):
        np.testing.assert_allclose(
            dft_naive([1, 0, 0, 0]), np.full(4, 0.25), rtol=0, atol=1e-15
        )

    def test_constant_concentrates(self):
        np.testing.assert_allclose(
            dft_naive([1, 1, 1, 1]), [1, 0, 0, 0], rtol=0, atol=1e-15
        )

    def test_matches_pointwise_dtft(self):
        x = random_complex(12, 7)
        X = dft_naive(x)
        for k in range(12):
            assert abs(X[k] - dtft_at(x, 2 * np.pi * k / 12)) < 1e-12

    def test_idft_of_unit_spectrum(self):
        np.testing.assert_allclose(
            idft_naive([1, 0, 0, 0]), np.ones(4), rtol=0, atol=1e-15
        )

    def test_single_harmonic(self):
        np.testing.assert_allclose(idft_naive([0, 1]), [1, -1], rtol=0, atol=1e-15)

    def test_round_trip_seed3(self):
        x = random_complex(16, 3)
        np.testing.assert_allclose(
            idft_naive(dft_naive(x)), x, rtol=0, atol=1e-12 * np.abs(x).max()
        )

    @pytest.mark.parametrize("n", range(1, 65))
    def test_inversion_sweep(self, n):
        x = random_complex(n, 100 + n)
        np.testing.assert_allclose(
            idft_naive(dft_naive(x)), x, rtol=0, atol=1e-12 * np.abs(x).max()
        )

    @pytest.mark.parametrize("n", [255, 1024])
    def test_error_does_not_grow_with_length(self, n):
        # twiddles from k*n reduced mod N in integers; float phases 2*pi*k*n/N
        # read 1.0e-14 and 1.6e-13 here at N = 255
        x = random_complex(n, 40 + n)
        X = dft_naive(x)
        assert np.max(np.abs(X - dft(x))) < 1e-15
        assert np.max(np.abs(idft_naive(X) - x)) < 2e-14

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dft_naive([])
        with pytest.raises(ValueError):
            idft_naive([])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("transform", [dft_naive, idft_naive])
    def test_memory_stays_linear_in_length(self, transform):
        # the whole 4096 x 4096 twiddle matrix would take 268 MB
        x = random_complex(4096, 23)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            transform(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


# 1.7e308 * (sign cos(theta) + j*sign sin(theta)) at theta = 2*pi*n/64: the
# normalized transform at bin 1 is about 2.2e308, beyond float64
_THETA = 2 * np.pi * np.arange(64) / 64
CORNERS = 1.7e308 * (np.sign(np.cos(_THETA)) + 1j * np.sign(np.sin(_THETA)))


class TestFast:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_matches_naive_small(self, n):
        x = random_complex(n, 11)
        tol = 1e-10 * n * np.abs(x).max()
        np.testing.assert_allclose(dft(x), dft_naive(x), rtol=0, atol=tol)
        np.testing.assert_allclose(idft(x), idft_naive(x), rtol=0, atol=tol)

    @pytest.mark.parametrize("n", [128, 256, 500, 1000, 1024])
    def test_matches_naive_large(self, n):
        x = random_complex(n, 11)
        tol = 1e-10 * n * np.abs(x).max()
        np.testing.assert_allclose(dft(x), dft_naive(x), rtol=0, atol=tol)

    def test_single_point(self):
        np.testing.assert_allclose(dft([3 + 4j]), [3 + 4j])
        np.testing.assert_allclose(idft([3 + 4j]), [3 + 4j])

    def test_round_trip_non_power_of_two(self):
        x = random_complex(600, 5)
        np.testing.assert_allclose(idft(dft(x)), x, rtol=0, atol=1e-11 * np.abs(x).max())

    def test_parseval(self):
        for n in (8, 12, 100, 256):
            x = random_complex(n, n)
            X = dft(x)
            energy_time = np.sum(np.abs(x) ** 2)
            energy_freq = n * np.sum(np.abs(X) ** 2)
            assert energy_time == pytest.approx(energy_freq, rel=1e-10)

    def test_thread_safe_twiddle_cache(self):
        x = random_complex(96, 17)
        expected = dft_naive(x)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: dft(x), range(32)))
        for result in results:
            np.testing.assert_allclose(result, expected, rtol=0, atol=1e-11)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dft([])

    @pytest.mark.parametrize("n, length", [(5, 5), (5, 20), (12, 36), (7, 16)])
    def test_padded_length_matches_zero_pad(self, n, length):
        x = random_complex(n, length)
        np.testing.assert_allclose(
            dft(x, length),
            dft_naive(np.concatenate((x, np.zeros(length - n)))),
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("length", [2, 4.5, 3.0 + 1e-9])
    def test_padded_length_rejects_shrinking_or_fraction(self, length):
        with pytest.raises(ValueError, match="new length"):
            dft([1, 2, 3], length)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_padded_length_no_array_holds_is_one_value_error_naming_it(self):
        # 2**62 complex128 values are 2**66 bytes: refused as a count, not by numpy
        with pytest.raises(ValueError, match=f"^new length must be an integer <= .*, got {2**62}$"):
            dft([1, 2], 2**62)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "transform,x",
        [
            (dft, CORNERS),
            (idft, [1.7e308] * 5),
            (lambda x: dft(x, 65), CORNERS),
            (dft_naive, CORNERS),
            (idft_naive, [1.7e308] * 5),
        ],
        ids=["dft", "idft", "padded-dft", "dft_naive", "idft_naive"],
    )
    def test_overflow_is_one_value_error(self, transform, x):
        with pytest.raises(ValueError, match="^the transform overflows float64$"):
            transform(x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("transform", [dft, dft_naive])
    def test_result_that_fits_is_kept_when_the_sums_overflow(self, transform):
        # both divide by n after summing, and 2e308 overflows
        np.testing.assert_array_equal(transform([1e308, 1e308]), [1e308, 0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_round_trip_keeps_records_at_the_float64_limit(self):
        # pocketfft's inverse sums overflow on some of these records,
        # although the result is x and fits
        rng = np.random.default_rng(0)
        for n in (3, 5, 8, 16):
            for _ in range(35):
                record = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                x = record / np.abs(record).max() * 1.7e308
                assert np.max(np.abs(idft(dft(x)) - x)) <= 4e-16 * 1.7e308

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("length", [None, 7, 65])
    def test_scaled_retry_equals_transform_of_scaled_input(self, length):
        # scaling by a power of two is exact, so the retry's bits are those
        # of the transform of the scaled-down input, scaled back up
        x = np.full(5, 1.7e308) * np.exp(0.4j * np.arange(5))
        np.testing.assert_array_equal(
            dft(x, length).view(np.uint64), (2**10 * dft(x / 2**10, length)).view(np.uint64)
        )


class TestZeroPad:
    def test_spectrum_upsampling_relation(self):
        # both sides equal the unnormalized DTFT at 2*pi*k/N
        n = 8
        x = random_complex(n, 21)
        padded = dft_naive(np.concatenate((x, np.zeros(n))))
        base = dft_naive(x)
        for k in range(n):
            unnormalized = n * dtft_at(x, 2 * np.pi * k / n)
            assert abs(2 * n * padded[2 * k] - n * base[k]) < 1e-10
            assert abs(n * base[k] - unnormalized) < 1e-10

    @pytest.mark.parametrize("factor", [2, 3])
    def test_shared_grid_points(self, factor):
        n = 12
        x = random_complex(n, 31)
        total = factor * n
        padded = dft_naive(np.concatenate((x, np.zeros(total - n))))
        base = dft_naive(x)
        for k in range(n):
            assert abs(total * padded[factor * k] - n * base[k]) < 1e-10


class TestDtft:
    def test_all_ones_matches_dirichlet_magnitude(self):
        for n in (3, 4, 7, 16):
            w = np.linspace(-np.pi, np.pi, 97)
            values = dtft_at(np.ones(n), w)
            np.testing.assert_allclose(
                np.abs(values), np.abs(dirichlet(n, w)), rtol=0, atol=1e-12
            )

    def test_grid_restriction_is_dft(self):
        x = random_complex(9, 13)
        X = dft_naive(x)
        for k in range(9):
            assert abs(dtft_at(x, 2 * np.pi * k / 9) - X[k]) < 1e-13

    def test_zero_frequency_is_mean(self):
        x = random_complex(24, 19)
        assert abs(dtft_at(x, 0.0) - x.mean()) < 1e-14

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dtft_at([1, 2], np.nan)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scalar_frequency_equals_array_entry_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 64))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = float(rng.uniform(-10.0, 10.0))
            scalar = np.array([dtft_at(x, w)])
            assert np.array_equal(scalar.view(np.uint64), dtft_at(x, [w]).view(np.uint64))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mean_that_fits_is_kept_when_the_sum_overflows(self):
        # 5 * 1.7e308 overflows; the 1/N divides inside the kept sum
        got = dtft_at([1.7e308] * 5, 0.0)
        assert got.imag == 0.0
        assert abs(got.real - 1.7e308) <= np.spacing(1.7e308)
