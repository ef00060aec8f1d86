from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fftinterp.kernels import dirichlet
from fftinterp.transforms import (
    Sequence,
    SpectrumSamples,
    dft,
    dft_naive,
    dtft_at,
    idft,
    idft_naive,
    zero_pad,
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

    def test_sequence_rejects_bad_period(self):
        with pytest.raises(ValueError):
            Sequence([1.0], sample_period=0.0)
        with pytest.raises(ValueError):
            Sequence([1.0], sample_period=-1.0)

    def test_spectrum_grid_spacing(self):
        spectrum = SpectrumSamples(np.ones(16))
        assert abs(spectrum.grid_spacing * len(spectrum) - 2 * np.pi) < 1e-12

    def test_spectrum_rejects_empty(self):
        with pytest.raises(ValueError):
            SpectrumSamples([])


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

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dft_naive([])
        with pytest.raises(ValueError):
            idft_naive([])


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
            dft(x, length), dft_naive(zero_pad(x, length)), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("length", [2, 4.5, 3.0 + 1e-9])
    def test_padded_length_rejects_shrinking_or_fraction(self, length):
        with pytest.raises(ValueError, match="new length"):
            dft([1, 2, 3], length)


class TestZeroPad:
    def test_definition(self):
        np.testing.assert_array_equal(zero_pad([1, 2], 4), [1, 2, 0, 0])

    def test_identity(self):
        np.testing.assert_array_equal(zero_pad([1, 2], 2), [1, 2])

    def test_preserves_sample_period(self):
        seq = Sequence([1, 2], sample_period=0.5)
        padded = zero_pad(seq, 6)
        assert isinstance(padded, Sequence)
        assert padded.sample_period == 0.5
        assert len(padded) == 6

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            zero_pad([1, 2, 3], 2)

    def test_spectrum_upsampling_relation(self):
        # both sides equal the unnormalized DTFT at 2*pi*k/N
        n = 8
        x = random_complex(n, 21)
        padded = dft_naive(zero_pad(x, 2 * n))
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
        padded = dft_naive(zero_pad(x, total))
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
