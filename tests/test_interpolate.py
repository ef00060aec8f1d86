import re

import numpy as np
import pytest

from fftinterp.interpolate import (
    METHODS,
    UpsampleRequest,
    dirichlet_interp_spectrum,
    dirichlet_upsample_direct,
    fft_upsample,
    sinc_interp,
    spectrum_upsample,
    upsample,
)
from fftinterp.kernels import dirichlet
from fftinterp.transforms import Sequence, SpectrumSamples, dft_naive, dtft_at, idft_naive


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


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


class TestDirichletInterpSpectrum:
    def test_reproduces_grid_values(self):
        spectrum = SpectrumSamples(random_complex(8, 4))
        w0 = spectrum.grid_spacing
        for k in range(8):
            assert abs(dirichlet_interp_spectrum(spectrum, k * w0) - spectrum.values[k]) < 1e-12

    def test_matches_dtft_of_time_sequence(self):
        spectrum = SpectrumSamples(random_complex(8, 9))
        x = idft_naive(spectrum.values)
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
            dirichlet_interp_spectrum(SpectrumSamples(values), w), expected, rtol=0, atol=1e-13
        )


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

    def test_real_kernel_keeps_real_input_real(self):
        x = np.random.default_rng(71).standard_normal(11)
        out = dirichlet_upsample_direct(x, 3).samples
        assert np.abs(out.imag).max() <= 1e-12 * np.abs(x).max()

    def test_factor_one_is_identity(self):
        x = random_complex(8, 72)
        np.testing.assert_allclose(
            dirichlet_upsample_direct(x, 1).samples, x, rtol=0, atol=1e-12
        )

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            dirichlet_upsample_direct(np.ones(4), -2)


class TestSpectrumUpsample:
    def test_all_ones_dc_value(self):
        for n in (4, 9):
            values = spectrum_upsample(np.ones(n), 2).values
            assert values[0] == pytest.approx(0.5, abs=1e-12)

    def test_zeros_stay_zero(self):
        values = spectrum_upsample(np.zeros(6), 3).values
        np.testing.assert_array_equal(values, np.zeros(18))

    def test_matches_rescaled_dtft(self):
        n, factor = 8, 3
        x = random_complex(n, 80)
        values = spectrum_upsample(x, factor).values
        total = factor * n
        for k in range(total):
            expected = (n / total) * dtft_at(x, 2 * np.pi * k / total)
            assert abs(values[k] - expected) < 1e-11

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("factor", [2, 3])
    def test_shared_grid_relation(self, n, factor):
        x = random_complex(n, 90 + n)
        values = spectrum_upsample(x, factor).values
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

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            upsample(np.ones(4), 2, "cubic")

    def test_request_validation(self):
        request = UpsampleRequest(factor=2, method="dirichlet")
        out = request.apply(np.ones(4))
        assert len(out) == 8
        with pytest.raises(ValueError):
            UpsampleRequest(factor=0)
        with pytest.raises(ValueError):
            UpsampleRequest(factor=2, method="spline")
