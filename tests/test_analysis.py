import math

import numpy as np
import pytest

from fftinterp.analysis import (
    BENCH_COLUMNS,
    KERNEL_COLUMNS,
    ErrorReport,
    OmegaGrid,
    bench_methods,
    compare_sequences,
    kernel_discrepancy,
    to_db,
    upsample_error_study,
)
from fftinterp.interpolate import dirichlet_upsample_direct, fft_upsample
from fftinterp.signals import SignalSpec


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestErrorReport:
    def test_identical_inputs_hit_the_sentinel(self):
        report = compare_sequences(np.ones(5), np.ones(5))
        assert report.max_abs == 0.0
        assert report.rms == 0.0
        assert report.max_db == -math.inf

    def test_single_spike(self):
        a = np.zeros(4)
        b = np.zeros(4)
        b[2] = 0.1
        report = compare_sequences(a, b)
        assert report.max_abs == pytest.approx(0.1)
        assert report.max_db == pytest.approx(-20.0, abs=1e-12)
        assert report.argmax_index == 2

    def test_db_consistency_and_rms_bound(self):
        report = compare_sequences(random_complex(64, 1), random_complex(64, 2))
        assert report.rms <= report.max_abs
        assert report.max_db == pytest.approx(20 * math.log10(report.max_abs), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_sequences(np.ones(3), np.ones(4))

    def test_oracle_agreement_study(self):
        x = random_complex(16, 9)
        report = compare_sequences(
            fft_upsample(x, 3).samples, dirichlet_upsample_direct(x, 3).samples
        )
        assert report.max_abs <= 1e-9

    def test_to_db_rejects_negative(self):
        with pytest.raises(ValueError):
            to_db(-1.0)


class TestOmegaGrid:
    def test_linspace_descriptor(self):
        grid = OmegaGrid.linspace(-np.pi, np.pi, 16)
        assert grid.descriptor == (-np.pi, np.pi, 16)
        assert len(grid) == 16

    def test_rejects_tiny_or_unsorted(self):
        with pytest.raises(ValueError):
            OmegaGrid.linspace(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            OmegaGrid.linspace(1.0, 0.0, 8)
        with pytest.raises(ValueError):
            OmegaGrid(np.array([0.0, 0.0, 1.0]), (0.0, 1.0, 3))


class TestKernelDiscrepancy:
    def setup_method(self):
        self.grid = OmegaGrid.linspace(-np.pi, np.pi, 1024)

    def test_row_shape_and_columns(self):
        rows = kernel_discrepancy(8, [0, 2], self.grid)
        assert len(rows) == 2 * 1024
        assert len(rows[0]) == len(KERNEL_COLUMNS)

    def test_claimed_convergence_level(self):
        rows = kernel_discrepancy(8, [10], self.grid)
        assert max(row[4] for row in rows) < -55.0

    def test_max_discrepancy_decreases_with_truncation(self):
        maxima = []
        for trunc in (0, 2, 5, 10):
            rows = kernel_discrepancy(8, [trunc], self.grid)
            maxima.append(max(row[4] for row in rows))
        assert all(later < earlier for earlier, later in zip(maxima, maxima[1:]))

    def test_near_origin_mean_below_near_pi_mean(self):
        rows = kernel_discrepancy(8, [2], self.grid)
        near_zero = [10 ** (row[4] / 20) for row in rows if abs(row[0]) < 0.1]
        near_pi = [10 ** (row[4] / 20) for row in rows if 3.0 <= abs(row[0]) <= np.pi]
        assert np.mean(near_zero) < np.mean(near_pi)

    def test_bit_for_bit_reproducible(self):
        first = kernel_discrepancy(5, [0, 3], self.grid)
        second = kernel_discrepancy(5, [0, 3], OmegaGrid.linspace(-np.pi, np.pi, 1024))
        assert first == second


class TestUpsampleErrorStudy:
    def test_bandlimited_multitone_is_exact_everywhere(self):
        spec = SignalSpec(
            kind="multitone", length=15, harmonics=(1, -4, 7), amplitudes=(1, 0.5j, 0.25)
        )
        studies = {s.method: s for s in upsample_error_study(spec, 2)}
        assert studies["fft"].interior.max_abs <= 1e-8
        assert studies["fft"].edge.max_abs <= 1e-8

    def test_gaussian_pulse_edges_dominate(self):
        spec = SignalSpec(kind="gaussian-pulse", length=64)
        studies = {s.method: s for s in upsample_error_study(spec, 2)}
        assert studies["fft"].edge.max_abs > studies["fft"].interior.max_abs

    def test_reports_every_method(self):
        spec = SignalSpec(kind="gaussian-pulse", length=16)
        studies = upsample_error_study(spec, 2)
        assert [s.method for s in studies] == ["fft", "dirichlet", "sinc"]

    def test_degenerate_factor_rejected(self):
        spec = SignalSpec(kind="gaussian-pulse", length=16)
        with pytest.raises(ValueError):
            upsample_error_study(spec, 1)

    @pytest.mark.parametrize("factor", [np.inf, None])
    def test_non_integer_factor_rejected_by_name(self, factor):
        spec = SignalSpec(kind="gaussian-pulse", length=16)
        with pytest.raises(ValueError, match=repr(factor)):
            upsample_error_study(spec, factor)


class TestBench:
    def test_rejects_too_few_repetitions(self):
        with pytest.raises(ValueError):
            bench_methods([16], 2, 2)

    def test_timings_positive_and_finite(self):
        rows = bench_methods([16, 32], 2, 3)
        assert len(rows) == 4
        assert len(rows[0]) == len(BENCH_COLUMNS)
        for _, _, seconds in rows:
            assert math.isfinite(seconds) and seconds > 0

    def test_direct_method_scales_quadratically(self):
        rows = bench_methods([1024, 2048], 2, 3, methods=("dirichlet",))
        times = {n: seconds for n, _, seconds in rows}
        assert times[2048] / times[1024] >= 3.0
