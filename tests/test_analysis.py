import math
import re

import numpy as np
import pytest

from fftinterp.analysis import (
    BENCH_COLUMNS,
    KERNEL_COLUMNS,
    ErrorReport,
    bench_methods,
    compare_sequences,
    kernel_discrepancy,
    to_db,
    upsample_error_study,
)
from fftinterp.interpolate import dirichlet_upsample_direct, fft_upsample
from fftinterp.signals import SignalSpec, _refined_grid_truth, generate, splitmix64
from fftinterp.transforms import dft


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

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([1.0, np.nan]),
            np.array([np.inf, 0.0]),
            np.ones((2, 2)),
            [],
            np.array([1.0, complex(0.0, np.nan)]),
            np.array([complex(-np.inf, 1.0), 0.0]),
        ],
    )
    def test_non_finite_or_malformed_operand_rejected(self, bad):
        good = np.ones(np.size(bad))
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="samples must"):
                compare_sequences(a, b)

    def test_empty_difference_rejected(self):
        with pytest.raises(ValueError, match="cannot report on an empty difference"):
            ErrorReport.from_difference([])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rms_of_large_finite_difference_does_not_overflow(self):
        rms = ErrorReport.from_difference([2e200, 0.0]).rms
        expected = math.sqrt(2.0) * 1e200
        assert abs(rms - expected) <= math.ulp(expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_difference_is_one_value_error(self):
        with pytest.raises(ValueError, match="the difference overflows float64 at index 0"):
            compare_sequences([1.7e308], [-1.7e308])

    @pytest.mark.parametrize(
        "diff",
        [
            [0.1, -0.2, 0.3],
            random_complex(64, 3),
            1e-3 * random_complex(1000, 4),
            [3.0 + 4.0j],
            [1e150, 1e-150, -7.5e149j],
        ],
    )
    def test_rms_equals_plain_formula_bit_for_bit(self, diff):
        mags = np.abs(np.asarray(diff, dtype=np.complex128))
        assert ErrorReport.from_difference(diff).rms == float(np.sqrt(np.mean(mags**2)))

    def test_oracle_agreement_study(self):
        x = random_complex(16, 9)
        report = compare_sequences(
            fft_upsample(x, 3).samples, dirichlet_upsample_direct(x, 3).samples
        )
        assert report.max_abs <= 1e-9

    @pytest.mark.parametrize("amplitude", [-1.0, float("nan"), "a", 1j, None])
    def test_to_db_rejects_negative(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            to_db(amplitude)


class TestKernelDiscrepancy:
    def setup_method(self):
        self.omegas = np.linspace(-np.pi, np.pi, 1024)

    def test_row_shape_and_columns(self):
        rows = kernel_discrepancy(8, [0, 2], self.omegas)
        assert len(rows) == 2 * 1024
        assert len(rows[0]) == len(KERNEL_COLUMNS)

    def test_claimed_convergence_level(self):
        rows = kernel_discrepancy(8, [10], self.omegas)
        assert max(row[4] for row in rows) < -55.0

    def test_max_discrepancy_decreases_with_truncation(self):
        maxima = []
        for trunc in (0, 2, 5, 10):
            rows = kernel_discrepancy(8, [trunc], self.omegas)
            maxima.append(max(row[4] for row in rows))
        assert all(later < earlier for earlier, later in zip(maxima, maxima[1:]))

    def test_near_origin_mean_below_near_pi_mean(self):
        rows = kernel_discrepancy(8, [2], self.omegas)
        near_zero = [10 ** (row[4] / 20) for row in rows if abs(row[0]) < 0.1]
        near_pi = [10 ** (row[4] / 20) for row in rows if 3.0 <= abs(row[0]) <= np.pi]
        assert np.mean(near_zero) < np.mean(near_pi)

    def test_bit_for_bit_reproducible(self):
        first = kernel_discrepancy(5, [0, 3], self.omegas)
        second = kernel_discrepancy(5, [0, 3], np.linspace(-np.pi, np.pi, 1024))
        assert first == second

    def test_any_order_of_omegas(self):
        # no grid structure is assumed: each row depends on its omega alone
        omegas = np.array([2.0, -1.0, 2.0, 0.0])
        rows = kernel_discrepancy(8, [3], omegas)
        assert [row[0] for row in rows] == omegas.tolist()
        assert rows[0] == rows[2]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "bad", [[0.0, np.nan], [np.inf], [[0.0, 1.0], [2.0, 3.0]], 0.5, ["a"], [1j], [[0.0], []]]
    )
    def test_bad_omegas_is_one_value_error_naming_it(self, bad):
        with pytest.raises(ValueError, match="omegas"):
            kernel_discrepancy(8, [2], bad)


class TestUpsampleErrorStudy:
    def test_bandlimited_multitone_is_exact_everywhere(self):
        spec = SignalSpec(
            kind="multitone", length=15, harmonics=(1, -4, 7), amplitudes=(1, 0.5j, 0.25)
        )
        studies = {s.method: s for s in upsample_error_study(spec, 2)}
        assert studies["fft"].interior.max_abs <= 1e-8
        assert studies["fft"].edge.max_abs <= 1e-8

    @pytest.mark.parametrize("n", [1001, 10001, 100001])
    def test_fft_error_flat_in_n(self, n):
        # the ground truth reduces its phases exactly, so the error is the
        # pipeline's own and stays at a few ulps for every N; M = 3 puts the
        # refined grid at times m/3 that no float holds exactly.  The kernel
        # is checked against the study's ground truth directly: the study
        # would also run the O(N*MN) oracles at N = 100001.
        spec = SignalSpec(
            kind="multitone",
            length=n,
            harmonics=(n // 3, -(n // 7), 5),
            amplitudes=(0.5, 0.25 - 0.1j, 0.2j),
        )
        x = generate(spec)
        for factor in (2, 3):
            error = np.abs(fft_upsample(x, factor).samples - _refined_grid_truth(spec, factor))
            assert error.max() <= 1e-13, factor

    @pytest.mark.parametrize("n", [255, 1023, 4097])
    def test_oracle_error_flat_in_n(self, n):
        # the direct oracle's integer-lag kernel keeps it at a few ulps for
        # every N, like the fast path it checks
        spec = SignalSpec(
            kind="multitone",
            length=n,
            harmonics=(n // 3, -(n // 7), 5),
            amplitudes=(0.5, 0.25 - 0.1j, 0.2j),
        )
        study = {s.method: s for s in upsample_error_study(spec, 2)}["dirichlet"]
        assert max(study.interior.max_abs, study.edge.max_abs) <= 1e-14

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_truth_that_overflows_is_one_value_error(self):
        # the samples fit (peak 1.41e308); the truth at t = 1.5 is 1.85e308
        spec = SignalSpec(
            kind="multitone", length=2, harmonics=(0.25, -0.25), amplitudes=(1e308, -1e308)
        )
        with pytest.raises(ValueError, match="^the ground truth overflows float64$"):
            upsample_error_study(spec, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_difference_that_overflows_is_one_value_error(self):
        # every route's output fits, but the sinc baseline's ringing minus
        # the constant 1.2e308 does not
        spec = SignalSpec(kind="tone", length=16, harmonics=(0.0,), amplitudes=(1.2e308,))
        with pytest.raises(ValueError, match="^the difference overflows float64 at index"):
            upsample_error_study(spec, 4)


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
        rows = bench_methods([1024, 2048], 2, 3)
        times = {n: seconds for n, method, seconds in rows if method == "dirichlet"}
        assert times[2048] / times[1024] >= 3.0


# Each count a caller passes, with its least valid value.
COUNT_ENTRY_POINTS = {
    "SignalSpec-length": (1, lambda v: SignalSpec(kind="tone", length=v, harmonics=(0,))),
    "SignalSpec-band": (0, lambda v: SignalSpec(kind="bandlimited-random", length=9, band=v)),
    "bench_methods-repetitions": (3, lambda v: bench_methods([8], 2, v)),
    "bench_methods-sizes": (1, lambda v: bench_methods([v], 2, 3)),
    "dft": (2, lambda v: dft([1, 2], v)),
    "splitmix64-count": (0, lambda v: splitmix64(0, v)),
    "upsample_error_study": (
        2,
        lambda v: upsample_error_study(SignalSpec(kind="gaussian-pulse", length=8), v),
    ),
}
BELOW_MINIMUM = "minimum - 1"
# 2**63 is one past numpy's largest index, and 10**400 overflows a float
BAD_COUNTS = (np.inf, np.nan, None, True, "3", 2.5, BELOW_MINIMUM, 2**63, 10**400)
# None is the documented default of band and of dft's n, not a bad count.
NONE_IS_DEFAULT = ("SignalSpec-band", "dft")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry in COUNT_ENTRY_POINTS
        for bad in BAD_COUNTS
        if not (bad is None and entry in NONE_IS_DEFAULT)
    ],
    ids=lambda value: "10**400" if value == 10**400 else None,
)
def test_bad_count_is_one_value_error_naming_it(entry, bad):
    minimum, call = COUNT_ENTRY_POINTS[entry]
    if bad is BELOW_MINIMUM:
        bad = minimum - 1
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        call(bad)
