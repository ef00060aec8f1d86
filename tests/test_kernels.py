import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fftinterp.interpolate import dirichlet_interp_spectrum
from fftinterp.kernels import _BLOCK_ENTRIES, _dirichlet_lags, dirichlet, psinc, sinc
from fftinterp.signals import SignalSpec, eval_ground_truth
from fftinterp.transforms import Sequence, dtft_at


def test_sinc_at_zero():
    assert sinc(0.0) == 1.0


def test_sinc_at_pi():
    assert abs(sinc(np.pi)) < 1e-15


def test_sinc_at_half_pi():
    assert sinc(np.pi / 2) == pytest.approx(2 / np.pi, abs=1e-15)


def test_sinc_array_matches_scalar():
    w = np.linspace(-10, 10, 101)
    vals = sinc(w)
    assert vals.shape == w.shape
    for wi, vi in zip(w, vals):
        assert sinc(float(wi)) == vi


def test_sinc_rejects_non_finite():
    with pytest.raises(ValueError):
        sinc(np.nan)
    with pytest.raises(ValueError):
        sinc(np.inf)


def test_dirichlet_limit_at_zero():
    assert dirichlet(4, 0.0) == 1.0


@pytest.mark.parametrize("order,expected", [(5, 1.0), (4, -1.0)])
def test_dirichlet_limit_at_two_pi(order, expected):
    assert dirichlet(order, 2 * np.pi) == pytest.approx(expected, abs=1e-12)


def test_dirichlet_zero_at_half_pi_order4():
    assert abs(dirichlet(4, np.pi / 2)) < 1e-15


def test_dirichlet_direct_value():
    # 1/(8*sin(pi/16)), cross-checked at 25 digits with mpmath
    assert dirichlet(8, np.pi / 8) == pytest.approx(0.6407288619353765, abs=1e-14)
    assert dirichlet(8, np.pi / 8) == pytest.approx(1 / (8 * math.sin(math.pi / 16)), abs=1e-15)


def test_dirichlet_rejects_non_finite():
    with pytest.raises(ValueError):
        dirichlet(4, np.inf)


def test_dirichlet_rejects_bad_order():
    with pytest.raises(ValueError):
        dirichlet(0, 1.0)
    with pytest.raises(ValueError):
        dirichlet(2.5, 1.0)


NOT_WHOLE = [np.inf, np.nan, None, True, "2", 2.5]


@pytest.mark.parametrize("value", NOT_WHOLE, ids=repr)
def test_order_must_be_a_whole_number(value):
    for evaluate in (lambda: dirichlet(value, 1.0), lambda: psinc(value, 2, 1.0)):
        with pytest.raises(ValueError, match="kernel order"):
            evaluate()


@pytest.mark.parametrize("value", NOT_WHOLE, ids=repr)
def test_truncation_must_be_a_whole_number(value):
    with pytest.raises(ValueError, match="truncation"):
        psinc(4, value, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_truncation_no_array_holds_is_one_value_error_naming_it():
    # 2*L + 1 replicas at L = 2**62 are more than one array can hold; the
    # truncation is refused as a count, not summed over an empty range
    with pytest.raises(ValueError, match=f"^truncation must be an integer <= .*, got {2**62}$"):
        psinc(8, 2**62, np.linspace(-3.0, 3.0, 5))


def test_integral_float_order_and_truncation_accepted():
    w = np.linspace(-3.0, 3.0, 7)
    assert np.array_equal(dirichlet(4.0, w), dirichlet(4, w))
    assert np.array_equal(psinc(4.0, 2.0, w), psinc(4, 2, w))


def test_psinc_single_replica_is_scaled_sinc():
    rng = np.random.default_rng(1)
    w = rng.uniform(-np.pi, np.pi, 50)
    for order in (1, 2, 4, 5, 9):
        np.testing.assert_allclose(psinc(order, 0, w), sinc(order * w / 2), rtol=0, atol=1e-15)


def test_psinc_zero_argument():
    assert psinc(4, 0, 0.0) == 1.0


def test_psinc_rejects_negative_truncation():
    with pytest.raises(ValueError):
        psinc(4, -1, 0.0)


@pytest.mark.parametrize("order", [5, 8])
@pytest.mark.parametrize("truncation", [0, 2, 5, 10, 20, 200, 3000])
def test_psinc_row_blocks_keep_every_row_sum_bit_for_bit(order, truncation):
    # three full row blocks and a partial one, against the whole replica
    # matrix summed row by row at once
    rows = max(1, _BLOCK_ENTRIES // (2 * truncation + 1))
    w = np.linspace(-np.pi, np.pi, 3 * rows + 1)
    shifts = np.arange(-truncation, truncation + 1)
    signs = 1.0 - 2.0 * (((order - 1) * shifts) & 1)
    whole = (signs * sinc(0.5 * order * (w[:, None] - 2.0 * np.pi * shifts))).sum(axis=-1)
    got = psinc(order, truncation, w)
    np.testing.assert_array_equal(got.view(np.uint64), whole.view(np.uint64))


def test_psinc_memory_does_not_grow_with_points_times_truncation():
    # the whole 1024 x 8001 replica matrix takes 66 MB per temporary
    w = np.linspace(-np.pi, np.pi, 1024)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        psinc(8, 4000, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_psinc_converges_below_minus_55_db():
    w = np.linspace(-np.pi, np.pi, 1024)
    gap = np.max(np.abs(dirichlet(8, w) - psinc(8, 10, w)))
    assert gap < 10 ** (-55 / 20)


@pytest.mark.parametrize("order", [4, 5, 8, 9])
def test_psinc_convergence_monotone_in_truncation(order):
    w = np.linspace(-np.pi, np.pi, 1024)
    reference = dirichlet(order, w)
    gaps = [np.max(np.abs(reference - psinc(order, trunc, w))) for trunc in (0, 2, 5, 10, 20)]
    assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("order", [7, 8, 9, 64])
def test_psinc_converges_as_inverse_square_of_truncation(order):
    # the replicas past L sum to O(1/L**2) near w = +/-pi: the fitted slope
    # of log max|gap| against log L is -2 up to the fit's curvature
    w = np.linspace(-np.pi, np.pi, 4097)
    reference = dirichlet(order, w)
    truncations = np.array([10, 20, 40, 80, 160])
    gaps = [np.max(np.abs(reference - psinc(order, trunc, w))) for trunc in truncations]
    slope = np.polyfit(np.log(truncations), np.log(gaps), 1)[0]
    assert -2.05 <= slope <= -1.90


@pytest.mark.parametrize("order", [4, 5, 8, 9])
@pytest.mark.parametrize("trunc", [0, 2, 5, 10, 20])
def test_discrepancy_smaller_near_origin(order, trunc):
    w = np.linspace(-np.pi, np.pi, 1024)
    gap = np.abs(dirichlet(order, w) - psinc(order, trunc, w))
    near_zero = np.abs(w) < 0.1
    near_pi = np.abs(w) >= np.pi - 0.1
    assert gap[near_zero].max() <= gap[near_pi].max()


@pytest.mark.parametrize("order", [2, 3, 4, 7, 8])
def test_dirichlet_even(order):
    w = np.linspace(0.0, 4 * np.pi, 777)
    np.testing.assert_allclose(dirichlet(order, w), dirichlet(order, -w), rtol=0, atol=1e-14)


@pytest.mark.parametrize("order,trunc", [(4, 3), (5, 7), (8, 2)])
def test_psinc_even(order, trunc):
    w = np.linspace(0.0, 2 * np.pi, 301)
    np.testing.assert_allclose(
        psinc(order, trunc, w), psinc(order, trunc, -w), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("order", [3, 5, 9])
def test_dirichlet_odd_order_period_two_pi(order):
    w = np.linspace(-np.pi, np.pi, 1024)
    np.testing.assert_allclose(
        dirichlet(order, w + 2 * np.pi), dirichlet(order, w), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("order", [2, 4, 8])
def test_dirichlet_even_order_period_four_pi(order):
    w = np.linspace(-np.pi, np.pi, 1024)
    np.testing.assert_allclose(
        dirichlet(order, w + 2 * np.pi), -dirichlet(order, w), rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        dirichlet(order, w + 4 * np.pi), dirichlet(order, w), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("order", [2, 4, 5, 8, 16])
def test_dirichlet_sampling_property(order):
    for r in range(-order + 1, order):
        if r % order == 0:
            continue
        assert abs(dirichlet(order, 2 * np.pi * r / order)) < 1e-12


def test_dirichlet_continuous_through_singularity():
    # both sines see the one reduced angle, so the value approaches the limit
    # smoothly: at an offset u it is 1 - (N**2 - 1)*u**2/24 away, ~1e-17 here
    for order in (4, 5):
        for cycles, base in ((0, 0.0), (1, 2 * np.pi), (-2, -4 * np.pi)):
            limit = (-1.0) ** (cycles * (order - 1))
            inside = dirichlet(order, base + 9.9e-10)
            outside = dirichlet(order, base + 1.1e-9)
            assert abs(inside - limit) < 1e-12
            assert abs(outside - limit) < 1e-12


def test_dirichlet_huge_argument_emits_no_warning():
    # the singular-point parity must not go through an int64 cast of the
    # cycle count, which overflows far below 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = dirichlet(3, 1e300)
    assert abs(value) <= 1.0


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("w", [1e300, -1.7e308])
def test_dirichlet_near_float_max_emits_no_warning(order, w):
    # N*w/2, which overflows near 1.7e308, is never formed, and the parity of
    # an even order's cycle count takes no int64 cast either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = dirichlet(order, w)
    assert abs(value) <= 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "evaluate,name,value",
    [
        (lambda v: psinc(4, 2, v), "kernel argument", 1e308),
        (lambda v: dtft_at([1, 2, 3], v), "frequency", 1e308),
        (lambda v: dirichlet_interp_spectrum([1, 2, 3, 4, 5], v), "frequency", 1e308),
        (
            lambda v: eval_ground_truth(SignalSpec(kind="tone", length=8, harmonics=(1,)), v),
            "evaluation time",
            1e308,
        ),
    ],
    ids=["psinc", "dtft_at", "dirichlet_interp_spectrum", "tone"],
)
def test_huge_finite_argument_is_one_value_error_naming_it(evaluate, name, value):
    # the argument is finite, but the arithmetic on it overflows float64
    with pytest.raises(ValueError, match=re.escape(f"overflows float64 at {name} {value!r}")):
        evaluate(value)
    with pytest.raises(ValueError, match=re.escape(f"{name} {-value!r}")):
        evaluate([0.0, -value])


# Each entry point that converts an argument to numbers, with the name its
# ValueError gives that argument.
CONVERTING_ENTRY_POINTS = {
    "Sequence-samples": ("samples", lambda v: Sequence([1.0, v])),
    "Sequence-sample_period": ("sample_period", lambda v: Sequence([1.0], sample_period=v)),
    "dirichlet": ("kernel argument", lambda v: dirichlet(4, v)),
    "sinc": ("kernel argument", sinc),
    "psinc": ("kernel argument", lambda v: psinc(4, 2, v)),
    "dtft_at": ("frequency", lambda v: dtft_at([1, 2, 3], v)),
    "SignalSpec-harmonics": (
        "harmonics",
        lambda v: SignalSpec(kind="tone", length=8, harmonics=(v,)),
    ),
    "SignalSpec-center": (
        "pulse center",
        lambda v: SignalSpec(kind="gaussian-pulse", length=8, center=v),
    ),
    "SignalSpec-amplitudes": (
        "amplitudes",
        lambda v: SignalSpec(kind="multitone", length=8, harmonics=(0,), amplitudes=(v,)),
    ),
}
# an integer past float64's range, a non-number and an unparsable string
UNCONVERTIBLE = {"10**400": 10**400, "object": object(), "abc": "abc"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", UNCONVERTIBLE.values(), ids=UNCONVERTIBLE.keys())
@pytest.mark.parametrize("entry", CONVERTING_ENTRY_POINTS)
def test_unconvertible_argument_is_one_value_error_naming_it(entry, value):
    name, call = CONVERTING_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("width", [1.0, 1.1e-154])
def test_gaussian_pulse_far_from_center_is_exactly_zero(width):
    # (t - center)**2 overflows here, where the exact value is 0
    pulse = SignalSpec(kind="gaussian-pulse", length=8, width=width)
    values = eval_ground_truth(pulse, [1e200, -1e200, 1.7e308])
    assert np.array_equal(values, np.zeros(3))


# pi - float(pi): carries 2*pi*m below float precision
PI_TAIL = 1.2246467991473532e-16


def offset_quotient(order, cycles, w):
    """The kernel at float w near 2*pi*m, from its exact offset u = w - 2*pi*m.

    (-1)**(m*(N-1)) * sin(N*u/2) / (N*sin(u/2)); u is small, so both sines
    are accurate to an ulp and nothing cancels.
    """
    u = float(Fraction(w) - 2 * cycles * Fraction(np.pi)) - 2 * cycles * PI_TAIL
    sign = (-1.0) ** (cycles * (order - 1))
    return sign if u == 0 else sign * math.sin(order * u / 2) / (order * math.sin(u / 2))


@pytest.mark.parametrize("order", [3, 4, 5, 8, 1001])
@pytest.mark.parametrize("cycles", [-2, -1, 1, 2, 3])
def test_dirichlet_accurate_around_singular_points(order, cycles):
    assert dirichlet(order, 2 * np.pi * cycles) == (-1.0) ** (cycles * (order - 1))
    for offset in (1e-12, 1e-10, 1.1e-9, 1e-8, 1e-6, 1e-4):
        for w in (2 * np.pi * cycles + offset, 2 * np.pi * cycles - offset):
            assert abs(dirichlet(order, w) - offset_quotient(order, cycles, w)) < 1e-12


@pytest.mark.parametrize("order,factor", [(3, 2), (4, 3), (8, 4), (255, 4), (1024, 2), (4097, 2)])
def test_dirichlet_agrees_with_integer_lag_kernel(order, factor):
    lags = np.arange(-(order * factor - 1), order * factor)
    gap = dirichlet(order, 2 * np.pi * lags / (order * factor)) - _dirichlet_lags(order, factor, lags)
    assert np.max(np.abs(gap)) <= 4 * order * np.finfo(float).eps


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# ordinary, tiny, subnormal and zero arguments
ARGUMENTS = np.concatenate(
    (
        np.random.default_rng(21).uniform(-60.0, 60.0, 4000),
        np.random.default_rng(22).uniform(-2e-9, 2e-9, 1000),
        [1.1e-9, -9.9e-10, 1e-12, 2.2250738585072014e-308, 1e-310, 5e-324, -5e-324, 0.0, -0.0],
    )
)


def test_sinc_is_the_plain_quotient_bit_for_bit():
    with np.errstate(invalid="ignore"):
        expected = np.where(ARGUMENTS == 0.0, 1.0, np.sin(ARGUMENTS) / ARGUMENTS)
    assert np.array_equal(bits(sinc(ARGUMENTS)), bits(expected))
    assert sinc(0.0) == 1.0 and sinc(-0.0) == 1.0


@pytest.mark.parametrize("order,truncation", [(4, 3), (5, 0), (8, 10)])
def test_psinc_is_the_plain_replica_sum_bit_for_bit(order, truncation):
    shifts = np.arange(-truncation, truncation + 1)
    args = 0.5 * order * (ARGUMENTS[:, None] - 2.0 * np.pi * shifts)
    with np.errstate(invalid="ignore"):
        replicas = np.where(args == 0.0, 1.0, np.sin(args) / args)
    expected = ((-1.0) ** ((order - 1) * shifts) * replicas).sum(axis=-1)
    assert np.array_equal(bits(psinc(order, truncation, ARGUMENTS)), bits(expected))
