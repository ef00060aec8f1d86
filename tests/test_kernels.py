import math
import warnings

import numpy as np
import pytest

from fftinterp.kernels import KernelSpec, dirichlet, psinc, sinc


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
    # inside the Taylor window the value sits at the limit (the u^2 term is
    # ~1e-17); just outside, the raw quotient is argument-reduction limited
    for order in (4, 5):
        for cycles, base in ((0, 0.0), (1, 2 * np.pi), (-2, -4 * np.pi)):
            limit = (-1.0) ** (cycles * (order - 1))
            inside = dirichlet(order, base + 9.9e-10)
            outside = dirichlet(order, base + 1.1e-9)
            assert abs(inside - limit) < 1e-12
            assert abs(outside - limit) < 1e-6


def test_dirichlet_huge_argument_emits_no_warning():
    # the singular-point parity must not go through an int64 cast of the
    # cycle count, which overflows far below 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = dirichlet(3, 1e300)
    assert abs(value) <= 1.0


def test_kernel_spec_validates():
    spec = KernelSpec(order=4, truncation=2)
    assert spec.dirichlet(0.0) == 1.0
    assert spec.psinc(0.0) == pytest.approx(psinc(4, 2, 0.0))
    with pytest.raises(ValueError):
        KernelSpec(order=0)
    with pytest.raises(ValueError):
        KernelSpec(order=4, truncation=-1)
