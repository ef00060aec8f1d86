"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here; nothing is calibrated at
run time except the wall-clock benchmark, which measures this machine.
"""

import numpy as np
import pytest

from fftinterp.analysis import bench_methods, upsample_error_study
from fftinterp.interpolate import (
    dirichlet_upsample_direct,
    fft_upsample,
    spectrum_upsample,
)
from fftinterp.kernels import dirichlet, psinc
from fftinterp.signals import SignalSpec, eval_ground_truth, generate
from fftinterp.transforms import dft, dft_naive, idft_naive

GRID = np.linspace(-np.pi, np.pi, 1024)

SWEEP_LENGTHS = range(2, 33)
SWEEP_FACTORS = (1, 2, 3, 4, 7)
SWEEP_SEEDS = range(20)


def _report(number: int, description: str, passed: bool):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {description}")
    assert passed, f"criterion {number} failed: {description}"


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_criterion_01_kernel_convergence():
    maxima = []
    reference = dirichlet(8, GRID)
    for trunc in (0, 2, 5, 10):
        maxima.append(np.max(np.abs(reference - psinc(8, trunc, GRID))))
    level_ok = 20 * np.log10(maxima[-1]) < -55.0
    decreasing = all(later < earlier for earlier, later in zip(maxima, maxima[1:]))
    _report(
        1,
        "psinc(L=10) within -55 dB of dirichlet on 1024-point grid, "
        "max discrepancy strictly decreasing over L in {0,2,5,10}",
        level_ok and decreasing,
    )


def test_criterion_02_near_origin_discrepancy():
    reference = dirichlet(8, GRID)
    near_zero = np.abs(GRID) < 0.1
    near_pi = (np.abs(GRID) >= 3.0) & (np.abs(GRID) <= np.pi)
    ok = True
    for trunc in (2, 5):
        gap = np.abs(reference - psinc(8, trunc, GRID))
        ok = ok and gap[near_zero].mean() < gap[near_pi].mean()
    _report(2, "mean |dirichlet-psinc| near 0 below mean near pi for L in {2,5}", ok)


def test_criterion_03_replica_sum_identity():
    ok = True
    for order in (4, 5, 8, 9):
        gap = np.max(np.abs(dirichlet(order, GRID) - psinc(order, 200, GRID)))
        ok = ok and gap < 1e-3
    _report(3, "dirichlet equals psinc(L=200) within 1e-3 for N in {4,5,8,9}", ok)


def test_criterion_04_pipeline_oracle_equivalence():
    worst = 0.0
    for n in SWEEP_LENGTHS:
        for factor in SWEEP_FACTORS:
            for seed in SWEEP_SEEDS:
                x = random_complex(n, (n, factor, seed))
                fast = fft_upsample(x, factor).samples
                direct = dirichlet_upsample_direct(x, factor).samples
                worst = max(worst, float(np.max(np.abs(fast - direct))))
    _report(
        4,
        f"fft pipeline vs direct Dirichlet sum max-abs {worst:.2e} <= 1e-9 "
        "over N in 2..32, M in {1,2,3,4,7}, 20 seeds",
        worst <= 1e-9,
    )


def test_criterion_05_sample_preservation_and_identity():
    preserved = True
    identity = True
    for n in SWEEP_LENGTHS:
        for factor in SWEEP_FACTORS:
            for seed in SWEEP_SEEDS:
                x = random_complex(n, (n, factor, seed))
                out = fft_upsample(x, factor).samples
                scale = np.abs(x).max()
                kept = out[::factor]
                preserved = preserved and bool(
                    np.all(np.abs(kept - x) <= 1e-10 * np.abs(x))
                )
                if factor == 1:
                    identity = identity and bool(np.all(np.abs(out - x) <= 1e-12 * scale))
    _report(
        5,
        "original samples preserved at M*q within 1e-10 relative; "
        "M=1 is the identity within 1e-12*max|x|",
        preserved and identity,
    )


def test_criterion_06_spectrum_grid_relation():
    ok = True
    for n in (4, 8, 16):
        for factor in (2, 3):
            x = random_complex(n, (n, factor))
            values = spectrum_upsample(x, factor)
            base = dft_naive(x)
            total = factor * n
            gap = np.abs(total * values[: total : factor][:n] - n * base).max()
            ok = ok and gap <= 1e-10
    _report(6, "M*N*spectrum[M*k] equals N*dft[k] within 1e-10, N in {4,8,16}, M in {2,3}", ok)


def test_criterion_07_transform_correctness():
    ok = True
    for n in list(range(1, 129)) + [256, 500, 1000, 1024]:
        x = random_complex(n, n)
        tol = 1e-10 * n * np.abs(x).max()
        ok = ok and bool(np.all(np.abs(dft(x) - dft_naive(x)) <= tol))
    for n in range(1, 65):
        x = random_complex(n, 1000 + n)
        back = idft_naive(dft_naive(x))
        ok = ok and bool(np.all(np.abs(back - x) <= 1e-12 * np.abs(x).max()))
    for n in (8, 12, 100, 256, 500):
        x = random_complex(n, 2000 + n)
        energy_time = np.sum(np.abs(x) ** 2)
        energy_freq = n * np.sum(np.abs(dft_naive(x)) ** 2)
        ok = ok and abs(energy_time - energy_freq) <= 1e-10 * energy_time
    _report(
        7,
        "fast transform matches the naive oracle on lengths 1..128 and "
        "{256,500,1000,1024}; inversion and Parseval hold",
        ok,
    )


def test_criterion_08_trigonometric_exactness():
    # the Dirichlet interpolant of an even-length record is exact on the
    # centered half-integer harmonic grid |h| <= (N-1)/2
    n, factor = 32, 4
    spec = SignalSpec(
        kind="multitone",
        length=n,
        harmonics=(0.5, -3.5, 10.5, 15.5, -15.5),
        amplitudes=(1.0, 0.5 - 0.25j, 0.3j, -0.2, 0.1 + 0.1j),
    )
    x = generate(spec)
    refined_t = np.arange(factor * n) / factor
    truth = eval_ground_truth(spec, refined_t)
    out = fft_upsample(x, factor).samples
    gap = float(np.abs(out - truth).max())
    _report(
        8,
        f"bandlimited multitone (N=32, M=4) reconstructed within 1e-8 "
        f"at every refined point (max {gap:.2e})",
        gap <= 1e-8,
    )


def test_criterion_09_windowing_effect():
    spec = SignalSpec(kind="gaussian-pulse", length=64)
    studies = {s.method: s for s in upsample_error_study(spec, 2)}
    study = studies["fft"]
    _report(
        9,
        f"gaussian pulse (N=64, M=2): edge max error {study.edge.max_abs:.2e} "
        f"exceeds interior max error {study.interior.max_abs:.2e}",
        study.edge.max_abs > study.interior.max_abs,
    )


def test_criterion_10_fast_method_is_fast():
    rows = bench_methods([4096], 2, 3)
    medians = {method: seconds for _, method, seconds in rows}
    ratio = medians["fft"] / medians["dirichlet"]
    _report(
        10,
        f"N=4096, M=2: median fft time is {ratio:.4f} of the direct method "
        "(required <= 0.1)",
        medians["fft"] <= medians["dirichlet"] / 10,
    )
