"""Quantitative studies: kernel-discrepancy tables, interpolation error
reports against closed-form ground truth, and wall-clock benchmarks."""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import interpolate, signals
from .kernels import dirichlet, psinc
from .transforms import Sequence, SpectrumSamples

__all__ = [
    "ErrorReport",
    "OmegaGrid",
    "MethodStudy",
    "KERNEL_COLUMNS",
    "BENCH_COLUMNS",
    "to_db",
    "kernel_discrepancy",
    "compare_sequences",
    "upsample_error_study",
    "bench_methods",
]

KERNEL_COLUMNS = ("omega", "truncation", "dirichlet", "psinc", "discrepancy_db")
BENCH_COLUMNS = ("n", "method", "median_seconds")


def to_db(amplitude: float) -> float:
    """20*log10 of an amplitude; -inf stands in for an exact zero."""
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    return -math.inf if amplitude == 0.0 else 20.0 * math.log10(amplitude)


@dataclass(frozen=True)
class ErrorReport:
    """Element-wise discrepancy statistics between two equal-length grids."""

    max_abs: float
    rms: float
    max_db: float
    argmax_index: int

    @classmethod
    def from_difference(cls, diff) -> "ErrorReport":
        mags = np.abs(np.asarray(diff, dtype=np.complex128))
        if mags.size == 0:
            raise ValueError("cannot report on an empty difference")
        index = int(np.argmax(mags))
        max_abs = float(mags[index])
        rms = float(np.sqrt(np.mean(mags**2)))
        return cls(max_abs=max_abs, rms=rms, max_db=to_db(max_abs), argmax_index=index)


@dataclass(eq=False, frozen=True)
class OmegaGrid:
    """Strictly increasing radian grid remembered with its build descriptor."""

    points: np.ndarray
    descriptor: tuple

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("a grid needs at least two points")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        if not np.all(np.diff(points) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "descriptor", tuple(self.descriptor))

    @classmethod
    def linspace(cls, start: float, stop: float, count: int) -> "OmegaGrid":
        if count != int(count) or int(count) < 2:
            raise ValueError(f"grid count must be an integer >= 2, got {count!r}")
        if not stop > start:
            raise ValueError("grid stop must exceed start")
        return cls(np.linspace(start, stop, int(count)), (float(start), float(stop), int(count)))

    def __len__(self):
        return self.points.size


def kernel_discrepancy(order: int, truncations, grid: OmegaGrid):
    """Tabulate dirichlet vs psinc over a grid, one row per (omega, L).

    Rows are (omega, truncation, dirichlet, psinc, discrepancy_db) with
    discrepancy_db = 20*lg|dirichlet - psinc| (-inf where the two agree
    exactly), grouped by truncation in the given order.  Reproducible
    bit for bit from (order, truncations, grid descriptor).
    """
    reference = dirichlet(order, grid.points)
    rows = []
    for trunc in truncations:
        approx = psinc(order, trunc, grid.points)
        for w, ref, app in zip(grid.points, reference, approx):
            rows.append((float(w), int(trunc), float(ref), float(app), to_db(abs(ref - app))))
    return rows


def _samples_of(x) -> np.ndarray:
    if isinstance(x, Sequence):
        return x.samples
    if isinstance(x, SpectrumSamples):
        return x.values
    return np.asarray(x, dtype=np.complex128)


def compare_sequences(a, b) -> ErrorReport:
    """Element-wise |a - b| statistics; lengths must match."""
    left = _samples_of(a)
    right = _samples_of(b)
    if left.size != right.size:
        raise ValueError(f"sequence lengths differ: {left.size} vs {right.size}")
    return ErrorReport.from_difference(left - right)


@dataclass(frozen=True)
class MethodStudy:
    """Interior/edge error split for one interpolation method."""

    method: str
    interior: ErrorReport
    edge: ErrorReport


def upsample_error_study(spec: signals.SignalSpec, factor: int, methods=interpolate.METHODS):
    """Run interpolation methods against ground truth on the refined grid.

    Interior points are those with N/4 <= m/M <= 3N/4; the rest are edge
    points, where truncation (windowing) error concentrates.  Requires
    factor >= 2 so the refined grid actually contains off-sample points.
    """
    m_factor = interpolate._check_factor(factor)
    if m_factor < 2:
        raise ValueError(f"study factor must be an integer >= 2, got {factor!r}")
    x = signals.generate(spec)
    n = spec.length
    positions = np.arange(m_factor * n) / m_factor
    truth = signals.eval_ground_truth(spec, positions * x.sample_period)
    interior = (positions >= n / 4) & (positions <= 3 * n / 4)
    studies = []
    for method in methods:
        refined = interpolate.upsample(x, m_factor, method).samples
        diff = refined - truth
        studies.append(
            MethodStudy(
                method=method,
                interior=ErrorReport.from_difference(diff[interior]),
                edge=ErrorReport.from_difference(diff[~interior]),
            )
        )
    return studies


def bench_methods(sizes, factor: int, repetitions: int, methods=("fft", "dirichlet")):
    """Median wall-clock seconds per (size, method); warm-up run discarded.

    Inputs are deterministic bandlimited-random signals seeded by the size,
    with the band capped so generation stays cheap relative to the timed
    work.  Timing runs serially.
    """
    if repetitions != int(repetitions) or int(repetitions) < 3:
        raise ValueError(f"repetitions must be an integer >= 3, got {repetitions!r}")
    reps = int(repetitions)
    rows = []
    for size in sizes:
        n = int(size)
        band = min((n - 1) // 2, 16)
        x = signals.generate(
            signals.SignalSpec(kind="bandlimited-random", length=n, seed=n, band=band)
        )
        for method in methods:
            laps = []
            for _ in range(reps + 1):
                start = time.perf_counter()
                interpolate.upsample(x, factor, method)
                laps.append(time.perf_counter() - start)
            rows.append((n, method, float(np.median(laps[1:]))))
    return rows
