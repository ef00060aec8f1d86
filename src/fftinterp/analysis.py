"""Quantitative studies: kernel-discrepancy tables, interpolation error
reports against closed-form ground truth, and wall-clock benchmarks."""

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import interpolate, signals
from .kernels import _check_integer, _finite_floats, dirichlet, psinc
from .transforms import _as_samples

__all__ = [
    "ErrorReport",
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
    """20*log10 of a non-negative real amplitude; -inf stands in for an exact zero."""
    if not (isinstance(amplitude, numbers.Real) and amplitude >= 0):
        raise ValueError(f"amplitude must be a non-negative real number, got {amplitude!r}")
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
        """Statistics of a non-empty difference of finite values.

        A non-finite entry can only be a difference that overflowed, and
        is one ValueError that says so.  rms is taken on the magnitudes
        divided by the largest power of two at or below the largest (0.5
        when all are 0), so every square is below 4 and none overflows.
        The scaling is exact, so the result is bit for bit
        sqrt(mean(|d|**2)) wherever those squares neither overflow nor
        underflow.
        """
        with np.errstate(over="ignore"):
            mags = np.abs(np.asarray(diff, dtype=np.complex128))
        if mags.size == 0:
            raise ValueError("cannot report on an empty difference")
        index = int(np.argmax(mags))
        max_abs = float(mags[index])
        if not math.isfinite(max_abs):
            raise ValueError(f"the difference overflows float64 at index {index}")
        scale = 2.0 ** (math.frexp(max_abs)[1] - 1)
        rms = scale * float(np.sqrt(np.mean((mags / scale) ** 2)))
        return cls(max_abs=max_abs, rms=rms, max_db=to_db(max_abs), argmax_index=index)


def kernel_discrepancy(order: int, truncations, omegas):
    """Tabulate dirichlet vs psinc at each omega, one row per (omega, L).

    ``omegas`` is any finite 1-D array of radian frequencies, such as
    ``np.linspace(-np.pi, np.pi, 1024)``; anything else is a ValueError
    naming it.  Rows are (omega, truncation, dirichlet, psinc,
    discrepancy_db) with discrepancy_db = 20*lg|dirichlet - psinc| (-inf
    where the two agree exactly), grouped by truncation in the given order.
    Reproducible bit for bit from (order, truncations, omegas).
    """
    omegas = _finite_floats(omegas, "omegas")
    if omegas.ndim != 1:
        raise ValueError(f"omegas must be a 1-D array, got shape {omegas.shape}")
    reference = dirichlet(order, omegas)
    rows = []
    for trunc in truncations:
        approx = psinc(order, trunc, omegas)
        for w, ref, app in zip(omegas, reference, approx):
            rows.append((float(w), int(trunc), float(ref), float(app), to_db(abs(ref - app))))
    return rows


def compare_sequences(a, b) -> ErrorReport:
    """Element-wise |a - b| statistics; lengths must match.

    Each operand is a ``Sequence`` or a finite, non-empty 1-D array, such
    as the spectrum ``spectrum_upsample`` returns; anything else is a
    ValueError.
    """
    left = _as_samples(a)
    right = _as_samples(b)
    if left.size != right.size:
        raise ValueError(f"sequence lengths differ: {left.size} vs {right.size}")
    with np.errstate(over="ignore"):
        diff = left - right
    return ErrorReport.from_difference(diff)


@dataclass(frozen=True)
class MethodStudy:
    """Interior/edge error split for one interpolation method."""

    method: str
    interior: ErrorReport
    edge: ErrorReport


def upsample_error_study(spec: signals.SignalSpec, factor: int):
    """Run every interpolation method against ground truth on the refined grid.

    Returns one ``MethodStudy`` per method of ``interpolate.METHODS``, in
    that order.  Interior points are those with N/4 <= m/M <= 3N/4; the
    rest are edge points, where truncation (windowing) error concentrates.
    Requires factor >= 2 so the refined grid actually contains off-sample
    points.
    """
    m_factor = _check_integer(factor, "study factor", 2)
    x = signals.generate(spec)
    n = spec.length
    positions = np.arange(m_factor * n) / m_factor
    truth = signals._refined_grid_truth(spec, m_factor)
    interior = (positions >= n / 4) & (positions <= 3 * n / 4)
    studies = []
    for method in interpolate.METHODS:
        refined = interpolate.upsample(x, m_factor, method).samples
        with np.errstate(over="ignore"):
            diff = refined - truth
        studies.append(
            MethodStudy(
                method=method,
                interior=ErrorReport.from_difference(diff[interior]),
                edge=ErrorReport.from_difference(diff[~interior]),
            )
        )
    return studies


# Each case is timed in slices of repeated calls lasting at least this long,
# ten per lap, going round all the cases in turn.  On a shared 2-core VM a
# second process that takes a core for 0.15 s of every 0.4 s made the
# direct method at N = 1024 and 2048 read less than 3x apart in 25 of 93
# trials of the median of three 0.2 s laps (2.0x at worst), against 4x for
# its quadratic cost.  The median over 30 interleaved 0.02 s slices read
# 3.3-4.0x in 56 trials under the same load: the spells slow fewer than
# half of the slices, and the median drops them.
_SLICE_SECONDS = 0.02
_SLICES_PER_LAP = 10


def bench_methods(sizes, factor: int, repetitions: int):
    """Median wall-clock seconds per call of ``fft`` and ``dirichlet`` at each size.

    Rows are (size, method, seconds), ``fft`` then ``dirichlet`` per size.

    A warm-up call per case, discarded, fixes how many calls each of its
    timed slices makes: enough to last about 0.02 s.  Each of the
    ``repetitions`` laps times ten slices of every case, going round all
    the cases in turn, so a host that slows down for a while slows every
    case alike instead of one size.  Each row holds the median over the
    case's slices of the slice time divided by its calls.  Inputs are
    deterministic bandlimited-random signals seeded by the size, with the
    band capped so generation stays cheap relative to the timed work.
    Timing runs serially.
    """
    reps = _check_integer(repetitions, "repetitions", 3)
    cases = []
    for size in sizes:
        n = _check_integer(size, "size", 1)
        band = min((n - 1) // 2, 16)
        x = signals.generate(
            signals.SignalSpec(kind="bandlimited-random", length=n, seed=n, band=band)
        )
        for method in ("fft", "dirichlet"):
            start = time.perf_counter()
            interpolate.upsample(x, factor, method)
            calls = max(1, math.ceil(_SLICE_SECONDS / (time.perf_counter() - start)))
            cases.append((n, method, x, calls))
    slices = [[] for _ in cases]
    for _ in range(reps * _SLICES_PER_LAP):
        for (_, method, x, calls), times in zip(cases, slices):
            start = time.perf_counter()
            for _ in range(calls):
                interpolate.upsample(x, factor, method)
            times.append((time.perf_counter() - start) / calls)
    return [(n, method, float(np.median(times))) for (n, method, _, _), times in zip(cases, slices)]
