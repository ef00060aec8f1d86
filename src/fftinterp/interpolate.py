"""Time-domain interpolation onto the refined grid t_m = m*Ts/M.

Three routes are provided: truncated sinc summation (the sampling-theorem
baseline), direct Dirichlet-kernel summation (the quadratic-time oracle),
and the fast FFT kernel.  The fast kernel and the direct summation compute
the same quantity

    x3[m] = sum_k x[k] * dirichlet(N, 2*pi*(m - M*k) / (M*N))

so they must agree to rounding error; the sinc route differs by the
windowing effect near the record edges.

The paper computes this sum by zero-padding to M*N points and taking one
M*N-point FFT between two phase rotations.  The fast kernel here is the
polyphase form of the same computation: output m = M*q + r of an M*N-point
transform whose input is zero past N depends on q only through an N-point
transform, so each of the M output phases r is one N-point inverse
transform of the twisted input's spectrum times a phase ramp, and phase 0
is the input itself.

The twist, its conjugate and the M-1 ramps are built once per (N, M) and
kept for the next call: (M+1)*N complex128 values, 5 MB at N = 65536,
M = 4 and 80 MB at N = 10^6, M = 4.  Only the last (N, M) is kept, so a
call with another (N, M) frees them when it builds its own.  The inverse
transforms run in place in the twisted input, which is dead once it is
transformed, so a call holds two N-point arrays: that buffer and the
spectrum.

The three methods of ``upsample`` write the same refined grid, and
``_refine`` is the one place that knows its layout: output m = M*q + r is
entry (q, r) of an (N, M) array, phase 0 (m = M*q) is the input copied
bit for bit, and a method fills only phases 1..M-1.  That holds for the
kernel sums too, because the Dirichlet and sinc kernels are exactly 1 at
lag 0 and exactly 0 at the other multiples of M.  ``_refine`` fills the
phases under ``kernels._overflow_error``, the one float64-overflow
converter, so an interpolant that does not fit float64 is one ValueError
naming the largest input, with no RuntimeWarning.  Like ``dft``, every
route keeps a result that fits when only the sums inside it overflow,
through the one rule ``kernels._fitting``: the fill is redone on the
input scaled down by a power of two and its phases scaled back, exactly.

Note the Dirichlet interpolant is periodic and is exact only for signals
whose harmonic content sits on the centered grid h = q - (N-1)/2,
q = 0..N-1 (integers for odd N, half-integers for even N); in particular
it does not preserve constants off-grid for even N.
"""

import math
from functools import lru_cache, partial

import numpy as np

from .kernels import (
    _MAX_COUNT,
    _check_integer,
    _dirichlet,
    _dirichlet_lags,
    _fitting,
    _half_turns,
    _overflow_error,
    _pointwise_sum,
    _quotient,
    _sin_pi,
    _sinc_lags,
)
from .transforms import Sequence, _as_samples, _ifft, dft

__all__ = [
    "METHODS",
    "sinc_interp",
    "dirichlet_interp_spectrum",
    "fft_upsample",
    "dirichlet_upsample_direct",
    "spectrum_upsample",
    "upsample",
]

METHODS = ("fft", "dirichlet", "sinc")


def _inputs(x, factor) -> tuple[Sequence, int]:
    """``x`` as a Sequence and ``factor`` as an int >= 1, or a ValueError naming it.

    This is the one place the refined length M*N is checked: an M*N above
    ``_MAX_COUNT``, more complex128 values than one array can hold, is one
    ValueError naming M, N and M*N, raised before anything is allocated.
    """
    seq = x if isinstance(x, Sequence) else Sequence(x)
    m_factor = _check_integer(factor, "upsampling factor", 1)
    if m_factor * len(seq) > _MAX_COUNT:
        raise ValueError(
            f"upsampling factor {m_factor} on {len(seq)} samples makes "
            f"{m_factor * len(seq)} refined samples, more than one array can hold"
        )
    return seq, m_factor


def _phase_tables(slopes, offsets, denominator: int, length: int) -> np.ndarray:
    """exp(j*pi*(slope*k + offset)/denominator), k = 0..length-1, one row per pair.

    Writing k = hi*B + lo with B = ceil(sqrt(length)) makes each row the
    outer product of a table over hi and a table over lo, about sqrt(length)
    entries each, so about 2*sqrt(length) exponentials are evaluated per
    row instead of length; one ``_half_turns`` call serves every factor
    of every pair, and one broadcast product builds every row.  Each entry
    carries one extra rounding from that product, however long the table.
    """
    block = math.isqrt(length - 1) + 1
    rows = -(-length // block)
    # Reducing mod 2*denominator first keeps every numerator below
    # 2*denominator*(length + 1), exact in int64.
    slopes = np.asarray(slopes, dtype=np.int64)[:, None] % (2 * denominator)
    offsets = np.asarray(offsets, dtype=np.int64)[:, None] % (2 * denominator)
    numerators = slopes * np.concatenate((block * np.arange(rows), np.arange(block)))
    numerators[:, rows:] += offsets
    factors = _half_turns(numerators, denominator)
    return (factors[:, :rows, None] * factors[:, None, rows:]).reshape(len(factors), -1)[:, :length]


def _refine(seq: Sequence, factor: int, fill) -> Sequence:
    """``seq`` on the M-fold refined grid, with phases 1..M-1 written by ``fill``.

    The output is one M*N array viewed as an (N, M) grid whose column 0,
    phase 0, is the input copied bit for bit.  For M > 1,
    ``fill(samples, grid)`` writes columns 1..M-1 in place, under
    ``kernels._overflow_error`` and ``kernels._fitting``: a fill whose
    sums overflow is redone on the scaled-down input and its columns
    scaled back, so only a result that does not fit float64 is one
    ValueError naming the largest input.  The output carries sample
    period Ts/M (None stays None), and a Ts/M that underflows to 0 is one
    ValueError naming Ts and M.
    """
    period = None if seq.sample_period is None else seq.sample_period / factor
    if period == 0.0:
        raise ValueError(
            f"the sample period {seq.sample_period!r} divided by the factor {factor} "
            "underflows to 0"
        )
    n = len(seq)
    out = np.empty(factor * n, dtype=np.complex128)
    grid = out.reshape(n, factor)
    grid[:, 0] = seq.samples
    if factor > 1:
        with _overflow_error(
            lambda: "the result overflows float64; the largest input magnitude (real or "
            f"imaginary part) is {float(np.abs(seq.samples.view(np.float64)).max())!r}"
        ):
            _fitting(lambda s: fill(s, grid) or grid[:, 1:], seq.samples, n)
    return Sequence(out, period)


def sinc_interp(x, t):
    """Truncated sinc reconstruction sum_n x[n] sinc(pi*(t - n*Ts)/Ts).

    The ideal doubly infinite sum is restricted to the available record, so
    this is a baseline approximation whose error concentrates near the
    edges (the windowing effect).  sin(pi*u) at u = (t - n*Ts)/Ts is
    reduced exactly to the nearest half-integer of u, so it is exactly 0
    wherever u is an exact integer, and there t = m*Ts returns x[m] bit
    for bit.  That holds when the float time arithmetic is exact, for
    example when Ts is a power of two; otherwise the rounding of u leaves
    an error of a few ulps.  A time so far from the record that u
    overflows float64 is one ValueError that names the time and Ts.

    Args:
        x: sequence with a sample period set.
        t: evaluation time(s) in seconds, scalar or array.

    Returns:
        Complex amplitude(s) with the shape of ``t``.
    """
    seq = x if isinstance(x, Sequence) else Sequence(x)
    if seq.sample_period is None:
        raise ValueError("sinc interpolation needs a sequence with a sample period")
    period = seq.sample_period
    # finite t and Ts can still overflow n*Ts or (t - n*Ts)/Ts; kernel names them
    with np.errstate(over="ignore"):
        grid = period * np.arange(len(seq))

    def kernel(times):
        with np.errstate(over="ignore"):
            u = (times[:, None] - grid) / period
            args = np.pi * u
        finite = np.isfinite(args).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"evaluation time {float(times[~finite][0])!r} is out of range for sample "
                f"period {period!r}: (t - n*Ts)/Ts overflows float64"
            )
        return _quotient(_sin_pi(u), args)

    return _pointwise_sum(t, "evaluation time", seq.samples, kernel)


def dirichlet_interp_spectrum(X, w):
    """Evaluate the DTFT at ``w`` from its N DFT samples.

    X(w) = sum_k X[k] e^{-j(N-1)(w - k*w0)/2} dirichlet(N, w - k*w0) with
    w0 = 2*pi/N the spectrum grid spacing.  This is exact: it reproduces
    X[k] at the grid points and equals ``dtft_at`` of the underlying time
    sequence everywhere else.

    Args:
        X: the N DFT values, as a finite non-empty 1-D array or a Sequence.
        w: radian frequency, scalar or array; must be finite.

    Returns:
        Complex amplitude(s) with the shape of ``w``.
    """
    values = _as_samples(X)
    n = values.size
    grid = (2.0 * np.pi / n) * np.arange(n)

    def kernel(points):
        offsets = points[:, None] - grid
        return np.exp(-0.5j * (n - 1) * offsets) * _dirichlet(n, offsets)

    return _pointwise_sum(w, "frequency", values, kernel)


@lru_cache(maxsize=1)
def _polyphase_tables(n: int, factor: int):
    """The twist, its conjugate and ramps 1..M-1 of ``fft_upsample``, read-only.

    The twist and the ramps are the rows of one ``_phase_tables`` block.
    Kept for the next call with the same (N, M) (module docstring); every
    caller shares them, so none may write to them.
    """
    # Pair r is ramp_r; pair 0 is the twist, e^{j*pi*M*(N-1)*k/(M*N)},
    # written over the ramps' denominator.
    phases = np.arange(factor)
    slopes = 2 * phases
    slopes[0] = factor * (n - 1)
    tables = _phase_tables(slopes, -(n - 1) * phases, factor * n, n)
    untwist = np.conj(tables[0])
    tables.flags.writeable = untwist.flags.writeable = False
    return tables[0], untwist, tables[1:]


def _polyphase(samples, grid) -> None:
    """Phases 1..M-1 of ``fft_upsample``: one N-point dft, M-1 inverses in place in its input."""
    twist, untwist, ramps = _polyphase_tables(*grid.shape)
    work = samples * twist
    spectrum = dft(work)
    for r, ramp in enumerate(ramps, start=1):
        np.multiply(ramp, spectrum, out=work)
        _ifft(work, out=work)
        np.multiply(work, untwist, out=grid[:, r])


def fft_upsample(x, factor) -> Sequence:
    """Upsample by an integer factor with the polyphase FFT kernel.

    Computes the paper's interpolant, the Dirichlet-kernel sum

        x3[m] = sum_k x[k] * dirichlet(N, 2*pi*(m - M*k)/(M*N)),

    one output phase at a time.  Writing m = M*q + r and
    dirichlet(N, w) = (1/N) * sum_p e^{j(p - c)w} with c = (N-1)/2 gives

        x3[M*q + r] = conj(twist)[q] * idft(dft(x * twist) * ramp_r)[q]

    with twist[k] = e^{j*pi*(N-1)*k/N} and
    ramp_r[p] = e^{j*pi*(2p - (N-1))*r/(M*N)}.

    This is the paper's pipeline (rotate, N-point inverse transform,
    zero-pad to M*N, M*N-point forward transform, rotate) taken one phase
    at a time: an M*N-point transform of a sequence that is zero past N has
    twiddles e^{-2j*pi*(M*q + r)*n/(M*N)} = e^{-2j*pi*q*n/N} *
    e^{-2j*pi*r*n/(M*N)}, so its outputs M*q + r, for one r, are an N-point
    transform of the input times a ramp.  Phase 0 has ramp 1 and is x
    itself, so it is the copy the refined grid starts from (module
    docstring).  The work is one forward and M-1 in-place inverse N-point
    transforms, O(MN log N), on phase tables kept from the last call of
    the same (N, M) (module docstring).  The inverses reuse the twisted
    input as their buffer, so besides the output, the only M*N array, a
    call allocates two N-point arrays: the twisted input and its spectrum.

    Every phase numerator is an integer reduced exactly in int64 before it
    reaches exp, and each table is the outer product of two
    ``_half_turns`` tables of about sqrt(N) entries, so the error stays at
    a few ulps for any N.
    """
    seq, m_factor = _inputs(x, factor)
    return _refine(seq, m_factor, _polyphase)


def _lag_sum(kernel, samples, grid) -> None:
    """Write sum_k samples[k] * kernel(m - M*k) into phases 1..M-1 of ``grid``.

    ``kernel`` maps integer lags d = m - M*k to kernel values.  It is
    evaluated once at each of the (2N-1)*M lags from -(N-1)*M up to
    M*N-1, not once per (m, k) pair, and must be exactly 0 at the nonzero
    multiples of M, so the phase-0 copy is the exact sum there.  As
    (2N-1, M) rows of M consecutive lags, column r of that table holds the
    kernel at lags M*j + r, and output M*q + r is its linear convolution
    with the samples at q, so each phase is one ``np.convolve``, which
    numpy computes as a direct sum with no transform.  Its summation order
    is numpy's, so the sums agree with the entry-by-entry kernel matrix
    times the samples to a few ulps.

    ``np.convolve``'s partial sums can overflow float64 where the result
    fits, and numpy need not flag it, so the sums are checked instead: a
    sum that is not finite raises FloatingPointError, for ``_refine``'s
    ``kernels._fitting`` to redo them on scaled-down samples.  The kernel
    is at most 1 in magnitude, so no scaled partial sum can overflow.
    """
    n, factor = grid.shape
    table = kernel(np.arange(-(n - 1) * factor, factor * n)).reshape(2 * n - 1, factor)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, factor):
            grid[:, r] = np.convolve(table[:, r], samples, mode="valid")
    if not np.isfinite(grid).all():
        raise FloatingPointError("overflow in the lag sums")


def dirichlet_upsample_direct(x, factor) -> Sequence:
    """Direct O(N*MN) Dirichlet-kernel summation; the oracle for ``fft_upsample``.

    Computes x3[m] = sum_k x[k] * dirichlet(N, 2*pi*(m - M*k)/(M*N)) term by
    term, with no transform.  The kernel depends only on the lag
    d = m - M*k, so it is evaluated (2N-1)*M times, in its integer-lag form
    sin(pi*d/M) / (N*sin(pi*d/(M*N))): the numerator from a table of M
    sines and a sign, the denominator's argument reflected to at most
    pi/2, so the error stays at a few ulps for any N.  Phase 0 is the
    input (module docstring), and the sum takes N*(M-1)*N multiply-adds
    over the other phases, one ``np.convolve`` per phase.  Its kernel
    values are those of the entry-by-entry matrix, bit for bit, and its
    sums agree with that matrix times x to a few ulps.  The kernel is
    real, so real inputs stay exactly real.  Where the sums' partial sums
    overflow float64 but the result fits, as for five samples of 1.7e308,
    the result is kept (``_refine``); a result that does not fit is one
    ValueError naming the largest input.
    """
    seq, m_factor = _inputs(x, factor)
    kernel = partial(_dirichlet_lags, len(seq), m_factor)
    return _refine(seq, m_factor, partial(_lag_sum, kernel))


def spectrum_upsample(x, factor) -> np.ndarray:
    """Frequency-domain upsampling: forward transform of the zero-padded input.

    Returns the M*N values ``dft(x, M*N)`` as a finite complex array.  They
    sample the same normalized DTFT on an M-times denser grid, spacing
    2*pi/(M*N), so M*N*values[M*k] = N*dft(x)[k] at the shared points.
    For M >= 2 each part of a value is at most 2/M times the largest input
    part, so it fits float64; at M = 1 a spectrum that does not fit is
    ``dft``'s own ValueError, "the transform overflows float64".
    """
    seq, m_factor = _inputs(x, factor)
    return dft(seq, m_factor * len(seq))


def upsample(x, factor, method: str = "fft") -> Sequence:
    """Run one upsampling method onto the refined grid t_m = m*Ts/M.

    The three methods take the same input, with or without a sample
    period, and the output carries Ts/M (None stays None).  The ``sinc``
    route is ``sinc_interp`` on the refined grid, as a direct O(N*MN) sum:
    its kernel sinc(pi*d/M) depends only on the lag d = m - M*k, where Ts
    cancels, so it is evaluated (2N-1)*M times, with sin(pi*d/M) taken
    from a table of M sines and a sign.  Phase 0 is the input (module
    docstring), and the sum takes N*(M-1)*N multiply-adds over the other
    phases, one ``np.convolve`` per phase.  For Ts = 1 and M a power of
    two every kernel value is the one ``sinc_interp`` computes, bit for
    bit, and the sums agree to a few ulps; otherwise the kernel values
    also differ by rounding in the time arithmetic.
    """
    seq, m_factor = _inputs(x, factor)
    if method == "fft":
        return fft_upsample(seq, m_factor)
    if method == "dirichlet":
        return dirichlet_upsample_direct(seq, m_factor)
    if method != "sinc":
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return _refine(seq, m_factor, partial(_lag_sum, partial(_sinc_lags, m_factor)))
