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

Note the Dirichlet interpolant is periodic and is exact only for signals
whose harmonic content sits on the centered grid h = q - (N-1)/2,
q = 0..N-1 (integers for odd N, half-integers for even N); in particular
it does not preserve constants off-grid for even N.
"""

import math
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .kernels import (
    _BLOCK_ENTRIES,
    _check_integer,
    _dirichlet_lags,
    _half_turns,
    _pointwise_sum,
    _quotient,
    _sin_pi,
    _sinc_lags,
    dirichlet,
)
from .transforms import Sequence, SpectrumSamples, dft, idft

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

def _check_factor(factor) -> int:
    return _check_integer(factor, "upsampling factor", 1)


def _phase_tables(slopes, offsets, denominator: int, length: int):
    """Yield exp(j*pi*(slope*k + offset)/denominator), k = 0..length-1, per pair.

    Writing k = hi*B + lo with B = ceil(sqrt(length)) makes each table the
    outer product of a table over hi and a table over lo, about sqrt(length)
    entries each, so about 2*sqrt(length) exponentials are evaluated per
    table instead of length; one ``_half_turns`` call serves every factor
    of every pair.  Each entry carries one extra rounding from that
    product, however long the table.  Tables are built one at a time, as
    fresh writable arrays.
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
    for row in factors:
        yield np.multiply.outer(row[:rows], row[rows:]).ravel()[:length]


def _as_sequence(x) -> Sequence:
    return x if isinstance(x, Sequence) else Sequence(x)


def _refined_period(seq: Sequence, factor: int) -> float | None:
    return None if seq.sample_period is None else seq.sample_period / factor


@contextmanager
def _overflow_guard(seq: Sequence):
    """Run a route's arithmetic and build its output, blaming overflow.

    The input is finite, so a non-finite output can only come from float64
    overflow: numpy's warnings for it are silenced, and the ValueError of
    the output's own finiteness check is replaced by one that says so.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield
        except ValueError:
            peak = float(np.max(np.abs(seq.samples.view(np.float64))))
            raise ValueError(
                "the result overflows float64; the largest input magnitude "
                f"(real or imaginary part) is {peak!r}"
            ) from None


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
    seq = _as_sequence(x)
    if seq.sample_period is None:
        raise ValueError("sinc interpolation needs a sequence with a sample period")
    period = seq.sample_period

    def kernel(times):
        u = (times[:, None] - grid) / period
        args = np.pi * u
        finite = np.isfinite(args).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"evaluation time {float(times[~finite][0])!r} is out of range for sample "
                f"period {period!r}: (t - n*Ts)/Ts overflows float64"
            )
        return _quotient(_sin_pi(u), args)

    # finite t and Ts can still overflow n*Ts or (t - n*Ts)/Ts; kernel names them
    with np.errstate(over="ignore"):
        grid = period * np.arange(len(seq))
        return _pointwise_sum(t, "evaluation time", seq.samples, kernel)


def dirichlet_interp_spectrum(X, w):
    """Evaluate the DTFT at ``w`` from its N DFT samples.

    X(w) = sum_k X[k] e^{-j(N-1)(w - k*w0)/2} dirichlet(N, w - k*w0) with
    w0 the spectrum grid spacing.  This is exact: it reproduces X[k] at the
    grid points and equals ``dtft_at`` of the underlying time sequence
    everywhere else.

    Args:
        X: spectrum samples (or a plain array of DFT values).
        w: radian frequency, scalar or array; must be finite.

    Returns:
        Complex amplitude(s) with the shape of ``w``.
    """
    spectrum = X if isinstance(X, SpectrumSamples) else SpectrumSamples(X)
    n = len(spectrum)
    grid = spectrum.grid_spacing * np.arange(n)

    def kernel(points):
        offsets = points[:, None] - grid
        return np.exp(-0.5j * (n - 1) * offsets) * dirichlet(n, offsets)

    return _pointwise_sum(w, "frequency", spectrum.values, kernel)


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
    itself, so it is copied and the M*q-th samples equal x[q] bit for bit.
    The work is one forward and M-1 inverse N-point transforms,
    O(MN log N), and the output is the only M*N array the call allocates.
    The output carries sample period Ts/M.

    Every phase numerator is an integer reduced exactly in int64 before it
    reaches exp, and each table is the outer product of two
    ``_half_turns`` tables of about sqrt(N) entries, so the error stays at
    a few ulps for any N.
    """
    seq = _as_sequence(x)
    m_factor = _check_factor(factor)
    n = len(seq)
    total = m_factor * n
    out = np.empty(total, dtype=np.complex128)
    grid = out.reshape(n, m_factor)
    grid[:, 0] = seq.samples
    with _overflow_guard(seq):
        if m_factor > 1:
            # Pair r is ramp_r; pair 0 is the twist, e^{j*pi*M*(N-1)*k/(M*N)},
            # written over the ramps' denominator.
            phases = np.arange(m_factor)
            slopes = 2 * phases
            slopes[0] = m_factor * (n - 1)
            tables = _phase_tables(slopes, -(n - 1) * phases, total, n)
            twist = next(tables)
            spectrum = dft(seq.samples * twist)
            untwist = np.conj(twist, out=twist)
            for r, ramp in enumerate(tables, start=1):
                ramp *= spectrum
                np.multiply(idft(ramp), untwist, out=grid[:, r])
        return Sequence(out, _refined_period(seq, m_factor))


def _lag_sum(table, samples, factor: int) -> np.ndarray:
    """sum_k samples[k] * table[(N-1)*M + m - M*k] for m = 0..M*N-1.

    ``table`` holds a kernel at the (2N-1)*M integer lags d = m - M*k, from
    -(N-1)*M up to M*N-1, so each kernel value is evaluated once per lag
    rather than once per (m, k) pair.  The kernel must be exactly 1 at
    d = 0 and exactly 0 at the other multiples of M: then each output
    m = M*q is samples[q], so phase 0 is copied and the products run over
    the M-1 other phases only.  Each block of q values is a zero-copy
    strided view of the table, shape (q, r, k) for r = 1..M-1 with strides
    M*s, s and -M*s, copied in C order into one buffer that every block
    reuses (a fresh 1 MB array per block cost about 500 page faults per
    call at N = 380, M = 4) and taken as (q*r, N) rows of one
    matrix-vector product.  So each row's sum is that of the matrix built
    entry by entry, bit for bit, whatever block it falls in.  The table is
    made complex once, so the blocks need no cast of their own.
    """
    n = samples.size
    out = np.empty((n, factor), dtype=np.complex128)
    out[:, 0] = samples
    if factor > 1:
        table = np.asarray(table, dtype=np.complex128)
        step = table.strides[0]
        phases = factor - 1
        rows = max(1, _BLOCK_ENTRIES // (phases * n))
        buffer = np.empty((min(rows, n), phases, n), dtype=np.complex128)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            block = buffer[: hi - lo]
            np.copyto(
                block,
                as_strided(
                    table[(n - 1 + lo) * factor + 1 :],
                    shape=block.shape,
                    strides=(factor * step, step, -factor * step),
                    writeable=False,
                ),
            )
            out[lo:hi, 1:] = (block.reshape(-1, n) @ samples).reshape(hi - lo, phases)
    return out.reshape(-1)


def _lags(n: int, factor: int) -> np.ndarray:
    """The integer lags m - M*k of the refined grid, -(N-1)*M .. M*N-1."""
    return np.arange(-(n - 1) * factor, factor * n)


def dirichlet_upsample_direct(x, factor) -> Sequence:
    """Direct O(N*MN) Dirichlet-kernel summation; the oracle for ``fft_upsample``.

    Computes x3[m] = sum_k x[k] * dirichlet(N, 2*pi*(m - M*k)/(M*N)) term by
    term, with no transform.  The kernel depends only on the lag
    d = m - M*k, so it is evaluated (2N-1)*M times, in its integer-lag form
    sin(pi*d/M) / (N*sin(pi*d/(M*N))): the numerator from a table of M
    sines and a sign, the denominator's argument reflected to at most
    pi/2, so the error stays at a few ulps for any N.  That kernel is
    exactly 1 at d = 0 and exactly 0 at the other multiples of M, so phase
    0 (m = M*q) is x itself, copied bit for bit, and the sum takes
    N*(M-1)*N multiply-adds over the other phases.  The output equals the
    entry-by-entry matrix of that kernel times x, bit for bit.  The kernel
    is real, so real inputs stay exactly real.
    """
    seq = _as_sequence(x)
    m_factor = _check_factor(factor)
    n = len(seq)
    table = _dirichlet_lags(n, m_factor, _lags(n, m_factor))
    with _overflow_guard(seq):
        return Sequence(_lag_sum(table, seq.samples, m_factor), _refined_period(seq, m_factor))


def spectrum_upsample(x, factor) -> SpectrumSamples:
    """Frequency-domain upsampling: forward transform of the zero-padded input.

    The M*N output values sample the same normalized DTFT on an M-times
    denser grid, so M*N*values[M*k] = N*dft(x)[k] at the shared points.
    """
    seq = _as_sequence(x)
    m_factor = _check_factor(factor)
    with _overflow_guard(seq):
        return SpectrumSamples(dft(seq.samples, m_factor * len(seq)))


def upsample(x, factor, method: str = "fft") -> Sequence:
    """Run one upsampling method onto the refined grid t_m = m*Ts/M.

    ``fft`` and ``dirichlet`` need no sample period; ``sinc`` requires one.
    The ``sinc`` route is ``sinc_interp`` on the refined grid, as a direct
    O(N*MN) sum: its kernel sinc(pi*d/M) depends only on the lag
    d = m - M*k, so it is evaluated (2N-1)*M times, with sin(pi*d/M) taken
    from a table of M sines and a sign.  The kernel is exactly 1 at d = 0
    and exactly 0 at the other multiples of M, so phase 0 is x, copied bit
    for bit, and the sum takes N*(M-1)*N multiply-adds over the other
    phases.  For Ts = 1 and M a power of two every kernel value is the one
    ``sinc_interp`` computes, so the outputs agree bit for bit; otherwise
    they differ by rounding in the time arithmetic.
    """
    seq = _as_sequence(x)
    m_factor = _check_factor(factor)
    if method == "fft":
        return fft_upsample(seq, m_factor)
    if method == "dirichlet":
        return dirichlet_upsample_direct(seq, m_factor)
    if method == "sinc":
        if seq.sample_period is None:
            raise ValueError("sinc interpolation needs a sequence with a sample period")
        table = _sinc_lags(m_factor, _lags(len(seq), m_factor))
        with _overflow_guard(seq):
            return Sequence(_lag_sum(table, seq.samples, m_factor), _refined_period(seq, m_factor))
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")
