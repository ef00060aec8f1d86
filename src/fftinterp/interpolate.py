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

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .kernels import _check_integer, dirichlet, sinc
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

# Direct kernel summation runs in row blocks of at most this many matrix
# entries, to bound peak memory at large N.  2**16 complex entries are 1 MB,
# small enough to stay in a core's L2 cache while the product reads them:
# the direct sums at N ~ 10**3 run about twice as fast as with 4e6-entry
# blocks.  A row's sum does not depend on the block it falls in.
_BLOCK_ENTRIES = 1 << 16


def _check_factor(factor) -> int:
    return _check_integer(factor, "upsampling factor", 1)


# exp(j*pi*q/2) for q = 0..3; multiplying by these is exact.
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _half_turns(numerator, denominator: int) -> np.ndarray:
    """exp(j*pi*numerator/denominator) for int64 numerators.

    The numerator is split in exact integer arithmetic into the nearest
    quarter turn q and a rest of at most an eighth of a turn, so exp only
    sees arguments in [-pi/4, pi/4] and its rounding error does not grow
    with the numerator.  The quarter turn j**q is applied exactly.
    """
    numerator = np.asarray(numerator, dtype=np.int64) % (2 * denominator)
    quarter = (4 * numerator + denominator) // (2 * denominator)
    out = np.exp((0.5j * np.pi / denominator) * (2 * numerator - quarter * denominator))
    out *= _QUARTER_TURNS[quarter & 3]
    return out


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


def sinc_interp(x, t):
    """Truncated sinc reconstruction sum_n x[n] sinc(pi*(t - n*Ts)/Ts).

    The ideal doubly infinite sum is restricted to the available record, so
    this is a baseline approximation whose error concentrates near the
    edges (the windowing effect).  At t = m*Ts it returns x[m] exactly.

    Args:
        x: sequence with a sample period set.
        t: evaluation time(s) in seconds, scalar or array.

    Returns:
        Complex amplitude(s) with the shape of ``t``.
    """
    seq = _as_sequence(x)
    if seq.sample_period is None:
        raise ValueError("sinc interpolation needs a sequence with a sample period")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("evaluation time must be finite")
    period = seq.sample_period
    grid = period * np.arange(len(seq))
    flat = np.atleast_1d(t_arr).ravel()
    out = np.empty(flat.size, dtype=np.complex128)
    rows = max(1, _BLOCK_ENTRIES // len(seq))
    for lo in range(0, flat.size, rows):
        hi = min(lo + rows, flat.size)
        args = np.pi * (flat[lo:hi, None] - grid) / period
        out[lo:hi] = sinc(args) @ seq.samples
    out = out.reshape(t_arr.shape)
    return out if t_arr.ndim else complex(out)


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
    values = spectrum.values
    n = len(spectrum)
    w_arr = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w_arr)):
        raise ValueError("frequency must be finite")
    offsets = np.atleast_1d(w_arr).ravel()[:, None] - spectrum.grid_spacing * np.arange(n)
    kernel = np.exp(-0.5j * (n - 1) * offsets) * dirichlet(n, offsets)
    out = kernel @ values
    out = out.reshape(w_arr.shape)
    return out if w_arr.ndim else complex(out)


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
    rather than once per (m, k) pair.  Each row block of the (M*N, N) lag
    matrix is a zero-copy strided view of the table (strides s and -M*s),
    copied in C order before the product, so the sum runs through the same
    matrix-vector product as a matrix built entry by entry, bit for bit.
    The table is made complex once, so the blocks need no cast of their own.
    """
    n = samples.size
    total = factor * n
    table = np.asarray(table, dtype=np.complex128)
    step = table.strides[0]
    out = np.empty(total, dtype=np.complex128)
    rows = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, total, rows):
        hi = min(lo + rows, total)
        block = as_strided(
            table[(n - 1) * factor + lo :],
            shape=(hi - lo, n),
            strides=(step, -factor * step),
            writeable=False,
        )
        out[lo:hi] = np.ascontiguousarray(block) @ samples
    return out


def _lags(n: int, factor: int) -> np.ndarray:
    """The integer lags m - M*k of the refined grid, -(N-1)*M .. M*N-1."""
    return np.arange(-(n - 1) * factor, factor * n)


def dirichlet_upsample_direct(x, factor) -> Sequence:
    """Direct O(N*MN) Dirichlet-kernel summation; the oracle for ``fft_upsample``.

    Computes x3[m] = sum_k x[k] * dirichlet(N, 2*pi*(m - M*k)/(M*N)) term by
    term, with no transform.  The kernel depends only on the lag m - M*k, so
    it is evaluated (2N-1)*M times and the sum takes N*MN multiply-adds.
    Every kernel value is the same float expression as in the entry-by-entry
    matrix, so the output equals that matrix times x bit for bit.  The
    kernel is real, so real inputs stay exactly real.
    """
    seq = _as_sequence(x)
    m_factor = _check_factor(factor)
    n = len(seq)
    table = dirichlet(n, (2.0 * np.pi / (m_factor * n)) * _lags(n, m_factor))
    return Sequence(_lag_sum(table, seq.samples, m_factor), _refined_period(seq, m_factor))


def spectrum_upsample(x, factor) -> SpectrumSamples:
    """Frequency-domain upsampling: forward transform of the zero-padded input.

    The M*N output values sample the same normalized DTFT on an M-times
    denser grid, so M*N*values[M*k] = N*dft(x)[k] at the shared points.
    """
    seq = _as_sequence(x)
    m_factor = _check_factor(factor)
    return SpectrumSamples(dft(seq.samples, m_factor * len(seq)))


def upsample(x, factor, method: str = "fft") -> Sequence:
    """Run one upsampling method onto the refined grid t_m = m*Ts/M.

    ``fft`` and ``dirichlet`` need no sample period; ``sinc`` requires one.
    The ``sinc`` route is ``sinc_interp`` on the refined grid, as a direct
    O(N*MN) sum: its kernel sinc(pi*(m - M*k)/M) depends only on the lag,
    so it is evaluated (2N-1)*M times and the sum takes N*MN multiply-adds.
    For Ts = 1 and M a power of two every kernel value is the one
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
        table = sinc(np.pi * (_lags(len(seq), m_factor) / m_factor))
        return Sequence(_lag_sum(table, seq.samples, m_factor), _refined_period(seq, m_factor))
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")
