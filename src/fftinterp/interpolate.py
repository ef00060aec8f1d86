"""Time-domain interpolation onto the refined grid t_m = m*Ts/M.

Three routes are provided: truncated sinc summation (the sampling-theorem
baseline), direct Dirichlet-kernel summation (the quadratic-time oracle),
and the fast zero-padding FFT/IFFT pipeline with phase corrections.  The
fast pipeline and the direct summation compute the same quantity

    x3[m] = sum_k x[k] * dirichlet(N, 2*pi*(m - M*k) / (M*N))

so they must agree to rounding error; the sinc route differs by the
windowing effect near the record edges.

Note the Dirichlet interpolant is periodic and is exact only for signals
whose harmonic content sits on the centered grid h = q - (N-1)/2,
q = 0..N-1 (integers for odd N, half-integers for even N); in particular
it does not preserve constants off-grid for even N.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kernels import dirichlet, sinc
from .transforms import Sequence, SpectrumSamples, dft, idft, zero_pad

__all__ = [
    "METHODS",
    "UpsampleRequest",
    "sinc_interp",
    "dirichlet_interp_spectrum",
    "fft_upsample",
    "dirichlet_upsample_direct",
    "spectrum_upsample",
    "upsample",
]

METHODS = ("fft", "dirichlet", "sinc")

# Direct kernel summation runs in row blocks of at most this many kernel
# entries to bound peak memory at large N.
_BLOCK_ENTRIES = 4_000_000


@dataclass(frozen=True)
class UpsampleRequest:
    """Integer upsampling factor plus the method used to realize it."""

    factor: int
    method: str = "fft"

    def __post_init__(self):
        _check_factor(self.factor)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")

    def apply(self, x) -> Sequence:
        return upsample(x, self.factor, self.method)


def _check_factor(factor) -> int:
    # bool is an Integral subtype, but True is a flag, not a factor of 1.
    if isinstance(factor, bool) or not isinstance(factor, numbers.Real):
        whole = False
    elif isinstance(factor, numbers.Integral):
        whole = True
    else:
        whole = math.isfinite(factor) and factor == int(factor)
    if not whole or factor < 1:
        raise ValueError(f"upsampling factor must be an integer >= 1, got {factor!r}")
    return int(factor)


def _half_turns(numerator, denominator: int) -> np.ndarray:
    """exp(j*pi*numerator/denominator) for int64 numerators.

    The numerator is reduced mod 2*denominator in exact integer arithmetic
    first, so the argument of exp stays in [0, 2*pi) and its rounding error
    does not grow with the numerator.
    """
    return np.exp(1j * np.pi * (numerator % (2 * denominator)) / denominator)


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
    """Upsample by an integer factor with the phase-corrected FFT pipeline.

    Steps: rotate the input by e^{-j(N-1)n*pi/N}, inverse transform
    (N points), zero-pad to M*N, forward transform, scale by M, and rotate
    the result by e^{+j(N-1)m*pi/(M*N)}.  The two rotations cancel the
    phase terms the Dirichlet decomposition of the transform pair
    introduces, leaving the pure kernel sum

        x3[m] = sum_k x[k] * dirichlet(N, 2*pi*(m - M*k)/(M*N))

    in O(MN log MN) time.  The output keeps M*q-th samples equal to x[q]
    and carries sample period Ts/M.

    Every phase goes through exact integer reduction: each numerator,
    (N-1) times a sample index, is reduced in int64 before it reaches exp,
    so the error stays at a few ulps for any N.  Writing m = M*q + r splits the
    output rotation into an N-point table (the conjugate of the input
    rotation) times an M-point table, so N + M exponentials are evaluated
    instead of M*N.
    """
    seq = _as_sequence(x)
    m_factor = _check_factor(factor)
    n = len(seq)
    total = m_factor * n
    coarse = _half_turns((n - 1) * np.arange(n, dtype=np.int64), n)
    # The inverse(N)/forward(MN) pair under the 1/N-forward convention
    # shrinks amplitudes by 1/M; the factor M in ``fine`` undoes it.
    fine = m_factor * _half_turns((n - 1) * np.arange(m_factor, dtype=np.int64), total)
    time_side = idft(seq.samples * coarse.conj())
    refined = dft(time_side, total)
    # Rotate in place, one table at a time, so the transform's output is the
    # only complex M*N array the call allocates.
    grid = refined.reshape(n, m_factor)
    grid *= coarse[:, None]
    grid *= fine
    return Sequence(refined, _refined_period(seq, m_factor))


def dirichlet_upsample_direct(x, factor) -> Sequence:
    """Direct O(N*MN) Dirichlet-kernel summation; the oracle for ``fft_upsample``.

    Computes x3[m] = sum_k x[k] * dirichlet(N, 2*pi*(m - M*k)/(M*N)) term by
    term.  The kernel is real, so real inputs stay exactly real.
    """
    seq = _as_sequence(x)
    m_factor = _check_factor(factor)
    n = len(seq)
    total = m_factor * n
    scaled_k = m_factor * np.arange(n)
    out = np.empty(total, dtype=np.complex128)
    rows = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, total, rows):
        hi = min(lo + rows, total)
        args = (2.0 * np.pi / total) * (np.arange(lo, hi)[:, None] - scaled_k)
        out[lo:hi] = dirichlet(n, args) @ seq.samples
    return Sequence(out, _refined_period(seq, m_factor))


def spectrum_upsample(x, factor) -> SpectrumSamples:
    """Frequency-domain upsampling: forward transform of the zero-padded input.

    The M*N output values sample the same normalized DTFT on an M-times
    denser grid, so M*N*values[M*k] = N*dft(x)[k] at the shared points.
    """
    seq = _as_sequence(x)
    m_factor = _check_factor(factor)
    return SpectrumSamples(dft(zero_pad(seq.samples, m_factor * len(seq))))


def upsample(x, factor, method: str = "fft") -> Sequence:
    """Run one upsampling method onto the refined grid t_m = m*Ts/M.

    ``fft`` and ``dirichlet`` need no sample period; ``sinc`` evaluates
    ``sinc_interp`` on the refined grid and requires one.
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
        times = np.arange(m_factor * len(seq)) * (seq.sample_period / m_factor)
        return Sequence(sinc_interp(seq, times), _refined_period(seq, m_factor))
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")
