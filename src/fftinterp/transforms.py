"""Discrete Fourier analysis under a 1/N-forward normalization.

The forward transform carries the 1/N factor and the inverse carries none,
so ``idft(dft(x)) == x`` and the DFT values are samples of the normalized
DTFT ``dtft_at``.  ``dft_naive``/``idft_naive`` are the quadratic-time
reference implementations kept as oracles; they gather their twiddle rows a
block at a time from one table of N twiddles (``kernels._in_blocks``), so
their memory grows as N, not N**2.  ``dft``/``idft`` are the fast
O(N log N) routes for every length: numpy's pocketfft under
``norm="forward"``, which is this convention exactly.  Nothing is cached
between calls.  Samples or a sample period that do not convert to finite
numbers are one ValueError naming them.  Finite input is an error only
when its transform overflows float64: then it is one ValueError that says
so, with no RuntimeWarning, through ``kernels._overflow_error``, the
converter the pointwise kernels use too.  Where only the sums overflow,
``dft``, ``idft`` and the naive oracles keep the result that fits through
``kernels._fitting``, the rule every upsampling route and pointwise sum
follows.
``_ifft`` is the raw inverse behind ``idft``, for callers that have
validated their input and want the result written in place.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import _check_integer, _fitting, _half_turns, _in_blocks, _overflow_error, _pointwise

__all__ = [
    "Sequence",
    "dft_naive",
    "idft_naive",
    "dft",
    "idft",
    "dtft_at",
]

# The message of a transform whose finite input overflows float64.
_transform_overflows = lambda: "the transform overflows float64"  # noqa: E731


def _finite_vector(x, name: str) -> np.ndarray:
    """``x`` as a finite, non-empty 1-D complex128 array, or a ValueError naming it."""
    try:
        arr = np.asarray(x, dtype=np.complex128, order="C")
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be finite complex numbers") from None
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must form a non-empty 1-D sequence")
    # one real pass over the 2N parts; order="C" above makes the view valid
    if not np.isfinite(arr.view(np.float64)).all():
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(eq=False)
class Sequence:
    """Ordered complex samples with an optional sample period in seconds."""

    samples: np.ndarray
    sample_period: float | None = None

    def __post_init__(self):
        self.samples = _finite_vector(self.samples, "samples")
        if self.sample_period is not None:
            try:
                period = float(self.sample_period)
            except (TypeError, ValueError, OverflowError):
                period = np.nan
            if not np.isfinite(period) or period <= 0.0:
                raise ValueError("sample_period must be a positive number of seconds")
            self.sample_period = period

    def __len__(self):
        return self.samples.size


def _as_samples(x) -> np.ndarray:
    return x.samples if isinstance(x, Sequence) else _finite_vector(x, "samples")


def _naive(a: np.ndarray, sign: int, total) -> np.ndarray:
    """``total(rows, samples)`` over the twiddle rows exp(sign*2j*pi*k*m/N), k = 0..N-1.

    The rows are gathered a block at a time (``kernels._in_blocks``) from
    one table of the N distinct twiddles, built by ``_half_turns`` with
    k*m reduced mod N in integers, so each entry is within an ulp or so of
    exact for any N and peak memory does not grow as N**2.  Each block's
    sums are kept where only they overflow (``kernels._fitting``); a
    result that does not fit is one ValueError that says so.
    """
    n = a.size
    m = np.arange(n)
    turns = _half_turns(2 * sign * m, n)

    def block(k):
        return _fitting(lambda s: total(turns[np.outer(k, m) % n], s), a, n)

    with _overflow_error(_transform_overflows):
        return _in_blocks(m, n, block)


def dft_naive(x) -> np.ndarray:
    """Forward DFT by direct summation: X[k] = (1/N) sum_n x[n] e^{-2j pi nk/N}.

    O(N^2) time in O(N) memory (``_naive``); the reference oracle for the
    fast transform.  Its twiddles are exact to about an ulp, so its error
    does not grow with the phase k*n.  The 1/N divides inside the kept
    sum, so a result that fits is kept even where the sum does not.
    """
    a = _as_samples(x)
    return _naive(a, -1, lambda rows, s: rows @ s / a.size)


def idft_naive(X) -> np.ndarray:
    """Inverse DFT by direct summation: x[n] = sum_k X[k] e^{+2j pi nk/N}.

    Carries no normalization factor, so it inverts ``dft_naive`` exactly.
    """
    return _naive(_as_samples(X), 1, np.matmul)


def _ifft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized inverse of a complex128 vector, unchecked; ``out`` may be ``a``."""
    return np.fft.ifft(a, norm="forward", out=out)


def dft(x, n: int | None = None) -> np.ndarray:
    """Fast forward transform with the 1/N factor; matches ``dft_naive``.

    numpy's pocketfft under ``norm="forward"``, which is exactly this
    module's convention, so the cost is O(N log N) for every N.  Given ``n``
    (at least the input length), it transforms the input extended with
    trailing zeros to ``n`` samples, 1/n included, which gives
    (N/n) * dtft_at(x, 2*pi*k/n) on the denser grid.  pocketfft pads while
    it copies the input, so no padded copy is built.

    pocketfft applies the 1/n after summing, so input near the float64
    limit can overflow the sums while the result fits.  Only then, the
    input is transformed again divided by a power of two above 2n and the
    result multiplied back (``kernels._fitting``); both scalings are
    exact, so the values are those of the scaled-down input's transform,
    bit for bit.  A result that overflows float64 is one ValueError that
    says so.
    """
    a = _as_samples(x)
    if n is not None:
        n = _check_integer(n, "new length", a.size)
    with _overflow_error(_transform_overflows):
        return _fitting(lambda s: np.fft.fft(s, n=n, norm="forward"), a, n or a.size)


def idft(X) -> np.ndarray:
    """Fast unnormalized inverse transform; matches ``idft_naive``.

    Where only pocketfft's sums overflow, the result that fits is kept
    (``kernels._fitting``), as in ``dft``; a result that overflows
    float64 is one ValueError that says so.
    """
    a = _as_samples(X)
    with _overflow_error(_transform_overflows):
        return _fitting(_ifft, a, a.size)


def dtft_at(x, w):
    """Normalized DTFT (1/N) sum_n x[n] e^{-j n w} at arbitrary frequencies.

    This continuum is the ground truth both interpolation routes sample:
    the DFT restricts it to the grid w = 2*pi*k/N, and zero-padding samples
    it on a denser grid.  The 1/N divides inside each block's kept sum
    (``kernels._fitting``), so a scalar ``w`` gives the array's entry bit
    for bit, and a value that fits is kept where the sum overflows.

    Args:
        x: sequence (or array) of N samples.
        w: radian frequency, scalar or array; must be finite.

    Returns:
        Complex amplitude(s) with the shape of ``w``.
    """
    a = _as_samples(x)
    n = a.size

    def kernel(points):
        return np.exp(-1j * points[:, None] * np.arange(n))

    return _pointwise(w, "frequency", lambda p: _fitting(lambda s: kernel(p) @ s / n, a, n), n)
