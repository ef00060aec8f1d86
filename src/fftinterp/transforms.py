"""Discrete Fourier analysis under a 1/N-forward normalization.

The forward transform carries the 1/N factor and the inverse carries none,
so ``idft(dft(x)) == x`` and the DFT values are samples of the normalized
DTFT ``dtft_at``.  ``dft_naive``/``idft_naive`` are the quadratic-time
reference implementations kept as oracles; ``dft``/``idft`` are the fast
O(N log N) routes for every length: numpy's pocketfft under
``norm="forward"``, which is this convention exactly.  Nothing is cached
between calls.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Sequence",
    "SpectrumSamples",
    "dft_naive",
    "idft_naive",
    "dft",
    "idft",
    "zero_pad",
    "dtft_at",
]


@dataclass(eq=False)
class Sequence:
    """Ordered complex samples with an optional sample period in seconds."""

    samples: np.ndarray
    sample_period: float | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise ValueError("samples must form a one-dimensional sequence")
        if samples.size < 1:
            raise ValueError("a sequence holds at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        self.samples = samples
        if self.sample_period is not None:
            period = float(self.sample_period)
            if not np.isfinite(period) or period <= 0.0:
                raise ValueError("sample_period must be a positive number of seconds")
            self.sample_period = period

    def __len__(self):
        return self.samples.size


@dataclass(eq=False)
class SpectrumSamples:
    """Ordered DFT values on the uniform grid w_k = k * grid_spacing."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 1:
            raise ValueError("values must form a one-dimensional sequence")
        if values.size < 1:
            raise ValueError("a spectrum holds at least one value")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        self.values = values

    @property
    def grid_spacing(self) -> float:
        """Frequency grid spacing 2*pi/N implied by the number of values."""
        return 2.0 * np.pi / self.values.size

    def __len__(self):
        return self.values.size


def _as_samples(x) -> np.ndarray:
    if isinstance(x, Sequence):
        return x.samples
    if isinstance(x, SpectrumSamples):
        return x.values
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("samples must form a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


def dft_naive(x) -> np.ndarray:
    """Forward DFT by direct summation: X[k] = (1/N) sum_n x[n] e^{-2j pi nk/N}.

    O(N^2); the reference oracle for the fast transform.
    """
    a = _as_samples(x)
    n = a.size
    indices = np.arange(n)
    kernel = np.exp((-2j * np.pi / n) * np.outer(indices, indices))
    return (kernel @ a) / n


def idft_naive(X) -> np.ndarray:
    """Inverse DFT by direct summation: x[n] = sum_k X[k] e^{+2j pi nk/N}.

    Carries no normalization factor, so it inverts ``dft_naive`` exactly.
    """
    a = _as_samples(X)
    n = a.size
    indices = np.arange(n)
    kernel = np.exp((2j * np.pi / n) * np.outer(indices, indices))
    return kernel @ a


def _check_length(new_length, current: int) -> int:
    n = int(new_length)
    if n != new_length or n < current:
        raise ValueError(f"new length must be an integer >= {current}, got {new_length!r}")
    return n


def dft(x, n: int | None = None) -> np.ndarray:
    """Fast forward transform with the 1/N factor; matches ``dft_naive``.

    numpy's pocketfft under ``norm="forward"``, which is exactly this
    module's convention, so the cost is O(N log N) for every N.  Given ``n``,
    it returns ``dft(zero_pad(x, n))`` without building the padded copy:
    pocketfft pads while it copies the input into its output.
    """
    a = _as_samples(x)
    if n is not None:
        n = _check_length(n, a.size)
    return np.fft.fft(a, n=n, norm="forward")


def idft(X) -> np.ndarray:
    """Fast unnormalized inverse transform; matches ``idft_naive``."""
    return np.fft.ifft(_as_samples(X), norm="forward")


def zero_pad(x, new_length: int):
    """Extend a sequence with trailing zeros to ``new_length`` samples.

    A ``Sequence`` keeps its sample period; plain arrays come back as plain
    arrays.  ``new_length`` below the current length is a domain error.
    """
    if isinstance(x, Sequence):
        padded = zero_pad(x.samples, new_length)
        return Sequence(padded, x.sample_period)
    a = _as_samples(x)
    n = _check_length(new_length, a.size)
    out = np.zeros(n, dtype=np.complex128)
    out[: a.size] = a
    return out


def dtft_at(x, w):
    """Normalized DTFT (1/N) sum_n x[n] e^{-j n w} at arbitrary frequencies.

    This continuum is the ground truth both interpolation routes sample:
    the DFT restricts it to the grid w = 2*pi*k/N, and zero-padding samples
    it on a denser grid.

    Args:
        x: sequence (or array) of N samples.
        w: radian frequency, scalar or array; must be finite.

    Returns:
        Complex amplitude(s) with the shape of ``w``.
    """
    a = _as_samples(x)
    w_arr = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w_arr)):
        raise ValueError("frequency must be finite")
    n = a.size
    flat = np.atleast_1d(w_arr).ravel()
    out = np.exp(-1j * flat[:, None] * np.arange(n)) @ a / n
    out = out.reshape(w_arr.shape)
    return out if w_arr.ndim else complex(out)
