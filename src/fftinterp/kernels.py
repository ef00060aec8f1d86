"""Closed-form evaluation of the sinc, Dirichlet, and periodized-sinc kernels.

The Dirichlet kernel diric(N, w) = sin(N*w/2) / (N*sin(w/2)) is the
interpolation kernel implicit in DFT-based signal reconstruction.  The
periodized sinc approximates it by a truncated sum of sign-alternating sinc
replicas spaced 2*pi apart and converges to it as the truncation grows; the
convergence rate is what makes the fast FFT pipeline a good stand-in for
ideal sinc interpolation.

All kernels handle their removable singularities explicitly (sinc at 0, the
Dirichlet kernel at multiples of 2*pi) and accept scalars or arrays of any
shape.  The quadratic-time oracles in ``interpolate`` use private forms of
the Dirichlet and sinc kernels at the integer lags of the refined grid,
built from integers and a table of M sines, so they are exact to a few ulps
for any N and exactly 0 or 1 where the kernel is.
"""

import math
import numbers

import numpy as np

__all__ = ["sinc", "dirichlet", "psinc", "SINGULARITY_WINDOW"]

# Half-width (radians) of the window around a removable singularity inside
# which a 3-term Taylor expansion replaces the raw sin/sin quotient.
SINGULARITY_WINDOW = 1e-9


def _finite_floats(value, name: str) -> np.ndarray:
    """``value`` as a float array, or a ValueError naming it if not finite."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _check_integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int, or a ValueError naming it.

    Accepts integers and integral floats that are at least ``minimum``
    (any integer when it is None).  bool is an Integral subtype, but True
    is a flag, not a count, so it is refused along with None, strings, inf
    and nan.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        whole = False
    elif isinstance(value, numbers.Integral):
        whole = True
    else:
        whole = math.isfinite(value) and value == int(value)
    if not whole or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _check_order(order) -> int:
    return _check_integer(order, "kernel order", 1)


def _check_truncation(truncation) -> int:
    return _check_integer(truncation, "truncation", 0)


def sinc(w):
    """Unnormalized sinc: sin(w)/w, with the removable singularity at 0.

    Args:
        w: radian argument, scalar or array; must be finite.

    Returns:
        sin(w)/w with the same shape as ``w``; exactly 1 at w = 0.
    """
    arr = _finite_floats(w, "kernel argument")
    flat = np.atleast_1d(arr).astype(float)
    out = np.empty_like(flat)
    near = np.abs(flat) < SINGULARITY_WINDOW
    wn = flat[near]
    # sin(w)/w = 1 - w^2/6 + w^4/120 + O(w^6)
    out[near] = 1.0 - wn * wn / 6.0 + wn**4 / 120.0
    wf = flat[~near]
    out[~near] = np.sin(wf) / wf
    out = out.reshape(arr.shape)
    return out if arr.ndim else float(out)


def dirichlet(order, w):
    """Dirichlet kernel of the given order: sin(N*w/2) / (N*sin(w/2)).

    At w = 2*pi*m the quotient is 0/0 and the continuous extension equals
    (-1)**(m*(N-1)); near those points the value is computed from a 3-term
    Taylor expansion of numerator and denominator to avoid cancellation.
    The kernel is even, 2*pi-periodic for odd N and 4*pi-periodic (with a
    sign flip every 2*pi) for even N.

    Args:
        order: kernel order N >= 1.
        w: radian argument, scalar or array; must be finite.

    Returns:
        Kernel amplitude with the same shape as ``w``.
    """
    n = _check_order(order)
    arr = _finite_floats(w, "kernel argument")
    flat = np.atleast_1d(arr).astype(float)
    out = np.empty_like(flat)

    cycles = np.round(flat / (2.0 * np.pi))
    near = np.abs(flat - 2.0 * np.pi * cycles) < SINGULARITY_WINDOW

    # Limit branch: (-1)^(m(N-1)) times a ratio of Taylor series in the
    # offset u = w - 2*pi*m; both series start at 1 so the ratio is exact at
    # the singular point itself.
    # The parity of m comes from the float cycle count itself: fmod is exact
    # for any integral float, while an int64 cast overflows past 2**63.
    odd = (n - 1) % 2 * np.fmod(cycles[near], 2.0) != 0.0
    half = 0.5 * (flat[near] - 2.0 * np.pi * cycles[near])
    num = 1.0 - (n * half) ** 2 / 6.0 + (n * half) ** 4 / 120.0
    den = 1.0 - half**2 / 6.0 + half**4 / 120.0
    out[near] = np.where(odd, -1.0, 1.0) * num / den

    wf = flat[~near]
    out[~near] = np.sin(0.5 * n * wf) / (n * np.sin(0.5 * wf))

    out = out.reshape(arr.shape)
    return out if arr.ndim else float(out)


def psinc(order, truncation, w):
    """Periodized sinc: truncated replica sum approximating the Dirichlet kernel.

    psinc(N, L, w) = sum_{l=-L..L} (-1)**((N-1)*l) * sinc(N*(w - 2*pi*l)/2).
    The phase factor attached to each replica is exactly +/-1, so the sum is
    evaluated in real arithmetic with no spurious imaginary residue.  With
    L = 0 this degenerates to sinc(N*w/2); as L grows it converges to
    dirichlet(N, w).

    Args:
        order: kernel order N >= 1.
        truncation: replicas L kept on each side; L >= 0.
        w: radian argument, scalar or array; must be finite.

    Returns:
        Kernel amplitude with the same shape as ``w``.
    """
    n = _check_order(order)
    reps = _check_truncation(truncation)
    arr = _finite_floats(w, "kernel argument")

    shifts = np.arange(-reps, reps + 1)
    signs = 1.0 - 2.0 * (((n - 1) * shifts) & 1)
    args = 0.5 * n * (arr[..., np.newaxis] - 2.0 * np.pi * shifts)
    out = (signs * sinc(args)).sum(axis=-1)
    return out if arr.ndim else float(out)


# sin(pi*h/2 + x) for h = 0..3 mod 4 is sin x, cos x, -sin x, -cos x.
_QUADRANT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _sin_pi(u) -> np.ndarray:
    """sin(pi*u) for a float array u with |pi*u| finite; exactly 0 at integers.

    u is split exactly into the nearest half-integer h/2 and a rest of at
    most 1/4, so sin and cos only see arguments in [-pi/4, pi/4] and their
    rounding does not grow with u.  The quadrant h mod 4 comes from fmod of
    the integral float h, exact at any magnitude.
    """
    halves = np.round(2.0 * u)
    rest = np.pi * (u - 0.5 * halves)
    quadrant = np.fmod(halves, 4.0).astype(np.intp) & 3
    out = np.where(quadrant & 1, np.cos(rest), np.sin(rest))
    out *= _QUADRANT_SIGNS[quadrant]
    return out


def _quotient(num, den) -> np.ndarray:
    """num/den, and 1 where den is 0: the removable singularity of both kernels."""
    return np.divide(num, den, out=np.ones(den.shape), where=den != 0)


def _sin_pi_lags(factor: int, lags) -> np.ndarray:
    """sin(pi*d/M) at integer lags d, with no trig call per lag.

    With d = M*j + r and 0 <= r < M it is (-1)**j * sin(pi*r/M): a table
    of M sines and their negatives, indexed by d mod 2M.  It is exactly 0
    at every multiple of M.
    """
    turn = _sin_pi(np.arange(factor) / factor)
    return np.concatenate((turn, -turn))[lags % (2 * factor)]


def _dirichlet_lags(order: int, factor: int, lags) -> np.ndarray:
    """dirichlet(N, 2*pi*d/(M*N)) at integer lags |d| < M*N, from integers.

    The kernel is sin(pi*d/M) / (N*sin(pi*d/(M*N))), even in d.  Its
    numerator is ``_sin_pi_lags``.  In the denominator |d| is reflected to
    min(|d|, M*N - |d|) in integers, so sin sees at most pi/2 and its
    rounding does not grow with N.  The value is exactly 1 at d = 0, the
    only multiple of M*N in range, and exactly 0 at the other multiples of
    M, so the interpolant keeps its samples bit for bit.
    """
    total = order * factor
    reach = np.abs(lags)
    den = order * np.sin((np.pi / total) * np.minimum(reach, total - reach))
    return _quotient(_sin_pi_lags(factor, reach), den)


def _sinc_lags(factor: int, lags) -> np.ndarray:
    """sinc(pi*d/M) at integer lags d: the sinc kernel on an M-fold refined grid.

    Exactly 1 at d = 0 and exactly 0 at the other multiples of M.  Each
    value is ``_sin_pi_lags`` over pi*(d/M); when d/M is exact (M a power
    of two) that is the float ``_sin_pi(u)`` / (pi*u) at u = d/M.
    """
    return _quotient(_sin_pi_lags(factor, lags), np.pi * (lags / factor))
