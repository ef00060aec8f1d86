"""Closed-form evaluation of the sinc, Dirichlet, and periodized-sinc kernels.

The Dirichlet kernel diric(N, w) = sin(N*w/2) / (N*sin(w/2)) is the
interpolation kernel implicit in DFT-based signal reconstruction.  The
periodized sinc approximates it by a truncated sum of sign-alternating sinc
replicas spaced 2*pi apart and converges to it as the truncation grows; the
convergence rate is what makes the fast FFT pipeline a good stand-in for
ideal sinc interpolation.

The kernels accept scalars or arrays of any shape and need no special
branch at their removable singularities.  sinc is sin(w)/w, set to 1 at 0.
The Dirichlet kernel writes w = 2*pi*(m + f) with m the nearest integer and
takes both sines at the one reduced angle h = pi*f:
(-1)**(m*(N-1)) * sin(N*h) / (N*sin(h)), set to the sign at h = 0.  Nothing
cancels near the singular points, and the error is about |w|*N*eps, from
rounding w/(2*pi).  The pointwise sums of other modules (``sinc_interp``,
``dtft_at``, ``dirichlet_interp_spectrum``) evaluate their kernel matrix a
block of rows at a time through ``_pointwise_sum``, so their memory is
bounded whatever the number of points.  The quadratic-time oracles in
``interpolate`` use private forms of the Dirichlet and sinc kernels at the
integer lags of the refined grid, built from integers and a table of M
sines, so they are exact to a few ulps for any N and exactly 0 or 1 where
the kernel is.
"""

import math
import numbers

import numpy as np

__all__ = ["sinc", "dirichlet", "psinc"]

# Pointwise sums run in row blocks of at most this many kernel-matrix
# entries, so peak memory does not grow with the number of points.  2**16
# complex entries are 1 MB, small enough to stay in a core's L2 cache while
# the product reads them.  A row's sum does not depend on the block it
# falls in.
_BLOCK_ENTRIES = 1 << 16


def _finite_floats(value, name: str) -> np.ndarray:
    """``value`` as a float array, or a ValueError naming it if not finite reals."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be finite real numbers") from None
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


def _pointwise(value, name: str, evaluate):
    """``evaluate`` at every entry of the real argument ``value``, shaped like it.

    ``value`` must be finite (a ValueError names it otherwise).
    ``evaluate`` maps a flat float array to one result per entry; a scalar
    ``value`` gets its result back as a Python scalar, through ``item``,
    so a float result stays a float and a complex one a complex.  A finite
    argument so large that the evaluation overflows float64 is one
    ValueError naming the argument of largest magnitude, not a warning.
    """
    arr = _finite_floats(value, name)
    flat = np.atleast_1d(arr).ravel()
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = evaluate(flat).reshape(arr.shape)
    except FloatingPointError:
        peak = float(flat[np.argmax(np.abs(flat))])
        raise ValueError(f"the result overflows float64 at {name} {peak!r}") from None
    return out if arr.ndim else out.item()


def _pointwise_sum(value, name: str, samples, kernel):
    """sum_k kernel(p)[k] * samples[k] at every point p of ``value``, shaped like it.

    ``kernel`` maps a block of points to its (points, N) kernel matrix.
    Blocks hold at most ``_BLOCK_ENTRIES`` entries, so peak memory does not
    grow with the number of points, and each row's sum is one
    matrix-vector product.
    """

    def evaluate(points):
        out = np.empty(points.size, dtype=np.complex128)
        rows = max(1, _BLOCK_ENTRIES // samples.size)
        for lo in range(0, points.size, rows):
            out[lo : lo + rows] = kernel(points[lo : lo + rows]) @ samples
        return out

    return _pointwise(value, name, evaluate)


def sinc(w):
    """Unnormalized sinc: sin(w)/w, with the removable singularity at 0.

    Args:
        w: radian argument, scalar or array; must be finite.

    Returns:
        sin(w)/w with the same shape as ``w``; exactly 1 at w = 0.
    """
    return _pointwise(w, "kernel argument", _sinc)


def _sinc(w) -> np.ndarray:
    """``sinc`` at a finite float array ``w`` of any shape."""
    return _quotient(np.sin(w), w)


def dirichlet(order, w):
    """Dirichlet kernel of the given order: sin(N*w/2) / (N*sin(w/2)).

    With w = 2*pi*(m + f), m the nearest integer, and h = pi*f in
    [-pi/2, pi/2], the kernel is (-1)**(m*(N-1)) * sin(N*h) / (N*sin(h)).
    Both sines see the same reduced angle, so nothing cancels near the
    singular points w = 2*pi*m, where the value is exactly
    (-1)**(m*(N-1)).  The rounding of w/(2*pi) bounds the error at about
    |w|*N*eps.  The kernel is even, 2*pi-periodic for odd N and
    4*pi-periodic (with a sign flip every 2*pi) for even N.

    Args:
        order: kernel order N >= 1.
        w: radian argument, scalar or array; must be finite.

    Returns:
        Kernel amplitude with the same shape as ``w``.
    """
    n = _check_integer(order, "kernel order", 1)
    return _pointwise(w, "kernel argument", lambda flat: _dirichlet(n, flat))


def _dirichlet(order: int, w) -> np.ndarray:
    """``dirichlet`` of a checked order at a finite float array ``w`` of any shape."""
    turns = w / (2.0 * np.pi)
    cycles = np.round(turns)
    half = np.pi * (turns - cycles)
    out = _quotient(np.sin(order * half), order * np.sin(half))
    if order % 2 == 0:
        # m is odd where m/2 is not a whole number: exact for any
        # integral float, where an int64 cast of m overflows past 2**63
        np.negative(out, out=out, where=0.5 * cycles != np.round(0.5 * cycles))
    return out


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
    n = _check_integer(order, "kernel order", 1)
    reps = _check_integer(truncation, "truncation", 0)
    shifts = np.arange(-reps, reps + 1)
    signs = 1.0 - 2.0 * (((n - 1) * shifts) & 1)

    def evaluate(flat):
        return (signs * _sinc(0.5 * n * (flat[:, None] - 2.0 * np.pi * shifts))).sum(axis=-1)

    return _pointwise(w, "kernel argument", evaluate)


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
