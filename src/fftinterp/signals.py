"""Deterministic test signals with known closed forms.

Frequencies are harmonic indices of the N-sample frame (cycles per record),
sampled with period Ts = 1 second, so the closed form of a tone of harmonic
h is exp(2j*pi*h*t/N).  Harmonics may be half-integers: the Dirichlet
interpolant of an even-length record is exact precisely on the half-integer
grid (see ``fftinterp.interpolate``).

Randomized kinds draw from an explicitly specified splitmix64 recurrence so
identical specs reproduce identical signals in any implementation:

    state := (state + 0x9E3779B97F4A7C15) mod 2^64
    z := state
    z := ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z := ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output z XOR (z >> 31)

Each output maps to a double in [0, 1) as (z >> 11) / 2^53.  Bandlimited
random amplitudes consume two draws per harmonic, real part then imaginary
part, each rescaled to [-1, 1), in ascending harmonic order -B..B.
"""

from dataclasses import dataclass

import numpy as np

from .transforms import Sequence

__all__ = [
    "KINDS",
    "SignalSpec",
    "generate",
    "eval_ground_truth",
    "pulse_params",
    "splitmix64",
    "uniform_doubles",
]

KINDS = ("tone", "multitone", "bandlimited-random", "gaussian-pulse")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int, count: int) -> list[int]:
    """First ``count`` raw outputs of the splitmix64 recurrence."""
    state = int(seed) & _MASK64
    out = []
    for _ in range(count):
        state = (state + _GOLDEN) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def uniform_doubles(seed: int, count: int) -> list[float]:
    """splitmix64 outputs mapped to doubles in [0, 1) via the top 53 bits."""
    return [(z >> 11) * 2.0**-53 for z in splitmix64(seed, count)]


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for a deterministic closed-form test signal.

    kind selects the family:
      * ``tone``: one harmonic, one amplitude.
      * ``multitone``: several harmonics with parallel amplitudes.
      * ``bandlimited-random``: seeded complex amplitudes on the integer
        harmonics -band..band.
      * ``gaussian-pulse``: exp(-(t - center)^2 / (2*width^2)) in sample
        units; defaults center = (N-1)/2, width = N/8.

    When ``bandlimited`` is set (the default), harmonics must satisfy
    |h| <= (N-1)/2.
    """

    kind: str
    length: int
    harmonics: tuple = ()
    amplitudes: tuple = ()
    center: float | None = None
    width: float | None = None
    seed: int = 0
    band: int | None = None
    bandlimited: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.length != int(self.length) or int(self.length) < 1:
            raise ValueError(f"length must be an integer >= 1, got {self.length!r}")
        object.__setattr__(self, "length", int(self.length))
        object.__setattr__(self, "harmonics", tuple(float(h) for h in self.harmonics))
        object.__setattr__(self, "amplitudes", tuple(complex(a) for a in self.amplitudes))

        half_band = (self.length - 1) / 2
        if self.kind == "tone" and len(self.harmonics) != 1:
            raise ValueError("a tone takes exactly one harmonic")
        if self.kind == "multitone" and not self.harmonics:
            raise ValueError("a multitone takes at least one harmonic")
        if self.kind in ("tone", "multitone"):
            if self.amplitudes and len(self.amplitudes) != len(self.harmonics):
                raise ValueError("amplitudes must parallel harmonics")
            if self.bandlimited and any(abs(h) > half_band for h in self.harmonics):
                raise ValueError(
                    f"harmonics must satisfy |h| <= {half_band} for length {self.length}"
                )
        if self.kind == "bandlimited-random":
            limit = int(half_band)
            band = limit if self.band is None else int(self.band)
            if band < 0 or (self.bandlimited and band > half_band):
                raise ValueError(f"band must lie in 0..{limit} for length {self.length}")
            object.__setattr__(self, "band", band)
        if self.kind == "gaussian-pulse":
            if self.width is not None and not self.width > 0:
                raise ValueError("pulse width must be positive")


def _tone_table(spec: SignalSpec):
    """Harmonic/amplitude pairs realizing the spec's closed form."""
    if spec.kind in ("tone", "multitone"):
        amps = spec.amplitudes or (1.0 + 0.0j,) * len(spec.harmonics)
        return np.array(spec.harmonics), np.array(amps)
    if spec.kind == "bandlimited-random":
        harmonics = np.arange(-spec.band, spec.band + 1, dtype=float)
        draws = uniform_doubles(spec.seed, 2 * harmonics.size)
        re = 2.0 * np.array(draws[0::2]) - 1.0
        im = 2.0 * np.array(draws[1::2]) - 1.0
        return harmonics, re + 1j * im
    raise ValueError(f"{spec.kind} has no harmonic table")


def pulse_params(spec: SignalSpec):
    """Resolved (center, width) of a gaussian-pulse spec, defaults applied."""
    center = (spec.length - 1) / 2 if spec.center is None else float(spec.center)
    width = spec.length / 8 if spec.width is None else float(spec.width)
    return center, width


def _tone_sum(spec: SignalSpec, scaled_t, scale: int):
    """sum_h a_h exp(2j*pi*h*t/N) at t = scaled_t / scale, in exact half-turns.

    The phase 2*h*t/N half-turns is taken as 2*h*scaled_t reduced mod
    2*scale*N, then divided by scale*N.  fmod is exact, and so is
    2*h*scaled_t for integer or half-integer h at integer scaled_t (or at
    the dyadic t of a power-of-two grid when scale is 1), so the phase does
    not drift with N.
    """
    harmonics, amplitudes = _tone_table(spec)
    turn = scale * spec.length
    out = np.zeros(scaled_t.shape, dtype=np.complex128)
    for h, a in zip(harmonics, amplitudes):
        half_turns = np.fmod(2.0 * h * scaled_t, 2 * turn)
        out += a * np.exp(1j * np.pi * half_turns / turn)
    return out


def eval_ground_truth(spec: SignalSpec, t):
    """Closed-form signal value at time(s) ``t`` in seconds (Ts = 1).

    Tones evaluate sum_h a_h exp(2j*pi*h*t/N), with the phase 2*h*t reduced
    mod 2N half-turns before exp; the Gaussian pulse evaluates its
    exponential directly.  Agrees with ``generate`` exactly at the
    sample points t = 0..N-1.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("evaluation time must be finite")
    flat = np.atleast_1d(t_arr).astype(float)
    if spec.kind == "gaussian-pulse":
        center, width = pulse_params(spec)
        out = np.exp(-((flat - center) ** 2) / (2.0 * width**2)).astype(np.complex128)
    else:
        # exact at the integer t of the sample grid and at the dyadic t of a
        # power-of-two refinement; _refined_grid_truth covers every factor
        out = _tone_sum(spec, flat, 1)
    out = out.reshape(t_arr.shape)
    return out if t_arr.ndim else complex(out)


def _refined_grid_truth(spec: SignalSpec, factor: int):
    """Ground truth at t = m/M for m = 0..M*N-1 (Ts = 1), the grid that M-fold
    upsampling fills.

    Tone phases come from the integer m, so they stay exact for every M, not
    only where m/M is a dyadic float; for power-of-two M the result is bit
    for bit ``eval_ground_truth(spec, np.arange(M*N) / M)``.  The Gaussian
    pulse is evaluated at the float times.
    """
    m = np.arange(factor * spec.length, dtype=np.int64)
    if spec.kind == "gaussian-pulse":
        return eval_ground_truth(spec, m / factor)
    return _tone_sum(spec, m, factor)


def generate(spec: SignalSpec) -> Sequence:
    """Sample the spec's closed form at t = 0..N-1 with Ts = 1 second."""
    samples = eval_ground_truth(spec, np.arange(spec.length, dtype=float))
    return Sequence(samples, sample_period=1.0)
