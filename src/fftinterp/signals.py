"""Deterministic test signals with known closed forms.

Frequencies are harmonic indices of the N-sample frame (cycles per record),
sampled with period Ts = 1 second, so the closed form of a tone of harmonic
h is exp(2j*pi*h*t/N).  Harmonics may be half-integers: the Dirichlet
interpolant of an even-length record is exact precisely on the half-integer
grid (see ``fftinterp.interpolate``).

Every ground truth is one evaluator, ``_closed_form``: ``generate`` at the
sample times, ``eval_ground_truth`` at any float times, and the refined grid
t = m/M that ``analysis`` compares the upsamplers against.  Each runs under
the one float-overflow converter, ``kernels._overflow_error``, so a value
that overflows float64 is one ValueError, with no RuntimeWarning.

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

from dataclasses import dataclass, fields

import numpy as np

from .kernels import _check_integer, _finite_floats, _overflow_error, _pointwise
from .transforms import Sequence, _finite_vector

__all__ = [
    "KINDS",
    "SignalSpec",
    "generate",
    "eval_ground_truth",
    "splitmix64",
    "uniform_doubles",
]

# kind -> the spec fields it reads besides its length, in the order
# ``fftinterp gen`` writes them; every other field must keep its default
_KIND_FIELDS = {
    "tone": ("harmonics", "amplitudes"),
    "multitone": ("harmonics", "amplitudes"),
    "bandlimited-random": ("seed", "band"),
    "gaussian-pulse": ("center", "width"),
}
KINDS = tuple(_KIND_FIELDS)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int, count: int) -> list[int]:
    """First ``count`` raw outputs of the splitmix64 recurrence."""
    state = int(seed) & _MASK64
    out = []
    for _ in range(_check_integer(count, "count", 0)):
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
        units; center defaults to (N-1)/2 and width to N/8, resolved on the
        spec when it is made.  The closed form divides by 2*width^2, which
        must be a finite normal float64.

    Each kind reads only its own fields: a tone or multitone its harmonics
    and amplitudes, the random kind its seed and band, the pulse its center
    and width.  Any other field away from its default is a ValueError
    naming the field and the kind.  Harmonics must satisfy
    |h| <= (N-1)/2, and band must not exceed it.
    """

    kind: str
    length: int
    harmonics: tuple = ()
    amplitudes: tuple = ()
    center: float | None = None
    width: float | None = None
    seed: int = 0
    band: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "length", _check_integer(self.length, "length", 1))
        harmonics = _finite_floats(self.harmonics, "harmonics")
        if harmonics.ndim != 1:
            raise ValueError(f"harmonics must be a 1-D sequence, got {self.harmonics!r}")
        object.__setattr__(self, "harmonics", tuple(harmonics.tolist()))
        try:
            amplitudes = tuple(self.amplitudes)
        except TypeError:
            amplitudes = None
        # a str or bytes is iterable, but its characters are not amplitudes
        if amplitudes is None or isinstance(self.amplitudes, (str, bytes)):
            raise ValueError(f"amplitudes must be a sequence of numbers, got {self.amplitudes!r}")
        if amplitudes:
            amplitudes = tuple(_finite_vector(amplitudes, "amplitudes").tolist())
        object.__setattr__(self, "amplitudes", amplitudes)
        # negative seeds are valid: the generator masks them to 64 bits
        object.__setattr__(self, "seed", _check_integer(self.seed, "seed"))
        for field in fields(self):
            value = getattr(self, field.name)
            unset = value is None if field.default is None else value == field.default
            if field.name not in ("kind", "length", *_KIND_FIELDS[self.kind]) and not unset:
                raise ValueError(
                    f"{field.name} does not apply to kind {self.kind!r}, got {value!r}"
                )
        if self.kind == "gaussian-pulse":
            center = (self.length - 1) / 2 if self.center is None else self.center
            width = self.length / 8 if self.width is None else self.width
            for name, value in (("center", center), ("width", width)):
                scalar = _finite_floats(value, f"pulse {name}")
                if scalar.ndim:
                    raise ValueError(f"pulse {name} must be one real number, got {value!r}")
                object.__setattr__(self, name, float(scalar))
            try:
                spread = 2.0 * self.width**2
            except OverflowError:
                spread = np.inf
            if not (self.width > 0 and np.finfo(float).tiny <= spread < np.inf):
                raise ValueError(
                    "pulse width must be positive, with 2*width**2 a finite normal "
                    f"float64, got {self.width!r}"
                )

        half_band = (self.length - 1) / 2
        if self.kind == "tone" and len(self.harmonics) != 1:
            raise ValueError("a tone takes exactly one harmonic")
        if self.kind == "multitone" and not self.harmonics:
            raise ValueError("a multitone takes at least one harmonic")
        if self.amplitudes and len(self.amplitudes) != len(self.harmonics):
            raise ValueError("amplitudes must parallel harmonics")
        if any(abs(h) > half_band for h in self.harmonics):
            raise ValueError(f"harmonics must satisfy |h| <= {half_band} for length {self.length}")
        if self.kind == "bandlimited-random":
            limit = int(half_band)
            band = limit if self.band is None else _check_integer(self.band, "band", 0)
            if band > half_band:
                raise ValueError(f"band must lie in 0..{limit} for length {self.length}")
            object.__setattr__(self, "band", band)


def _tone_table(spec: SignalSpec):
    """Harmonic/amplitude pairs realizing a tone-sum kind's closed form."""
    if spec.kind == "bandlimited-random":
        harmonics = np.arange(-spec.band, spec.band + 1, dtype=float)
        draws = 2.0 * np.array(uniform_doubles(spec.seed, 2 * harmonics.size)) - 1.0
        return harmonics, draws[0::2] + 1j * draws[1::2]
    amps = spec.amplitudes or (1.0 + 0.0j,) * len(spec.harmonics)
    return np.array(spec.harmonics), np.array(amps)


def _closed_form(spec: SignalSpec, scaled_t, scale: int):
    """The spec's closed form at t = scaled_t / scale (Ts = 1), as complex128.

    Tones sum a_h exp(2j*pi*h*t/N) in exact half-turns: the phase 2*h*t/N
    half-turns is taken as 2*h*scaled_t reduced mod 2*scale*N, then divided
    by scale*N.  fmod is exact, and so is 2*h*scaled_t for integer or
    half-integer h at integer scaled_t (or at the dyadic t of a
    power-of-two grid when scale is 1), so the phase does not drift with
    N.  The Gaussian pulse evaluates its exponential at the float t, and is
    exactly 0 where the exponent overflows.
    """
    if spec.kind == "gaussian-pulse":
        # far from the center the exponent overflows to -inf, and exp
        # gives the exact 0 there
        with np.errstate(over="ignore"):
            exponent = -((scaled_t / scale - spec.center) ** 2) / (2.0 * spec.width**2)
        return np.exp(exponent).astype(np.complex128)
    harmonics, amplitudes = _tone_table(spec)
    turn = scale * spec.length
    out = np.zeros(scaled_t.shape, dtype=np.complex128)
    for h, a in zip(harmonics, amplitudes):
        half_turns = np.fmod(2.0 * h * scaled_t, 2 * turn)
        out += a * np.exp(1j * np.pi * half_turns / turn)
    return out


def eval_ground_truth(spec: SignalSpec, t):
    """Closed-form signal value at time(s) ``t`` in seconds (Ts = 1).

    ``_closed_form`` at the float t: exact half-turn phases for tones at
    the integer t of the sample grid and the dyadic t of a power-of-two
    refinement, and an exact 0 for the pulse far from its center.  A
    finite t whose value overflows float64 is one ValueError naming the
    largest t.  Agrees with ``generate`` exactly at t = 0..N-1.
    """
    return _pointwise(t, "evaluation time", lambda flat: _closed_form(spec, flat, 1))


def _refined_grid_truth(spec: SignalSpec, factor: int):
    """Ground truth at t = m/M for m = 0..M*N-1 (Ts = 1), the grid that M-fold
    upsampling fills.

    ``_closed_form`` at the integer m over M.  The m are built once, as
    float64 (exact below 2**53), so no tone converts them again.  Tone
    phases come from the integer m, so they stay exact for every M, not
    only where m/M is a dyadic float; for power-of-two M the result is bit
    for bit ``eval_ground_truth(spec, np.arange(M*N) / M)``.  The Gaussian
    pulse is evaluated at the float times m/M.  A truth that overflows
    float64 is one ValueError that says so, with no RuntimeWarning.
    """
    with _overflow_error(lambda: "the ground truth overflows float64"):
        return _closed_form(spec, np.arange(factor * spec.length, dtype=np.float64), factor)


def generate(spec: SignalSpec) -> Sequence:
    """Sample the spec's closed form at t = 0..N-1 with Ts = 1 second.

    The factor-1 ``_refined_grid_truth``, so the samples are
    ``eval_ground_truth`` at those times, bit for bit.
    """
    return Sequence(_refined_grid_truth(spec, 1), 1.0)
