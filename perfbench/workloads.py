"""The benchmark's four workloads and the exact reference they are checked against.

Each workload is a closed loop with one caller in one process: it builds its
inputs from the seed, times one call into fftinterp's public API per
operation, and checks every output against a reference that the benchmark
computes itself.  The reference never goes through ``signals`` or a library
transform, so phase drift inside the library shows up as error instead of
cancelling out.

Inputs are sums of tones on the centered harmonic grid h = q - (N-1)/2 of an
N-sample record (integers for odd N, half-integers for even N), on which the
Dirichlet interpolant is exact, scaled to unit peak.
"""

import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# An output further than this from the exact reference is a wrong answer.
# Rounding drift at these sizes stays below 1e-9; a wrong phase, factor or
# sample order is off by O(1).
TOLERANCE = 1e-6

# Which harmonics a record holds, and how many, follow a schedule fixed by
# this seed; the run's seed draws the amplitudes and, on lib-awkward, the
# lengths.  The error of float phases depends mostly on which harmonics are
# present, so seeded harmonics would move max_abs_err by 10-25% between seeds.
SCHEDULE_SEED = 0x5EED

# Every measured run makes at least this many operations, so the 90th
# percentile has at least ten samples beyond it, and max_abs_err is taken
# over exactly these first operations, which makes it deterministic per seed.
MIN_OPS = 100


class CheckFailed(Exception):
    """An output that is not the exact interpolant of its input."""


def load_fftinterp(root):
    """Import fftinterp from ``root/src`` and refuse any other copy."""
    package = Path(root).resolve() / "src" / "fftinterp"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no fftinterp sources under {package.parent}")
    sys.path.insert(0, str(package.parent))
    import fftinterp
    import fftinterp.cli

    if Path(fftinterp.__file__).resolve().parent != package:
        raise ImportError(f"fftinterp was imported from {fftinterp.__file__}, not {package}")
    return fftinterp


def exact_tones(twice_h, amplitudes, length):
    """sum_h a_h * exp(j*pi*((2h*m) mod 2L) / L) for m = 0..L-1, with 2h an integer.

    With L = M*N this is the tone exp(2j*pi*h*t/N) on the refined grid
    t = m/M of an N-sample record with Ts = 1.  The phase is reduced exactly
    in int64 before ``exp``, so its error does not grow with m.
    """
    m = np.arange(length, dtype=np.int64)
    out = np.zeros(length, dtype=np.complex128)
    for h2, amp in zip(twice_h, amplitudes):
        out += amp * np.exp(1j * np.pi * ((int(h2) * m) % (2 * length)) / length)
    return out


@dataclass
class Case:
    """One record of n samples (Ts = 1) and its exact refinement by ``factor``."""

    n: int
    factor: int
    twice_h: np.ndarray
    amplitudes: np.ndarray
    samples: np.ndarray
    reference: np.ndarray
    x: object = None


def draw_harmonics(rng, n, max_tones):
    """1..max_tones distinct harmonics on the centered grid of n samples, as 2h."""
    count = int(rng.integers(1, max_tones + 1))
    return 2 * rng.choice(n, size=count, replace=False) - (n - 1)


def draw_amplitudes(rng, count):
    return rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(-1.0, 1.0, count)


def tone_case(n, factor, twice_h, amplitudes):
    """The multitone of the given harmonics, scaled to unit peak over its samples."""
    refined = exact_tones(twice_h, amplitudes, factor * n)
    peak = float(np.max(np.abs(refined[::factor])))
    reference = refined / peak
    return Case(n, factor, twice_h, amplitudes / peak, reference[::factor].copy(), reference)


def check_refined(samples, period, case):
    """Largest |output - reference|; raises CheckFailed for a wrong output."""
    samples = np.asarray(samples)
    if samples.shape != case.reference.shape:
        raise CheckFailed(f"{samples.shape[0]} samples, expected {case.reference.size}")
    if period is None or not math.isclose(period, 1.0 / case.factor, rel_tol=1e-12):
        raise CheckFailed(f"sample period {period!r}, expected {1.0 / case.factor!r}")
    if not np.all(np.isfinite(samples)):
        raise CheckFailed("non-finite output")
    err = float(np.max(np.abs(samples - case.reference)))
    if not err <= TOLERANCE:
        raise CheckFailed(f"error {err:.3e} above tolerance {TOLERANCE:g}")
    return err


def next_prime(n):
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


class Workload:
    """A seeded stream of operations; ``call`` is timed, ``check`` is not."""

    name = ""
    # The run loop looks at the clock only after a whole block, so every run
    # holds the same mix of the block's strata.
    block = 1
    # Operations on each side, untraced and traced, of a traced run.
    trace_ops = 40

    def __init__(self, api, seed, workdir):
        self.api = api
        self.rng = np.random.default_rng(seed % 2**63)
        self.schedule = np.random.default_rng(SCHEDULE_SEED)
        self.workdir = Path(workdir)

    def case(self, n, factor, max_tones):
        """Harmonics from the fixed schedule, amplitudes from the seed."""
        twice_h = draw_harmonics(self.schedule, n, max_tones)
        return tone_case(n, factor, twice_h, draw_amplitudes(self.rng, twice_h.size))

    def setup(self):
        """Build fixed inputs and warm up; counted in setup_s."""

    def stream(self):
        """Endless iterator of operation items."""
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def check(self, item, result):
        """Error of ``result`` against the exact reference; raises CheckFailed."""
        raise NotImplementedError

    def output_samples(self, item):
        return item.factor * item.n

    def transform_lengths(self, item):
        """Transform lengths the fast pipeline runs for this item."""
        return (item.n, item.factor * item.n)


class LibPow2(Workload):
    """``fft_upsample`` at one power-of-two length, caches hot after warm-up."""

    name = "lib-pow2"
    N, M, INPUTS = 1 << 16, 4, 8

    def setup(self):
        self.cases = [self.case(self.N, self.M, 4) for _ in range(self.INPUTS)]
        for case in self.cases:
            case.x = self.api.transforms.Sequence(case.samples, 1.0)
        for case in self.cases[:2]:
            self.call(case)

    def stream(self):
        return itertools.cycle(self.cases)

    def call(self, item):
        return self.api.interpolate.fft_upsample(item.x, item.factor)

    def check(self, item, result):
        return check_refined(result.samples, result.sample_period, item)


class LibAwkward(LibPow2):
    """``fft_upsample`` over distinct non-power-of-two lengths, one new length per call."""

    name = "lib-awkward"
    # (k, M): lengths in (2^k, 1.5*2^k).  Every non-power-of-two length there
    # shares the Bluestein padding of its stratum, so a stratum's calls cost
    # about the same.  The third stratum costs over twice the second and under
    # half the fourth, and the last two share their largest padding, so the
    # median falls inside the third stratum and the 90th percentile inside
    # the last two for every seed.
    STRATA = ((10, 4), (11, 2), (12, 4), (13, 4), (14, 2))
    block = len(STRATA)

    def setup(self):
        # Warm up on a length whose padding no stratum uses, so the
        # length-keyed caches of the streamed lengths start empty.
        warm = self.case(100, 2, 3)
        warm.x = self.api.transforms.Sequence(warm.samples, 1.0)
        self.call(warm)

    def stream(self):
        used = set()
        for block in itertools.count():
            for k, factor in self.STRATA:
                n = self._length(k, block, used)
                used.add(n)
                case = self.case(n, factor, 3)
                case.x = self.api.transforms.Sequence(case.samples, 1.0)
                yield case

    def _length(self, k, block, used):
        """2^k+1 first, then alternately primes and composites.  A length
        repeats only when 64 draws in a row find the window used up."""
        if block == 0:
            return (1 << k) + 1
        for _ in range(64):
            n = int(self.rng.integers((1 << k) + 2, 3 << (k - 1)))
            n = next_prime(n) if block % 2 else (n if next_prime(n) != n else n + 1)
            if n not in used:
                break
        return n


class CliRoundtrip(Workload):
    """``cli.main(["upsample", ...])`` in-process, CSV file in and CSV file out."""

    name = "cli-roundtrip"
    N, M, INPUTS = 16384, 4, 8
    trace_ops = 20

    def setup(self):
        self.cases = [self.case(self.N, self.M, 3) for _ in range(self.INPUTS)]
        for index, case in enumerate(self.cases):
            case.x = self.workdir / f"in{index}.csv"
            write_csv(case.x, case.samples, 1.0)
        self.out = self.workdir / "out.csv"
        self.call(self.cases[0])

    def stream(self):
        return itertools.cycle(self.cases)

    def call(self, item):
        argv = ["upsample", "--in", str(item.x), "--factor", str(item.factor)]
        return self.api.cli.main(argv + ["--method", "fft", "--out", str(self.out)])

    def check(self, item, result):
        # Removing the output before the next call means every call creates a
        # fresh file whose pages are never written back, so disk writeback of
        # an earlier output cannot stall the timed write.
        try:
            if result != 0:
                raise CheckFailed(f"cli.main returned {result!r}")
            samples, period = read_csv(self.out)
        finally:
            self.out.unlink(missing_ok=True)
        return check_refined(samples, period, item)


@dataclass
class StudyItem:
    spec: object
    n: int
    factor: int


class VerifyStudy(Workload):
    """``analysis.upsample_error_study`` with all three methods on tones and multitones."""

    name = "verify-study"
    # (N, M), N lowered by up to 16 on the schedule so no record reaches a
    # power of two: the study costs about N*MN kernel entries, so the strata are five separate
    # cost levels, and the median and 90th percentile fall inside the third
    # and fifth.
    STRATA = ((255, 2), (255, 4), (383, 4), (511, 4), (1023, 2))
    block = len(STRATA)
    EXACT_METHODS = ("fft", "dirichlet")

    def setup(self):
        self.call(self._item(63, 2))

    def stream(self):
        while True:
            for top, factor in self.STRATA:
                yield self._item(int(self.schedule.integers(top - 16, top + 1)), factor)

    def _item(self, n, factor):
        case = self.case(n, 1, 3)
        spec = self.api.signals.SignalSpec(
            kind="tone" if case.twice_h.size == 1 else "multitone",
            length=n,
            harmonics=tuple(h2 / 2 for h2 in case.twice_h.tolist()),
            amplitudes=tuple(case.amplitudes.tolist()),
        )
        return StudyItem(spec, n, factor)

    def call(self, item):
        return self.api.analysis.upsample_error_study(item.spec, item.factor)

    def check(self, item, result):
        """The study's reports are the output.  For the two exact methods the
        reference error is 0, so the reported error is the distance from it."""
        reports = {study.method: study for study in result}
        if not set(self.api.interpolate.METHODS) <= set(reports):
            raise CheckFailed(f"study reported {sorted(reports)}")
        for study in reports.values():
            for report in (study.interior, study.edge):
                if not (math.isfinite(report.max_abs) and math.isfinite(report.rms)):
                    raise CheckFailed(f"non-finite {study.method} report")
        err = max(
            max(reports[m].interior.max_abs, reports[m].edge.max_abs) for m in self.EXACT_METHODS
        )
        if not err <= TOLERANCE:
            raise CheckFailed(f"exact-method error {err:.3e} above tolerance {TOLERANCE:g}")
        return err

    def output_samples(self, item):
        return len(self.api.interpolate.METHODS) * item.factor * item.n


WORKLOADS = {w.name: w for w in (LibPow2, LibAwkward, CliRoundtrip, VerifyStudy)}


def write_csv(path, samples, sample_period):
    """The repository's sequence CSV format, written without the library."""
    rows = [f"# Ts={sample_period!r}", "n,re,im"]
    rows += [f"{i},{float(v.real)!r},{float(v.imag)!r}" for i, v in enumerate(samples)]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_csv(path):
    """Parse a sequence CSV without the library; returns (samples, Ts)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    period = None
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        key, _, value = lines[start][1:].partition("=")
        if key.strip() == "Ts":
            period = float(value)
        start += 1
    if start >= len(lines) or lines[start].replace(" ", "") != "n,re,im":
        raise CheckFailed("output file has no n,re,im header")
    body = lines[start + 1 :]
    try:
        table = np.array(",".join(body).split(","), dtype=float).reshape(len(body), 3)
    except ValueError:
        raise CheckFailed("malformed output rows") from None
    if not np.array_equal(table[:, 0], np.arange(len(body))):
        raise CheckFailed("output row indices are not 0..L-1")
    return table[:, 1] + 1j * table[:, 2], period
