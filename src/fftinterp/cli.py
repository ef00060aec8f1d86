"""Command-line surface: generate signals, upsample, emit spectra,
reproduce the kernel study, compare files, and benchmark.

Every command is deterministic given its flags.  Paths accept ``-`` for the
standard streams.  Exit status is 0 on success and nonzero with a one-line
diagnostic on stderr otherwise.
"""

import argparse
import math
import sys

import numpy as np

from . import analysis, interpolate, seqio, signals
from .kernels import _MAX_COUNT

__all__ = ["main", "build_parser"]


def _parse_list(text: str, flag: str, convert, expected: str):
    try:
        return [convert(part.strip()) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects {expected}, got {text!r}") from None


def _parse_grid(text: str):
    """(start, stop, count) of a --grid value, the one place a grid is checked.

    0 < STOP - START < inf also refuses inf or nan bounds and a span that
    overflows, so ``np.linspace`` of the result is finite, and COUNT is at
    most ``_MAX_COUNT``, the bound of every count.
    """
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        pass
    else:
        if 2 <= count <= _MAX_COUNT and 0 < stop - start < math.inf:
            return start, stop, count
    raise ValueError(
        f"--grid expects START:STOP:COUNT with 2 <= COUNT <= {_MAX_COUNT} and "
        f"0 < STOP - START < inf, got {text!r}"
    )


def _open_in(path: str):
    return sys.stdin if path == "-" else path


def _open_out(path: str):
    return sys.stdout if path == "-" else path


def _cmd_gen(args) -> int:
    if "harmonics" in signals._KIND_FIELDS[args.kind] and args.harmonics is None:
        raise ValueError(f"--harmonics is required for kind {args.kind}")
    numbers = "a comma-separated number list"
    complexes = "comma-separated complex numbers like 1,0.5,0.2+0.1j"
    spec = signals.SignalSpec(
        kind=args.kind,
        length=args.n,
        harmonics=_parse_list(args.harmonics or "", "--harmonics", float, numbers),
        amplitudes=_parse_list(args.amplitudes or "", "--amplitudes", complex, complexes),
        center=args.center,
        width=args.width,
        seed=args.seed,
        band=args.band,
    )
    metadata = {"kind": spec.kind, "N": str(spec.length)}
    for field in signals._KIND_FIELDS[spec.kind]:
        value = getattr(spec, field)
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        if text:
            metadata[field] = text
    seqio.write_sequence(signals.generate(spec), _open_out(args.out), metadata)
    return 0


def _refine_file(args, refine, **metadata) -> int:
    """Write ``refine(x, --factor)`` of the ``--in`` sequence to ``--out``.

    The header carries M and then ``metadata``; this is the one place the
    factor is checked and an out-of-memory refinement is reported.
    """
    if args.factor < 1:
        raise ValueError("--factor must be an integer >= 1")
    x = seqio.read_sequence(_open_in(args.infile))
    try:
        refined = refine(x, args.factor)
    except MemoryError:
        raise MemoryError(
            f"out of memory: --factor {args.factor} on {len(x)} samples needs "
            f"{args.factor * len(x)} refined samples"
        ) from None
    seqio.write_sequence(refined, _open_out(args.out), {"M": str(args.factor), **metadata})
    return 0


def _cmd_upsample(args) -> int:
    method = args.method
    return _refine_file(args, lambda x, m: interpolate.upsample(x, m, method), method=method)


def _cmd_spectrum(args) -> int:
    return _refine_file(args, interpolate.spectrum_upsample, content="spectrum")


def _cmd_kernels(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be an integer >= 1")
    truncations = _parse_list(args.l, "--l", int, "a comma-separated integer list")
    if not truncations or any(trunc < 0 for trunc in truncations):
        raise ValueError("--l expects non-negative truncations")
    start, stop, count = _parse_grid(args.grid)
    try:
        rows = analysis.kernel_discrepancy(args.n, truncations, np.linspace(start, stop, count))
    except MemoryError:
        raise MemoryError(
            f"out of memory: --l {max(truncations)} needs {2 * max(truncations) + 1} "
            f"replicas at each of the {count} points of --grid"
        ) from None
    metadata = {
        "n": str(args.n),
        "l": ",".join(str(trunc) for trunc in truncations),
        "grid": f"{start!r}:{stop!r}:{count}",
    }
    seqio.write_table(rows, analysis.KERNEL_COLUMNS, _open_out(args.out), metadata)
    return 0


def _cmd_compare(args) -> int:
    left = seqio.read_sequence(_open_in(args.a))
    right = seqio.read_sequence(_open_in(args.b))
    report = analysis.compare_sequences(left, right)
    print(f"maxAbs={report.max_abs!r} rms={report.rms!r} maxDb={report.max_db!r}")
    return 0


def _cmd_bench(args) -> int:
    sizes = _parse_list(args.sizes, "--sizes", int, "a comma-separated integer list")
    if not sizes or any(size < 1 for size in sizes):
        raise ValueError("--sizes expects positive integers")
    if args.factor < 1:
        raise ValueError("--factor must be an integer >= 1")
    if args.reps < 3:
        raise ValueError("--reps must be an integer >= 3")
    rows = analysis.bench_methods(sizes, args.factor, args.reps)
    metadata = {"factor": str(args.factor), "reps": str(args.reps)}
    seqio.write_table(rows, analysis.BENCH_COLUMNS, _open_out(args.out), metadata)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fftinterp",
        description="Fast FFT/IFFT zero-padding interpolation with Dirichlet/sinc kernel studies.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a deterministic test signal")
    gen.add_argument("--kind", required=True, choices=signals.KINDS)
    gen.add_argument("--n", type=int, required=True, help="number of samples")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--harmonics", help="comma-separated harmonic indices (may be half-integers)")
    gen.add_argument("--amplitudes", help="comma-separated complex amplitudes")
    gen.add_argument("--center", type=float, help="gaussian pulse center, sample units")
    gen.add_argument("--width", type=float, help="gaussian pulse width, sample units")
    gen.add_argument("--band", type=int, help="bandlimited-random half-bandwidth")
    gen.add_argument("--out", required=True, help="output file, or - for stdout")
    gen.set_defaults(func=_cmd_gen)

    upsample = commands.add_parser("upsample", help="upsample a sequence by an integer factor")
    upsample.add_argument("--in", dest="infile", required=True, help="input file, or - for stdin")
    upsample.add_argument("--factor", type=int, required=True)
    upsample.add_argument("--method", choices=interpolate.METHODS, default="fft")
    upsample.add_argument("--out", required=True)
    upsample.set_defaults(func=_cmd_upsample)

    spectrum = commands.add_parser(
        "spectrum", help="emit the zero-padded spectrum of a sequence"
    )
    spectrum.add_argument("--in", dest="infile", required=True)
    spectrum.add_argument("--factor", type=int, required=True)
    spectrum.add_argument("--out", required=True)
    spectrum.set_defaults(func=_cmd_spectrum)

    kernels = commands.add_parser(
        "kernels", help="tabulate Dirichlet vs periodized-sinc discrepancy"
    )
    kernels.add_argument("--n", type=int, default=8, help="kernel order")
    kernels.add_argument("--l", default="0,2,5,10,20", help="comma-separated truncations")
    kernels.add_argument(
        "--grid",
        default=f"{-np.pi!r}:{np.pi!r}:1024",
        help="omega grid as START:STOP:COUNT",
    )
    kernels.add_argument("--out", required=True)
    kernels.set_defaults(func=_cmd_kernels)

    compare = commands.add_parser("compare", help="element-wise error report of two files")
    compare.add_argument("--a", required=True)
    compare.add_argument("--b", required=True)
    compare.set_defaults(func=_cmd_compare)

    bench = commands.add_parser("bench", help="time the upsampling methods")
    bench.add_argument("--sizes", required=True, help="comma-separated sequence lengths")
    bench.add_argument("--factor", type=int, default=2)
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench)

    return parser


def _merge_dash_values(argv):
    """``argv`` with each ``--flag -value`` written as ``--flag=-value``.

    argparse takes a token that starts with one dash for an option, so a
    negative number, list or grid bound would never reach its own check.
    The only single-dash option of this CLI is ``-h``, so any other token
    with exactly one leading dash after a ``--flag`` is its value; ``-``
    alone stays the standard-stream sentinel.
    """
    merged = []
    for arg in argv:
        last = merged[-1] if merged else ""
        if (
            last.startswith("--")
            and "=" not in last
            and arg.startswith("-")
            and not arg.startswith("--")
            and arg not in ("-", "-h")
        ):
            merged[-1] = f"{last}={arg}"
        else:
            merged.append(arg)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
