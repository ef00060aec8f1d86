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
from .seqio import ParseError
from .transforms import Sequence

__all__ = ["main", "build_parser"]


def _parse_int_list(text: str, flag: str):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated integer list, got {text!r}") from None


def _parse_float_list(text: str, flag: str):
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated number list, got {text!r}") from None


def _parse_complex_list(text: str, flag: str):
    try:
        return [complex(part.strip()) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(
            f"{flag} expects comma-separated complex numbers like 1,0.5,0.2+0.1j, got {text!r}"
        ) from None


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid expects START:STOP:COUNT, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"--grid expects START:STOP:COUNT, got {text!r}") from None
    return analysis.OmegaGrid.linspace(start, stop, count)


def _open_in(path: str):
    return sys.stdin if path == "-" else path


def _open_out(path: str):
    return sys.stdout if path == "-" else path


def _cmd_gen(args) -> int:
    if args.kind in ("tone", "multitone") and args.harmonics is None:
        raise ValueError(f"--harmonics is required for kind {args.kind}")
    kwargs = {"kind": args.kind, "length": args.n, "seed": args.seed}
    if args.harmonics is not None:
        kwargs["harmonics"] = tuple(_parse_float_list(args.harmonics, "--harmonics"))
    if args.amplitudes is not None:
        kwargs["amplitudes"] = tuple(_parse_complex_list(args.amplitudes, "--amplitudes"))
    if args.center is not None:
        kwargs["center"] = args.center
    if args.width is not None:
        kwargs["width"] = args.width
    if args.band is not None:
        kwargs["band"] = args.band
    spec = signals.SignalSpec(**kwargs)
    metadata = {"kind": spec.kind, "N": str(spec.length)}
    if spec.kind in ("tone", "multitone"):
        metadata["harmonics"] = ",".join(repr(h) for h in spec.harmonics)
        if spec.amplitudes:
            metadata["amplitudes"] = ",".join(str(a) for a in spec.amplitudes)
    if spec.kind == "bandlimited-random":
        metadata["seed"] = str(spec.seed)
        metadata["band"] = str(spec.band)
    if spec.kind == "gaussian-pulse":
        center, width = signals.pulse_params(spec)
        metadata["center"] = repr(center)
        metadata["width"] = repr(width)
    seqio.write_sequence(signals.generate(spec), _open_out(args.out), metadata)
    return 0


def _out_of_memory(length: int, factor: int) -> MemoryError:
    return MemoryError(
        f"out of memory: --factor {factor} on {length} samples needs "
        f"{factor * length} refined samples"
    )


def _cmd_upsample(args) -> int:
    if args.factor < 1:
        raise ValueError("--factor must be an integer >= 1")
    x = seqio.read_sequence(_open_in(args.infile))
    try:
        refined = interpolate.upsample(x, args.factor, args.method)
    except MemoryError:
        raise _out_of_memory(len(x), args.factor) from None
    seqio.write_sequence(
        refined, _open_out(args.out), {"M": str(args.factor), "method": args.method}
    )
    return 0


def _cmd_spectrum(args) -> int:
    if args.factor < 1:
        raise ValueError("--factor must be an integer >= 1")
    x = seqio.read_sequence(_open_in(args.infile))
    try:
        spectrum = interpolate.spectrum_upsample(x, args.factor)
    except MemoryError:
        raise _out_of_memory(len(x), args.factor) from None
    seqio.write_sequence(
        Sequence(spectrum.values),
        _open_out(args.out),
        {"M": str(args.factor), "content": "spectrum"},
    )
    return 0


def _cmd_kernels(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be an integer >= 1")
    truncations = _parse_int_list(args.l, "--l")
    if not truncations or any(trunc < 0 for trunc in truncations):
        raise ValueError("--l expects non-negative truncations")
    grid = _parse_grid(args.grid)
    rows = analysis.kernel_discrepancy(args.n, truncations, grid)
    start, stop, count = grid.descriptor
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
    max_db = "-inf" if math.isinf(report.max_db) else repr(report.max_db)
    print(f"maxAbs={report.max_abs!r} rms={report.rms!r} maxDb={max_db}")
    return 0


def _cmd_bench(args) -> int:
    sizes = _parse_int_list(args.sizes, "--sizes")
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


# Flags whose values legitimately start with a dash (negative grid bounds,
# negative harmonics); merged into --flag=value form so argparse does not
# mistake the value for an option.
_DASH_VALUE_FLAGS = ("--grid", "--harmonics", "--amplitudes", "--center")


def _merge_dash_values(argv):
    merged = []
    index = 0
    while index < len(argv):
        arg = argv[index]
        follower = argv[index + 1] if index + 1 < len(argv) else None
        if (
            arg in _DASH_VALUE_FLAGS
            and follower is not None
            and follower.startswith("-")
            and follower != "-"
        ):
            merged.append(f"{arg}={follower}")
            index += 2
        else:
            merged.append(arg)
            index += 1
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
