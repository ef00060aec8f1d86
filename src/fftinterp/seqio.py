"""Plain-text CSV formats for sequences, spectra, and analysis tables.

A sequence file is:

    # key=value            (zero or more metadata lines; Ts is recognized)
    n,re,im                (fixed header)
    0,<re>,<im>            (one row per sample, contiguous 0-based index)
    ...

A metadata key or value may not hold a line break, which would end its
line early.  Blank lines and ``#`` lines may also appear between rows.
Floats are serialized with shortest round-trip formatting (``repr``), so
writing and re-reading reproduces every sample bit for bit; the reader
also accepts any other spelling ``int`` and ``float`` accept.  Tables share
the serialization and metadata lines, and write an empty field for the
-inf decibel sentinel.

Sequence rows are handled a block of rows at a time, so that per-row work
runs inside a few C-level calls and the whole text is never held at once:
the writer formats each block with one ``%`` format, and the reader parses
each block with one ``np.loadtxt`` call.  A block numpy refuses, for a bad
row or for a spelling only Python accepts (``1_0.5``, non-ASCII digits),
is read row by row with ``int`` and ``float``.  So the reader takes each
field, stripped of whitespace, in any spelling those accept, and errors are
reported as if the file were checked line by line: a ParseError names the
first bad line in file order.
"""

import itertools
import math
import os

import numpy as np

from .transforms import Sequence

__all__ = ["ParseError", "SEQUENCE_HEADER", "read_sequence", "write_sequence", "write_table"]

SEQUENCE_HEADER = "n,re,im"

# Rows formatted or parsed per block: enough that the per-block calls cost
# little per row, few enough that a block's strings stay small.
_BLOCK_ROWS = 4096

_ROW_DTYPE = [("n", np.int64), ("re", np.float64), ("im", np.float64)]


class ParseError(ValueError):
    """Malformed sequence file; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _format_float(value: float) -> str:
    return repr(float(value))


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    if math.isinf(number) and number < 0:
        return ""
    return _format_float(number)


def _write_text(sink, chunks):
    """Write the strings of ``chunks`` in order to a stream or a path."""
    if hasattr(sink, "write"):
        for chunk in chunks:
            sink.write(chunk)
        return
    with open(os.fspath(sink), "w", encoding="utf-8", newline="\n") as handle:
        for chunk in chunks:
            handle.write(chunk)


def _metadata_lines(metadata) -> dict:
    """The ``# key=value`` line of each metadata key, in the given order.

    A key or value holding a line break would end its line early and
    leave a file the reader refuses, so it is one ValueError naming the
    key, raised before anything is written.
    """
    lines = {key: f"# {key}={value}" for key, value in (metadata or {}).items()}
    for key, line in lines.items():
        if "\n" in line or "\r" in line:
            raise ValueError(f"metadata {key!r} holds a line break in its key or value")
    return lines


def _format_rows(samples, start: int) -> str:
    """CSV text of the rows ``start, start + 1, ...`` holding ``samples``.

    One ``%`` format per block: ``%d`` spells each index as ``str`` does
    and ``%r`` each value as ``repr(float(value))`` does.
    """
    count = samples.size
    values = np.ascontiguousarray(samples).view(np.float64).tolist()
    fields = [None] * (3 * count)
    fields[0::3] = range(start, start + count)
    fields[1::3] = values[0::2]
    fields[2::3] = values[1::2]
    return ("%d,%r,%r\n" * count) % tuple(fields)


def write_sequence(x, sink, metadata=None):
    """Write a sequence in the `n,re,im` CSV format.

    The sample period (when present) is emitted first as ``# Ts=...``;
    caller metadata follows in the given order, so identical inputs always
    produce identical bytes.  A metadata key or value holding a line break
    is one ValueError naming the key, and nothing is written.  Rows are
    formatted and written a block at a time, so the whole text is never
    held at once.
    """
    seq = x if isinstance(x, Sequence) else Sequence(x)
    lines = []
    if seq.sample_period is not None:
        lines.append(f"# Ts={_format_float(seq.sample_period)}")
    lines += [line for key, line in _metadata_lines(metadata).items() if key != "Ts"]
    lines.append(SEQUENCE_HEADER)
    samples = seq.samples
    blocks = (
        _format_rows(samples[start : start + _BLOCK_ROWS], start)
        for start in range(0, samples.size, _BLOCK_ROWS)
    )
    _write_text(sink, itertools.chain(["\n".join(lines) + "\n"], blocks))


def _check_row(line_number: int, line: str, expected_index: int) -> complex:
    """The sample of one data row, or the ParseError that names what is wrong with it."""
    parts = [part.strip() for part in line.split(",")]
    if len(parts) != 3:
        raise ParseError(line_number, "expected 3 comma-separated fields")
    try:
        index = int(parts[0])
        real = float(parts[1])
        imag = float(parts[2])
    except ValueError:
        raise ParseError(line_number, f"malformed row {line!r}") from None
    if index != expected_index:
        raise ParseError(
            line_number, f"row index {index} is not contiguous (expected {expected_index})"
        )
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise ParseError(line_number, "sample values must be finite")
    return complex(real, imag)


def _parse_block(rows, line_numbers, start: int):
    """Samples of a block of data rows; a bad block raises for its first bad line.

    numpy's result is kept only when its indices run ``start, start + 1,
    ...`` and every part is finite.  The index goes through ``int``, so it
    is read as Python reads it on every numpy.  A block numpy refuses, or
    whose result fails those checks, is read row by row by `_check_row`.
    """
    try:
        table = np.loadtxt(
            rows, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1, converters={0: int}
        )
    except ValueError:  # a bad row, or a spelling only int and float accept
        table = np.empty(0, dtype=_ROW_DTYPE)  # fails the index check below
    samples = np.empty(table.size, dtype=np.complex128)
    # part by part: re + 1j*im would turn a -0.0 real part into 0.0
    samples.real = table["re"]
    samples.imag = table["im"]
    indices = np.arange(start, start + len(rows))
    if np.array_equal(table["n"], indices) and np.isfinite(samples.view(np.float64)).all():
        return samples
    return np.array(list(map(_check_row, line_numbers, rows, itertools.count(start))))


def _sample_period(line_number: int, text: str) -> float:
    try:
        period = float(text)
    except ValueError:
        raise ParseError(line_number, f"invalid Ts value {text!r}") from None
    if not math.isfinite(period) or period <= 0:
        raise ParseError(line_number, "Ts must be a positive number")
    return period


def read_sequence(source) -> Sequence:
    """Parse a sequence file; raises ParseError with the offending line number.

    ``# Ts=...`` sets the sample period; other metadata keys are ignored.
    Rows must carry contiguous 0-based indices and finite values.  Blank
    and ``#`` lines may appear anywhere.  Data rows are parsed a block at a
    time; a block numpy refuses is read row by row, which names the first
    bad line, so errors read as if the file were checked line by line.
    """
    if hasattr(source, "read"):
        return _parse_lines(source)
    with open(os.fspath(source), "r", encoding="utf-8") as handle:
        return _parse_lines(handle)


def _parse_lines(lines) -> Sequence:
    """The sequence held by an iterable of text lines (see `read_sequence`)."""
    sample_period = None
    header_seen = False
    blocks = []  # parsed samples, _BLOCK_ROWS rows each
    rows, line_numbers = [], []  # data rows not parsed yet
    line_number = 0
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep and key.strip() == "Ts":
                try:
                    sample_period = _sample_period(line_number, value.strip())
                except ParseError:
                    if rows:  # a bad row above this line comes first in file order
                        _parse_block(rows, line_numbers, len(blocks) * _BLOCK_ROWS)
                    raise
        elif header_seen:
            rows.append(line)
            line_numbers.append(line_number)
            if len(rows) == _BLOCK_ROWS:
                blocks.append(_parse_block(rows, line_numbers, len(blocks) * _BLOCK_ROWS))
                rows, line_numbers = [], []
        elif [part.strip() for part in line.split(",")] == ["n", "re", "im"]:
            header_seen = True
        else:
            raise ParseError(line_number, f"expected header {SEQUENCE_HEADER!r}")
    if rows:
        blocks.append(_parse_block(rows, line_numbers, len(blocks) * _BLOCK_ROWS))
    if not header_seen:
        raise ParseError(line_number + 1, f"missing header {SEQUENCE_HEADER!r}")
    if not blocks:
        raise ParseError(line_number + 1, "file holds no sample rows")
    return Sequence(np.concatenate(blocks), sample_period)


def write_table(rows, column_names, sink, metadata=None):
    """Write analysis rows as CSV under the given header.

    Optional metadata is emitted as leading ``# key=value`` lines; a key or
    value holding a line break is one ValueError naming the key, and
    nothing is written.  A -inf cell (the exact-zero decibel sentinel)
    serializes as an empty field.
    """
    lines = list(_metadata_lines(metadata).values())
    lines.append(",".join(column_names))
    for row in rows:
        if len(row) != len(column_names):
            raise ValueError(f"row width {len(row)} does not match {len(column_names)} columns")
        lines.append(",".join(_format_cell(value) for value in row))
    _write_text(sink, ["\n".join(lines) + "\n"])
