import math
import re
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftinterp.analysis import KERNEL_COLUMNS
from fftinterp.seqio import ParseError, read_sequence, write_sequence, write_table
from fftinterp.transforms import Sequence

DATA = Path(__file__).parent / "data"


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def roundtrip(seq, metadata=None):
    sink = StringIO()
    write_sequence(seq, sink, metadata)
    return read_sequence(StringIO(sink.getvalue())), sink.getvalue()


class TestRoundTrip:
    def test_samples_survive_bit_for_bit(self):
        seq = Sequence(random_complex(16, 12))
        back, _ = roundtrip(seq)
        np.testing.assert_array_equal(back.samples, seq.samples)

    def test_sample_period_round_trips(self):
        seq = Sequence([1 + 2j, 3], sample_period=0.5)
        back, text = roundtrip(seq)
        assert back.sample_period == 0.5
        assert text.startswith("# Ts=0.5\n")

    def test_one_third_precision(self):
        seq = Sequence([1 / 3 + (1 / 7) * 1j])
        back, _ = roundtrip(seq)
        assert back.samples[0] == seq.samples[0]

    def test_no_metadata_emits_header_then_rows(self):
        _, text = roundtrip(Sequence([1.0, 2.0]))
        assert text.splitlines()[0] == "n,re,im"
        assert len(text.splitlines()) == 3

    def test_caller_ts_metadata_is_not_written_twice(self):
        sink = StringIO()
        write_sequence(Sequence([1.0], sample_period=0.5), sink, {"Ts": "9"})
        ts_lines = [line for line in sink.getvalue().splitlines() if line.startswith("# Ts=")]
        assert ts_lines == ["# Ts=0.5"]

    def test_deterministic_bytes(self):
        seq = Sequence(random_complex(8, 3), sample_period=2.0)
        _, first = roundtrip(seq, {"method": "fft"})
        _, second = roundtrip(seq, {"method": "fft"})
        assert first == second

    def test_path_sinks_and_sources(self, tmp_path):
        target = tmp_path / "seq.csv"
        seq = Sequence(random_complex(5, 8), sample_period=0.25)
        write_sequence(seq, target)
        back = read_sequence(target)
        np.testing.assert_array_equal(back.samples, seq.samples)
        assert back.sample_period == 0.25


class TestReadErrors:
    def test_metadata_sets_sample_period(self):
        text = "# Ts=0.5\nn,re,im\n0,1.0,0.0\n"
        assert read_sequence(StringIO(text)).sample_period == 0.5

    def test_unknown_metadata_ignored(self):
        text = "# flavor=vanilla\nn,re,im\n0,1.0,0.0\n"
        seq = read_sequence(StringIO(text))
        assert seq.samples[0] == 1.0

    def test_malformed_row_names_line_four(self):
        text = "n,re,im\n0,1.0,0.0\n1,2.0,0.0\n2,1.0,xyz\n"
        with pytest.raises(ParseError) as excinfo:
            read_sequence(StringIO(text))
        assert excinfo.value.line_number == 4
        assert "line 4" in str(excinfo.value)

    def test_non_contiguous_index(self):
        text = "n,re,im\n0,1.0,0.0\n2,2.0,0.0\n"
        with pytest.raises(ParseError) as excinfo:
            read_sequence(StringIO(text))
        assert excinfo.value.line_number == 3

    def test_non_finite_value(self):
        text = "n,re,im\n0,nan,0.0\n"
        with pytest.raises(ParseError):
            read_sequence(StringIO(text))

    def test_missing_header(self):
        with pytest.raises(ParseError):
            read_sequence(StringIO("0,1.0,0.0\n"))

    def test_only_comments_and_blank_lines_is_missing_header(self):
        with pytest.raises(ParseError, match="missing header"):
            read_sequence(StringIO("# kind=demo\n\n# Ts=1.0\n\n"))

    def test_empty_body(self):
        with pytest.raises(ParseError):
            read_sequence(StringIO("n,re,im\n"))

    def test_bad_ts_metadata(self):
        with pytest.raises(ParseError):
            read_sequence(StringIO("# Ts=soon\nn,re,im\n0,1.0,0.0\n"))
        with pytest.raises(ParseError):
            read_sequence(StringIO("# Ts=-1\nn,re,im\n0,1.0,0.0\n"))

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            read_sequence(StringIO("n,re,im\n0,1.0\n"))


# Longer than one block of rows of the reader and the writer, so that rows
# on both sides of a block boundary are exercised.
LONG = 9000


def rows_text(samples, header_lines=("n,re,im",)):
    rows = [f"{i},{float(v.real)!r},{float(v.imag)!r}" for i, v in enumerate(samples)]
    return "\n".join([*header_lines, *rows]) + "\n"


class TestLongFiles:
    def test_blank_and_metadata_lines_between_rows_accepted(self):
        text = (
            "# kind=demo\n\nn,re,im\n0,1.0,0.0\n\n   \n# note=between rows\n"
            "1,2.0,-1.0\n#\n# Ts=0.25\n2,3.0,0.5\n\n"
        )
        seq = read_sequence(StringIO(text))
        np.testing.assert_array_equal(seq.samples, [1.0, 2.0 - 1.0j, 3.0 + 0.5j])
        assert seq.sample_period == 0.25

    def test_blank_lines_across_a_long_file(self):
        samples = random_complex(LONG, 21)
        lines = rows_text(samples).splitlines()
        spaced = [line for row in lines for line in (row, "", "# x=y")]
        seq = read_sequence(StringIO("\n".join(spaced)))
        np.testing.assert_array_equal(seq.samples, samples)

    @pytest.mark.parametrize("bad_row", [1, 4095, 4096, 4097, 6000, LONG - 1])
    def test_malformed_row_deep_in_the_file_names_its_line(self, bad_row):
        lines = rows_text(random_complex(LONG, 22), ("# Ts=1.0", "n,re,im")).splitlines()
        lines[2 + bad_row] = f"{bad_row},0.5,oops"
        with pytest.raises(ParseError) as excinfo:
            read_sequence(StringIO("\n".join(lines)))
        assert excinfo.value.line_number == 3 + bad_row
        assert "malformed row" in str(excinfo.value)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("7,1.0", "expected 3 comma-separated fields"),
            ("7,1.0,2.0,3.0", "expected 3 comma-separated fields"),
            ("8,1.0,2.0", "row index 8 is not contiguous (expected 7)"),
            ("7,inf,2.0", "sample values must be finite"),
        ],
    )
    def test_each_row_defect_keeps_its_message(self, bad, message):
        lines = rows_text(random_complex(LONG, 23)).splitlines()
        lines[1 + 7] = bad
        with pytest.raises(ParseError) as excinfo:
            read_sequence(StringIO("\n".join(lines)))
        assert str(excinfo.value) == f"line 9: {message}"

    def test_short_row_and_long_row_are_not_realigned(self):
        # together the two rows hold six fields that would parse as two rows
        text = "n,re,im\n0,1.0,0.0\n1,5\n2,2,7,8\n"
        with pytest.raises(ParseError) as excinfo:
            read_sequence(StringIO(text))
        assert str(excinfo.value) == "line 3: expected 3 comma-separated fields"

    def test_two_bad_rows_report_the_earlier(self):
        lines = rows_text(random_complex(LONG, 24)).splitlines()
        lines[1 + 100] = "100,1.0,bad"
        lines[1 + 5000] = "5000,1.0"
        with pytest.raises(ParseError) as excinfo:
            read_sequence(StringIO("\n".join(lines)))
        assert excinfo.value.line_number == 102

    def test_bad_row_before_bad_sample_period_reports_the_row(self):
        text = "n,re,im\n0,1.0,0.0\n1,x,0.0\n2,1.0,0.0\n# Ts=soon\n3,1.0,0.0\n"
        with pytest.raises(ParseError) as excinfo:
            read_sequence(StringIO(text))
        assert excinfo.value.line_number == 3

    def test_bad_sample_period_before_bad_row_reports_the_period(self):
        text = "n,re,im\n0,1.0,0.0\n# Ts=-2\n1,x,0.0\n"
        with pytest.raises(ParseError) as excinfo:
            read_sequence(StringIO(text))
        assert excinfo.value.line_number == 3
        assert "Ts must be a positive number" in str(excinfo.value)

    def test_long_write_equals_per_row_formatting(self):
        samples = random_complex(LONG, 25)
        samples[:6] = [-0.0, 5e-324 - 5e-324j, 1e300 - 1e-300j, 1 / 3, -2.5e-06j, 123456789.0]
        sink = StringIO()
        write_sequence(Sequence(samples, sample_period=0.5), sink, {"M": "4"})
        expected = "\n".join(
            ["# Ts=0.5", "# M=4", "n,re,im"]
            + [f"{i},{float(v.real)!r},{float(v.imag)!r}" for i, v in enumerate(samples)]
        )
        assert sink.getvalue() == expected + "\n"

    def test_long_write_to_path_round_trips(self, tmp_path):
        samples = random_complex(LONG, 26)
        write_sequence(samples, tmp_path / "long.csv")
        back = read_sequence(tmp_path / "long.csv")
        np.testing.assert_array_equal(back.samples.view(np.uint64), samples.view(np.uint64))


@pytest.fixture(params=["numpy", "rows"])
def read_text(request, monkeypatch):
    """read_sequence of a text, on numpy's block parse or with every block read row by row."""
    if request.param == "rows":

        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(np, "loadtxt", refuse)
    return lambda text: read_sequence(StringIO(text))


def data_text(*rows):
    return "\n".join(["n,re,im", *rows]) + "\n"


def plain_rows(count):
    return [f"{i},{i}.5,-{i}.25" for i in range(count)]


def assert_same_bits(samples, expected):
    expected = np.array(expected, dtype=np.complex128)
    np.testing.assert_array_equal(samples.view(np.uint64), expected.view(np.uint64))


class TestReaderSpellings:
    """Each spelling reads, or fails, as ``int`` and ``float`` decide, on
    both of the reader's paths."""

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (["0,1_0.5,-2_5e-1"], [complex(10.5, -2.5)]),
            (
                [*plain_rows(10), "1_0,1.0,2.0"],
                [complex(i + 0.5, -i - 0.25) for i in range(10)] + [1 + 2j],
            ),
            (["\u0660,\u0663.\u0665,\u0661"], [complex(3.5, 1.0)]),
            (["  0 ,\t1.5 , -2.5\t"], [complex(1.5, -2.5)]),
            (
                ["0,-0.0,-0.0", "1,5e-324,-2.2250738585072014e-308", "2,-4.9e-324,1e-310"],
                [
                    complex(-0.0, -0.0),
                    complex(5e-324, -2.2250738585072014e-308),
                    complex(-5e-324, 1e-310),
                ],
            ),
        ],
        ids=["underscore-float", "underscore-index", "non-ascii", "whitespace", "zeros-subnormals"],
    )
    def test_spelling_reads_as_python_reads_it(self, read_text, rows, expected):
        assert_same_bits(read_text(data_text(*rows)).samples, expected)

    @pytest.mark.parametrize(
        "row, bad, message",
        [
            (3, "3,1 .5,0.0", "malformed row '3,1 .5,0.0'"),
            (1, "1,inf,0.0", "sample values must be finite"),
            (2, "2,0.0,-nan", "sample values must be finite"),
            (3, "3,Infinity,0.0", "sample values must be finite"),
            (3, "3.0,1.0,2.0", "malformed row '3.0,1.0,2.0'"),
            (3, f"{2**64 + 3},1,2", f"row index {2**64 + 3} is not contiguous (expected 3)"),
        ],
        ids=["inner-whitespace", "inf", "minus-nan", "Infinity", "float-index", "index-past-int64"],
    )
    def test_bad_spelling_names_its_line(self, read_text, row, bad, message):
        rows = plain_rows(6)
        rows[row] = bad
        with pytest.raises(ParseError) as excinfo:
            read_text(data_text(*rows))
        line = row + 2
        assert (excinfo.value.line_number, str(excinfo.value)) == (line, f"line {line}: {message}")

    def test_control_separators_are_whitespace_in_every_field(self, read_text):
        # str.strip and numpy both strip \x1c-\x1f, which float() alone refuses
        samples = read_text(data_text("0\x1c,\x1d1.5,\x1e25\x1f")).samples
        assert_same_bits(samples, [complex(1.5, 25.0)])

    @pytest.mark.parametrize("row", [4095, 4096, 4097])
    def test_spelling_numpy_refuses_at_the_block_boundary(self, read_text, row):
        rows = plain_rows(LONG)
        plain = read_text(data_text(*rows)).samples
        rows[row] = f"{row},{row // 10}_{row % 10}.5,-{row}.25"
        assert_same_bits(read_text(data_text(*rows)).samples, plain)

    @pytest.mark.parametrize("row", [4095, 4096, 4097])
    def test_bad_row_after_a_spelling_numpy_refuses(self, read_text, row):
        rows = plain_rows(LONG)
        rows[row] = f"{row},{row // 10}_{row % 10}.5,-{row}.25"
        rows[row + 3] = f"{row + 3},1.0,oops"
        with pytest.raises(ParseError) as excinfo:
            read_text(data_text(*rows))
        assert excinfo.value.line_number == row + 5

    def test_writer_output_of_edge_values_reads_bit_for_bit(self, read_text):
        samples = random_complex(LONG, 27)
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]
        samples[: len(edges) ** 2] = [complex(re, im) for re in edges for im in edges]
        samples[-len(edges) :] = [complex(re, -re) for re in edges]
        sink = StringIO()
        write_sequence(Sequence(samples, sample_period=0.125), sink)
        back = read_text(sink.getvalue())
        assert_same_bits(back.samples, samples)
        assert back.sample_period == 0.125


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300])


class TestProperties:
    @settings(deadline=None, max_examples=60)
    @given(
        parts=st.lists(
            st.tuples(finite_floats | edge_floats, finite_floats | edge_floats),
            min_size=1,
            max_size=60,
        ),
        period=st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_read_of_write_is_bit_exact(self, parts, period):
        samples = np.array([complex(re, im) for re, im in parts])
        back, _ = roundtrip(Sequence(samples, sample_period=period))
        np.testing.assert_array_equal(back.samples.view(np.uint64), samples.view(np.uint64))
        assert back.sample_period == period

    @settings(deadline=None, max_examples=60)
    @given(
        count=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    def test_one_corrupted_field_names_its_line(self, count, data):
        samples = random_complex(count, count)
        lines = rows_text(samples, ("# Ts=2.0", "# kind=demo", "n,re,im")).splitlines()
        row = data.draw(st.integers(min_value=0, max_value=count - 1), label="row")
        fields = lines[3 + row].split(",")
        column = data.draw(st.integers(min_value=0, max_value=2), label="column")
        if column == 0:
            bad = data.draw(st.sampled_from(["x", "1.5", "", str(row + 1), str(row - 1)]))
        else:
            bad = data.draw(st.sampled_from(["x", "", "nan", "-inf", "1e999", "1,0", "0x1p3"]))
        fields[column] = bad
        lines[3 + row] = ",".join(fields)
        with pytest.raises(ParseError) as excinfo:
            read_sequence(StringIO("\n".join(lines) + "\n"))
        assert excinfo.value.line_number == 4 + row


class TestTables:
    def test_header_plus_rows(self):
        sink = StringIO()
        write_table([(1, "fft", 0.5)], ("n", "method", "median_seconds"), sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "n,method,median_seconds"
        assert lines[1] == "1,fft,0.5"

    def test_neg_inf_serializes_empty(self):
        sink = StringIO()
        write_table([(0.0, -math.inf)], ("omega", "db"), sink)
        assert sink.getvalue().splitlines()[1] == "0.0,"

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            write_table([(1, 2)], ("a", "b", "c"), StringIO())

    def test_deterministic_bytes(self):
        rows = [(0.5, 1, 0.25), (1.5, 2, 0.125)]
        first, second = StringIO(), StringIO()
        write_table(rows, ("omega", "l", "value"), first, {"n": "8"})
        write_table(rows, ("omega", "l", "value"), second, {"n": "8"})
        assert first.getvalue() == second.getvalue()


# metadata whose key or value holds a line break, and the key it names
LINE_BREAKS = [({"note": "a\nb"}, "note"), ({"note": "a\rb"}, "note"), ({"a\r\nb": "1"}, "a\r\nb")]

WRITERS = {
    "sequence": lambda sink, metadata: write_sequence(
        Sequence([1.0, 2j], sample_period=0.5), sink, metadata
    ),
    "table": lambda sink, metadata: write_table(
        [(1, "fft", 0.5)], ("n", "method", "median_seconds"), sink, metadata
    ),
}


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
@pytest.mark.parametrize("metadata,key", LINE_BREAKS, ids=["value-lf", "value-cr", "key-crlf"])
class TestMetadataLineBreaks:
    def test_stream_sink_gets_nothing(self, writer, metadata, key):
        sink = StringIO()
        with pytest.raises(ValueError, match=re.escape(f"metadata {key!r} holds a line break")):
            writer(sink, metadata)
        assert sink.getvalue() == ""

    def test_path_sink_is_neither_created_nor_truncated(self, writer, metadata, key, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        for target in (new, old):
            with pytest.raises(ValueError, match=re.escape(f"metadata {key!r} holds a line break")):
                writer(target, metadata)
        assert not new.exists()
        assert old.read_text() == "kept\n"


def test_metadata_without_a_line_break_reads_back(tmp_path):
    target = tmp_path / "seq.csv"
    WRITERS["sequence"](target, {"note": "a b\tc", "k": 3})
    assert read_sequence(target).sample_period == 0.5
    assert target.read_text().splitlines()[1:3] == ["# note=a b\tc", "# k=3"]


class TestGoldenFixtures:
    def test_sequence_fixture_round_trips_byte_exactly(self):
        fixture = (DATA / "golden_sequence.csv").read_text()
        seq = read_sequence(StringIO(fixture))
        assert seq.sample_period == 0.5
        np.testing.assert_array_equal(
            seq.samples,
            np.array([1.0, 1 / 3 - 0.125j, -2.5e-06 + 1e300j, 0.7071067811865476]),
        )
        sink = StringIO()
        write_sequence(seq, sink, {"kind": "demo", "seed": "7"})
        assert sink.getvalue() == fixture

    def test_table_fixture_matches_writer_output(self):
        fixture = (DATA / "golden_table.csv").read_text()
        rows = [
            (0.0, 0, 1.0, 1.0, -math.inf),
            (1.5, 2, 0.25, 0.2, -26.020599913279625),
        ]
        sink = StringIO()
        write_table(rows, KERNEL_COLUMNS, sink, {"n": "4"})
        assert sink.getvalue() == fixture
