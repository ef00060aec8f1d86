import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftinterp import analysis, interpolate
from fftinterp.cli import main
from fftinterp.kernels import _MAX_COUNT
from fftinterp.seqio import ParseError, read_sequence, write_sequence
from fftinterp.transforms import Sequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_tone_writes_sequence(self, tmp_path, capsys):
        out = tmp_path / "tone.csv"
        code, _, err = run(capsys, "gen", "--kind", "tone", "--n", "4", "--harmonics", "1", "--out", str(out))
        assert code == 0 and err == ""
        seq = read_sequence(out)
        np.testing.assert_allclose(seq.samples, [1, 1j, -1, -1j], rtol=0, atol=1e-15)
        assert seq.sample_period == 1.0

    def test_deterministic_bytes(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["gen", "--kind", "bandlimited-random", "--n", "16", "--seed", "5"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_sentinel(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "tone", "--n", "2", "--harmonics", "0", "--out", "-")
        assert code == 0
        assert out.splitlines()[0] == "# Ts=1.0"

    def test_out_of_band_harmonic_diagnosed(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--kind", "tone", "--n", "8", "--harmonics", "4", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "extra, center, width",
        [([], "7.5", "2.0"), (["--center", "3", "--width", "0.5"], "3.0", "0.5")],
    )
    def test_pulse_center_and_width_recorded(self, capsys, extra, center, width):
        code, out, _ = run(capsys, "gen", "--kind", "gaussian-pulse", "--n", "16", *extra, "--out", "-")
        assert code == 0
        assert f"# center={center}" in out.splitlines()
        assert f"# width={width}" in out.splitlines()

    # gen's header bytes for every kind, with and without optional fields
    @pytest.mark.parametrize(
        "argv, header",
        [
            (["tone", "--n", "8", "--harmonics", "1"], ["kind=tone", "N=8", "harmonics=1.0"]),
            (
                ["tone", "--n", "8", "--harmonics", "1", "--amplitudes", "0.5-0.25j"],
                ["kind=tone", "N=8", "harmonics=1.0", "amplitudes=(0.5-0.25j)"],
            ),
            (
                ["multitone", "--n", "15", "--harmonics", "-4,-0.5,3"],
                ["kind=multitone", "N=15", "harmonics=-4.0,-0.5,3.0"],
            ),
            (
                ["multitone", "--n", "15", "--harmonics", "-4,-0.5,3", "--amplitudes", "1,-2j,0.25+0.1j"],
                ["kind=multitone", "N=15", "harmonics=-4.0,-0.5,3.0", "amplitudes=(1+0j),-2j,(0.25+0.1j)"],
            ),
            (["bandlimited-random", "--n", "16"], ["kind=bandlimited-random", "N=16", "seed=0", "band=7"]),
            (
                ["bandlimited-random", "--n", "16", "--seed", "-7", "--band", "5"],
                ["kind=bandlimited-random", "N=16", "seed=-7", "band=5"],
            ),
            (["gaussian-pulse", "--n", "16"], ["kind=gaussian-pulse", "N=16", "center=7.5", "width=2.0"]),
            (
                ["gaussian-pulse", "--n", "16", "--center", "-2.5", "--width", "0.75"],
                ["kind=gaussian-pulse", "N=16", "center=-2.5", "width=0.75"],
            ),
        ],
    )
    def test_header_lines_pinned(self, capsys, argv, header):
        code, out, err = run(capsys, "gen", "--kind", *argv, "--out", "-")
        assert code == 0 and err == ""
        comments = [line for line in out.splitlines() if line.startswith("#")]
        assert comments == ["# Ts=1.0"] + [f"# {line}" for line in header]

    @pytest.mark.parametrize("extra", [[], ["--seed", "4"]])
    def test_foreign_field_is_one_diagnostic(self, tmp_path, capsys, extra):
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "gen", "--kind", "tone", "--n", "8", "--harmonics", "1", "--band", "99", *extra, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_narrow_pulse_is_zero_off_center(self, capsys):
        # at t = 7, (t - center)**2 / (2*width**2) overflows; the value is 0
        code, out, err = run(capsys, "gen", "--kind", "gaussian-pulse", "--n", "8", "--width", "1.1e-154", "--out", "-")
        assert code == 0 and err == ""
        assert read_sequence(io.StringIO(out)).samples.tolist() == [0j] * 8

    def test_bad_harmonics_list_names_flag(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--kind", "tone", "--n", "8", "--harmonics", "one", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--harmonics" in err


class TestUpsample:
    def make_input(self, tmp_path):
        path = tmp_path / "in.csv"
        assert main(["gen", "--kind", "multitone", "--n", "15", "--harmonics", "1,3", "--out", str(path)]) == 0
        return path

    def test_factor_one_identity(self, tmp_path, capsys):
        src = self.make_input(tmp_path)
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, "upsample", "--in", str(src), "--factor", "1", "--method", "fft", "--out", str(out))
        assert code == 0
        np.testing.assert_allclose(
            read_sequence(out).samples, read_sequence(src).samples, rtol=0, atol=1e-12
        )

    def test_fft_vs_dirichlet_end_to_end(self, tmp_path, capsys):
        src = self.make_input(tmp_path)
        fast = tmp_path / "fast.csv"
        direct = tmp_path / "direct.csv"
        assert main(["upsample", "--in", str(src), "--factor", "2", "--method", "fft", "--out", str(fast)]) == 0
        assert main(["upsample", "--in", str(src), "--factor", "2", "--method", "dirichlet", "--out", str(direct)]) == 0
        code, out, _ = run(capsys, "compare", "--a", str(fast), "--b", str(direct))
        assert code == 0
        max_abs = float(out.split()[0].split("=")[1])
        assert max_abs <= 1e-9

    def test_sinc_method_refines_grid(self, tmp_path, capsys):
        src = self.make_input(tmp_path)
        out = tmp_path / "sinc.csv"
        code, _, _ = run(capsys, "upsample", "--in", str(src), "--factor", "2", "--method", "sinc", "--out", str(out))
        assert code == 0
        seq = read_sequence(out)
        assert len(seq) == 30
        assert seq.sample_period == 0.5

    def test_bad_factor_diagnosed(self, tmp_path, capsys):
        src = self.make_input(tmp_path)
        code, _, err = run(capsys, "upsample", "--in", str(src), "--factor", "0", "--method", "fft", "--out", "-")
        assert code == 1
        assert "--factor" in err

    def test_out_of_memory_diagnosed(self, tmp_path, capsys, monkeypatch):
        # the allocation failure is simulated; nothing large is allocated
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(interpolate, "upsample", exhausted)
        src = self.make_input(tmp_path)
        code, _, err = run(capsys, "upsample", "--in", str(src), "--factor", "1000000", "--out", "-")
        assert code == 1
        assert err.splitlines() == [
            "error: out of memory: --factor 1000000 on 15 samples needs 15000000 refined samples"
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", interpolate.METHODS)
    def test_overflow_diagnosed_in_one_line(self, tmp_path, capsys, method):
        src = tmp_path / "huge.csv"
        # alternating signs, because an odd-length constant interpolates to
        # itself; the same record scaled by 2**-10 peaks past max/2**10, so
        # the overflow is real
        samples = np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308])
        scaled = interpolate.upsample(samples / 2**10, 2, method).samples.view(np.float64)
        assert np.max(np.abs(scaled)) > np.finfo(np.float64).max / 2**10
        write_sequence(Sequence(samples, 1.0), src)
        code, _, err = run(capsys, "upsample", "--in", str(src), "--factor", "2", "--method", method, "--out", "-")
        assert code == 1
        assert err.splitlines() == [
            "error: the result overflows float64; the largest input magnitude "
            "(real or imaginary part) is 1.7e+308"
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_direct_sum_whose_partial_sums_overflow_is_kept(self, tmp_path, capsys):
        src = tmp_path / "huge.csv"
        write_sequence(Sequence(np.full(5, 1.7e308), 1.0), src)
        for method in ("fft", "dirichlet"):
            out = str(tmp_path / f"{method}.csv")
            code, _, err = run(capsys, "upsample", "--in", str(src), "--factor", "2", "--method", method, "--out", out)
            assert (code, err) == (0, "")
        fast, direct = (read_sequence(tmp_path / f"{m}.csv").samples for m in ("fft", "dirichlet"))
        assert np.max(np.abs(fast - direct)) <= 1e293

    def test_period_that_underflows_diagnosed_in_one_line(self, tmp_path, capsys):
        src = tmp_path / "tiny.csv"
        src.write_text("# Ts=5e-324\nn,re,im\n0,1.0,0.0\n1,1.0,0.0\n")
        code, out, err = run(capsys, "upsample", "--in", str(src), "--factor", "2", "--out", "-")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: the sample period 5e-324 divided by the factor 2 underflows to 0"
        ]

    def test_missing_file_diagnosed(self, tmp_path, capsys):
        code, _, err = run(capsys, "upsample", "--in", str(tmp_path / "nope.csv"), "--factor", "2", "--out", "-")
        assert code == 1
        assert "error:" in err


class TestSpectrum:
    def test_emits_padded_spectrum(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        assert main(["gen", "--kind", "tone", "--n", "4", "--harmonics", "0", "--out", str(src)]) == 0
        out = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--in", str(src), "--factor", "2", "--out", str(out))
        assert code == 0
        values = read_sequence(out).samples
        assert len(values) == 8
        assert values[0] == pytest.approx(0.5, abs=1e-12)

    def test_bad_factor_diagnosed(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        assert main(["gen", "--kind", "tone", "--n", "4", "--harmonics", "0", "--out", str(src)]) == 0
        code, _, err = run(capsys, "spectrum", "--in", str(src), "--factor", "0", "--out", "-")
        assert code == 1
        assert "--factor" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unpadded_spectrum_that_overflows_diagnosed_in_one_line(self, tmp_path, capsys):
        # 1.7e308 * (sign cos(theta) + j*sign sin(theta)) at theta = 2*pi*n/64:
        # the normalized transform at bin 1 is about 2.2e308, beyond float64
        theta = 2 * np.pi * np.arange(64) / 64
        corners = 1.7e308 * (np.sign(np.cos(theta)) + 1j * np.sign(np.sin(theta)))
        src = tmp_path / "corners.csv"
        write_sequence(Sequence(corners), src)
        code, out, err = run(capsys, "spectrum", "--in", str(src), "--factor", "1", "--out", "-")
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: the transform overflows float64"]

    def test_out_of_memory_diagnosed(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(interpolate, "spectrum_upsample", exhausted)
        src = tmp_path / "in.csv"
        assert main(["gen", "--kind", "tone", "--n", "4", "--harmonics", "0", "--out", str(src)]) == 0
        code, _, err = run(capsys, "spectrum", "--in", str(src), "--factor", "3", "--out", "-")
        assert code == 1
        assert err.splitlines() == [
            "error: out of memory: --factor 3 on 4 samples needs 12 refined samples"
        ]


class TestKernels:
    def test_table_reaches_minus_55_db(self, tmp_path, capsys):
        out = tmp_path / "kernels.csv"
        code, _, _ = run(
            capsys,
            "kernels", "--n", "8", "--l", "10",
            "--grid", "-3.14159265:3.14159265:1024", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        # the negative START reaches _parse_grid through _merge_dash_values
        assert "# grid=-3.14159265:3.14159265:1024" in lines
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "omega,truncation,dirichlet,psinc,discrepancy_db"
        decibels = [float(line.split(",")[4]) for line in data[1:] if line.split(",")[4]]
        assert max(decibels) < -55.0

    def test_defaults_recorded_in_header(self, tmp_path, capsys):
        out = tmp_path / "kernels.csv"
        code, _, _ = run(capsys, "kernels", "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[:3]
        assert header[0] == "# n=8"
        assert header[1] == "# l=0,2,5,10,20"
        assert header[2] == f"# grid={-np.pi!r}:{np.pi!r}:1024"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "grid",
        [
            "0:stop:3", "0:1", "0:1:1", "0:1:-3", "1:0:5", "1:1:5",
            "0:inf:3", "nan:1:3", "-1e308:1e308:3",
        ],
    )
    def test_bad_grid_diagnosed(self, capsys, grid):
        code, out, err = run(capsys, "kernels", "--grid", grid, "--out", "-")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "--grid" in lines[0], lines


    def test_out_of_memory_names_the_truncation(self, capsys, monkeypatch):
        # the allocation failure is simulated; nothing large is allocated
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(analysis, "kernel_discrepancy", exhausted)
        code, out, err = run(capsys, "kernels", "--l", "0,100000000", "--out", "-")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: out of memory: --l 100000000 needs 200000001 replicas at each of "
            "the 1024 points of --grid"
        ]


class TestCompare:
    def test_report_line_format(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["gen", "--kind", "tone", "--n", "4", "--harmonics", "1", "--out", str(path)]) == 0
        code, out, _ = run(capsys, "compare", "--a", str(a), "--b", str(b))
        assert code == 0
        assert out.startswith("maxAbs=0.0 rms=0.0 maxDb=-inf")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_finite_values_report_finite_rms(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_sequence(Sequence([1e200, 0.0]), a)
        write_sequence(Sequence([-1e200, 0.0]), b)
        code, out, err = run(capsys, "compare", "--a", str(a), "--b", str(b))
        assert code == 0 and err == ""
        assert out.startswith("maxAbs=2e+200 rms=1.414213562373095e+200 maxDb=4006.")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_difference_diagnosed_in_one_line(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_sequence(Sequence([1.7e308]), a)
        write_sequence(Sequence([-1.7e308]), b)
        code, out, err = run(capsys, "compare", "--a", str(a), "--b", str(b))
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: the difference overflows float64 at index 0"]

    def test_length_mismatch_diagnosed(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["gen", "--kind", "tone", "--n", "4", "--harmonics", "1", "--out", str(a)]) == 0
        assert main(["gen", "--kind", "tone", "--n", "8", "--harmonics", "1", "--out", str(b)]) == 0
        code, _, err = run(capsys, "compare", "--a", str(a), "--b", str(b))
        assert code == 1
        assert "lengths differ" in err


class TestBench:
    def test_writes_positive_medians(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--sizes", "16,32", "--factor", "2", "--reps", "3", "--out", str(out))
        assert code == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == "n,method,median_seconds"
        assert len(lines) == 5
        for line in lines[1:]:
            assert float(line.split(",")[2]) > 0

    def test_too_few_reps_diagnosed(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "16", "--reps", "2", "--out", "-")
        assert code == 1
        assert "--reps" in err


class TestParsing:
    # values that start with one dash reach their own check, as do the
    # missing-value and bad-list checks beside them
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--kind", "gaussian-pulse", "--n", "8", "--width", "-1e-3"], "pulse width must be positive"),
            (["kernels", "--l", "-1,2"], "--l expects non-negative truncations"),
            (["kernels", "--l", "-1"], "--l expects non-negative truncations"),
            (["bench", "--sizes", "-5,6"], "--sizes expects positive integers"),
            (["gen", "--kind", "tone", "--n", "8"], "--harmonics is required for kind tone"),
        ],
    )
    def test_bad_value_is_one_diagnostic_from_its_own_check(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--out", "-")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), lines

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--kind", "tone", "--n", "4", "--frequency", "1", "--out", "-"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2


@pytest.fixture(scope="module")
def signal_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("flags") / "in.csv"
    assert main(["gen", "--kind", "tone", "--n", "4", "--harmonics", "0", "--out", str(path)]) == 0
    return str(path)


# Each integer flag, its least valid value, and the argv around it.
INTEGER_FLAGS = {
    "gen --n": (1, lambda v, src, out: ["gen", "--kind", "tone", f"--n={v}", "--harmonics", "0", "--out", out]),
    "upsample --factor": (1, lambda v, src, out: ["upsample", "--in", src, f"--factor={v}", "--out", out]),
    "spectrum --factor": (1, lambda v, src, out: ["spectrum", "--in", src, f"--factor={v}", "--out", out]),
    "kernels --n": (1, lambda v, src, out: ["kernels", f"--n={v}", "--out", out]),
    "bench --reps": (3, lambda v, src, out: ["bench", "--sizes", "8", f"--reps={v}", "--out", out]),
    "bench --sizes": (1, lambda v, src, out: ["bench", f"--sizes={v}", "--out", out]),
    "bench --factor": (1, lambda v, src, out: ["bench", "--sizes", "8", f"--factor={v}", "--out", out]),
}


@pytest.mark.parametrize("flag", INTEGER_FLAGS)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_integer_flag_below_minimum_is_one_diagnostic(signal_file, flag, data):
    minimum, argv = INTEGER_FLAGS[flag]
    value = data.draw(st.integers(max_value=minimum - 1), label="value")
    out = signal_file + ".out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv(value, signal_file, out))
    lines = stderr.getvalue().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in stderr.getvalue()


# Every integer flag, and the grid COUNT, with the argv around the value.
COUNT_FLAGS = {
    **{flag: argv for flag, (_, argv) in INTEGER_FLAGS.items()},
    "kernels --l": lambda v, src, out: ["kernels", f"--l={v}", "--out", out],
    "kernels --grid COUNT": lambda v, src, out: ["kernels", f"--grid=0:1:{v}", "--out", out],
}


@pytest.mark.parametrize("flag", COUNT_FLAGS)
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_integer_flag_past_numpy_index_is_one_diagnostic(signal_file, flag, data):
    # values past _MAX_COUNT, the most complex128 values one array holds:
    # up to one past the largest int64 index (an unbounded range almost
    # never lands below it), anything above, and one that overflows a float
    value = data.draw(
        st.just(10**400)
        | st.integers(min_value=_MAX_COUNT + 1, max_value=2**63)
        | st.integers(min_value=2**63),
        label="value",
    )
    out = signal_file + ".out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(COUNT_FLAGS[flag](value, signal_file, out))
    lines = stderr.getvalue().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error:") and str(value) in lines[0], lines


def _bad_sample_period(text):
    try:
        period = float(text.strip())
    except ValueError:
        return True
    return not (np.isfinite(period) and period > 0)


# printable text on one line: no control, surrogate or line/paragraph separators
LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=24
)
BAD_HEADERS = st.sampled_from(["n,re", "n,re,im,x", "t,re,im", "n;re;im", "0,1.0,0.0"]) | (
    LINE_TEXT.filter(
        lambda text: text.strip()
        and not text.strip().startswith("#")
        and [part.strip() for part in text.split(",")] != ["n", "re", "im"]
    )
)
BAD_PERIODS = st.sampled_from(["", "abc", "0", "-0.0", "-1", "nan", "inf", "-inf", "1e999"]) | (
    LINE_TEXT.filter(_bad_sample_period)
)


@pytest.fixture(scope="module")
def malformed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_malformed_header_or_sample_period_is_one_diagnostic(malformed_dir, data):
    lines = ["# kind=demo", "n,re,im", "0,1.0,0.0", "1,0.5,-0.25", "2,-1.0,2.0"]
    if data.draw(st.booleans(), label="corrupt the header"):
        bad_line = 2
        lines[1] = data.draw(BAD_HEADERS, label="header")
    else:
        bad_line = data.draw(st.integers(min_value=1, max_value=len(lines) + 1), label="line")
        lines.insert(bad_line - 1, "# Ts=" + data.draw(BAD_PERIODS, label="Ts"))
    text = "\n".join(lines) + "\n"

    with pytest.raises(ParseError) as excinfo:
        read_sequence(io.StringIO(text))
    assert excinfo.value.line_number == bad_line
    assert str(excinfo.value).startswith(f"line {bad_line}: ")

    path = malformed_dir / "in.csv"
    path.write_text(text, encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["upsample", "--in", str(path), "--factor", "2", "--out", str(path) + ".out"])
    assert code == 1
    assert stderr.getvalue().splitlines() == [f"error: {excinfo.value}"]
