import numpy as np
import pytest

from fftinterp import interpolate
from fftinterp.cli import main
from fftinterp.seqio import read_sequence


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

    def test_bad_grid_diagnosed(self, capsys):
        code, _, err = run(capsys, "kernels", "--grid", "0:stop:3", "--out", "-")
        assert code == 1
        assert "--grid" in err


class TestCompare:
    def test_report_line_format(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["gen", "--kind", "tone", "--n", "4", "--harmonics", "1", "--out", str(path)]) == 0
        code, out, _ = run(capsys, "compare", "--a", str(a), "--b", str(b))
        assert code == 0
        assert out.startswith("maxAbs=0.0 rms=0.0 maxDb=-inf")

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
    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--kind", "tone", "--n", "4", "--frequency", "1", "--out", "-"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2
