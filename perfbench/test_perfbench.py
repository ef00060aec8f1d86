"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import cmath
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return workloads.load_fftinterp(ROOT)


class SmallLib(workloads.LibPow2):
    N, M, INPUTS = 64, 4, 2


class SmallCli(workloads.CliRoundtrip):
    N, M, INPUTS = 64, 2, 2


def started(cls, api, tmp_path, seed=7):
    workload = cls(api, seed, tmp_path)
    workload.setup()
    return workload, workload.stream()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_each_workload(api, tmp_path, name):
    workload, stream = started(workloads.WORKLOADS[name], api, tmp_path)
    stats = worker.run_ops(workload, stream, worker.Stats(), count=workload.block)
    assert (stats.attempted, stats.failed) == (workload.block, 0)
    assert len(stats.latencies) == workload.block
    assert 0 < max(stats.errors) <= workloads.TOLERANCE


def test_reference_reproduces_a_known_tone():
    quarter = workloads.exact_tones([2], [1.0], 4)
    np.testing.assert_allclose(quarter, [1, 1j, -1, -1j], atol=1e-15)

    # Odd record, integer harmonic, far along the refined grid, where a float
    # phase 2*pi*h*t/N has drifted by many ulps.
    n, factor, h = 100_001, 4, 12_345
    total = factor * n
    reference = workloads.exact_tones([2 * h], [1.0], total)
    for m in (0, 1, total // 3, total - 7, total - 1):
        turns = Fraction(h * m, total) % 1
        assert abs(reference[m] - cmath.exp(2j * math.pi * float(turns))) < 1e-15


def test_tone_case_is_unit_peak_and_samples_the_reference():
    twice_h = workloads.draw_harmonics(np.random.default_rng(3), 33, 3)
    case = workloads.tone_case(33, 4, twice_h, np.array([1, 2j, -3])[: twice_h.size])
    assert abs(np.max(np.abs(case.samples)) - 1.0) < 1e-15
    np.testing.assert_array_equal(case.reference[:: case.factor], case.samples)
    assert np.all(np.abs(case.twice_h) <= case.n - 1)
    assert np.all(case.twice_h % 2 == (case.n - 1) % 2)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s: s.__class__(s.samples + (np.arange(s.samples.size) == 5) * 1e-3, s.sample_period),
        lambda s: s.__class__(s.samples, 2 * s.sample_period),
        lambda s: s.__class__(s.samples[:-1], s.sample_period),
        lambda s: type("Raw", (), {"samples": np.full(s.samples.size, np.nan), "sample_period": s.sample_period})(),
    ],
    ids=["off-by-1e-3", "wrong-period", "short", "nan"],
)
def test_corrupted_output_counts_as_failed(api, tmp_path, corrupt):
    workload, stream = started(SmallLib, api, tmp_path)
    honest = workload.call
    workload.call = lambda item: corrupt(honest(item))
    stats = worker.run_ops(workload, stream, worker.Stats(), count=3)
    assert (stats.attempted, stats.failed) == (3, 3)
    assert stats.errors == []


def test_nonzero_cli_return_code_counts_as_failed(api, tmp_path):
    workload, stream = started(SmallCli, api, tmp_path)
    for case in workload.cases:
        case.x = tmp_path / "missing.csv"
    stats = worker.run_ops(workload, stream, worker.Stats(), count=2)
    assert (stats.attempted, stats.failed) == (2, 2)


def test_traced_spans_nest(api, tmp_path):
    workload, stream = started(SmallCli, api, tmp_path)
    original = api.interpolate.dft
    tracer = tracing.Tracer()
    tracer.install(api)
    try:
        stats = worker.run_ops(workload, stream, worker.Stats(), count=2, tracer=tracer)
    finally:
        tracer.uninstall()
    assert stats.failed == 0
    assert api.interpolate.dft is original

    children = [0.0] * len(tracer.spans)
    for op, parent, name, start, end, child_s, count in tracer.spans:
        assert end >= start and end - start - child_s >= 0
        if parent >= 0:
            children[parent] += end - start
    for (op, parent, name, start, end, child_s, count), summed in zip(tracer.spans, children):
        assert summed <= end - start
        assert summed == pytest.approx(child_s)
    names = {span[2] for span in tracer.spans}
    assert {"cli.main", "seqio.read_sequence", "transforms.dft", "transforms.Sequence"} <= names

    metrics = tracing.per_layer(tracer.spans)
    assert metrics["transforms.dft.calls"] == 2
    assert metrics["layer.seqio.self_s"] > 0
    assert all(value >= 0 for value in metrics.values())


def test_metric_names_match_benchmark_json(api, tmp_path, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = set(tracing.per_layer([])) | {"trace.overhead_ratio"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}

    monkeypatch.setattr(workloads, "MIN_OPS", 2)
    workload, stream = started(SmallLib, api, tmp_path)
    _, metrics, record = worker.measure(workload, stream, seconds=0)
    assert set(metrics) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
    assert record["latency_samples"] == 2


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lib-pow2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
