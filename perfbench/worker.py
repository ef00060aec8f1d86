"""One benchmark process: set up a workload, then measure it or trace it.

Started by run.py with --role setup (set up, report setup_s, exit),
--role measure (set up, then the closed loop with tracing off) or --role
trace (set up, then alternate untraced and traced blocks of operations).
Prints one JSON object as its last line of standard output.
"""

import argparse
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


class Stats:
    """Outcome of one loop: per-call times of calls that returned, errors, counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.samples = 0
        self.errors = []
        self.lengths = set()
        self.transform_bytes = 0
        self.peak_rss_mb = 0.0


def run_ops(workload, stream, stats, seconds=None, count=None, tracer=None):
    """Closed loop over ``stream`` for ``count`` more operations, or until
    ``seconds`` have passed and at least MIN_OPS operations are done."""
    clock = time.perf_counter
    start = clock()
    target = None if count is None else stats.attempted + count
    while True:
        for _ in range(workload.block):
            item = next(stream)
            stats.attempted += 1
            if tracer is not None:
                tracer.op = stats.attempted
            try:
                t0 = clock()
                result = workload.call(item)
                stats.latencies.append(clock() - t0)
                err = workload.check(item, result)
            except Exception:  # any failure of the call or its output counts against it
                stats.failed += 1
                if stats.failed == 1:
                    traceback.print_exc(file=sys.stderr)
                continue
            stats.samples += workload.output_samples(item)
            if stats.attempted <= workloads.MIN_OPS:
                stats.errors.append(err)
                # Read once the first MIN_OPS operations are done, so the
                # figure covers the same work whatever the speed.
                stats.peak_rss_mb = peak_rss_mb()
            for length in workload.transform_lengths(item):
                stats.lengths.add(length)
                # Each of log2(L) radix-2 passes reads and writes L complex128 values.
                stats.transform_bytes += 32 * length * math.ceil(math.log2(length))
        if target is not None:
            if stats.attempted >= target:
                return stats
        elif clock() - start >= seconds and stats.attempted >= workloads.MIN_OPS:
            return stats


def peak_rss_mb():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or the environment's setting."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def measure(workload, stream, seconds):
    stats = run_ops(workload, stream, Stats(), seconds=seconds)
    lat = np.array(stats.latencies)
    metrics = {
        "throughput_msps": stats.samples / lat.sum() / 1e6 if lat.size else 0.0,
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3 if lat.size else 0.0,
        "latency_p90_ms": float(np.percentile(lat, 90)) * 1e3 if lat.size else 0.0,
        "max_abs_err": max(stats.errors, default=0.0),
        "peak_rss_mb": stats.peak_rss_mb,
    }
    return stats, metrics, {"latency_samples": int(lat.size)}


def trace(workload, stream, spans_path):
    """Alternate untraced and traced blocks, trace_ops operations each, so
    both sides see the same mix of inputs and the same machine load."""
    untraced, traced = Stats(), Stats()
    tracer = tracing.Tracer()
    for _ in range(workload.trace_ops // workload.block):
        run_ops(workload, stream, untraced, count=workload.block)
        tracer.install(workload.api)
        try:
            run_ops(workload, stream, traced, count=workload.block, tracer=tracer)
        finally:
            tracer.uninstall()
    tracer.write(spans_path)
    metrics = tracing.per_layer(tracer.spans)
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(untraced.latencies)
    stats = Stats()
    for phase in (untraced, traced):
        stats.attempted += phase.attempted
        stats.failed += phase.failed
        stats.lengths |= phase.lengths
        stats.transform_bytes += phase.transform_bytes
    record = {
        "ops_per_phase": workload.trace_ops,
        "untraced_call_s": sum(untraced.latencies),
        "traced_call_s": sum(traced.latencies),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return stats, metrics, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True, help="time.time() at spawn")
    args = parser.parse_args(argv)

    api = workloads.load_fftinterp(ROOT)
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        workload = workloads.WORKLOADS[args.workload](api, args.seed, scratch)
        workload.setup()
        stream = workload.stream()
        setup_s = time.time() - args.spawned_at
        result = {"setup_s": setup_s}
        if args.role != "setup":
            if args.role == "measure":
                stats, metrics, record = measure(workload, stream, args.seconds)
            else:
                spans_path = workdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
                stats, metrics, record = trace(workload, stream, spans_path)
            record.update(environment())
            record["transform_lengths"] = sorted(stats.lengths)
            record["transform_bytes_computed"] = stats.transform_bytes
            result.update(
                attempted=stats.attempted, failed=stats.failed, metrics=metrics, record=record
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
