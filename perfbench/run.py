"""fftinterp benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload lib-pow2 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory, never from an installed copy.  With --trace 0 it sets the
workload up in five fresh processes (setup_s is their median), the last of
which then measures with tracing off for --seconds; with --trace 1 it runs
one traced process.  Metric names and units come from BENCHMARK.json.  Each metric is
printed to standard error with its unit; standard output ends with a record
line and then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# One caller on one core: BLAS calls in the oracles stay single-threaded, so
# the timings do not depend on a second core being free.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
# Every process of one run must end within this many seconds.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def spawn(args, role, deadline):
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--role", role,
        "--spawned-at", repr(time.time()),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process passed the {BUDGET_S:g} s budget") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{role} process exited with status {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fftinterp" / "__init__.py").is_file():
        print(f"error: no fftinterp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}

    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            results = [spawn(args, "trace", deadline)]
        else:
            results = [spawn(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
            results.append(spawn(args, "measure", deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = results[-1]
    metrics = final["metrics"]
    record = dict(final["record"], workload=args.workload, seed=args.seed, seconds=args.seconds)
    if not args.trace:
        setups = [r["setup_s"] for r in results]
        metrics["setup_s"] = statistics.median(setups)
        record["setup_samples_s"] = setups
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    for name, unit in units.items():
        print(f"{args.workload:>14} {name:<46} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": final["failed"] == 0,
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
