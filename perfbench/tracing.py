"""Per-layer tracing from outside the package.

The tracer replaces module attributes that callers look up at call time with
wrappers that record one span per call: operation index, parent span, name,
start, end, and a count (transform length, kernel entries or file bytes).
Spans stay in memory until the run ends.  The layers are fftinterp's
modules; a span belongs to the module that defines the wrapped function.
Nothing under ``src/`` is edited, and the wrappers exist only during the
traced phase.
"""

import functools
import json
import math
import os
import time
from collections import defaultdict

LAYERS = ("cli", "seqio", "interpolate", "transforms", "kernels", "signals", "analysis")

# Module -> attributes wrapped there.  interpolate is where the fast pipeline
# and the oracles look up the transforms and kernels they call.
TRACED = {
    "interpolate": (
        "dft",
        "idft",
        "zero_pad",
        "fft_upsample",
        "dirichlet_upsample_direct",
        "sinc_interp",
        "dirichlet",
        "sinc",
    ),
    "seqio": ("read_sequence", "write_sequence"),
    "signals": ("generate", "eval_ground_truth"),
    "analysis": ("upsample_error_study",),
    "cli": ("main",),
}


def _file_bytes(target):
    return os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0


def _size(value):
    return getattr(value, "size", 1)


# Span name -> count recorded for it, from the call's positional arguments.
COUNTS = {
    "transforms.dft": lambda args: len(args[0]),
    "transforms.idft": lambda args: len(args[0]),
    "kernels.dirichlet": lambda args: _size(args[1]),
    "kernels.sinc": lambda args: _size(args[0]),
    "seqio.read_sequence": lambda args: _file_bytes(args[0]),
    "seqio.write_sequence": lambda args: _file_bytes(args[1]),
}


class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores the originals."""

    def __init__(self):
        self.op = 0
        # [op, parent, name, start, end, child_s, count]; parent is an index
        # into this list, -1 for a span opened by the benchmark itself.
        self.spans = []
        self._stack = []
        self._patches = []

    def install(self, api):
        for module_name, attrs in TRACED.items():
            module = getattr(api, module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is not None:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    self._patch(module, attr, self._wrap(name, fn))
        sequence = api.transforms.Sequence
        if "__post_init__" in vars(sequence):
            self._patch(
                sequence, "__post_init__", self._wrap("transforms.Sequence", sequence.__post_init__)
            )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [self.op, stack[-1] if stack else -1, name, clock(), 0.0, 0.0, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][5] += span[4] - span[3]
            if count is not None:
                span[6] = count(args)
            return result

        return traced

    def write(self, path):
        keys = ("op", "parent", "name", "start", "end", "child_s", "count")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_layer(spans):
    """Per-layer metrics of a traced phase: busy and self time, counts, rates.

    busy_s sums a function's span durations; self_s subtracts the part
    covered by its child spans.  gflops_nominal counts 5*L*log2(L) per
    transform of length L, a computed figure, not a measured rate.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    counted = defaultdict(int)
    flops = defaultdict(float)
    lengths = []
    for _op, _parent, name, start, end, child_s, count in spans:
        calls[name] += 1
        busy[name] += end - start
        own[name] += end - start - child_s
        counted[name] += count
        if name in ("transforms.dft", "transforms.idft"):
            lengths.append(count)
            flops[name] += 5.0 * count * math.log2(count) if count > 1 else 0.0

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out = {}
    for name in ("transforms.dft", "transforms.idft"):
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.gflops_nominal"] = rate(flops[name], busy[name]) / 1e9
    out["transforms.non_pow2_share"] = rate(
        sum(1 for n in lengths if n & (n - 1)), len(lengths)
    )
    out["transforms.distinct_lengths"] = len(set(lengths))
    out["transforms.zero_pad.busy_s"] = busy["transforms.zero_pad"]
    out["transforms.Sequence.busy_s"] = busy["transforms.Sequence"]
    out["transforms.Sequence.calls"] = calls["transforms.Sequence"]
    out["interpolate.fft_upsample.busy_s"] = busy["interpolate.fft_upsample"]
    out["interpolate.fft_upsample.self_s"] = own["interpolate.fft_upsample"]
    out["interpolate.fft_upsample.calls"] = calls["interpolate.fft_upsample"]
    for name in ("seqio.read_sequence", "seqio.write_sequence"):
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.mb_per_s"] = rate(counted[name], busy[name]) / 1e6
    out["cli.main.busy_s"] = busy["cli.main"]
    out["cli.main.self_s"] = own["cli.main"]
    out["interpolate.dirichlet_upsample_direct.busy_s"] = busy[
        "interpolate.dirichlet_upsample_direct"
    ]
    out["interpolate.dirichlet_upsample_direct.self_s"] = own[
        "interpolate.dirichlet_upsample_direct"
    ]
    out["interpolate.sinc_interp.busy_s"] = busy["interpolate.sinc_interp"]
    out["kernels.dirichlet.busy_s"] = busy["kernels.dirichlet"]
    out["kernels.dirichlet.entries"] = counted["kernels.dirichlet"]
    out["kernels.dirichlet.entries_per_s"] = rate(
        counted["kernels.dirichlet"], busy["kernels.dirichlet"]
    )
    out["kernels.sinc.busy_s"] = busy["kernels.sinc"]
    out["kernels.sinc.entries"] = counted["kernels.sinc"]
    out["signals.generate.busy_s"] = busy["signals.generate"]
    out["signals.eval_ground_truth.busy_s"] = busy["signals.eval_ground_truth"]
    out["analysis.upsample_error_study.self_s"] = own["analysis.upsample_error_study"]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            seconds for name, seconds in own.items() if name.split(".")[0] == layer
        )
    return out
