"""Spans around the calls into flashopt's layers, recorded from outside.

``flashopt.harness`` and ``flashopt.mlp`` import the layer functions they
call by name, so a wrapper takes effect only where the caller looks the
name up: in those two modules' namespaces.  The entry points themselves
(``run_fer`` and friends, ``gen_training_data``, ``train``) are wrapped in
their home modules, and the benchmark always calls them through a module
attribute, so each entry-point call becomes a root span.

A span records its name, start, end, parent and phase (``setup`` or
``timed``).  Spans are kept in memory and written out when the run ends.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

ENTRY_POINTS = (
    ("harness", "run_fer"), ("harness", "run_ccr"), ("harness", "run_pipeline"),
    ("mlp", "gen_training_data"), ("mlp", "train"),
)

# (caller module, attribute, span name)
LAYER_CALLS = (
    ("harness", "build_code", "ldpc.build_code"),
    ("harness", "encode", "ldpc.encode"),
    ("harness", "sp_decode", "ldpc.sp_decode"),
    ("harness", "sample_wordline", "channel.sample_wordline"),
    ("harness", "quantize", "quantizer.quantize"),
    ("harness", "llr_table", "quantizer.llr_table"),
    ("harness", "transition_matrix", "quantizer.transition_matrix"),
    ("harness", "achievable_rate", "fbl.achievable_rate"),
    ("harness", "cis_optimize", "optimizer.cis_optimize"),
    ("harness", "forward", "mlp.forward"),
    ("harness", "histogram_features", "mlp.histogram_features"),
    ("mlp", "cis_optimize", "optimizer.cis_optimize"),
    ("mlp", "sample_wordline", "channel.sample_wordline"),
    ("mlp", "quantize", "quantizer.quantize"),
    ("mlp", "histogram_features", "mlp.histogram_features"),
)


def _count_decode(counts, out):
    _, converged, iterations = out
    counts["ldpc.sp_decode.iterations"] += int(iterations)
    counts["ldpc.sp_decode.converged"] += bool(converged)


def _count_cis(counts, out):
    counts["optimizer.cis_optimize.sweeps"] += len(out[1]) - 1


_RESULT_COUNTERS = {"ldpc.sp_decode": _count_decode,
                    "optimizer.cis_optimize": _count_cis}


class Tracer:
    """Installs span-recording wrappers into flashopt's module namespaces."""

    def __init__(self, flashopt):
        self.spans = []          # (name, start, end, parent index, phase)
        self.counts = Counter()  # result counts, by phase-free name
        self.phase = "setup"
        self._stack = []
        self._patches = []       # (module, attribute, original, wrapper)
        targets = [(mod, attr, f"{mod}.{attr}") for mod, attr in ENTRY_POINTS]
        for mod, attr, name in targets + list(LAYER_CALLS):
            module = getattr(flashopt, mod)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(name, original)))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = _RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.phase)
            if counter is not None:
                counter(self.counts, out)
            return out

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per (phase, name): calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for k, (name, start, end, _, phase) in enumerate(self.spans):
            row = out[phase, name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[k]
        return dict(out)


# name -> (unit, better); the per-layer metrics every traced run reports
PER_LAYER = {
    "flashopt.import_s": ("s", "lower"),
    "ldpc.build_code.ms": ("ms", "lower"),
    "ldpc.sp_decode.calls": ("count", "lower"),
    "ldpc.sp_decode.iterations": ("count", "lower"),
    "ldpc.sp_decode.us_per_iter": ("us", "lower"),
    "ldpc.sp_decode.share": ("ratio", "lower"),
    "ldpc.sp_decode.converged_ratio": ("ratio", "higher"),
    "ldpc.encode.us_per_call": ("us", "lower"),
    "channel.sample_wordline.us_per_call": ("us", "lower"),
    "quantizer.quantize.us_per_call": ("us", "lower"),
    "quantizer.llr_table.calls": ("count", "lower"),
    "quantizer.llr_table.us_per_call": ("us", "lower"),
    "quantizer.transition_matrix.us_per_call": ("us", "lower"),
    "fbl.achievable_rate.us_per_call": ("us", "lower"),
    "optimizer.cis_optimize.calls": ("count", "lower"),
    "optimizer.cis_optimize.ms_per_call": ("ms", "lower"),
    "optimizer.cis_optimize.sweeps": ("count", "lower"),
    "optimizer.cis_optimize.share": ("ratio", "lower"),
    "mlp.forward.us_per_call": ("us", "lower"),
    "mlp.histogram_features.us_per_call": ("us", "lower"),
    "mlp.gen_training_data.ms_per_sample": ("ms", "lower"),
    "mlp.train.ms_per_step": ("ms", "lower"),
    "harness.self_share": ("ratio", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def per_layer(summary: dict, counts: Counter, *, import_s: float, timed_wall: float,
              overhead_pct: float, samples: int, train_steps: int) -> dict:
    """The per-layer metrics from a trace summary.

    Calls, counts and per-call times pool the set-up and timed phases;
    shares are of the traced wall time of the timed calls; build time is
    the set-up phase's alone (later calls hit the build cache).  A layer
    the workload never calls reads 0.
    """
    pooled = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for (_, name), row in summary.items():
        pooled[name]["calls"] += row["calls"]
        pooled[name]["self_s"] += row["self_s"]

    def calls(name):
        return pooled[name]["calls"] if name in pooled else 0

    def self_s(name):
        return pooled[name]["self_s"] if name in pooled else 0.0

    def per_call(name, scale):
        n = calls(name)
        return scale * self_s(name) / n if n else 0.0

    def share(name):
        row = summary.get(("timed", name))
        return row["self_s"] / timed_wall if row and timed_wall > 0 else 0.0

    decodes = calls("ldpc.sp_decode")
    iterations = counts["ldpc.sp_decode.iterations"]
    build = summary.get(("setup", "ldpc.build_code"), {"self_s": 0.0})
    harness_self = sum(row["self_s"] for (phase, name), row in summary.items()
                       if phase == "timed" and name.startswith("harness.run_"))
    values = {
        "flashopt.import_s": import_s,
        "ldpc.build_code.ms": 1e3 * build["self_s"],
        "ldpc.sp_decode.calls": decodes,
        "ldpc.sp_decode.iterations": iterations,
        "ldpc.sp_decode.us_per_iter": 1e6 * self_s("ldpc.sp_decode") / iterations
        if iterations else 0.0,
        "ldpc.sp_decode.share": share("ldpc.sp_decode"),
        "ldpc.sp_decode.converged_ratio": counts["ldpc.sp_decode.converged"] / decodes
        if decodes else 0.0,
        "ldpc.encode.us_per_call": per_call("ldpc.encode", 1e6),
        "channel.sample_wordline.us_per_call": per_call("channel.sample_wordline", 1e6),
        "quantizer.quantize.us_per_call": per_call("quantizer.quantize", 1e6),
        "quantizer.llr_table.calls": calls("quantizer.llr_table"),
        "quantizer.llr_table.us_per_call": per_call("quantizer.llr_table", 1e6),
        "quantizer.transition_matrix.us_per_call": per_call("quantizer.transition_matrix", 1e6),
        "fbl.achievable_rate.us_per_call": per_call("fbl.achievable_rate", 1e6),
        "optimizer.cis_optimize.calls": calls("optimizer.cis_optimize"),
        "optimizer.cis_optimize.ms_per_call": per_call("optimizer.cis_optimize", 1e3),
        "optimizer.cis_optimize.sweeps": counts["optimizer.cis_optimize.sweeps"],
        "optimizer.cis_optimize.share": share("optimizer.cis_optimize"),
        "mlp.forward.us_per_call": per_call("mlp.forward", 1e6),
        "mlp.histogram_features.us_per_call": per_call("mlp.histogram_features", 1e6),
        "mlp.gen_training_data.ms_per_sample": 1e3 * self_s("mlp.gen_training_data") / samples
        if samples else 0.0,
        "mlp.train.ms_per_step": 1e3 * self_s("mlp.train") / train_steps
        if train_steps else 0.0,
        "harness.self_share": harness_self / timed_wall if timed_wall > 0 else 0.0,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
