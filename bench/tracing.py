"""Per-layer spans and counts, recorded from outside the package.

Each layer's public functions are wrapped under the name the *calling*
module looks up at call time, so the package itself is unchanged: a
wrapper records a span (layer, start, end, parent) and the layer's counts,
then returns the wrapped function's result untouched.  ``model`` is not
wrapped: ``mode_hamiltonian_even`` runs once per mode per step and a wrapper
there would distort the step it measures, so its time stays inside
``dynamics``.  A layer's self time is its spans' durations minus the time
covered by their child spans.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import statistics
import time

LAYERS = ("dynamics", "observables", "wick", "pfaffian", "cli", "oracle_ed")

# The bare name ``isingring.pfaffian`` resolves to the function the package
# re-exports, which hides the submodule; import_module returns the module.
_pfaffian_module = importlib.import_module("isingring.pfaffian")


def _count_pfaffian(counts, args, result):
    a = args[0]
    dim = a.dim if isinstance(a, _pfaffian_module.SkewMatrix) else len(a)
    counts["pfaffian.calls"] += 1
    counts["pfaffian.dim_sum"] += dim
    counts["pfaffian.flops_computed"] += dim**3 / 3.0
    counts["pfaffian.zero_returns"] += result == 0


def _count_word(counts, args, result):
    counts["wick.calls"] += 1
    counts["wick.word_len_sum"] += len(args[0])


def _count_step(counts, args, result):
    state = args[0]
    counts["dynamics.calls"] += 1
    counts["dynamics.mode_steps"] += len(state.u_plus) + len(state.u_minus)


def _count_sample(counts, args, result):
    counts["observables.samples"] += 1


def _count_oracle(counts, args, result):
    counts["oracle_ed.calls"] += 1


#: (calling module, attribute it looks up, layer, counter)
PATCHES = (
    ("isingring.wick", "pfaffian", "pfaffian", _count_pfaffian),
    ("isingring.observables", "vacuum_expectation", "wick", _count_word),
    ("isingring.observables", "magnetization", "observables", _count_sample),
    ("isingring.observables", "evolve_quench", "dynamics", _count_step),
    ("isingring.observables", "evolve_kick_step", "dynamics", _count_step),
    ("isingring.cli", "run_series", "observables", None),
    ("isingring.cli", "validate_suite", "cli", None),
    ("isingring.oracle_ed", "quench_trajectory", "oracle_ed", _count_oracle),
    ("isingring.oracle_ed", "kick_trajectory", "oracle_ed", _count_oracle),
)


class Tracer:
    """Spans kept in memory as ``[layer, name, start, end, parent index]``."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, layer, name):
        index = len(self.spans)
        record = [layer, name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, fn.__name__):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (layer, _, start, end, _), child in zip(self.spans, covered):
            totals[layer] += end - start - child
        return totals

    def durations(self, name) -> list:
        return [end - start for _, n, start, end, _ in self.spans if n == name]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every layer entry point for the duration of the block.

    On exit each attribute is put back and checked to be the original
    object, so untraced calls afterwards run exactly the untraced code.
    """
    originals = []
    try:
        for module_name, attr, layer, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(layer, original, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
        for module, attr, original in originals:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")


def layer_metrics(tracer, passes, overhead_frac, bytes_written) -> dict:
    """Per-layer metrics per traced pass; latencies over every traced sample."""
    c = collections.Counter({k: v / passes for k, v in tracer.counts.items()})
    selfs = {k: v / passes for k, v in tracer.self_times().items()}
    latencies = tracer.durations("magnetization")
    ranked = latencies or [0.0]
    p90 = statistics.quantiles(ranked, n=10, method="inclusive")[8] if len(ranked) > 1 else ranked[0]
    return {
        "pfaffian.calls": c["pfaffian.calls"],
        "pfaffian.self_s": selfs["pfaffian"],
        "pfaffian.dim_mean": c["pfaffian.dim_sum"] / max(c["pfaffian.calls"], 1),
        "pfaffian.flops_computed": c["pfaffian.flops_computed"],
        "pfaffian.zero_returns": c["pfaffian.zero_returns"],
        "wick.calls": c["wick.calls"],
        "wick.self_s": selfs["wick"],
        "wick.word_len_mean": c["wick.word_len_sum"] / max(c["wick.calls"], 1),
        "observables.self_s": selfs["observables"],
        "observables.samples": c["observables.samples"],
        "observables.words_per_sample": c["wick.calls"] / max(c["observables.samples"], 1),
        "observables.sample_s_p50": statistics.median(ranked),
        "observables.sample_s_p90": p90,
        "observables.latency_count": len(latencies),
        "dynamics.calls": c["dynamics.calls"],
        "dynamics.self_s": selfs["dynamics"],
        "dynamics.mode_steps": c["dynamics.mode_steps"],
        "cli.self_s": selfs["cli"],
        "cli.bytes_written": bytes_written,
        "oracle_ed.calls": c["oracle_ed.calls"],
        "oracle_ed.self_s": selfs["oracle_ed"],
        "trace.overhead_frac": overhead_frac,
        "trace.passes": passes,
    }
