"""Span recording from outside the program.

``Tracer.install`` replaces public functions at the module names through
which ``csigen.cli`` and ``csigen.gan.train`` call them with wrappers that
record one span per call: name, start, end, parent span and run id.  Spans
stay in memory until ``dump`` writes them out.  ``restore`` puts the
original functions back.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (module the caller looks the name up in, attribute, span name)
TRACE_POINTS = (
    ("csigen.cli", "synth_dataset", "synth.synth_dataset"),
    ("csigen.cli", "load_dataset", "dataio.load_dataset"),
    ("csigen.cli", "save_dataset", "dataio.save_dataset"),
    ("csigen.cli", "split_train_test", "dataio.split_train_test"),
    ("csigen.cli", "train", "train.train"),
    ("csigen.cli", "load_checkpoint", "train.load_checkpoint"),
    ("csigen.cli", "save_checkpoint", "train.save_checkpoint"),
    ("csigen.cli", "sample_fixed", "sample.sample_fixed"),
    ("csigen.cli", "sample_variable", "sample.sample_variable"),
    ("csigen.cli", "build_interpolant", "interp.build_interpolant"),
    ("csigen.cli", "interpolate_dataset", "interp.interpolate_dataset"),
    ("csigen.interp", "phase_aligned_blend", "interp.phase_aligned_blend"),
    ("csigen.cli", "dataset_powers", "core.dataset_powers"),
    ("csigen.cli", "dataset_delay_spreads", "metrics.dataset_delay_spreads"),
    ("csigen.cli", "array_correlation", "metrics.array_correlation"),
    ("csigen.cli", "root_music_azimuth", "metrics.root_music_azimuth"),
    ("csigen.cli", "gaussian_fit_samples", "metrics.gaussian_fit_samples"),
    ("csigen.cli", "pooled_edges", "metrics.pooled_edges"),
    ("csigen.cli", "histogram_density", "metrics.histogram_density"),
    ("csigen.cli", "jsd_matrix", "metrics.jsd_matrix"),
    ("csigen.gan.train", "critic_loss_fast", "fastgrad.critic_loss_fast"),
    ("csigen.gan.train", "generator_loss_fast", "fastgrad.generator_loss_fast"),
    ("csigen.gan.train", "adam_update", "train.adam_update"),
    ("csigen.gan.train", "save_checkpoint", "train.save_checkpoint"),
    ("csigen.gan.train", "init_generator", "nets.init_generator"),
    ("csigen.gan.train", "init_critic", "nets.init_critic"),
    ("csigen.gan.train", "delay_spread_flat", "nets.delay_spread_flat"),
)

# Per-call notes: a small number read off the call's arguments or result.
NOTES = {
    "interp.phase_aligned_blend": lambda args, result: len(result.objectives) - 1,
    "synth.synth_dataset": lambda args, result: len(result),
    "sample.sample_variable": lambda args, result: len(result),
    "interp.interpolate_dataset": lambda args, result: len(result[0]),
    "dataio.save_dataset": lambda args, result: os.path.getsize(args[1]),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "note")

    def __init__(self, span_id, name, start, parent, run):
        self.id, self.name, self.start, self.parent, self.run = span_id, name, start, parent, run
        self.end = start
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self.enabled = False
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = Span(len(self.spans), name, time.perf_counter(),
                      self._stack[-1].id if self._stack else -1, self.run)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        for module_name, attribute, name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrapper(original, name))

    def restore(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def _wrapper(self, original, name):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if note is not None:
                    record.note = note(args, result)
                return result

        traced.__wrapped__ = original
        return traced

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one traced call adds to an untraced one, measured on a
        no-op; the span records it leaves behind are discarded."""
        def noop():
            return None

        traced = self._wrapper(noop, "trace.calibration")
        run, enabled, count = self.run, self.enabled, len(self.spans)
        self.enabled = True
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        with_spans = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        without = time.perf_counter() - start
        del self.spans[count:]
        self.run, self.enabled = run, enabled
        return (with_spans - without) / calls

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                [[s.id, s.name, s.start, s.end, s.parent, s.run, s.note] for s in self.spans],
                handle,
            )
            handle.write("\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    children = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.duration
    return {span.id: span.duration - children[span.id] for span in spans}
