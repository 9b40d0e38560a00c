"""Spans and counts recorded from outside the program under test.

``traced(recorder)`` swaps each public callable in ``PATCHES`` for a timing
shim and restores it on exit; nothing under ``src/`` knows it is being
measured.  Spans (name, start, end, parent) and counts stay in memory until
the pass ends.  A span's self time is its duration minus its children's,
which on one thread (the only way this benchmark runs) is exactly the part
of the interval no child covers.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager

__all__ = ["Recorder", "traced", "PATCHES"]

_ABSENT = object()


class Recorder:
    """In-memory span list and counters for one workload's traced pass."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._muted = 0

    def wrap(self, name: str, fn, leaf: bool = False, after=None):
        """``fn`` behind a shim that records one ``name`` span per call.

        A ``leaf`` span records no spans beneath it: its wall is reported
        whole.  ``after(counts, args, kwargs, result)`` runs outside the
        span, so counting costs the layer nothing.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def shim(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            self._muted += leaf
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._muted -= leaf
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return shim

    @contextmanager
    def span(self, name: str):
        """A span around a region of the benchmark's own code."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def totals(self) -> dict:
        """Per span name: calls, summed wall, summed self time."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for (name, start, end, _), child_s in zip(self.spans, covered):
            entry = out.setdefault(name, {"calls": 0, "wall_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["wall_s"] += end - start
            entry["self_s"] += end - start - child_s
        return out

    def span_rows(self) -> list:
        """Spans as JSON rows: name, start, end, parent, workload id."""
        return [[name, start, end, parent, self.workload]
                for name, start, end, parent in self.spans]


def _timed_iterator(recorder: Recorder, name: str, fn, after=None):
    """Shim for a generator function: each ``next()`` is one ``name`` span."""
    def shim(*args, **kwargs):
        step = recorder.wrap(name, fn(*args, **kwargs).__next__, after=after)
        return iter(step, _ABSENT)  # ends on the inner StopIteration

    return shim


def _count(key: str, amount=lambda args, kwargs, result: 1):
    def after(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)

    return after


def _variates(args, kwargs, result) -> int:
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


def _sink_closed(counts, args, kwargs, result) -> None:
    sink = args[0]
    counts["stream.chunks"] += sink.chunks_written
    counts["stream.bytes"] += os.path.getsize(sink.path)


_MERGE = {"leaf": True,
          "after": _count("stream.merge_rows", lambda a, k, r: r)}

# (module, dotted attribute, span name, options).  A function imported by
# name into another module is patched where it is looked up, too.
PATCHES = (
    ("repro.core.generator", "WorkloadGenerator.run_simulated",
     "generator.run", {}),
    ("repro.core.generator", "WorkloadGenerator.plan_users",
     "plan.assign", {}),
    ("repro.core.generator", "WorkloadGenerator.create_file_system",
     "plan.layout",
     {"after": _count("plan.layout_files", lambda a, k, r: len(r.files))}),
    ("repro.core.generator", "WorkloadGenerator.iter_synthesized_users",
     "synth.kernel_setup",
     {"iterator": True, "after": _count("execute.users")}),
    ("repro.core.generator", "TableSampler.sample", "sampling.sample",
     {"after": _count("sampling.variates_drawn", _variates)}),
    ("repro.core.synthesis", "SessionGenerator.generate_user_batch",
     "synth.generate",
     {"after": _count("synth.rows", lambda a, k, r: len(r[0]))}),
    ("repro.distributions.rng", "RandomStreams.get", "rng.get", {}),
    ("repro.distributions.rng", "RandomStreams.fork", "rng.fork", {}),
    ("repro.core.arrivals", "ArrivalModel.schedule", "arrivals.schedule", {}),
    ("repro.core.execution", "ColumnarReplayBackend.execute", "execute", {}),
    ("repro.fleet.merge", "ShardAccumulator.record_batch",
     "tally.record_batch", {}),
    ("repro.fleet.merge", "ShardAccumulator.record_session",
     "tally.record_session", {}),
    ("repro.core.streamfile", "StreamFileSink.record_batch",
     "stream.write_batch", {}),
    ("repro.core.streamfile", "StreamFileSink.record_session",
     "stream.write_session", {}),
    ("repro.core.streamfile", "StreamFileSink.close", "stream.write_close",
     {"after": _sink_closed}),
    ("repro.core.streamfile", "StreamReader.read_chunk", "stream.read_chunk",
     {"after": _count("stream.rows_decoded",
                      lambda a, k, r: len(r.batch))}),
    ("repro.core.streamfile", "StreamReader.iter_batches", "stream.slice",
     {"iterator": True}),
    ("repro.core.streamfile", "StreamReader.replay", "stream.replay",
     {"after": _count("stream.replay_rows", lambda a, k, r: r[0])}),
    ("repro.core.streamfile", "verify_stream", "stream.verify",
     {"leaf": True}),
    ("repro.core.streamfile", "merge_stream_files", "stream.merge", _MERGE),
    ("repro.fleet.runner", "merge_stream_files", "stream.merge", _MERGE),
    ("repro.fleet.runner", "run_fleet", "fleet.run", {}),
)


def _resolve(module: str, dotted: str):
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def traced(recorder: Recorder):
    """Patch every ``PATCHES`` target for the duration of the block.

    An attribute a class only inherits is patched on that class and deleted
    again on exit, so the parent class is never touched.
    """
    saved = []
    try:
        for module, dotted, name, options in PATCHES:
            owner, attr = _resolve(module, dotted)
            saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            options = dict(options)
            make = (_timed_iterator if options.pop("iterator", False)
                    else Recorder.wrap)
            setattr(owner, attr,
                    make(recorder, name, getattr(owner, attr), **options))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
