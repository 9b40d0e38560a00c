"""Run observers: stage spans, instrumented sinks, and the no-op singleton.

The observability contract has two halves:

* **Zero overhead when off.**  Every instrumented call site resolves its
  observer as ``observer or NULL_OBSERVER``; the shared
  :data:`NULL_OBSERVER` singleton answers ``stage()`` with a reusable
  no-op context manager, hands iterables and sinks back *unchanged*, and
  swallows ticks.  Nothing per-op or per-batch is ever added to the hot
  columnar path — a disabled run executes exactly the pre-observability
  code, and the only residual cost is the one ``is None`` predicate per
  run stage.
* **Never touch the workload.**  An enabled observer only *reads* the
  event stream: :class:`ObservingSink` wraps the run's
  :class:`~repro.core.oplog.OpSink` and forwards every batch and summary
  untouched after folding counts into the
  :class:`~repro.obs.metrics.MetricsRegistry`.  No random stream is
  consumed and no column is written, so golden byte-identity holds with
  instrumentation on (pinned by ``tests/obs/test_golden_metrics.py``).

Stage spans capture wall time (``perf_counter``), CPU time
(``process_time``), call counts, and the rows/bytes that moved through
the stage; :meth:`RunObserver.snapshot` rolls everything into the plain
dict the manifest writer and the fleet coordinator consume.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from .metrics import MetricsRegistry

__all__ = [
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "RunObserver",
    "StageTimes",
    "ObservingSink",
    "RESPONSE_HIST_US",
]

RESPONSE_HIST_US = (0.0, 100_000.0, 100)
"""Default response-time histogram layout: 1 ms bins up to 100 ms.

Calls slower than 100 ms land in the overflow bucket, which the
snapshot reports alongside the bins.
"""


@runtime_checkable
class Observer(Protocol):
    """What instrumented code needs from an observer.

    Both :class:`RunObserver` and :class:`NullObserver` satisfy this;
    call sites only ever use this surface, so the disabled path never
    branches beyond ``observer.enabled``.
    """

    enabled: bool

    def stage(self, name: str): ...

    def timed_iter(self, name: str, iterable: Iterable,
                   tick_users: bool = False) -> Iterable: ...

    def wrap_sink(self, sink): ...


class _NullContext:
    """Reusable, allocation-free ``with`` target."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class NullObserver:
    """The disabled observer: every hook is the identity or a no-op."""

    enabled = False
    __slots__ = ()

    def stage(self, name: str):
        """A shared no-op context manager."""
        return _NULL_CONTEXT

    def timed_iter(self, name: str, iterable: Iterable,
                   tick_users: bool = False) -> Iterable:
        """The iterable, unchanged — no wrapper generator at all."""
        return iterable

    def wrap_sink(self, sink):
        """The sink, unchanged — the hot path keeps its direct target."""
        return sink

    def tick_users(self, n: int = 1) -> None:
        """Ignored."""

    def tick_ops(self, n: int) -> None:
        """Ignored."""


NULL_OBSERVER = NullObserver()
"""The shared disabled observer (a process-wide singleton)."""


class StageTimes:
    """Accumulated cost of one pipeline stage."""

    __slots__ = ("wall_s", "cpu_s", "calls", "rows", "bytes")

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.calls = 0
        self.rows = 0
        self.bytes = 0

    def add(self, wall_s: float, cpu_s: float, rows: int = 0,
            nbytes: int = 0) -> None:
        """Fold one timed interval (and its data volume) into the span."""
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        self.calls += 1
        self.rows += rows
        self.bytes += nbytes

    def as_dict(self) -> dict:
        """JSON-able snapshot."""
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "calls": self.calls,
            "rows": self.rows,
            "bytes": self.bytes,
        }


class _StageSpan:
    """Context manager charging its wall/CPU interval to a stage."""

    __slots__ = ("_times", "_wall0", "_cpu0")

    def __init__(self, times: StageTimes):
        self._times = times

    def __enter__(self):
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc):
        self._times.add(time.perf_counter() - self._wall0,
                        time.process_time() - self._cpu0)
        return False


class RunObserver:
    """The enabled observer: a registry, stage spans, optional progress.

    ``progress`` is anything with an ``update(users_done, ops_done)``
    method — a :class:`~repro.obs.progress.ProgressMeter` rendering to
    stderr in-process, or a :class:`~repro.obs.progress.QueueProgressSender`
    shipping per-shard counts to the fleet coordinator.
    """

    enabled = True

    def __init__(self, registry: MetricsRegistry | None = None,
                 progress=None):
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.progress = progress
        self.stages: dict[str, StageTimes] = {}
        self._sinks: list[ObservingSink] = []
        self._users = self.metrics.counter("users")
        self._ops = self.metrics.counter("ops")

    # -- stage spans ----------------------------------------------------------

    def stage_times(self, name: str) -> StageTimes:
        """The accumulator for stage ``name`` (created on first use)."""
        times = self.stages.get(name)
        if times is None:
            times = self.stages[name] = StageTimes()
        return times

    def stage(self, name: str) -> _StageSpan:
        """Span context manager: charges the enclosed interval to ``name``."""
        return _StageSpan(self.stage_times(name))

    def timed_iter(self, name: str, iterable: Iterable,
                   tick_users: bool = False) -> Iterator:
        """Wrap an iterable, charging each ``next()`` to stage ``name``.

        With ``tick_users`` every yielded item also counts one user
        toward the progress display — the synthesize stage yields one
        generator per user, so its item count *is* the user count.
        """
        times = self.stage_times(name)
        iterator = iter(iterable)
        while True:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            try:
                item = next(iterator)
            except StopIteration:
                times.add(time.perf_counter() - wall0,
                          time.process_time() - cpu0)
                return
            times.add(time.perf_counter() - wall0,
                      time.process_time() - cpu0, rows=1)
            if tick_users:
                self.tick_users()
            yield item

    # -- event ticks ----------------------------------------------------------

    def tick_users(self, n: int = 1) -> None:
        """Count ``n`` users as started (feeds the progress ETA)."""
        self._users.inc(n)
        if self.progress is not None:
            self.progress.update(self._users.value, self._ops.value)

    def tick_ops(self, n: int) -> None:
        """Count ``n`` executed ops (feeds the progress ops/s)."""
        self._ops.inc(n)
        if self.progress is not None:
            self.progress.update(self._users.value, self._ops.value)

    # -- sink instrumentation -------------------------------------------------

    def wrap_sink(self, sink) -> "ObservingSink":
        """An instrumented pass-through around ``sink``.

        The wrapper is remembered so :meth:`snapshot` can flush its
        deferred batch accounting before reading the registry.
        """
        wrapped = ObservingSink(sink, self)
        self._sinks.append(wrapped)
        return wrapped

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Registry snapshot plus the per-stage span table."""
        for sink in self._sinks:
            sink.flush()
        out = self.metrics.snapshot()
        out["stages"] = {
            name: times.as_dict() for name, times in sorted(
                self.stages.items())
        }
        return out


_FLUSH_ROWS = 65536
"""Deferred-accounting flush threshold (rows buffered per sink).

Executed batches are one session each — a few dozen rows — so the
dozen-odd NumPy reductions the stat and histogram accounting needs
would cost more per batch than the statistics are worth.  The sink
buffers the response/size columns instead and folds them in bulk:
at this many rows, on :meth:`ObservingSink.flush`, and automatically
from :meth:`RunObserver.snapshot`.  The threshold bounds what a
streaming million-user run keeps alive to a few thousand small views.
"""


class ObservingSink:
    """Counts what flows into a sink, then forwards it untouched.

    Each batch is forwarded, then only its response and size columns
    are *buffered* — the array reductions behind the
    ``response_us`` stat/histogram and the ``bytes_moved`` counter run
    over large concatenated chunks at flush time, so the per-batch
    marginal cost is two clock reads and two list appends.  Deferral is
    safe because executed batches carry freshly built columns (nothing
    mutates them after ``record_batch``) and exact for counts, extrema,
    bins and byte totals; mean/variance land within the documented
    parallel-Welford tolerance of per-batch folding.
    """

    __slots__ = ("inner", "observer", "_times", "_sessions", "_bytes",
                 "_response", "_hist", "_pending_response",
                 "_pending_sizes", "_pending_rows")

    def __init__(self, inner, observer: RunObserver):
        self.inner = inner
        self.observer = observer
        self._times = observer.stage_times("sink")
        metrics = observer.metrics
        self._sessions = metrics.counter("sessions")
        self._bytes = metrics.counter("bytes_moved")
        self._response = metrics.stat("response_us")
        self._hist = metrics.histogram("response_us", *RESPONSE_HIST_US)
        self._pending_response: list = []
        self._pending_sizes: list = []
        self._pending_rows = 0

    def record_session(self, record) -> None:
        self._sessions.inc()
        self.inner.record_session(record)

    def record_batch(self, batch) -> None:
        n = len(batch)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        self.inner.record_batch(batch)
        self._pending_response.append(batch.response_us)
        self._pending_sizes.append(batch.sizes)
        self._pending_rows += n
        self._times.add(time.perf_counter() - wall0,
                        time.process_time() - cpu0, rows=n)
        self.observer.tick_ops(n)
        if self._pending_rows >= _FLUSH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Fold the buffered batch columns into the registry.

        Idempotent and cheap when nothing is pending; called from
        :meth:`RunObserver.snapshot`, from the run driver once the
        executor drains, and automatically past :data:`_FLUSH_ROWS`.
        """
        if not self._pending_rows:
            return
        response = np.concatenate(self._pending_response)
        # Executed batches carry the *recorded* size column (data movers
        # keep their byte count, everything else is already zero), so
        # the plain sum is exactly the bytes-moved figure.
        nbytes = int(np.concatenate(self._pending_sizes).sum())
        self._pending_response.clear()
        self._pending_sizes.clear()
        self._pending_rows = 0
        self._bytes.inc(nbytes)
        self._times.bytes += nbytes
        self._response.add_array(response)
        self._hist.add_array(response)
