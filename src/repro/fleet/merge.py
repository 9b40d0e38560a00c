"""Shard-result aggregation: what merges exactly, and what cannot.

A fleet run produces one result per shard.  Two kinds of quantity come
back:

* **Workload content** — how many sessions ran, which system calls were
  issued, how many bytes moved, per category and per user type.  These
  are integer counts determined solely by ``(root seed, user id)`` (see
  :class:`repro.core.synthesis.SessionGenerator`'s determinism contract), so
  summing them across shards reproduces the single-process totals
  **bit-for-bit** for any shard count.
* **Timing** — response times and simulated duration.  Each shard is an
  independent simulated site (its own engine, server and network), so
  queueing contention — and therefore timing — legitimately depends on
  the shard topology.  Timing is merged for reporting but is *not* part
  of the invariant aggregate.

:class:`WorkloadTally` accumulates the first kind online;
:class:`ShardAccumulator` is the :class:`~repro.core.oplog.OpSink` a
shard records into, optionally retaining the full :class:`UsageLog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..core.opbatch import (
    KIND_READ,
    KIND_WRITE,
    RECORD_KIND_NAMES,
    OpBatch,
    PendingBatches,
)
from ..core.oplog import SessionRecord, UsageLog
from ..sim import RunningStats

__all__ = ["WorkloadTally", "ShardAccumulator"]


@dataclass(eq=True)
class WorkloadTally:
    """Online, order-invariant tally of a run's workload content.

    Every field is an exact integer count (or a dict of them), so
    equality between two tallies is bitwise, and merging is plain
    addition — associative and commutative, hence independent of shard
    count and completion order.

    ``window_us`` (optional) turns on temporal bucketing: every op also
    counts into ``ops_by_window[int(start_us // window_us)]``, the
    offered-load curve of the run.  On the engine-free backends op start
    clocks are per-user and shard-independent, so the windowed counts
    share the shard-invariance guarantee; on the DES they depend on
    per-site queueing, like all timing.
    """

    sessions: int = 0
    operations: int = 0
    ops_by_kind: dict[str, int] = field(default_factory=dict)
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_by_category: dict[str, int] = field(default_factory=dict)
    files_referenced: int = 0
    file_bytes_referenced: int = 0
    sessions_by_type: dict[str, int] = field(default_factory=dict)
    window_us: float | None = None
    ops_by_window: dict[int, int] = field(default_factory=dict)

    # -- OpSink-shaped recording ---------------------------------------------

    def record_session(self, record: SessionRecord) -> None:
        """Fold one login session's summary into the tally."""
        self.sessions += 1
        self.files_referenced += record.files_referenced
        self.file_bytes_referenced += record.file_bytes_referenced
        self.sessions_by_type[record.user_type] = (
            self.sessions_by_type.get(record.user_type, 0) + 1
        )

    def record_batch(self, batch: OpBatch) -> None:
        """Fold a batch of executed ops: one ``np.bincount`` of rows and
        one ``np.add.at`` of sizes over a (kind, category) key, then one
        dict update per distinct key.

        A read or write with a category key counts the key even when it
        moves zero bytes; with ``window_us`` set, row ``i`` counts into
        bucket ``int(start_us[i] // window_us)``.  ``batch`` may be any
        object with the ``kinds``/``sizes``/``category_idx`` (and,
        windowed, ``start_us``) columns and ``categories``, such as a
        :class:`~repro.core.opbatch.PendingBatches` block.
        """
        n = len(batch.kinds)
        if n == 0:
            return
        self.operations += n
        names = batch.categories.values()
        # Key column 0 holds the rows without a category (index -1).
        shape = (len(RECORD_KIND_NAMES), len(names) + 1)
        key = batch.kinds.astype(np.intp) * shape[1]
        key += batch.category_idx
        key += 1
        rows = np.bincount(key, minlength=shape[0] * shape[1]).reshape(shape)
        moved = np.zeros(shape, dtype=np.int64)
        np.add.at(moved.reshape(-1), key, batch.sizes)
        by_kind = self.ops_by_kind
        per_kind = rows.sum(axis=1)
        for code in np.flatnonzero(per_kind).tolist():
            name = RECORD_KIND_NAMES[code]
            by_kind[name] = by_kind.get(name, 0) + int(per_kind[code])
        self.bytes_read += int(moved[KIND_READ].sum())
        self.bytes_written += int(moved[KIND_WRITE].sum())
        data_rows = rows[KIND_READ, 1:] + rows[KIND_WRITE, 1:]
        data_bytes = moved[KIND_READ, 1:] + moved[KIND_WRITE, 1:]
        by_category = self.bytes_by_category
        for i in np.flatnonzero(data_rows).tolist():
            category = names[i]
            if category:
                by_category[category] = (
                    by_category.get(category, 0) + int(data_bytes[i]))
        if self.window_us is not None:
            buckets = (batch.start_us // self.window_us).astype(np.int64)
            uniq, per_bucket = np.unique(buckets, return_counts=True)
            by_window = self.ops_by_window
            for bucket, count in zip(uniq.tolist(), per_bucket.tolist()):
                by_window[bucket] = by_window.get(bucket, 0) + count

    # -- merging / reporting ---------------------------------------------------

    def _accumulate(self, other: "WorkloadTally") -> None:
        """Add ``other`` into self, in place (no dict rebuilding)."""
        if self.window_us != other.window_us:
            # A window may only cross a side that has folded no ops yet:
            # ops recorded without a window were never bucketed, so
            # adopting one silently would under-report the curve.
            if self.window_us is None and self.operations == 0:
                self.window_us = other.window_us
            elif not (other.window_us is None and other.operations == 0):
                raise ValueError(
                    "cannot merge tallies with different windows: "
                    f"{self.window_us} vs {other.window_us}"
                )
        self.sessions += other.sessions
        self.operations += other.operations
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.files_referenced += other.files_referenced
        self.file_bytes_referenced += other.file_bytes_referenced
        for attr in ("ops_by_kind", "bytes_by_category", "sessions_by_type",
                     "ops_by_window"):
            mine = getattr(self, attr)
            for key, value in getattr(other, attr).items():
                mine[key] = mine.get(key, 0) + value

    def merge(self, other: "WorkloadTally") -> "WorkloadTally":
        """Sum of two tallies (new object; operands untouched)."""
        merged = WorkloadTally()
        merged._accumulate(self)
        merged._accumulate(other)
        return merged

    @classmethod
    def merge_all(cls, parts: Iterable["WorkloadTally"]) -> "WorkloadTally":
        """Sum many tallies into one fresh accumulator.

        Accumulates in place — one dict update per key per part —
        instead of the old fold over :meth:`merge`, which rebuilt all
        three dicts (and re-copied every previously merged shard's keys)
        at each step.  :meth:`merge` itself stays pure.
        """
        merged = cls()
        for part in parts:
            merged._accumulate(part)
        return merged

    @classmethod
    def from_log(cls, log: UsageLog,
                 window_us: float | None = None) -> "WorkloadTally":
        """Replay an archived log into a tally."""
        tally = cls(window_us=window_us)
        tally.record_batch(OpBatch.from_records(log.operations))
        for session in log.sessions:
            tally.record_session(session)
        return tally

    def offered_load(self) -> list[tuple[float, int, float]]:
        """The windowed ops curve: ``(window start µs, ops, ops/s)`` rows.

        Empty unless the tally was built with a ``window_us``.
        """
        if self.window_us is None:
            return []
        seconds = self.window_us / 1e6
        return [
            (bucket * self.window_us, count, count / seconds)
            for bucket, count in sorted(self.ops_by_window.items())
        ]

    def as_kv(self) -> dict[str, int]:
        """Flat, deterministically ordered dict (report and test surface).

        Contains only the *content* counts, which are shard- and
        backend-invariant.  The windowed offered-load buckets stay out:
        they are keyed by op start clock, which on the DES depends on
        per-site queueing — report them via :meth:`offered_load`.
        """
        kv: dict[str, int] = {
            "sessions": self.sessions,
            "operations": self.operations,
            "bytes read": self.bytes_read,
            "bytes written": self.bytes_written,
            "files referenced": self.files_referenced,
            "file bytes referenced": self.file_bytes_referenced,
        }
        for kind in sorted(self.ops_by_kind):
            kv[f"ops[{kind}]"] = self.ops_by_kind[kind]
        for key in sorted(self.bytes_by_category):
            kv[f"bytes[{key}]"] = self.bytes_by_category[key]
        for name in sorted(self.sessions_by_type):
            kv[f"sessions[{name}]"] = self.sessions_by_type[name]
        return kv


class ShardAccumulator:
    """The :class:`~repro.core.oplog.OpSink` one shard records into.

    Maintains the :class:`WorkloadTally` and a response-time
    :class:`~repro.sim.RunningStats`; retains the raw :class:`UsageLog`
    only when ``collect_ops=True`` (memory grows with operation count,
    so fleet runs default to stats-only).

    Batches fold in bulk: :meth:`record_batch` copies the columns the
    fold reads into a block (:class:`~repro.core.opbatch.PendingBatches`)
    and, once :data:`~repro.core.opbatch.FOLD_ROWS` rows are held, one
    :meth:`WorkloadTally.record_batch` runs over the block (and one over
    a batch that overflowed it) and one ``add_array`` over their
    response times.  :meth:`flush` folds the rest; the producers call it
    when the stream ends, and reading :attr:`tally` or
    :attr:`response_us` calls it too, so no caller sees a partial fold.
    Tallies are exact sums, equal for any split of the stream; response
    count and extrema are exact, mean and M2 within ``add_array``'s
    parallel-Welford tolerance.
    """

    def __init__(self, collect_ops: bool = False,
                 window_us: float | None = None):
        self._tally = WorkloadTally(window_us=window_us)
        self._response_us = RunningStats()
        self._pending = PendingBatches(
            ("kinds", "sizes", "category_idx", "response_us")
            + (("start_us",) if window_us is not None else ()))
        self.log: UsageLog | None = UsageLog() if collect_ops else None

    @property
    def tally(self) -> WorkloadTally:
        """The workload tally, every recorded batch folded in."""
        self.flush()
        return self._tally

    @property
    def response_us(self) -> RunningStats:
        """Response-time statistics, every recorded batch folded in."""
        self.flush()
        return self._response_us

    def record_session(self, record: SessionRecord) -> None:
        self._tally.record_session(record)
        if self.log is not None:
            self.log.record_session(record)

    def record_batch(self, batch: OpBatch) -> None:
        """Buffer a columnar batch; fold once a block is buffered."""
        if self._pending.add(batch):
            self.flush()
        if self.log is not None:
            self.log.record_batch(batch)

    def flush(self) -> None:
        """Fold every buffered batch (idempotent)."""
        runs = self._pending.take()
        if runs:
            for run in runs:
                self._tally.record_batch(run)
            self._response_us.add_array(
                np.concatenate([run.response_us for run in runs]))
