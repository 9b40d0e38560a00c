"""Execution backends — the *how long* of the workload.

Stage three of the generation pipeline (plan → synthesize → execute):
an :class:`ExecutionBackend` replays the pure operation streams produced
by :class:`~repro.core.synthesis.SessionGenerator` and attaches timing.
Two implementations ship:

* :class:`DesBackend` — the discrete-event simulation path.  Every call
  runs through a simulated file-system client (NFS, local-disk or
  AFS-like), users contend for shared server/network/disk resources, and
  response times come off the engine clock.  Full timing fidelity, one
  Python-generator resumption chain per call.
* :class:`FastReplayBackend` — the engine-free throughput path.  Each
  op is charged the *analytic mean* service time of the same calibrated
  timing parameters (:class:`AnalyticServiceModel`), with no queueing
  and no engine.  A block of users arrives as one
  :class:`~repro.core.opbatch.OpBatch`; service times and start clocks
  are single array expressions per block, and per-session slices flow to
  the sink via ``record_batch``.
  Tens of times the DES's ops/s (README, "Tests and benchmarks", gives
  the ``fleet run`` that measures the ratio); identical op stream.
  ``ColumnarReplayBackend`` is an empty subclass kept for its name,
  and the backend names ``fast`` and ``fast-columnar`` both select it.

Both record through the :class:`~repro.core.oplog.OpSink` protocol.
Because synthesis is a pure function of ``(root seed, user id)``, the
backends emit **byte-identical** op sequences (op kind, path, size) —
only ``start_us``/``response_us`` differ.  ``tests/core/test_execution.py``
and, with arrivals on, ``tests/core/test_arrivals_golden.py`` assert the
identity; the engine-free records, timing included, are pinned to the
per-op replay in ``tests/core/reference_scalar.py``.

What the fast path gives up: queueing.  Users do not contend, so
response times carry no load dependence — Figure 5.6-style saturation
experiments need the DES.  Use ``fast`` when the *content* of the
workload is the product (trace generation, calibration loops, fleet
scale-out) and ``nfs``/``local``/``afs`` when timing is.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..nfs import NfsTiming, SUN_NFS_TIMING
from .arrivals import SessionSchedule
from .opbatch import (
    DATA_KIND_CODES,
    KIND_LSEEK,
    KIND_THINK,
    OpBatch,
    REFERENCE_KIND_CODES,
    RecordBatcher,
)
from .oplog import OpSink, SessionRecord
from .synthesis import _SEAT_BLOCK_USERS, BlockColumns, SessionGenerator

__all__ = [
    "UserSessions",
    "ExecutionBackend",
    "DesBackend",
    "AnalyticServiceModel",
    "FastReplayBackend",
    "ColumnarReplayBackend",
]


@dataclass(frozen=True)
class UserSessions:
    """One user's work order: a synthesizer plus a session count.

    ``schedule`` (from an :class:`~repro.core.arrivals.ArrivalModel`)
    gives the user a first-login offset and per-session gaps; without
    one the user starts at clock 0 and runs its sessions back to back.
    """

    generator: SessionGenerator
    sessions: int
    schedule: SessionSchedule | None = None

    @property
    def offset_us(self) -> float:
        """The user's first-login offset (0.0 without a schedule)."""
        return self.schedule.offset_us if self.schedule is not None else 0.0

    def gap_after_us(self, session_id: int) -> float:
        """The pause after ``session_id`` ends (logout→next login).

        Gaps *separate* sessions: the one after the final session is
        never applied (0.0), so a run's duration ends with work, not
        with an idle logout tail.
        """
        if session_id + 1 >= self.sessions or self.schedule is None:
            return 0.0
        return self.schedule.gap_after(session_id)


# Kind-code → bool lookup tables (indexing an int8 column through these
# is considerably faster than np.isin on the hot path).
_N_KINDS = max(max(DATA_KIND_CODES), max(REFERENCE_KIND_CODES),
               KIND_THINK, KIND_LSEEK) + 1
_DATA_MASK = np.zeros(_N_KINDS, dtype=bool)
_DATA_MASK[list(DATA_KIND_CODES)] = True
_REF_MASK = np.zeros(_N_KINDS, dtype=bool)
_REF_MASK[list(REFERENCE_KIND_CODES)] = True


class ExecutionBackend(abc.ABC):
    """Replays synthesized op streams, attaching timing and recording."""

    @abc.abstractmethod
    def execute(self, tasks: Iterable[UserSessions], log: OpSink) -> float:
        """Run every task, record into ``log``, return the duration (µs).

        Every user runs each of its sessions to completion.  ``tasks``
        may be any iterable — the engine-free backend drains it lazily,
        one user at a time, so a fleet-scale run can stream task
        construction instead of materialising every user's generator up
        front.
        """


class DesBackend(ExecutionBackend):
    """Discrete-event execution on a simulated file-system client.

    ``engine`` and ``client`` come from
    :meth:`~repro.core.generator.WorkloadGenerator.build_simulation`; all
    users run concurrently and contend for the simulated resources.
    """

    def __init__(self, engine, client):
        self.engine = engine
        self.client = client

    def execute(self, tasks: Iterable[UserSessions], log: OpSink) -> float:
        from .usim import simulated_user_process  # usim imports the sim layer

        records = RecordBatcher(log)  # one for every user process
        processes = [
            self.engine.spawn(
                simulated_user_process(self.engine, self.client, task, records),
                name=f"user-{task.generator.user_id}",
            )
            for task in tasks
        ]
        self.engine.run_until_processes_finish(processes)
        records.flush()
        return self.engine.now


class AnalyticServiceModel:
    """Mean per-call service times derived from an ``NfsTiming`` set.

    The engine-free backend applies the DES's calibrated timing parameters
    *analytically*: each call is charged the expected cost of its
    components under no contention —

    * every call pays the client's syscall overhead;
    * calls that reach the server (everything but ``lseek``) pay one RPC
      round trip (two network latencies plus header transmission) and
      the server's fixed per-op CPU cost;
    * data-moving calls additionally pay, per
      ``client.max_transfer_bytes`` page, one extra RPC round trip and
      per-op CPU charge, and per byte the network transmission, server
      CPU, and amortised disk-transfer cost.

    Deterministic by construction: no random state, so the fast path
    consumes exactly the same random streams as the DES path (none
    beyond synthesis).
    """

    _LOCAL_OPS = frozenset({"lseek"})
    _DATA_OPS = frozenset({"read", "write", "listdir"})

    def __init__(self, timing: NfsTiming | None = None):
        timing = timing or SUN_NFS_TIMING
        self.timing = timing
        net, disk = timing.network, timing.disk
        server, client = timing.server, timing.client
        header_bytes = net.rpc_request_bytes + net.rpc_reply_bytes
        self.syscall_us = client.syscall_overhead_us
        self.round_trip_us = (
            2.0 * net.latency_us + header_bytes / net.bandwidth_bytes_per_us
        )
        self.per_rpc_us = self.round_trip_us + server.cpu_per_op_us
        self.per_byte_us = (
            1.0 / net.bandwidth_bytes_per_us
            + server.cpu_per_byte_us
            + 1.0 / disk.transfer_bytes_per_us
        )
        self.page_bytes = max(1, client.max_transfer_bytes)

    def response_us(self, kind: str, nbytes: int = 0) -> float:
        """Expected service time of one call moving ``nbytes`` bytes."""
        if kind in self._LOCAL_OPS:
            return self.syscall_us
        cost = self.syscall_us + self.per_rpc_us
        if kind in self._DATA_OPS and nbytes > 0:
            pages = (nbytes + self.page_bytes - 1) // self.page_bytes
            cost += (pages - 1) * self.per_rpc_us + nbytes * self.per_byte_us
        return cost

    def response_us_array(self, kinds: np.ndarray,
                          sizes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`response_us` over kind-code/size columns.

        Bit-identical to the scalar method per element: the expression
        keeps the same operation order (base cost, then the page and
        byte terms added as one sum), so IEEE rounding matches.  Think
        rows get a zero — they are pauses, not calls.
        """
        base = self.syscall_us + self.per_rpc_us
        out = np.full(len(kinds), base, dtype=np.float64)
        out[kinds == KIND_LSEEK] = self.syscall_us
        out[kinds == KIND_THINK] = 0.0
        data = np.flatnonzero(_DATA_MASK[kinds] & (sizes > 0))
        if len(data):
            nbytes = sizes[data]
            pages = (nbytes + self.page_bytes - 1) // self.page_bytes
            out[data] = base + (
                (pages - 1) * self.per_rpc_us + nbytes * self.per_byte_us
            )
        return out


# Rows at which the executor closes a block of users, however few they
# are: what keeps a block's arrays (and so RSS) the size of one
# long-session user while ~80-row users still share a pass by the hundred.
_BLOCK_ROW_CAP = 8192


class FastReplayBackend(ExecutionBackend):
    """Analytic replay: the op stream without the discrete-event engine.

    Users run on independent virtual clocks (no cross-user queueing);
    each op is charged its :class:`AnalyticServiceModel` mean service
    time, and the reported duration is the slowest user's clock.  The
    work is array expressions over one :class:`OpBatch` per block of up
    to ``_SEAT_BLOCK_USERS`` users (or ``_BLOCK_ROW_CAP`` rows):

    * each user appends its sessions to the block's shared
      :class:`~repro.core.synthesis.BlockColumns` as the task iterator
      is drained (a pooled kernel is rebound by the next ``next()``, so
      a user takes all its draws first);
    * service times come from
      :meth:`AnalyticServiceModel.response_us_array` in one shot;
    * ``start_us`` is a cumulative sum over the interleaved
      service/think contribution column, *restarted at every user* and
      seeded with that user's clock (:func:`_block_clocks`), so float
      rounding matches a per-op running sum bit for bit;
    * the recorded-size rule and every session summary are computed
      once per block (every row already carries its plan's path);
    * sinks still receive one ``record_batch`` slice per session
      followed by its ``record_session`` — batch boundaries are
      observable (a sink's running-moment fold, the stream writer's
      session row positions) — as zero-copy views sharing the block's
      string tables.

    ``tests/core/test_block_kernel.py`` pins a block of many users to
    blocks of one.
    """

    def __init__(self, timing: NfsTiming | None = None,
                 model: AnalyticServiceModel | None = None):
        self.model = model or AnalyticServiceModel(timing)

    def execute(self, tasks: Iterable[UserSessions], log: OpSink) -> float:
        duration = 0.0  # the slowest user's final clock
        cols = BlockColumns()
        block: list[UserSessions] = []
        for task in tasks:
            task.generator.append_user(range(task.sessions), cols)
            block.append(task)
            if (len(block) >= _SEAT_BLOCK_USERS
                    or cols.total >= _BLOCK_ROW_CAP):
                duration = max(duration, self._run_block(cols, block, log))
                cols = BlockColumns()
                block = []
        if block:
            duration = max(duration, self._run_block(cols, block, log))
        return duration

    def _run_block(self, cols: BlockColumns, tasks: list[UserSessions],
                   log: OpSink) -> float:
        """Time and record one block; return its slowest user's clock."""
        batch = cols.assemble()
        lows = cols.bounds  # session s is rows [lows[s], lows[s + 1])
        bounds = np.asarray(lows, dtype=np.int64)
        # User u's sessions are [user_sess[u], user_sess[u + 1]).
        user_sess = np.zeros(len(tasks) + 1, dtype=np.int64)
        np.cumsum([task.sessions for task in tasks], out=user_sess[1:])
        service = self.model.response_us_array(batch.kinds, batch.sizes)
        op_starts, session_starts, session_ends, final = _block_clocks(
            service, batch.think_us, bounds, user_sess,
            [task.offset_us for task in tasks],
            [task.gap_after_us(s) for task in tasks
             for s in range(task.sessions)],
        )
        # The recorded size column follows apply_op_effects: data movers
        # keep their byte count, everything else records 0.
        moved = np.where(_DATA_MASK[batch.kinds], batch.sizes, 0)
        summaries = _session_summaries(batch, bounds, moved)
        rec = batch.select(slice(None))
        rec.start_us = op_starts
        rec.response_us = service
        rec.sizes = moved
        starts_list = session_starts.tolist()
        ends_list = session_ends.tolist()
        user_types = batch.user_types.values()
        # Emit per session — the same sink event sequence (one batch and
        # one summary per session) a block of one produces.
        for s, (files, nbytes, file_bytes, categories) in enumerate(summaries):
            log.record_batch(rec.select(slice(lows[s], lows[s + 1])))
            log.record_session(SessionRecord(
                user_id=cols.sess_user[s],
                user_type=user_types[cols.sess_type[s]],
                session_id=cols.sess_id[s],
                start_us=starts_list[s],
                end_us=ends_list[s],
                files_referenced=files,
                bytes_accessed=nbytes,
                file_bytes_referenced=file_bytes,
                categories=categories,
            ))
        return float(final.max())


class ColumnarReplayBackend(FastReplayBackend):
    """The executor's older name, and the one ``run_simulated`` builds.
    Empty on purpose: the frozen end-to-end tracer patches ``execute``
    *here* and restores it by deletion, so it must be inherited."""


def _block_clocks(service: np.ndarray, think_us: np.ndarray,
                  bounds: np.ndarray, user_sess: np.ndarray,
                  offsets: list, gaps: list) -> tuple:
    """Every clock of a block: ``(op starts, session starts, session
    ends, users' final clocks)``.

    Each user owns a contiguous segment of one contribution column —
    its login offset, then per op the service time and the think pause
    after it, with each session's logout gap spliced in after the
    session's last think — and the clock is that segment's *own*
    ``np.cumsum``: accumulation runs left to right from the user's
    offset, so every op start, gap hop and session end reproduces the
    scalar running float sum bit for bit.  A single cumsum over the
    block minus each user's base would not: ``(base + x) - base``
    rounds.  Adding the final session's 0.0 gap is exact
    (``x + 0.0 == x`` for the non-negative clocks).
    """
    n = len(service)
    n_sessions = len(bounds) - 1
    n_users = len(user_sess) - 1
    # Op i of (block-wide) session s of user u sits 2i + s + u slots in:
    # two per earlier op, a gap per earlier session, an offset per user.
    sess_shift = (np.arange(n_sessions, dtype=np.int64)
                  + np.repeat(np.arange(n_users, dtype=np.int64),
                              np.diff(user_sess)))
    op_slots = (2 * np.arange(n, dtype=np.int64)
                + np.repeat(sess_shift, np.diff(bounds)))
    end_slots = 2 * bounds[1:] + sess_shift
    seg = np.empty(n_users + 1, dtype=np.int64)
    seg[:-1] = 2 * bounds[user_sess[:-1]] + user_sess[:-1] + np.arange(n_users)
    seg[-1] = 2 * n + n_sessions + n_users
    contrib = np.zeros(seg[-1], dtype=np.float64)
    contrib[seg[:-1]] = offsets
    contrib[op_slots + 1] = service
    contrib[op_slots + 2] = think_us
    contrib[end_slots + 1] = gaps
    clock = np.empty_like(contrib)
    edges = seg.tolist()
    for lo, hi in zip(edges, edges[1:]):
        np.cumsum(contrib[lo:hi], out=clock[lo:hi])
    return (clock[op_slots], clock[2 * bounds[:-1] + sess_shift],
            clock[end_slots], clock[seg[1:] - 1])


def _session_summaries(batch: OpBatch, bounds: np.ndarray,
                       moved: np.ndarray) -> list[tuple]:
    """Per session of a block: ``(files referenced, bytes accessed,
    file bytes referenced, categories)`` — the :class:`SessionRecord`
    content, computed columnar-ly.

    Mirrors :class:`~repro.core.oplog.SessionAccounting` exactly:
    open/creat/stat rows reference a file (keeping the per-path maximum
    size), read/write/listdir rows move bytes (``moved``, the recorded
    size column), categories come from the referencing rows.  One sort
    over ``(session, path)`` keys serves the whole block.
    """
    n_sessions = len(bounds) - 1
    sessions = np.arange(n_sessions + 1, dtype=np.int64)
    refs = np.flatnonzero(_REF_MASK[batch.kinds])
    ref_session = np.repeat(sessions[:-1], np.diff(bounds))[refs]
    n_paths = max(1, len(batch.paths))
    keys = ref_session * n_paths + batch.path_idx[refs]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # One group per distinct (session, path): its size is the maximum.
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    heads = np.flatnonzero(fresh)
    sizes = np.maximum.reduceat(batch.sizes[refs][order], heads)
    edges = np.searchsorted(keys[heads] // n_paths, sessions)
    size_sums = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=size_sums[1:])
    moved_sums = np.zeros(len(moved) + 1, dtype=np.int64)
    np.cumsum(moved, out=moved_sums[1:])
    n_categories = max(1, len(batch.categories))
    category = batch.category_idx[refs]
    names = batch.categories.values()
    categories: list[list[str]] = [[] for _ in range(n_sessions)]
    for key in np.unique((ref_session * n_categories
                          + category)[category >= 0]).tolist():
        name = names[key % n_categories]
        if name:
            categories[key // n_categories].append(name)
    return list(zip(
        np.diff(edges).tolist(),
        (moved_sums[bounds[1:]] - moved_sums[bounds[:-1]]).tolist(),
        (size_sums[edges[1:]] - size_sums[edges[:-1]]).tolist(),
        (tuple(sorted(found)) for found in categories),
    ))
