"""The User Simulator (USIM) — simulated and real executors.

Section 4.1.3: the USIM "simulates workload on a terminal or workstation,
i.e., a series of users logging in and using the computer".  Since the
pipeline split, the *selection* of operations lives in
:mod:`repro.core.synthesis` (pure, no timing); this module holds the two
executors that replay a synthesized stream against something that takes
time:

* :func:`simulated_user_process` — a DES process replaying the stream
  inside the discrete-event simulation against a simulated file-system
  client, measuring response times off the engine clock.  Wrapped by
  :class:`~repro.core.execution.DesBackend`.
* :class:`RealRunner` — replays against a real (or in-memory)
  ``FileSystemAPI`` and measures wall-clock time, the thesis's
  "difference of before and after calling a system call".

Both hold a session as the :class:`~repro.core.opbatch.OpBatch` that
``SessionGenerator.generate_session_batch`` synthesizes and issue its
rows one call at a time.  Each read or write's observed byte count
overwrites its entry of the session's recorded-size column, and at
logout :func:`~repro.core.execution.session_summaries` — the engine-free
executor's (:class:`~repro.core.execution.FastReplayBackend`) summary
rule — turns batch and column into the :class:`SessionRecord`.
"""

from __future__ import annotations

import time

from ..sim import Delay, Engine
from ..vfs import FileSystemAPI, Whence
from .execution import recorded_sizes, session_summaries
from .opbatch import RecordBatcher
from .oplog import OpRecord, OpSink, SessionRecord
from .synthesis import SessionGenerator, SessionOp

__all__ = [
    "simulated_user_process",
    "RealRunner",
]


_WRITE_PAYLOAD = bytes(64 * 1024)


def _payload(nbytes: int) -> bytes:
    """Zero bytes to write; sliced from a shared buffer for speed."""
    if nbytes <= len(_WRITE_PAYLOAD):
        return _WRITE_PAYLOAD[:nbytes]
    return bytes(nbytes)


class _SessionReplay:
    """One session's replay state, shared by both executors.

    Holds the session's synthesized batch, its recorded-size column and
    the plan-id → descriptor table; picks the file-system call for an
    op (:meth:`call`), turns its result into the :class:`OpRecord`
    (:meth:`record`) and summarises the session (:meth:`finish`).  The
    DES ``yield from``s what :meth:`call` returns (a simulated client's
    generator); :class:`RealRunner` takes it as the value.
    """

    def __init__(self, generator: SessionGenerator, session_id: int,
                 now_us: float):
        self.user_id = generator.user_id
        self.type_name = generator.user_type.name
        self.session_id = session_id
        self.start_us = now_us
        self.batch = generator.generate_session_batch(session_id)
        self.moved = recorded_sizes(self.batch)
        self._row = 0  # every op but a think is recorded, in row order
        self._fd_by_plan: dict[int, int] = {}

    def call(self, fs, op: SessionOp):
        """Issue ``op`` on ``fs``: the one op-kind → syscall ladder."""
        kind = op.kind
        if kind in ("open", "creat"):
            return fs.open(op.path, op.flags)
        if kind == "read":
            return fs.read(self._fd_by_plan[op.plan_id], op.size)
        if kind == "write":
            return fs.write(self._fd_by_plan[op.plan_id], _payload(op.size))
        if kind == "lseek":
            return fs.lseek(self._fd_by_plan[op.plan_id], op.size, Whence.SET)
        if kind == "close":
            return fs.close(self._fd_by_plan.pop(op.plan_id))
        if kind == "unlink":
            return fs.unlink(op.path)
        if kind == "stat":
            return fs.stat(op.path)
        if kind == "listdir":
            return fs.listdir(op.path)
        raise ValueError(f"unknown op kind {kind!r}")  # pragma: no cover

    def record(self, op: SessionOp, result, started: float,
               now_us: float) -> OpRecord:
        """Note the finished call's observed bytes; build its record."""
        row = self._row
        self._row += 1
        if op.kind in ("open", "creat"):
            self._fd_by_plan[op.plan_id] = result
        elif op.kind == "read":
            self.moved[row] = len(result)
        elif op.kind == "write":
            self.moved[row] = result
        return OpRecord(
            user_id=self.user_id,
            user_type=self.type_name,
            session_id=self.session_id,
            op=op.kind,
            path=op.path or "",
            category_key=op.category_key or "",
            size=int(self.moved[row]),
            start_us=started,
            response_us=now_us - started,
        )

    def finish(self, end_us: float) -> SessionRecord:
        """Close the session: its summary record."""
        [(files, nbytes, file_bytes, categories)] = session_summaries(
            self.batch, (0, len(self.batch)), self.moved)
        return SessionRecord(
            user_id=self.user_id,
            user_type=self.type_name,
            session_id=self.session_id,
            start_us=self.start_us,
            end_us=end_us,
            files_referenced=files,
            bytes_accessed=nbytes,
            file_bytes_referenced=file_bytes,
            categories=categories,
        )


def simulated_user_process(
    engine: Engine,
    client,
    task,
    log: RecordBatcher,
):
    """A DES process: one virtual user running its login sessions.

    ``client`` is any simulated file-system client
    (:class:`~repro.nfs.NfsClient`, local-disk, AFS-like).  Response time
    of every call is the engine-clock delta around it; think operations
    become plain delays.  ``log`` is the one
    :class:`~repro.core.opbatch.RecordBatcher` every user process of the
    engine shares, so the sink sees ops in engine-clock order.

    ``task`` is the user's :class:`~repro.core.execution.UserSessions`
    work order; its ``offset_us``/``gap_after_us`` encode the arrival
    timing rules (first-login delay, gaps between sessions, no trailing
    gap) shared verbatim with the engine-free executor.
    """
    generator: SessionGenerator = task.generator
    offset = task.offset_us
    if offset > 0:
        yield Delay(offset)
    for session_id in range(task.sessions):
        replay = _SessionReplay(generator, session_id, engine.now)
        for op in replay.batch.iter_session_ops():
            if op.kind == "think":
                if op.size > 0:
                    yield Delay(op.size)
                continue
            started = engine.now
            result = yield from replay.call(client, op)
            log.record_op(replay.record(op, result, started, engine.now))
        log.record_session(replay.finish(engine.now))
        gap = task.gap_after_us(session_id)
        if gap > 0:
            yield Delay(gap)


class RealRunner:
    """Replays sessions against a real ``FileSystemAPI`` with wall clocks.

    ``sleep_thinks=False`` (the default) records think times in the stream
    but does not actually sleep, so test runs finish quickly; pass True
    for live load generation against a real file system.
    """

    def __init__(self, fs: FileSystemAPI, generator: SessionGenerator,
                 log: OpSink, sleep_thinks: bool = False):
        self.fs = fs
        self.generator = generator
        self.log = log
        self.sleep_thinks = sleep_thinks

    def run_sessions(self, sessions: int) -> None:
        """Execute ``sessions`` login sessions back to back."""
        log = RecordBatcher(self.log)
        for session_id in range(sessions):
            self._run_one(session_id, log)
        log.flush()

    def _now_us(self) -> float:
        # detlint: ignore[no-wall-clock] — RealRunner measures a real FS; wall time is the product
        return time.perf_counter_ns() / 1000.0

    def _run_one(self, session_id: int, log: RecordBatcher) -> None:
        replay = _SessionReplay(self.generator, session_id, self._now_us())
        for op in replay.batch.iter_session_ops():
            if op.kind == "think":
                if self.sleep_thinks and op.size > 0:
                    time.sleep(op.size / 1e6)
                continue
            started = self._now_us()
            result = replay.call(self.fs, op)
            log.record_op(replay.record(op, result, started, self._now_us()))
        log.record_session(replay.finish(self._now_us()))
