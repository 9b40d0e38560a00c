"""Supervised shard execution: detect failures, retry, quarantine.

A bare ``multiprocessing.Pool`` gives the fleet throughput but no
robustness: a worker that dies takes its shard's result with it, a
worker that hangs stalls the whole run, and neither failure is
distinguishable from "still computing" at the coordinator.  The
supervisor replaces the pool with explicitly owned workers:

* **one task queue per worker** — the coordinator always knows which
  shard (and which attempt) a worker holds, so a dead process maps
  directly to a failed shard-attempt;
* **death detection** — ``Process.is_alive()``/``exitcode`` polled in
  the event loop; a worker that vanished while holding a shard fails
  that attempt;
* **hang detection** — each busy worker carries a progress deadline fed
  by the shards' :class:`~repro.obs.progress.QueueProgressSender`
  heartbeats; a worker silent past ``timeout_s`` is killed and its
  attempt failed;
* **deterministic retry** — a failed shard is requeued with exponential
  backoff (``backoff_s * 2**(attempt-1)``) into a fresh worker, up to
  ``max_retries`` retries.  Because shard generation is a pure function
  of (spec, seed, shard range), the retried attempt reproduces the
  original bytes exactly;
* **quarantine** — a shard that exhausts its retries is quarantined:
  the remaining shards still complete, and the report names the
  casualties so the caller can emit a partial-run manifest instead of
  losing the whole run.

Results carry their attempt number and are matched against the
shard's *current* attempt, so a stale success from a worker that was
presumed dead (or timed out) can never race a retry already in flight.
An optional ``verify`` hook runs in the coordinator after each success
— the fleet uses it to CRC-walk the shard's stream artifact, turning
silent corruption into an ordinary retryable failure.

One loop, two executors.  :meth:`ShardSupervisor.run` is the only place
that knows attempt numbering, backoff, verify-then-accept and
quarantine.  Handed a multiprocessing context it launches attempts into
owned worker processes as above; handed ``ctx=None`` (a run that needs
no isolation: one worker, no process-killing fault, no hang deadline)
it executes each attempt *in this process* at the launch step and posts
the result to the same queue the workers would have — no process, no
``multiprocessing`` queue, and the poll sleep is only ever reached
while a backoff is pending.  Only ``Exception`` is caught there, so a
``KeyboardInterrupt`` unwinds through :meth:`~ShardSupervisor.run` to
the caller's cleanup.
"""

from __future__ import annotations

import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = ["ShardFailure", "SupervisorReport", "ShardSupervisor"]

_POLL_S = 0.02
_JOIN_GRACE_S = 2.0
_BACKOFF_CAP_S = 30.0


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt (retried or terminal)."""

    shard_index: int
    attempt: int
    reason: str  # "died" | "timeout" | "error" | "corrupt"
    detail: str = ""

    def describe(self) -> str:
        """One log-friendly line."""
        out = (f"shard {self.shard_index} attempt {self.attempt} "
               f"{self.reason}")
        if self.detail:
            out += f": {self.detail}"
        return out


@dataclass
class SupervisorReport:
    """What supervised execution produced and what it cost."""

    outcomes: list = field(default_factory=list)  # completed, shard order
    failures: list = field(default_factory=list)  # every failed attempt
    quarantined: list = field(default_factory=list)  # terminal shard indexes
    retries: int = 0
    timeouts: int = 0
    recovery_wall_s: float = 0.0  # backoff delay spent recovering


def _worker_main(worker_id, task_queue, result_queue, progress_queue,
                 run_shard, initializer):
    """Worker loop: one outstanding task at a time, results tagged.

    The attempt number travels with the task and comes back with the
    result, letting the coordinator discard stale completions.
    """
    if initializer is not None:
        initializer(progress_queue)
    while True:
        item = task_queue.get()
        if item is None:
            return
        task, attempt = item
        shard = task.plan.shard_index
        try:
            outcome = run_shard(task)
        except KeyboardInterrupt:
            return
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            result_queue.put(("error", worker_id, shard, attempt,
                              f"{type(exc).__name__}: {exc}"))
        else:
            result_queue.put(("ok", worker_id, shard, attempt, outcome))


class _Worker:
    """One owned process and what it is currently running."""

    __slots__ = ("process", "queue", "shard", "attempt", "started",
                 "last_beat")

    def __init__(self, process, task_queue):
        self.process = process
        self.queue = task_queue
        self.shard: int | None = None
        self.attempt = 0
        self.started = 0.0
        self.last_beat = 0.0


class _MeterFeed:
    """The in-process heartbeat channel: every put paints the meter.

    Queue-shaped so shards run the exact worker-side sender code; there
    is no coordinator loop to drain a real queue while a shard runs in
    this process, so the sample goes straight to the display.
    """

    def __init__(self, meter):
        self.meter = meter

    def put_nowait(self, item) -> None:
        shard, users, ops, _done = item
        self.meter.update_shard(shard, users, ops)


class ShardSupervisor:
    """Run shard tasks under supervision (see the module docstring).

    ``tasks`` need a ``plan.shard_index``; ``run_shard(task)`` executes
    one — in a worker process of ``ctx``, or in this process when
    ``ctx`` is None.  ``retask(task, attempt)`` rewrites a task for a
    retry (the fleet uses it to stamp the attempt number and flip the
    resume flag); ``verify(task)`` returns an error string to fail an
    apparently successful attempt, or None to accept it.
    ``initializer(progress_queue)`` runs once per worker process (once
    here, with the meter feed, when in-process) — the fleet installs
    the heartbeat channel there.
    """

    def __init__(self, tasks, *, ctx, run_shard, workers: int,
                 max_retries: int = 2, backoff_s: float = 0.25,
                 timeout_s: float | None = None, meter=None,
                 verify=None, retask=None, initializer=None):
        self._tasks = list(tasks)
        self._ctx = ctx
        self._run_shard = run_shard
        self._workers_target = max(1, min(int(workers), len(self._tasks)))
        self._max_retries = max(0, int(max_retries))
        self._backoff_s = max(0.0, float(backoff_s))
        self._timeout_s = timeout_s
        self._meter = meter
        self._verify = verify
        self._retask = retask
        self._initializer = initializer

    # -- internals ------------------------------------------------------------

    def _spawn(self, worker_id: int, result_queue, progress_queue) -> _Worker:
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_queue, result_queue, progress_queue,
                  self._run_shard, self._initializer),
            daemon=True,
        )
        process.start()
        return _Worker(process, task_queue)

    def _backoff(self, attempt: int) -> float:
        """Delay before launching ``attempt`` (attempt 1 is immediate)."""
        if attempt <= 1 or self._backoff_s <= 0.0:
            return 0.0
        return min(self._backoff_s * (2.0 ** (attempt - 2)), _BACKOFF_CAP_S)

    # -- event loop -----------------------------------------------------------

    def run(self) -> SupervisorReport:
        report = SupervisorReport()
        n_shards = len(self._tasks)
        if n_shards == 0:
            return report
        in_process = self._ctx is None
        if in_process:
            # Attempts run at the launch step and post here; heartbeats
            # bypass the (never fed) progress queue and paint the meter.
            result_queue = queue_mod.SimpleQueue()
            progress_queue = queue_mod.SimpleQueue()
            if self._initializer is not None:
                self._initializer(_MeterFeed(self._meter)
                                  if self._meter is not None else None)
        else:
            result_queue = self._ctx.Queue()
            progress_queue = self._ctx.Queue()
        base = {task.plan.shard_index: task for task in self._tasks}
        pending: deque = deque(
            (task.plan.shard_index, 1) for task in self._tasks)
        waiting: list = []  # (ready_at, shard, attempt)
        current_attempt: dict[int, int] = {}
        current_task: dict = {}
        outcomes: dict = {}
        quarantined: set[int] = set()
        workers: dict[int, _Worker] = {}
        next_worker_id = 0

        def fail(shard: int, attempt: int, reason: str, detail: str) -> None:
            failure = ShardFailure(shard_index=shard, attempt=attempt,
                                   reason=reason, detail=detail)
            report.failures.append(failure)
            # Invalidate the attempt so a zombie's late result is stale.
            current_attempt[shard] = 0
            if attempt > self._max_retries:
                quarantined.add(shard)
                return
            report.retries += 1
            delay = self._backoff(attempt + 1)
            report.recovery_wall_s += delay
            waiting.append((time.monotonic() + delay, shard, attempt + 1))

        def accept(shard: int, attempt: int, outcome) -> None:
            if self._verify is not None:
                detail = self._verify(current_task[shard])
                if detail is not None:
                    fail(shard, attempt, "corrupt", detail)
                    return
            outcomes[shard] = outcome
            current_attempt[shard] = 0

        try:
            while len(outcomes) + len(quarantined) < n_shards:
                now = time.monotonic()
                progressed = False

                # Heartbeats: feed the meter, refresh deadlines.
                while True:
                    try:
                        shard, users, ops, done = progress_queue.get_nowait()
                    except (queue_mod.Empty, OSError, EOFError):
                        break
                    progressed = True
                    del done  # display converges via the merged snapshots
                    if self._meter is not None:
                        self._meter.update_shard(shard, users, ops)
                    for worker in workers.values():
                        if worker.shard == shard:
                            worker.last_beat = now

                # Results.
                while True:
                    try:
                        kind, worker_id, shard, attempt, payload = \
                            result_queue.get_nowait()
                    except (queue_mod.Empty, OSError, EOFError):
                        break
                    progressed = True
                    worker = workers.get(worker_id)
                    if worker is not None and worker.shard == shard:
                        worker.shard = None
                    if shard in outcomes or shard in quarantined:
                        continue
                    if current_attempt.get(shard) != attempt:
                        continue  # stale: from a presumed-dead worker
                    if kind == "ok":
                        accept(shard, attempt, payload)
                    else:
                        fail(shard, attempt, "error", str(payload))

                # Worker death.
                for worker_id, worker in list(workers.items()):
                    if worker.process.is_alive():
                        continue
                    shard = worker.shard
                    if (shard is not None and shard not in outcomes
                            and current_attempt.get(shard)
                            == worker.attempt):
                        fail(shard, worker.attempt, "died",
                             "worker exited with code "
                             f"{worker.process.exitcode}")
                    worker.process.join()
                    del workers[worker_id]
                    progressed = True

                # Hangs: no heartbeat within the progress deadline.
                if self._timeout_s is not None:
                    for worker_id, worker in list(workers.items()):
                        if worker.shard is None:
                            continue
                        deadline = max(worker.started, worker.last_beat) \
                            + self._timeout_s
                        if now < deadline:
                            continue
                        shard, attempt = worker.shard, worker.attempt
                        worker.process.kill()
                        worker.process.join()
                        del workers[worker_id]
                        report.timeouts += 1
                        fail(shard, attempt, "timeout",
                             f"no progress for {self._timeout_s:g}s")
                        progressed = True

                # Backoffs that have elapsed become launchable.
                for entry in list(waiting):
                    if entry[0] <= now:
                        waiting.remove(entry)
                        pending.append((entry[1], entry[2]))
                        progressed = True

                # Launch pending attempts: into idle (or new) workers,
                # or right here when no isolation is needed.
                while pending:
                    idle = None
                    if not in_process:
                        idle = next((w for w in workers.values()
                                     if w.shard is None), None)
                        if idle is None:
                            if len(workers) >= self._workers_target:
                                break
                            idle = self._spawn(next_worker_id, result_queue,
                                               progress_queue)
                            workers[next_worker_id] = idle
                            next_worker_id += 1
                    shard, attempt = pending.popleft()
                    task = base[shard]
                    if self._retask is not None:
                        task = self._retask(task, attempt)
                    current_attempt[shard] = attempt
                    current_task[shard] = task
                    progressed = True
                    if idle is not None:
                        idle.shard = shard
                        idle.attempt = attempt
                        idle.started = idle.last_beat = time.monotonic()
                        idle.queue.put((task, attempt))
                        continue
                    try:
                        result = ("ok", None, shard, attempt,
                                  self._run_shard(task))
                    except Exception as exc:  # noqa: BLE001 - retry boundary
                        result = ("error", None, shard, attempt,
                                  f"{type(exc).__name__}: {exc}")
                    result_queue.put(result)

                if not progressed:
                    time.sleep(_POLL_S)
        finally:
            if in_process and self._initializer is not None:
                self._initializer(None)
            for worker in workers.values():
                try:
                    worker.queue.put_nowait(None)
                except (OSError, ValueError):
                    pass
            deadline = time.monotonic() + _JOIN_GRACE_S
            for worker in workers.values():
                worker.process.join(max(0.0, deadline - time.monotonic()))
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join()

        report.outcomes = [outcomes[s] for s in sorted(outcomes)]
        report.quarantined = sorted(quarantined)
        return report
