"""Live progress reporting for long runs.

Two halves, joined by a queue in fleet mode:

* Worker side — :class:`QueueProgressSender` plugs into a
  :class:`~repro.obs.observer.RunObserver` as its ``progress`` hook and
  ships throttled ``(shard, users, ops, done)`` tuples to the
  coordinator over a ``multiprocessing.Queue``.  Sends are lossy by
  design (``put_nowait`` on a bounded queue, drops on overflow): a
  missed sample only delays the display by one interval and the final
  totals always come from the merged metric snapshots, never from here.
* Parent side — :class:`ProgressMeter` aggregates per-shard counts and
  renders a single carriage-return-refreshed stderr line with users
  done/total, ops so far, users/s, ops/s, and an ETA extrapolated from
  the user completion rate.  In-process runs skip the queue and tick the
  meter directly.

Nothing here touches the simulation: progress reads counters the
observer already maintains, so ``--progress`` can never perturb an op
stream.
"""

from __future__ import annotations

import math
import sys
import time

__all__ = ["ProgressMeter", "QueueProgressSender", "format_progress_line"]


def _si(value: float) -> str:
    """Compact count rendering: 950, 8.21k, 59.4M."""
    for unit, scale in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if value >= scale:
            return f"{value / scale:.3g}{unit}"
    return f"{value:.0f}"


def _eta(seconds: float) -> str:
    """Render an ETA as 42s / 3m10s / 2h05m."""
    seconds = int(seconds)
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


def format_progress_line(label: str, users: int, total_users: int | None,
                         ops: int, elapsed_s: float) -> str:
    """One status line from raw counts (separated out for testing)."""
    elapsed_s = max(elapsed_s, 1e-9)
    users_rate = users / elapsed_s
    ops_rate = ops / elapsed_s
    if total_users:
        frac = min(users / total_users, 1.0)
        head = f"{label}: {users}/{total_users} users ({frac * 100.0:.0f}%)"
        if 0 < users < total_users:
            remaining = (total_users - users) / max(users_rate, 1e-9)
            tail = f" eta {_eta(remaining)}"
        else:
            tail = ""
    else:
        head = f"{label}: {users} users"
        tail = ""
    return (f"{head} | {_si(ops)} ops | {users_rate:.1f} users/s | "
            f"{_si(ops_rate)} ops/s{tail}")


class ProgressMeter:
    """Aggregates shard counts and repaints one stderr status line.

    ``update(users, ops)`` is the observer-side hook for in-process
    runs; ``update_shard(shard, users, ops)`` is what the fleet
    coordinator calls while draining the worker queue.  Repaints are
    throttled to ``interval_s`` so a hot loop ticking every batch costs
    one clock read per tick, not a terminal write.
    """

    def __init__(self, total_users: int | None = None, *,
                 label: str = "run", stream=None, interval_s: float = 0.5,
                 clock=time.monotonic):
        self.total_users = total_users
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self._clock = clock
        self._shards: dict[int, tuple[int, int]] = {}
        self._start = clock()
        # "Never painted", not 0.0: a monotonic clock's epoch is
        # arbitrary (boot, on Linux), so a literal would throttle the
        # first paint away on a host younger than the interval.
        self._last_paint = -math.inf
        self._painted = False

    # -- feeding --------------------------------------------------------------

    def update(self, users: int, ops: int) -> None:
        """Absolute counts from a single in-process run (shard 0)."""
        self.update_shard(0, users, ops)

    def update_shard(self, shard: int, users: int, ops: int) -> None:
        """Absolute counts for one shard; repaints when due."""
        self._shards[shard] = (users, ops)
        now = self._clock()
        if now - self._last_paint >= self.interval_s:
            self._paint(now)

    # -- rendering ------------------------------------------------------------

    def _totals(self) -> tuple[int, int]:
        users = sum(u for u, _ in self._shards.values())
        ops = sum(o for _, o in self._shards.values())
        return users, ops

    def _paint(self, now: float | None = None) -> None:
        now = self._clock() if now is None else now
        users, ops = self._totals()
        line = format_progress_line(self.label, users, self.total_users,
                                    ops, now - self._start)
        try:
            self.stream.write("\r\x1b[K" + line)
            self.stream.flush()
        except (OSError, ValueError):  # closed/broken stream: go quiet
            return
        self._last_paint = now
        self._painted = True

    def finish(self) -> None:
        """Final repaint plus a newline so the shell prompt stays clean."""
        self._paint()
        if self._painted:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass


class QueueProgressSender:
    """Worker-side progress hook: throttled counts onto an mp queue.

    One sender per shard.  ``update`` drops samples closer together than
    ``min_interval_s`` and never blocks — a full queue loses the sample,
    which the next one supersedes anyway.  ``finish`` pushes a terminal
    ``done=True`` sample (best-effort) so the coordinator's display
    converges even if the last throttled update was dropped.
    """

    def __init__(self, shard: int, queue, *, min_interval_s: float = 0.25,
                 clock=time.monotonic):
        self.shard = shard
        self.queue = queue
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._last_send = -math.inf  # never sent (see ProgressMeter)

    def update(self, users: int, ops: int) -> None:
        now = self._clock()
        if now - self._last_send < self.min_interval_s:
            return
        self._last_send = now
        try:
            self.queue.put_nowait((self.shard, users, ops, False))
        # detlint: ignore[swallowed-exceptions] — lossy progress channel: queue.Full and
        # torn-down-queue drops are by design; samples are advisory, never load-bearing
        except Exception:
            pass

    def finish(self, users: int, ops: int) -> None:
        try:
            self.queue.put_nowait((self.shard, users, ops, True))
        # detlint: ignore[swallowed-exceptions] — lossy progress channel; final sample is
        # best-effort (the supervisor's result queue, not this, decides shard completion)
        except Exception:
            pass
