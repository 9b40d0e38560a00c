"""Discrete-event simulation engine.

The thesis measured SUN NFS on real hardware; our substitute testbed is a
discrete-event simulation, so concurrent users, server queueing and disk
latency are modelled in virtual microseconds and every run is exactly
reproducible.

Processes are plain Python generators.  A process yields *commands* to the
engine:

* :class:`Delay` — suspend for a simulated duration,
* :class:`Acquire` / :class:`Release` — FIFO resource discipline
  (see :mod:`repro.sim.resources`),
* :class:`Join` — wait for another process to finish.

``yield from`` composes sub-processes naturally, which is how the NFS
client exposes timed system calls to the USIM's user processes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterator

__all__ = ["Engine", "Process", "Delay", "Acquire", "Release", "Join",
           "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for engine misuse (negative delays, foreign commands, ...)."""


@dataclass(frozen=True)
class Delay:
    """Suspend the yielding process for ``duration`` simulated time units."""

    duration: float


@dataclass(frozen=True)
class Acquire:
    """Request one unit of ``resource``; resumes when granted (FIFO)."""

    resource: "Any"


@dataclass(frozen=True)
class Release:
    """Return one unit of ``resource``; resumes immediately."""

    resource: "Any"


@dataclass(frozen=True)
class Join:
    """Suspend until ``process`` finishes; the join yields its result."""

    process: "Process"


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class Process:
    """Handle for a running simulation process."""

    def __init__(self, engine: "Engine", generator: Generator, name: str):
        self._engine = engine
        self._generator = generator
        self.name = name
        self.done = False
        self.result: Any = None
        self.error: BaseException | None = None
        self._joiners: list[Process] = []

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class Engine:
    """The event loop: a time-ordered heap of callbacks.

    Time units are dimensionless; the workload experiments use
    microseconds throughout.  Event ordering at equal timestamps is FIFO
    by scheduling order, which keeps runs deterministic.
    """

    def __init__(self):
        self._heap: list[_Event] = []
        self._seq = 0
        self._now = 0.0
        self._active_processes = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Events still queued."""
        return len(self._heap)

    @property
    def active_processes(self) -> int:
        """Processes spawned but not yet finished."""
        return self._active_processes

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._seq += 1
        heapq.heappush(self._heap, _Event(self._now + delay, self._seq, action))

    def spawn(self, generator: Generator | Iterator, name: str = "proc") -> Process:
        """Register a generator as a process and start it at the current time."""
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn needs a generator, got {type(generator).__name__}; "
                "did you call the function with ()?"
            )
        process = Process(self, generator, name)
        self._active_processes += 1
        self.schedule(0.0, lambda: self._step(process, None))
        return process

    # -- execution -------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the final simulation time.
        """
        while self._heap:
            event = self._heap[0]
            if until is not None and event.time > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = event.time
            event.action()
        return self._now

    def run_until_processes_finish(self, processes: list[Process]) -> float:
        """Run until every process in ``processes`` is done.

        A deadlock — no events pending while tracked processes are still
        alive — raises.
        """
        while not all(p.done for p in processes):
            if not self._heap:
                stuck = [p.name for p in processes if not p.done]
                raise SimulationError(
                    f"deadlock: no events pending but processes alive: {stuck}"
                )
            event = heapq.heappop(self._heap)
            self._now = event.time
            event.action()
        return self._now

    # -- process stepping --------------------------------------------------------

    def _step(self, process: Process, send_value: Any) -> None:
        """Advance ``process`` by one command."""
        try:
            command = process._generator.send(send_value)
        except StopIteration as stop:
            self._finish(process, stop.value, None)
            return
        except BaseException as exc:  # propagate at run() boundary
            self._finish(process, None, exc)
            raise
        self._dispatch(process, command)

    def _dispatch(self, process: Process, command: Any) -> None:
        if isinstance(command, Delay):
            if command.duration < 0:
                raise SimulationError(
                    f"process {process.name!r} yielded negative delay"
                )
            self.schedule(command.duration, lambda: self._step(process, None))
        elif isinstance(command, Acquire):
            command.resource._enqueue(process)
        elif isinstance(command, Release):
            command.resource._release()
            self.schedule(0.0, lambda: self._step(process, None))
        elif isinstance(command, Join):
            target = command.process
            if target.done:
                self.schedule(0.0, lambda: self._step(process, target.result))
            else:
                target._joiners.append(process)
        else:
            raise SimulationError(
                f"process {process.name!r} yielded unknown command "
                f"{command!r}; use Delay/Acquire/Release/Join"
            )

    def _finish(self, process: Process, result: Any,
                error: BaseException | None) -> None:
        process.done = True
        process.result = result
        process.error = error
        self._active_processes -= 1
        for joiner in process._joiners:
            self.schedule(0.0, lambda j=joiner: self._step(j, process.result))
        process._joiners.clear()

    # resource support: resources call back into the engine to resume grantees

    def _resume(self, process: Process) -> None:
        self.schedule(0.0, lambda: self._step(process, None))
