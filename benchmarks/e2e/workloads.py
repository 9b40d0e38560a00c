"""The workload table: every size the benchmark uses, in one place.

Pure data (no ``repro`` import), so the command that spawns the measuring
subprocesses can read it without paying the imports it is about to time.
Users were cut from the issue's sizing probes, and the stream budget with
them so an artifact still spans several chunks, because this box's speed
swings by a third over tens of seconds: many sub-second repetitions catch
a quiet moment where five long ones do not (README.md, "Steadiness").
Operations per user and the repetition floors were not cut.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Workload", "WORKLOADS", "RUN_SECONDS", "SETUP_PROBES", "BACKEND",
    "TOTAL_FILES", "STREAM_BUDGET_BYTES", "FLEET_SHARDS", "USER_SLICES",
    "WINDOW_SLICES", "WINDOW_FRACTION", "WARMUP_SCALE",
]

RUN_SECONDS = 15
"""Default ``--seconds`` and ``BENCHMARK.json``'s ``run_seconds``: timed
repetitions continue until this much time has been measured."""

SETUP_PROBES = 3
"""Fresh processes whose set-up time is taken; ``setup_s`` is their median."""

BACKEND = "fast-columnar"
TOTAL_FILES = 2000
STREAM_BUDGET_BYTES = 2 << 20  # 29 537 rows per chunk: 7 chunks per artifact
FLEET_SHARDS = 4
USER_SLICES = 48  # single-user iter_batches(users=u) reads per repetition
WINDOW_SLICES = 8  # iter_batches(time_range=...) reads per repetition
WINDOW_FRACTION = 16  # each window is 1/16 of the artifact's time span
WARMUP_SCALE = 0.1


@dataclass(frozen=True)
class Workload:
    """One row of the table.  ``reps`` is a floor, never undercut."""

    name: str
    why: str
    region: str  # key into regions.REGIONS
    scenario: str
    users: int
    sessions: int
    reps: int


WORKLOADS = {w.name: w for w in (
    Workload(
        "long-session",
        "few users with ~2.1k ops each: per-op work (sampling, interleave, "
        "execute, chunk encode/CRC/write) is nearly all of it and per-user "
        "set-up shows nothing",
        "generate", "mixed-campus", users=100, sessions=4, reps=5),
    Workload(
        "short-session",
        "many users with ~60 ops each, the 1M-user run's shape: per-user "
        "work (layout, rebind, stream forks, block refills) is nearly all "
        "of it and spill is small",
        "generate", "batch-heavy", users=500, sessions=1, reps=5),
    Workload(
        "sharded-fleet",
        "the long-session population through run_fleet with 4 shards in "
        "one process, arrivals and manifest on: the cost of the production "
        "configuration, no scheduler in the number",
        "fleet", "mixed-campus", users=100, sessions=4, reps=5),
    Workload(
        "artifact-read",
        "zero synthesis: verify, replay, 48 user slices and 8 time windows "
        "over the sharded-fleet artifact, so a codec change that speeds "
        "writes and slows reads shows",
        "read", "mixed-campus", users=100, sessions=4, reps=7),
)}
