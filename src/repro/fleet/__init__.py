"""Sharded multi-process workload generation (the fleet layer).

Scales the single-engine USIM to large populations by splitting users
across independent simulated sites executed by a process pool, then
merging results:

* :mod:`~repro.fleet.sharding` — deterministic shard plans (round-robin
  user slices);
* :mod:`~repro.fleet.merge` — the order-invariant
  :class:`~repro.fleet.merge.WorkloadTally` and the per-shard
  :class:`~repro.fleet.merge.ShardAccumulator` sink;
* :mod:`~repro.fleet.supervisor` — owned worker processes with death
  and hang detection, deterministic retry, and quarantine;
* :mod:`~repro.fleet.runner` — :func:`~repro.fleet.runner.run_fleet`
  and its config/result types, plus checkpoint/resume
  (:func:`~repro.fleet.runner.resume_fleet_config`).

The headline guarantee: for a fixed root seed, the merged workload tally
is **bit-for-bit identical for any shard count** (timing is per-site and
reported separately) — and, because every shard is a pure function of
(spec, seed, shard range), retried and resumed runs reproduce the same
artifact bytes exactly.  See ``docs/architecture.md`` for why.
"""

from .merge import ShardAccumulator, WorkloadTally
from .runner import (
    FleetConfig,
    FleetPartialError,
    FleetResult,
    ShardOutcome,
    resume_fleet_config,
    run_fleet,
)
from .sharding import ShardPlan, plan_shards
from .supervisor import ShardFailure, ShardSupervisor, SupervisorReport

__all__ = [
    "ShardAccumulator",
    "WorkloadTally",
    "FleetConfig",
    "FleetPartialError",
    "FleetResult",
    "ShardOutcome",
    "resume_fleet_config",
    "run_fleet",
    "ShardPlan",
    "plan_shards",
    "ShardFailure",
    "ShardSupervisor",
    "SupervisorReport",
]
