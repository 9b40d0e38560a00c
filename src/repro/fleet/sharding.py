"""Shard planning: who runs where.

A fleet run splits a population of ``users`` virtual users into
``shards`` independent simulated sites.  The plan is pure data computed
up front in the coordinating process:

* user ids are dealt round-robin
  (:func:`repro.core.spec.partition_user_ids`), so every shard gets a
  representative slice of the user-type mix; with more shards than
  users the surplus shards are empty (zero users, zero tally) and merge
  harmlessly;
* a plan carries no seed: every shard builds the workload from the
  run's **root** seed, because user streams and the FSC layout must be
  identical across all shards for the merged tally to match the
  single-process run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.spec import partition_user_ids

__all__ = ["ShardPlan", "plan_shards"]


@dataclass(frozen=True)
class ShardPlan:
    """One shard's identity: its index and its user slice."""

    shard_index: int
    user_ids: tuple[int, ...]


def plan_shards(n_users: int, n_shards: int) -> tuple[ShardPlan, ...]:
    """Compute the full fleet plan for a population and shard count."""
    return tuple(
        ShardPlan(shard_index=index, user_ids=user_ids)
        for index, user_ids in enumerate(partition_user_ids(n_users, n_shards))
    )
