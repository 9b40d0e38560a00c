"""Shard-plan properties: coverage, balance, determinism."""

import pytest

from repro.core import SpecError, partition_user_ids
from repro.fleet import plan_shards


class TestPartitionUserIds:
    def test_covers_population_disjointly(self):
        shards = partition_user_ids(103, 7)
        seen = [u for shard in shards for u in shard]
        assert sorted(seen) == list(range(103))
        assert len(seen) == len(set(seen))

    def test_balanced_within_one(self):
        shards = partition_user_ids(10, 4)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_round_robin_mixes_user_types(self):
        # assign_user_types lists each type contiguously; round-robin
        # dealing means every shard samples every region of that list.
        shards = partition_user_ids(8, 2)
        assert shards == ((0, 2, 4, 6), (1, 3, 5, 7))

    def test_single_shard_is_identity(self):
        assert partition_user_ids(5, 1) == (tuple(range(5)),)

    def test_deterministic(self):
        assert partition_user_ids(50, 3) == partition_user_ids(50, 3)

    @pytest.mark.parametrize("users,shards", [(0, 1), (4, 0)])
    def test_rejects_bad_shapes(self, users, shards):
        with pytest.raises(SpecError):
            partition_user_ids(users, shards)

    def test_more_shards_than_users_yields_empty_shards(self):
        # Regression: this used to raise; surplus shards must come back
        # empty so fleet topologies stay valid at any scale.
        shards = partition_user_ids(3, 5)
        assert shards == ((0,), (1,), (2,), (), ())
        seen = [u for shard in shards for u in shard]
        assert sorted(seen) == list(range(3))


class TestPlanShards:
    def test_plan_matches_partition(self):
        plans = plan_shards(9, 3)
        assert [p.user_ids for p in plans] == list(partition_user_ids(9, 3))
        assert [p.shard_index for p in plans] == [0, 1, 2]

    def test_plan_slices_are_balanced(self):
        plans = plan_shards(10, 4)
        assert [len(p.user_ids) for p in plans] == [3, 3, 2, 2]
