"""End-to-end fleet runs: determinism across shard counts and pools."""

import pytest

from repro.core import SpecError, paper_workload_spec
from repro.fleet import FleetConfig, WorkloadTally, run_fleet
from repro.harness import fleet_aggregate_block, fleet_report


def _config(**overrides):
    base = dict(scenario="mixed-campus", users=8, shards=1, workers=1,
                seed=7, total_files=120)
    base.update(overrides)
    return FleetConfig(**base)


class TestShardInvariance:
    """The ISSUE acceptance property at test scale: merged aggregate
    statistics are bit-for-bit identical for any shard count."""

    def test_shards_4_matches_shards_1_bit_for_bit(self):
        single = run_fleet(_config(shards=1))
        sharded = run_fleet(_config(shards=4))
        assert sharded.aggregate_kv() == single.aggregate_kv()
        # and the formatted report block is byte-identical too
        assert fleet_aggregate_block(sharded) == fleet_aggregate_block(single)

    def test_every_shard_count_agrees(self):
        reference = run_fleet(_config(shards=1)).aggregate_kv()
        for shards in (2, 3, 8):
            assert run_fleet(_config(shards=shards)).aggregate_kv() == reference

    def test_process_pool_matches_in_process(self):
        serial = run_fleet(_config(shards=2, workers=1))
        pooled = run_fleet(_config(shards=2, workers=2))
        assert pooled.aggregate_kv() == serial.aggregate_kv()

    def test_different_seeds_differ(self):
        a = run_fleet(_config(seed=1)).aggregate_kv()
        b = run_fleet(_config(seed=2)).aggregate_kv()
        assert a != b

    def test_empty_shards_merge_invariantly(self):
        # Regression: shards > users used to be rejected; now the extra
        # shards run zero users and the merged aggregate must still be
        # bit-for-bit the single-shard result.
        single = run_fleet(_config(users=2, shards=1))
        overly_sharded = run_fleet(_config(users=2, shards=5))
        assert overly_sharded.aggregate_kv() == single.aggregate_kv()
        assert [len(o.user_ids) for o in overly_sharded.outcomes] == \
            [1, 1, 0, 0, 0]
        empties = [o for o in overly_sharded.outcomes if not o.user_ids]
        assert all(o.tally.operations == 0 for o in empties)
        assert all(o.response_us.count == 0 for o in empties)
        assert (overly_sharded.response_us.count
                == single.response_us.count)


class TestFleetMechanics:
    def test_outcomes_cover_population(self):
        result = run_fleet(_config(shards=3))
        users = sorted(u for o in result.outcomes for u in o.user_ids)
        assert users == list(range(8))
        assert [o.shard_index for o in result.outcomes] == [0, 1, 2]

    def test_sessions_scale_with_sessions_per_user(self):
        result = run_fleet(_config(shards=2, sessions_per_user=3))
        assert result.tally.sessions == 8 * 3

    def test_collect_ops_merged_log_matches_tally(self):
        result = run_fleet(_config(shards=3, collect_ops=True))
        assert result.log is not None
        assert WorkloadTally.from_log(result.log) == result.tally

    def test_stats_only_keeps_no_log(self):
        result = run_fleet(_config(shards=2))
        assert result.log is None
        assert all(o.log is None for o in result.outcomes)
        assert result.response_us.count == result.tally.operations

    def test_explicit_spec_config(self):
        spec = paper_workload_spec(n_users=6, total_files=100, seed=3)
        result = run_fleet(FleetConfig(spec=spec, shards=2, workers=1))
        assert result.config.n_users == 6
        assert result.config.root_seed == 3
        assert result.tally.sessions == 6

    def test_explicit_spec_access_pattern_override(self):
        spec = paper_workload_spec(n_users=4, total_files=100, seed=3)
        sequential = run_fleet(FleetConfig(spec=spec, shards=2, workers=1))
        random = run_fleet(FleetConfig(spec=spec, shards=2, workers=1,
                                       access_pattern="random"))
        # random mode seeks before every chunk; sequential only on wrap
        assert random.tally.ops_by_kind.get("lseek", 0) > \
            sequential.tally.ops_by_kind.get("lseek", 0)

    def test_custom_registered_scenario_runs_in_pool(self):
        # Workers receive the resolved spec, not the registry name, so a
        # scenario registered only in this process survives any
        # multiprocessing start method.
        from repro.scenarios import Scenario, register_scenario

        register_scenario(Scenario(
            name="test-only-mix",
            description="registered by the test process",
            build=lambda users, seed, total_files=None: paper_workload_spec(
                n_users=users, total_files=total_files or 80, seed=seed),
        ), replace=True)
        result = run_fleet(FleetConfig(scenario="test-only-mix", users=4,
                                       shards=2, workers=2, seed=1))
        assert result.tally.sessions == 4

    def test_report_renders_both_blocks(self):
        result = run_fleet(_config(shards=2))
        text = fleet_report(result)
        assert "Aggregate workload statistics (shard-invariant)" in text
        assert "Timing (topology-dependent)" in text
        assert "Per-shard" in text

    def test_simulated_us_is_slowest_shard(self):
        result = run_fleet(_config(shards=2))
        assert result.simulated_us == max(
            o.simulated_us for o in result.outcomes
        )


class TestFleetConfigValidation:
    def test_requires_scenario_xor_spec(self):
        with pytest.raises(SpecError):
            FleetConfig()
        with pytest.raises(SpecError):
            FleetConfig(scenario="mixed-campus",
                        spec=paper_workload_spec(n_users=2))

    def test_rejects_bad_backend(self):
        with pytest.raises(SpecError):
            FleetConfig(scenario="mixed-campus", backend="s3")

    def test_rejects_bad_counts(self):
        with pytest.raises(SpecError):
            FleetConfig(scenario="mixed-campus", shards=0)
        with pytest.raises(SpecError):
            FleetConfig(scenario="mixed-campus", workers=0)
        with pytest.raises(SpecError):
            FleetConfig(scenario="mixed-campus", sessions_per_user=0)

    def test_rejects_bad_profile_name(self):
        with pytest.raises(SpecError):
            FleetConfig(scenario="mixed-campus", profile="no-such-profile")

    def test_rejects_bad_window(self):
        with pytest.raises(SpecError):
            FleetConfig(scenario="mixed-campus", window_us=0.0)

    def test_workers_capped_by_shards(self):
        assert _config(shards=2, workers=16).effective_workers() == 2


class TestFleetOutStream:
    """run_fleet(out_stream=...): artifacts, shard merge, cleanup."""

    def _stream_config(self, path, **overrides):
        return _config(backend="fast-columnar", out_stream=str(path),
                       **overrides)

    def test_multiprocess_merge_matches_single_shard(self, tmp_path):
        blobs = []
        for shards, workers in ((1, 1), (3, 2)):
            path = tmp_path / f"s{shards}.opstream"
            result = run_fleet(self._stream_config(
                path, shards=shards, workers=workers))
            assert result.out_stream == str(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_shard_temp_files_are_cleaned_up(self, tmp_path):
        path = tmp_path / "fleet.opstream"
        run_fleet(self._stream_config(path, shards=3))
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["fleet.opstream"]

    @pytest.mark.parametrize("budget", [None, 4096], ids=["one-chunk", "spilled"])
    def test_artifact_replays_to_fleet_tally(self, tmp_path, budget):
        from repro.core import StreamReader
        from repro.fleet.merge import ShardAccumulator

        path = tmp_path / "fleet.opstream"
        result = run_fleet(self._stream_config(
            path, shards=2, stream_budget_bytes=budget))
        sink = ShardAccumulator()
        with StreamReader(str(path)) as reader:
            assert (len(reader.chunk_index) > 1) == (budget is not None)
            reader.replay(sink)
        assert sink.tally == result.tally

    def test_budget_shapes_chunking(self, tmp_path):
        from repro.core import StreamReader
        from repro.core.streamfile import ROW_BYTES

        path = tmp_path / "fleet.opstream"
        run_fleet(self._stream_config(
            path, stream_budget_bytes=ROW_BYTES * 32))
        with StreamReader(str(path)) as reader:
            assert reader.rows_per_chunk == 32
            assert len(reader.chunk_index) > 1

    def test_rejects_sharded_des_stream(self, tmp_path):
        with pytest.raises(SpecError, match="engine-free"):
            _config(backend="nfs", shards=2,
                    out_stream=str(tmp_path / "x.opstream"))

    def test_rejects_budget_without_stream(self):
        with pytest.raises(SpecError):
            _config(stream_budget_bytes=1 << 20)

    def test_single_shard_des_stream_allowed(self, tmp_path):
        from repro.core import StreamReader

        path = tmp_path / "des.opstream"
        result = run_fleet(_config(backend="nfs", shards=1,
                                   out_stream=str(path)))
        with StreamReader(str(path)) as reader:
            assert reader.total_rows == result.tally.operations > 0
