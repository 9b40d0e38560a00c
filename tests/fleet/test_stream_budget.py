"""One stream budget per fleet run, whatever the shard count.

``stream_budget_bytes`` belongs to the run: the k shard temps spill at
``budget // k`` each, the merge re-chunks at the run's own chunk size,
so the merged artifact's bytes never depend on k and the merge's memory
stays about flat in k.  A run directory whose temps were chunked at the
full budget (as builds before this rule wrote them) is still resumable:
its temps are regenerated, not reused.
"""

import filecmp
import os
import tracemalloc

import pytest

from repro.core import StreamFileSink, StreamReader, salvage_stream
from repro.core.streamfile import ROW_BYTES, rows_per_chunk_for
from repro.faults import FaultSpec
from repro.fleet import (
    FleetConfig,
    FleetPartialError,
    resume_fleet_config,
    run_fleet,
)
from repro.fleet import runner

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")

BUDGET = 4096


def _config(tmp_path, name="out.opstream", **overrides):
    base = dict(scenario="mixed-campus", users=8, shards=2, workers=1,
                seed=7, total_files=120, backend="fast-columnar",
                out_stream=str(tmp_path / name), stream_budget_bytes=BUDGET,
                retry_backoff_s=0.0)
    base.update(overrides)
    return FleetConfig(**base)


@pytest.fixture()
def merges(monkeypatch):
    """Every merge ``run_fleet`` makes: its inputs' and output's chunk
    sizes, and the merge's own ``tracemalloc`` peak."""
    seen = []
    real = runner.merge_stream_files

    def traced(output, inputs, **kwargs):
        inputs = list(inputs)
        temps = []
        for path in inputs:
            with StreamReader(path) as reader:
                temps.append(reader.rows_per_chunk)
        tracemalloc.start()
        try:
            rows = real(output, inputs, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen.append({"temps": temps, "rows_per_chunk":
                     kwargs.get("rows_per_chunk"), "peak": peak})
        return rows

    monkeypatch.setattr(runner, "merge_stream_files", traced)
    return seen


class TestShardTempBudget:
    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_temps_spill_at_a_kth_and_merge_at_the_run_size(
            self, tmp_path, merges, shards):
        single = run_fleet(_config(tmp_path, name="one.opstream", shards=1))
        assert merges == []  # one shard: its temp is renamed into place
        result = run_fleet(_config(tmp_path, shards=shards))
        (merge,) = merges
        assert merge["temps"] == [rows_per_chunk_for(BUDGET // shards)] * shards
        assert merge["rows_per_chunk"] == rows_per_chunk_for(BUDGET)
        with StreamReader(result.out_stream) as reader:
            assert reader.rows_per_chunk == rows_per_chunk_for(BUDGET)
        assert filecmp.cmp(result.out_stream, single.out_stream,
                           shallow=False)

    def test_more_shards_than_budget_bytes(self, tmp_path, merges):
        # budget // k rounds to zero: each temp still spills one row per
        # chunk (an empty shard spills none), and the artifact is the
        # 1-shard one.
        small = dict(users=2, total_files=80, stream_budget_bytes=3)
        single = run_fleet(_config(tmp_path, name="one.opstream", shards=1,
                                   **small))
        result = run_fleet(_config(tmp_path, shards=4, **small))
        assert merges[0]["temps"] == [1] * 4
        assert filecmp.cmp(result.out_stream, single.out_stream,
                           shallow=False)


class TestMergeMemory:
    def test_merge_peak_is_flat_in_the_shard_count(self, tmp_path, merges):
        # Chunks of 6 500 rows; every shard of 16 holds ~20k rows, more
        # than 3 chunks at the full budget — so a merge holding a decoded
        # full-budget chunk per shard (and a whole user per shard) grows
        # ~5x from 2 shards to 16, while one budget shared by the shards
        # stays within 1.5x (the per-temp footer index is what grows).
        budget = 6500 * ROW_BYTES
        for shards in (2, 16):
            result = run_fleet(_config(
                tmp_path, name=f"k{shards}.opstream", users=160, shards=shards,
                sessions_per_user=4, total_files=400,
                stream_budget_bytes=budget))
            rows = result.tally.operations
        assert rows / 16 >= 3 * rows_per_chunk_for(budget)
        two, sixteen = (merge["peak"] for merge in merges)
        assert sixteen <= 1.5 * two, (two, sixteen)


class TestResumeFromFullBudgetTemps:
    """A run directory whose shard temps were chunked at the run's whole
    budget resumes to the same bytes; no temp chunk is reused."""

    @staticmethod
    def rechunk(path, budget, complete):
        """Rewrite the temp at ``path`` at ``budget``: closed, or with its
        frames flushed and no footer (a killed writer's file)."""
        tmp = path + ".full"
        with salvage_stream(path) as salvaged:
            sink = StreamFileSink(tmp, budget, metadata=salvaged.metadata)
            salvaged.replay(sink)
        if complete:
            sink.close()
        else:
            sink.abort()
        os.replace(tmp, path)
        with salvage_stream(path) as rechunked:
            return rechunked

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_regenerates_full_budget_temps(self, tmp_path, workers):
        clean = run_fleet(_config(tmp_path, name="clean.opstream"))
        config = _config(tmp_path, name="victim.opstream", workers=2,
                         max_retries=0, keep_run_dir=True,
                         faults=(FaultSpec(kind="kill", shard=0, row=2000),))
        with pytest.raises(FleetPartialError):
            run_fleet(config)
        run_dir = config.run_dir
        killed = self.rechunk(os.path.join(run_dir, "shard0000.opstream"),
                              BUDGET, complete=False)
        done = self.rechunk(os.path.join(run_dir, "shard0001.opstream"),
                            BUDGET, complete=True)
        assert killed.chunk_index and not killed.complete and done.complete
        full = rows_per_chunk_for(BUDGET)
        assert killed.rows_per_chunk == done.rows_per_chunk == full

        resumed = run_fleet(resume_fleet_config(run_dir, workers=workers))
        assert resumed.resumed
        assert [o.reused_chunks for o in resumed.outcomes] == [0, 0]
        assert resumed.reused_chunks == 0
        assert filecmp.cmp(resumed.out_stream, clean.out_stream,
                           shallow=False)
        assert resumed.tally == clean.tally
