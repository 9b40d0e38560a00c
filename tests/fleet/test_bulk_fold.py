"""``ShardAccumulator`` folds in bulk: same answer, no partial reads,
bounded memory.

The accumulator buffers each batch's fold columns and folds
``FOLD_ROWS`` rows at a time, plus whatever is left when the stream
ends.  Three properties keep that invisible:

* the tally equals the per-batch fold for any split of the stream, and
  the response statistics agree (count and extrema exactly, mean and M2
  within ``RunningStats.add_array``'s parallel-Welford tolerance);
* a ``WorkloadTally`` read before the stream starts is complete when
  the producer returns: every producer ends its stream with the sink's
  ``flush()``, and every wrapper forwards it;
* the buffer holds at most one fold block plus the incoming batch, and
  a windowed fold allocates O(rows) whatever ``window_us`` is.
"""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import StreamReader, UsageLog, WorkloadGenerator
from repro.core import paper_workload_spec
from repro.core.opbatch import FOLD_ROWS, OpBatch, StringTable
from repro.core.streamfile import ROW_BYTES, StreamFileSink, TeeSink
from repro.faults import FaultSpec
from repro.fleet import FleetConfig, resume_fleet_config, run_fleet
from repro.fleet import runner
from repro.fleet.merge import ShardAccumulator, WorkloadTally
from repro.sim import RunningStats

BUDGET = 4096
WINDOW_US = 250_000.0
# RunningStats.add_array: "mean and variance can differ from element-wise
# folding in the last few float bits".
REL = 1e-12


def _artifact(path, users, budget=BUDGET):
    spec = paper_workload_spec(n_users=users, total_files=120, seed=3)
    with StreamFileSink(str(path), memory_budget_bytes=budget) as sink:
        WorkloadGenerator(spec).run_simulated(
            sessions_per_user=2, backend="fast-columnar", log=sink)
    return str(path)


class Events:
    """Records a replay's event stream."""

    def __init__(self):
        self.events = []

    def record_batch(self, batch):
        self.events.append(("rows", batch))

    def record_session(self, record):
        self.events.append(("session", record))


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    return _artifact(tmp_path_factory.mktemp("fold") / "a.opstream", 4)


@pytest.fixture(scope="module")
def events(artifact):
    with StreamReader(artifact) as reader:
        assert len(reader.chunk_index) >= 8
        sink = Events()
        reader.replay(sink)
    return sink.events


def _fresh_tables(batch):
    """``batch`` with the same rows and new string-table objects."""
    return OpBatch(**{name: getattr(batch, name) for name in (
        "kinds", "plan_ids", "sizes", "flags", "path_idx", "category_idx",
        "user_ids", "session_ids", "user_type_idx", "start_us",
        "response_us")}, **{table: StringTable(getattr(batch, table).values())
                            for table in ("paths", "categories",
                                          "user_types")})


@st.composite
def splits(draw, events):
    """The event stream re-cut: every op-row event split at random
    points, some pieces given tables of their own, empty batches thrown
    in."""
    out = []
    for kind, event in events:
        if kind == "session":
            out.append((kind, event))
            continue
        n = len(event)
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            piece = event.select(slice(lo, hi))
            if draw(st.integers(0, 7)) == 0:
                piece = _fresh_tables(piece)
            out.append(("rows", piece))
            if draw(st.integers(0, 7)) == 0:
                out.append(("rows", event.select(slice(hi, hi))))
    return out


class PerBatch:
    """The per-batch fold: tally and response statistics batch by batch."""

    def __init__(self, window_us=None):
        self.tally = WorkloadTally(window_us=window_us)
        self.response_us = RunningStats()

    def record_batch(self, batch):
        self.tally.record_batch(batch)
        self.response_us.add_array(batch.response_us)

    def record_session(self, record):
        self.tally.record_session(record)


def _feed(stream, sink):
    for kind, event in stream:
        if kind == "rows":
            sink.record_batch(event)
        else:
            sink.record_session(event)


def _fold_each(stream, window_us):
    sink = PerBatch(window_us)
    _feed(stream, sink)
    return sink


def _assert_response_agrees(got, expected):
    assert got.count == expected.count
    assert got.minimum == expected.minimum
    assert got.maximum == expected.maximum
    assert got.mean == pytest.approx(expected.mean, rel=REL)
    assert got._m2 == pytest.approx(expected._m2, rel=REL)


class TestSplitInvariance:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data=st.data(),
           window_us=st.sampled_from([None, WINDOW_US]),
           collect_ops=st.booleans(),
           threshold=st.sampled_from([1, 7, 100, 1000, FOLD_ROWS]))
    def test_bulk_fold_equals_per_batch_fold(self, events, data, window_us,
                                             collect_ops, threshold):
        stream = data.draw(splits(events))
        acc = ShardAccumulator(collect_ops=collect_ops, window_us=window_us)
        acc._pending.threshold = threshold
        log = UsageLog()
        for sink in (acc, log):
            _feed(stream, sink)
        per_batch = _fold_each(stream, window_us)
        assert acc.tally == per_batch.tally
        assert acc.tally == WorkloadTally.from_log(log, window_us=window_us)
        if window_us is not None:
            assert len(acc.tally.ops_by_window) > 1
        _assert_response_agrees(acc.response_us, per_batch.response_us)
        if collect_ops:
            assert acc.log.operations == log.operations
            assert acc.log.sessions == log.sessions

    def test_empty_and_unfolded_accumulator(self):
        acc = ShardAccumulator(window_us=WINDOW_US)
        acc.flush()
        assert acc.tally == WorkloadTally(window_us=WINDOW_US)
        assert acc.response_us.count == 0


class TestNoPartialFold:
    """A tally read before the stream starts is complete when it ends."""

    def test_replay(self, artifact, events):
        acc = ShardAccumulator(window_us=WINDOW_US)
        captured = acc.tally
        with StreamReader(artifact) as reader:
            rows, sessions = reader.replay(acc)
        expected = _fold_each(events, WINDOW_US)
        assert rows < FOLD_ROWS  # only the end-of-stream flush folds
        assert captured == expected.tally
        assert captured.operations == rows and captured.sessions == sessions

    def test_run_simulated_through_a_tee(self, tmp_path):
        spec = paper_workload_spec(n_users=3, total_files=120, seed=5)
        acc = ShardAccumulator()
        captured = acc.tally
        path = str(tmp_path / "tee.opstream")
        with StreamFileSink(path, memory_budget_bytes=BUDGET) as stream:
            WorkloadGenerator(spec).run_simulated(
                backend="fast-columnar", log=TeeSink(acc, stream))
        expected = ShardAccumulator()
        with StreamReader(path) as reader:
            reader.replay(expected)
        assert 0 < captured.operations < FOLD_ROWS
        assert captured == expected.tally

    @staticmethod
    def _watch(monkeypatch):
        """Capture each shard accumulator's tally at construction; copy
        it the moment each producer returns.  Yields ``(producer, its
        return value, the captured tally, the copy)``."""
        snapshots = []
        captured = []

        class Watched(ShardAccumulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured.append(self.tally)

        def snapshotting(original, label):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                snapshots.append((label, result, captured[-1],
                                  copy.deepcopy(captured[-1])))
                return result
            return wrapper

        monkeypatch.setattr(runner, "ShardAccumulator", Watched)
        monkeypatch.setattr(
            WorkloadGenerator, "run_simulated",
            snapshotting(WorkloadGenerator.run_simulated, "run"))
        monkeypatch.setattr(
            StreamReader, "replay",
            snapshotting(StreamReader.replay, "replay"))
        return snapshots

    @staticmethod
    def _config(tmp_path, name, **overrides):
        return FleetConfig(**dict(
            scenario="mixed-campus", users=6, shards=2, workers=1, seed=7,
            total_files=120, backend="fast-columnar",
            out_stream=str(tmp_path / name), stream_budget_bytes=BUDGET,
            retry_backoff_s=0.0, **overrides))

    def test_fleet_shard(self, tmp_path, monkeypatch):
        snapshots = self._watch(monkeypatch)
        result = run_fleet(self._config(tmp_path, "fleet.opstream"))
        runs = [(tally, snap) for label, _, tally, snap in snapshots
                if label == "run"]
        assert len(runs) == 2
        assert [tally for tally, _ in runs] == [
            outcome.tally for outcome in result.outcomes]
        for tally, snap in runs:
            assert 0 < snap.operations < FOLD_ROWS
            assert snap == tally

    def test_resumed_shard(self, tmp_path, monkeypatch):
        clean = run_fleet(self._config(tmp_path, "clean.opstream"))
        failed = self._config(
            tmp_path, "victim.opstream", max_retries=0, keep_run_dir=True,
            faults=(FaultSpec(kind="error", shard=0, row=900),))
        with pytest.raises(runner.FleetPartialError):
            run_fleet(failed)
        snapshots = self._watch(monkeypatch)
        resumed = run_fleet(resume_fleet_config(failed.out_stream + ".run",
                                                workers=1))
        assert resumed.resumed and resumed.reused_rows > 0
        assert resumed.tally == clean.tally
        # Shard 0 replays its salvaged prefix through the resume
        # boundary, then regenerates the tail; shard 1 replays its
        # complete temp.
        assert [label for label, *_ in snapshots] == [
            "replay", "run", "replay"]
        for label, returned, tally, snap in snapshots:
            if label == "replay":
                assert (snap.operations, snap.sessions) == returned
                assert snap.operations > 0
        for index, outcome in enumerate(resumed.outcomes):
            last = [snap for _, _, tally, snap in snapshots
                    if tally is outcome.tally][-1]
            assert last == outcome.tally == clean.outcomes[index].tally


def _replay_peak(path, sink):
    with StreamReader(path) as reader:
        tracemalloc.start()
        try:
            reader.replay(sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestBoundedMemory:
    @pytest.fixture(scope="class")
    def large(self, tmp_path_factory):
        path = _artifact(tmp_path_factory.mktemp("large") / "l.opstream", 100,
                         budget=16 * BUDGET)
        held = sum(getattr(OpBatch.empty(0), name).itemsize
                   for name in ShardAccumulator()._pending.names)
        with StreamReader(path) as reader:
            assert len(reader.chunk_index) >= 8
            # Holding every row's fold columns would not fit one block.
            assert reader.total_rows * held > FOLD_ROWS * ROW_BYTES
        return path

    @pytest.mark.parametrize("window_us", [None, WINDOW_US])
    def test_replay_peak_within_per_batch_plus_one_block(self, large,
                                                         window_us):
        # One fold block: FOLD_ROWS rows at the stream's row width.
        block = FOLD_ROWS * ROW_BYTES
        _replay_peak(large, PerBatch(window_us))  # warm the reader's memos
        per_batch = _replay_peak(large, PerBatch(window_us))
        bulk = _replay_peak(large, ShardAccumulator(window_us=window_us))
        assert bulk <= per_batch + block, (bulk, per_batch, block)

    def test_buffer_never_exceeds_threshold_plus_a_batch(self, large):
        acc = ShardAccumulator(window_us=WINDOW_US)
        pending = acc._pending

        class Checked:
            def record_batch(self, batch):
                # Below the threshold before the batch, so at most the
                # threshold plus this batch while it is added.
                assert pending.rows < pending.threshold
                acc.record_batch(batch)
                assert pending.rows < pending.threshold
                assert pending._overflow is None

            def record_session(self, record):
                acc.record_session(record)

            def flush(self):
                acc.flush()

        with StreamReader(large) as reader:
            rows, _ = reader.replay(Checked())
        assert pending.rows == 0
        assert acc.tally.operations == rows > FOLD_ROWS
        assert all(len(column) == FOLD_ROWS
                   for column in pending._block.values())

    def test_windowed_fold_is_linear_in_rows(self):
        rows = 10_000
        batch = OpBatch.empty(rows, StringTable(), StringTable(),
                              StringTable())
        batch.kinds[:] = 0
        batch.sizes[:] = 0
        batch.category_idx[:] = -1
        batch.start_us[:] = np.linspace(0.0, 1e12, rows)
        tally = WorkloadTally(window_us=1.0)
        tracemalloc.start()
        try:
            tally.record_batch(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tally.ops_by_window) == rows
        # The bucket dict and a sort of the rows' buckets; an array over
        # the bucket range would be 8e12 bytes.
        assert peak < 200 * rows, peak
