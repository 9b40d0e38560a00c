"""Columnar op-batch container, bridges, and batch-aware sinks."""

import io

import numpy as np
import pytest

from repro.core import (
    OP_KIND_CODES,
    OP_KIND_NAMES,
    OpBatch,
    OpRecord,
    SessionRecord,
    StringTable,
    UsageLog,
)
from repro.core.opbatch import KIND_READ, KIND_THINK, KIND_WRITE
from repro.core.oplog import _escape, _unescape
from repro.distributions import BatchSampler, RandomStreams, Uniform
from repro.fleet.merge import ShardAccumulator, WorkloadTally
from repro.sim import RunningStats


def make_records():
    return [
        OpRecord(1, "heavy", 0, "open", "/u/f1", "user:rdonly", 0, 1.0, 2.0),
        OpRecord(1, "heavy", 0, "read", "/u/f1", "user:rdonly", 4096, 3.0, 4.0),
        OpRecord(1, "heavy", 0, "write", "/u/f1", "user:rdonly", 512, 7.0, 1.5),
        OpRecord(1, "heavy", 0, "close", "/u/f1", "user:rdonly", 0, 8.5, 0.5),
        OpRecord(2, "light", 1, "stat", "/sys/a", "", 0, 0.0, 1.0),
        OpRecord(2, "light", 1, "listdir", "/sys/a", "sys:dir", 9000, 1.0, 2.0),
    ]


class TestStringTable:
    def test_intern_round_trip_and_none(self):
        table = StringTable()
        assert table.intern(None) == -1
        a = table.intern("/x")
        b = table.intern("/y")
        assert table.intern("/x") == a  # idempotent
        assert (table.lookup(a), table.lookup(b)) == ("/x", "/y")
        assert table.lookup(-1) is None
        assert len(table) == 2

    def test_prefilled_table_interns_from_its_values(self):
        # The reverse map is built on first intern, not at construction.
        table = StringTable(["/x", "/y"])
        assert table.lookup(1) == "/y"
        assert table.intern("/y") == 1
        assert table.intern("/z") == 2
        many = StringTable(["/x", "/y"])
        assert many.intern_many(["/y", "/w", "/x"]).tolist() == [1, 2, 0]
        assert many.values() == ["/x", "/y", "/w"]


class TestOpBatchBridges:
    def test_records_round_trip(self):
        records = make_records()
        batch = OpBatch.from_records(records)
        assert len(batch) == len(records)
        assert batch.to_records() == records

    def test_from_records_is_the_per_record_interning(self):
        # The column-wise build equals interning and assigning record by
        # record: tables in first-sight order, every column and dtype.
        records = make_records() * 2 + make_records()[::-1]
        batch = OpBatch.from_records(records)
        tables = {"paths": StringTable(), "categories": StringTable(),
                  "user_types": StringTable()}
        expected = {
            "path_idx": [tables["paths"].intern(r.path) for r in records],
            "category_idx": [tables["categories"].intern(r.category_key)
                             for r in records],
            "user_type_idx": [tables["user_types"].intern(r.user_type)
                              for r in records],
            "kinds": [OP_KIND_CODES[r.op] for r in records],
            "plan_ids": [-1] * len(records),
            "flags": [0] * len(records),
            "sizes": [r.size for r in records],
            "user_ids": [r.user_id for r in records],
            "session_ids": [r.session_id for r in records],
            "start_us": [r.start_us for r in records],
            "response_us": [r.response_us for r in records],
        }
        empty = OpBatch.empty(0)
        for name, values in expected.items():
            column = getattr(batch, name)
            assert column.dtype == getattr(empty, name).dtype, name
            assert column.tolist() == values, name
        for name, table in tables.items():
            assert getattr(batch, name).values() == table.values()
        assert batch.think_us is None
        assert len(OpBatch.from_records([])) == 0

    def test_kind_codes_cover_all_names(self):
        assert len(OP_KIND_NAMES) == len(OP_KIND_CODES)
        for name, code in OP_KIND_CODES.items():
            assert OP_KIND_NAMES[code] == name

    def test_select_mask_and_indices(self):
        batch = OpBatch.from_records(make_records())
        reads = batch.select(batch.kinds == KIND_READ)
        assert [r.op for r in reads.to_records()] == ["read"]
        first_two = batch.select(np.array([0, 1]))
        assert first_two.to_records() == make_records()[:2]

    def test_select_slice_shares_tables(self):
        batch = OpBatch.from_records(make_records())
        head = batch.select(slice(0, 3))
        assert head.paths is batch.paths
        assert head.to_records() == make_records()[:3]

    def test_iter_session_ops_interleaves_think(self):
        batch = OpBatch.from_records(make_records()[:2])
        batch.think_us = np.array([5, 9], dtype=np.int64)
        ops = list(batch.iter_session_ops())
        assert [op.kind for op in ops] == ["open", "think", "read", "think"]
        assert [op.size for op in ops if op.kind == "think"] == [5, 9]


class TestBatchSamplerVectorConsumption:
    """take/peek_buffer/consume must serve the exact scalar sequence."""

    def _pair(self):
        dist = Uniform(0.0, 1.0)
        streams = RandomStreams(5)
        return (
            BatchSampler(dist, streams.get("a"), block=16),
            BatchSampler(dist, RandomStreams(5).get("a"), block=16),
        )

    def test_take_matches_scalar_draws(self):
        vec, scalar = self._pair()
        expected = [scalar.draw() for _ in range(50)]
        got = list(vec.take(20)) + [vec.draw()] + list(vec.take(29))
        assert got == expected

    def test_take_spanning_refills(self):
        vec, scalar = self._pair()
        expected = [scalar.draw() for _ in range(40)]
        assert list(vec.take(40)) == expected  # 2.5 blocks in one call

    def test_peek_consume_matches_scalar_draws(self):
        vec, scalar = self._pair()
        expected = [scalar.draw() for _ in range(20)]
        got = []
        while len(got) < 20:
            view = vec.peek_buffer()
            use = min(len(view), 20 - len(got), 7)
            got.extend(view[:use])
            vec.consume(use)
        assert got == expected

    def test_consume_past_buffer_rejected(self):
        vec, _ = self._pair()
        vec.peek_buffer()
        with pytest.raises(Exception):
            vec.consume(17)


class TestTallyRecordBatch:
    def test_zero_byte_data_op_still_creates_category_key(self):
        record = OpRecord(0, "t", 0, "read", "/f", "cat", 0, 0.0, 0.0)
        tally = WorkloadTally()
        tally.record_batch(OpBatch.from_records([record]))
        assert tally.bytes_by_category == {"cat": 0}

    def test_trace_only_kinds_fold_by_name(self):
        # mkdir/rmdir: recorded by imported traces, never synthesized.
        records = [OpRecord(0, "trace", 0, kind, "/d", "DIR:USER:RDONLY",
                            0, 0.0, 1.0) for kind in ("mkdir", "rmdir")]
        batch = OpBatch.from_records(records)
        assert batch.to_records() == records
        tally = WorkloadTally()
        tally.record_batch(batch)
        assert tally.ops_by_kind == {"mkdir": 1, "rmdir": 1}

    def test_empty_batch_is_a_no_op(self):
        tally = WorkloadTally()
        tally.record_batch(OpBatch.from_records([]))
        assert tally == WorkloadTally()


class TestMergeAll:
    def _tally(self, kind: str, n: int) -> WorkloadTally:
        tally = WorkloadTally()
        tally.record_batch(OpBatch.from_records(
            [OpRecord(0, "t", 0, kind, "/f", "c", 10, 0.0, 0.0)] * n))
        return tally

    def test_merge_all_equals_fold_of_merge(self):
        parts = [self._tally("read", 3), self._tally("write", 2),
                 self._tally("read", 1)]
        folded = parts[0].merge(parts[1]).merge(parts[2])
        assert WorkloadTally.merge_all(parts) == folded

    def test_merge_is_pure(self):
        a, b = self._tally("read", 2), self._tally("write", 1)
        before_a, before_b = a.merge(WorkloadTally()), b.merge(WorkloadTally())
        a.merge(b)
        WorkloadTally.merge_all([a, b])
        assert a == before_a and b == before_b


class TestRunningStatsAddArray:
    def test_matches_scalar_adds(self):
        values = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        scalar = RunningStats()
        scalar.add_many(values)
        vec = RunningStats()
        vec.add_array(values[:2])
        vec.add_array(values[2:])
        assert vec.count == scalar.count
        assert vec.minimum == scalar.minimum
        assert vec.maximum == scalar.maximum
        assert vec.mean == pytest.approx(scalar.mean)
        assert vec.sample_std == pytest.approx(scalar.sample_std)

    def test_empty_array_is_noop(self):
        stats = RunningStats()
        stats.add_array(np.array([]))
        assert stats.count == 0


class TestUsageLogFastPaths:
    def test_escape_fast_path_is_identity_object(self):
        clean = "/plain/path-with_no.specials"
        assert _escape(clean) is clean  # no copy when nothing to escape
        assert _escape(clean, comma=True) is clean

    def test_escape_still_escapes(self):
        assert _escape("a\tb\nc\\d") == "a\\tb\\nc\\\\d"
        assert _escape("x,y", comma=True) == "x\\,y"
        assert _unescape(_escape("a\tb\nc\\d")) == "a\tb\nc\\d"

    def test_dump_chunking_boundary(self, monkeypatch):
        monkeypatch.setattr(UsageLog, "_DUMP_CHUNK_LINES", 3)
        log = UsageLog()
        for record in make_records():
            log.record_op(record)
        log.record_session(SessionRecord(1, "heavy", 0, 0.0, 9.0, 1, 4608,
                                         4096, ("user:rdonly",)))
        buffer = io.StringIO()
        log.dump(buffer)
        assert UsageLog.loads(buffer.getvalue()).operations == log.operations

    def test_record_batch_appends(self):
        log = UsageLog()
        log.record_batch(OpBatch.from_records(make_records()))
        assert log.operations == make_records()


class TestRecordedKinds:
    def test_think_codes_never_reach_sinks(self):
        from repro.core import paper_workload_spec, WorkloadGenerator

        spec = paper_workload_spec(n_users=1, total_files=80, seed=4)
        result = WorkloadGenerator(spec).run_simulated(
            backend="fast-columnar")
        kinds = {op.op for op in result.log.operations}
        assert "think" not in kinds
        assert KIND_THINK not in {OP_KIND_CODES[k] for k in kinds}
        assert kinds & {"read", "write"}
        assert KIND_READ != KIND_WRITE
