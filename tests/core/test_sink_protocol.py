"""The sink protocol: ``record_batch`` + ``record_session``, nothing else.

Two halves.  The goldens pin, by SHA-256, the artifacts and logs of every
producer that emits one record at a time (the DES backends, the trace
sessionizer) and of the stream replay — the digests were taken at the
commit *before* sinks lost ``record_op``, so they hold that the
:class:`~repro.core.opbatch.RecordBatcher` route writes the same bytes the
per-record route did.  The rest pins the adaptor's contract: producer
order, summaries after their ops, the producer's final flush.
"""

import hashlib
import os

import pytest

from repro import faults
from repro.cli import main
from repro.core import (
    OpRecord,
    OpSink,
    SessionRecord,
    StreamFileSink,
    StreamFormatError,
    StreamReader,
    UsageLog,
    WorkloadGenerator,
    paper_workload_spec,
)
from repro.core.opbatch import RecordBatcher
from repro.traces import TraceEvent, sessionize_events

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SIM = ["--users", "3", "--sessions", "2", "--files", "80", "--seed", "7"]
FLEET = ["fleet", "run", "--scenario", "mixed-campus", "--users", "8",
         "--seed", "7", "--files", "80", "--workers", "1"]


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli(*args) -> None:
    assert main([str(a) for a in args]) == 0


class TestGoldens:
    """Byte-for-byte what the per-record route wrote."""

    @pytest.mark.parametrize("backend, budget, digest", [
        ("nfs", None,
         "8dab908d65e9fb830ce6dc1073a3b65d9431197277235e775ca5f9a45797aac0"),
        ("local", None,
         "a8a537c0460097f8bd69ef570569cc911cf988d38afe0964a6ea7192c9b70943"),
        ("afs", None,
         "b5622449c5319612fc099c638561babeb6ca89360ae48660012e9e77702dd93d"),
        # 4 KiB: chunks far smaller than the batcher's block.
        ("nfs", 4096,
         "d923d9faebb917273bd68f92cfe32a8ffe4e0671183ea4f246b96e93a069223c"),
    ])
    def test_des_simulate_out_stream(self, tmp_path, capsys, backend,
                                     budget, digest):
        out = tmp_path / "a.opstream"
        extra = ["--stream-budget-bytes", budget] if budget else []
        cli("simulate", *SIM, "--backend", backend, "--out-stream", out,
            *extra)
        assert sha256(out) == digest

    def test_des_fleet_oplog(self, tmp_path, capsys):
        out = tmp_path / "fleet.oplog"
        cli(*FLEET, "--shards", "2", "--backend", "nfs", "--oplog", out)
        assert sha256(out) == (
            "64808cdf7f387bcba692fdea9bd023434c57b623892cf0c0f1fb4c3b2c154410")

    def test_trace_import(self, tmp_path, capsys):
        out = tmp_path / "trace.ulog"
        cli("trace", "import",
            os.path.join(REPO, "examples", "example_trace.csv"), "-o", out)
        assert sha256(out) == (
            "1360468698535b924c417df972d3991aad12421d836dd98fc0de0ed231aa0efd")

    def test_stream_replay_oplog(self, tmp_path, capsys):
        artifact, out = tmp_path / "a.opstream", tmp_path / "replay.oplog"
        cli(*FLEET, "--shards", "2", "--backend", "fast-columnar",
            "--out-stream", artifact)
        cli("stream", "replay", artifact, "--oplog", out)
        assert sha256(out) == (
            "57828af04356eca7a8870dcd4b843df099485ba017ec86a3755bbf23518a8e50")


class EventSink:
    """Records the protocol's event sequence, rows flattened."""

    def __init__(self):
        self.events = []
        self.batches = []

    def record_batch(self, batch):
        self.batches.append(len(batch))
        self.events.extend(("op", record) for record in batch.to_records())

    def record_session(self, record):
        self.events.append(("session", record))


def op(i: int) -> OpRecord:
    return OpRecord(user_id=i % 2, user_type="t", session_id=0, op="read",
                    path=f"/f{i % 3}", category_key="", size=i,
                    start_us=float(i), response_us=1.0)


def summary(session: int = 0) -> SessionRecord:
    return SessionRecord(user_id=0, user_type="t", session_id=session,
                         start_us=0.0, end_us=1.0, files_referenced=0,
                         bytes_accessed=0, file_bytes_referenced=0,
                         categories=())


def small_run(users=3, **kwargs):
    generator = WorkloadGenerator(
        paper_workload_spec(n_users=users, total_files=80, seed=7))
    return generator.run_simulated(sessions_per_user=2, backend="nfs",
                                   **kwargs)


class TestRecordBatcher:
    def test_protocol_is_record_batch_plus_record_session(self):
        class PerRecordSink:
            def record_op(self, record): ...
            def record_session(self, record): ...

        assert isinstance(EventSink(), OpSink)
        assert not isinstance(PerRecordSink(), OpSink)

    def test_events_reach_the_sink_in_producer_order(self):
        sink, produced = EventSink(), []
        records = RecordBatcher(sink)
        for i in range(2 * RecordBatcher.BLOCK_ROWS + 5):
            produced.append(("op", op(i)))
            records.record_op(produced[-1][1])
            if i % 5000 == 0:
                produced.append(("session", summary(session=i)))
                records.record_session(produced[-1][1])
        # What followed the last summary (op 5000) waits for the flush.
        assert sink.events == produced[:5001 + 2]
        records.flush()
        assert sink.events == produced
        # A full block goes without waiting; summaries cut blocks short.
        assert sink.batches == [1, RecordBatcher.BLOCK_ROWS, 904, 3196]

    def test_nothing_buffered_means_no_empty_batch(self):
        sink = EventSink()
        records = RecordBatcher(sink)
        records.record_session(summary())
        records.flush()
        assert sink.batches == [] and len(sink.events) == 1


class TestProducersThroughTheBatcher:
    def test_sessions_sit_after_every_op_recorded_before_them(self,
                                                              tmp_path):
        """Through the stream writer's session row positions: a summary
        at position p follows exactly the ops that completed by its end
        clock — all of its own session's among them."""
        path = str(tmp_path / "des.opstream")
        with StreamFileSink(path, memory_budget_bytes=4096) as sink:
            small_run(log=sink)
        rows, sessions = [], []
        with StreamReader(path) as reader:
            assert len(reader.chunk_index) > 10
            for info in reader.chunk_index:
                chunk = reader.read_chunk(info.index)
                rows.extend(chunk.batch.to_records())
                sessions.extend(chunk.sessions)
        assert len(sessions) == 6
        done = [r.start_us + r.response_us for r in rows]
        slack = 1e-6  # start + (now - start) vs now
        for position, record in sessions:
            own = [i for i, r in enumerate(rows)
                   if (r.user_id, r.session_id)
                   == (record.user_id, record.session_id)]
            assert own and max(own) < position
            assert all(t <= record.end_us + slack for t in done[:position])
            assert all(t >= record.end_us - slack for t in done[position:])

    def test_truncated_des_run_still_flushes_its_tail(self):
        full = small_run().log
        limit = full.operations[len(full.operations) // 3].start_us
        cut = small_run(time_limit_us=limit).log
        n = len(cut.operations)
        assert 0 < n < len(full.operations)
        assert n % RecordBatcher.BLOCK_ROWS  # the tail is a partial block
        # Same seed, same engine: the cut run is the full run's prefix,
        # and it ends only where the next op had not completed in time.
        assert cut.operations == full.operations[:n]
        upcoming = full.operations[n]
        assert upcoming.start_us + upcoming.response_us >= limit - 1e-6

    def test_real_runner_records_every_session_in_order(self):
        from repro.vfs import MemoryFileSystem

        generator = WorkloadGenerator(
            paper_workload_spec(n_users=2, total_files=60, seed=3))
        log = generator.run_real(MemoryFileSystem(), sessions_per_user=2).log
        every = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [(s.user_id, s.session_id) for s in log.sessions] == every
        keys = [(r.user_id, r.session_id) for r in log.operations]
        assert keys == sorted(keys) and sorted(set(keys)) == every
        starts = [r.start_us for r in log.operations]
        assert starts == sorted(starts)

    def test_a_trace_keeps_mkdir_and_rmdir_but_no_stream_file_takes_them(
            self, tmp_path):
        kinds = ["mkdir", "stat", "rmdir"]
        events = [TraceEvent(float(i), "u", kind, "/d")
                  for i, kind in enumerate(kinds)]
        log = UsageLog()
        sessionize_events(events, log)
        assert [record.op for record in log.operations] == kinds
        with pytest.raises(StreamFormatError, match="kind table"):
            with StreamFileSink(str(tmp_path / "t.opstream")) as sink:
                sessionize_events(events, sink)

    @pytest.mark.parametrize("kind", ["error", "kill"])
    @pytest.mark.parametrize("row", [1, 100, RecordBatcher.BLOCK_ROWS + 7])
    def test_row_fault_forwards_exactly_n_rows_then_fires(self, monkeypatch,
                                                          kind, row):
        """``--inject-fault kill:shard=0,row=N`` on a DES shard."""
        class Died(Exception):
            pass

        def die(code):
            raise Died(code)

        monkeypatch.setattr(faults.os, "_exit", die)
        injector = faults.FaultInjector(
            [faults.parse_fault(f"{kind}:shard=0,row={row}")])
        sink = EventSink()
        with pytest.raises(Died if kind == "kill" else faults.InjectedFault):
            small_run(users=6, log=injector.wrap_sink(sink))
        assert sum(sink.batches) == row
