"""The sink protocol: ``record_batch`` + ``record_session``, and an
optional ``flush()`` that ends the stream (``StreamReader.replay`` and
``run_simulated`` call it, the wrapping sinks forward it; the bulk-fold
tests in ``tests/fleet/test_bulk_fold.py`` pin that).  Nothing else.

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
from tests.core.test_streamfile import as_version_1

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

    # Re-taken when `simulate` became a one-shard fleet run: the header
    # moved to the fleet's (and the footer offsets with it); every chunk
    # payload and the replayed usage log stayed byte-identical.  Re-taken
    # again at stream format 2 (integer columns at their chunk's width):
    # every chunk decodes to the same columns, rows and sessions, and the
    # replayed usage log is byte-identical.
    @pytest.mark.parametrize("backend, budget, digest", [
        ("nfs", None,
         "a67bf50c8f3a7c1e98b1f01e4007619d321e9cd81229e9dbfdd1c643fa899ec4"),
        ("local", None,
         "e00d427369c09576d78639cc5973517ba83265dc5bea775c80d55a022eef4b91"),
        ("afs", None,
         "8a3e0cb8beabd8448a10a365e8accb2ca93d0f24ae9c75e20afd601e2d0d29ba"),
        # 4 KiB: chunks far smaller than the batcher's block.
        ("nfs", 4096,
         "a0f330325f8fe340f83d0e04b4bd3c84068a85edfa212777bc698f2a13db991b"),
    ])
    def test_des_simulate_out_stream(self, tmp_path, capsys, backend,
                                     budget, digest):
        out = tmp_path / "a.opstream"
        extra = ["--stream-budget-bytes", budget] if budget else []
        cli("simulate", *SIM, "--backend", backend, "--out-stream", out,
            *extra)
        assert sha256(out) == digest

    # The same runs' format-1 digests (every column at schema width),
    # pinned before format 2: the reference encoder's version-1 copy of
    # today's artifact is the older build's file byte for byte.
    @pytest.mark.parametrize("backend, budget, digest", [
        ("nfs", None,
         "782b1d9f05327b7878b2137ebf5a0c77ffd5e30934471a1c35b5e8f91d007771"),
        ("local", None,
         "e0633073262cbd8417131fb158cbca2670e5321fdf5949f74dbe179c4a78d65c"),
        ("afs", None,
         "1f33305b839f9ae58b0681d31b812037e0d0064ee52c6c169dd0f9889b0c4c57"),
        ("nfs", 4096,
         "5c953a0f3d37a75d95dd89ce93b4b71bf4a8dcdd6de965ba63e3c1d668e4178c"),
    ])
    def test_des_simulate_out_stream_as_format_1(self, tmp_path, capsys,
                                                  backend, budget, digest):
        out = tmp_path / "a.opstream"
        extra = ["--stream-budget-bytes", budget] if budget else []
        cli("simulate", *SIM, "--backend", backend, "--out-stream", out,
            *extra)
        assert sha256(as_version_1(out, tmp_path / "v1.opstream")) == digest

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

    def test_des_run_delivers_its_partial_last_block(self):
        sink = EventSink()
        small_run(log=sink)
        ops = [record for kind, record in sink.events if kind == "op"]
        assert len(ops) % RecordBatcher.BLOCK_ROWS  # the tail is a partial block
        assert sum(sink.batches) == len(ops)
        assert ops == small_run().log.operations
        assert sink.events[-1][0] == "session"

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
