"""Crash salvage, resume, and verification of stream artifacts.

The recovery contract has three legs:

* **salvage** — an aborted (footer-less) artifact opens as a
  ``StreamReader`` over exactly the chunks a forward scan CRC-checks and
  decodes, never a byte of a torn tail, and never anything a stray
  ``.progress`` file claims;
* **resume** — continuing a salvaged artifact after its last full chunk
  with the remainder of the original event stream reproduces the
  uninterrupted file bit for bit (chunk boundaries are a pure function
  of global row count);
* **verify** — ``verify_stream`` walks every chunk CRC and reports
  corruption and truncation per chunk, loudly — and a CRC-valid footer
  or header whose fields are mis-shaped, or a footer whose index lies
  about the rows, is reported the same way, never raised as a raw
  exception.
"""

import json
import os
import struct
import zlib

import pytest

from repro.core import (
    StreamFileSink,
    StreamFormatError,
    StreamReader,
    UsageLog,
    WorkloadGenerator,
    paper_workload_spec,
    resume_stream_sink,
    salvage_stream,
    iter_batches,
    verify_stream,
)
from repro.core.streamfile import (
    _FRAME_FMT,
    _HEAD_FMT,
    _TAIL_FMT,
    MAGIC,
    ROW_BYTES,
)
from repro.fleet.runner import _ResumeBoundary

BUDGET = ROW_BYTES * 32  # 32-row chunks: plenty of flushes at test scale


class _EventRecorder:
    """Capture the exact sink-call sequence of a generation run."""

    def __init__(self):
        self.events = []  # ("batch", OpBatch) | ("session", SessionRecord)
        self.rows = 0

    def record_batch(self, batch):
        self.events.append(("batch", batch))
        self.rows += len(batch)

    def record_session(self, record):
        self.events.append(("session", record))


def _generate_events(seed=23):
    spec = paper_workload_spec(n_users=4, total_files=150, seed=seed)
    recorder = _EventRecorder()
    WorkloadGenerator(spec).run_simulated(
        sessions_per_user=2, backend="fast-columnar", log=recorder)
    return recorder


def _feed(sink, events, *, skip_rows=0, skip_sessions=0, stop_after=None):
    """Replay recorded events into a sink, optionally skipping a prefix
    (the resume path) or stopping after N op rows (the crash path)."""
    fed = 0
    for kind, payload in events:
        if kind == "session":
            if skip_sessions > 0:
                skip_sessions -= 1
                continue
            sink.record_session(payload)
            continue
        batch = payload
        if skip_rows > 0:
            take = min(skip_rows, len(batch))
            skip_rows -= take
            batch = batch.select(slice(take, len(batch)))
            if len(batch) == 0:
                continue
        if stop_after is not None:
            room = stop_after - fed
            if room <= 0:
                return fed
            if len(batch) > room:
                sink.record_batch(batch.select(slice(0, room)))
                return stop_after
        sink.record_batch(batch)
        fed += len(batch)
    return fed


@pytest.fixture(scope="module")
def events():
    return _generate_events()


@pytest.fixture()
def clean_artifact(tmp_path, events):
    path = str(tmp_path / "clean.opstream")
    with StreamFileSink(path, memory_budget_bytes=BUDGET) as sink:
        _feed(sink, events.events)
    return path


def _crashed_artifact(tmp_path, events, stop_after, name="crashed"):
    """Write an artifact, 'crash' after N rows, abort."""
    path = str(tmp_path / f"{name}.opstream")
    sink = StreamFileSink(path, memory_budget_bytes=BUDGET)
    _feed(sink, events.events, stop_after=stop_after)
    sink.abort()  # no footer: exactly what a dead process leaves
    return path


class TestAbort:
    def test_abort_leaves_no_footer(self, tmp_path, events):
        path = _crashed_artifact(tmp_path, events, stop_after=100)
        with pytest.raises(StreamFormatError, match="truncated|footer"):
            StreamReader(path)

    def test_abort_after_close_is_noop(self, tmp_path, events):
        path = str(tmp_path / "a.opstream")
        sink = StreamFileSink(path, memory_budget_bytes=BUDGET)
        _feed(sink, events.events)
        sink.close()
        sink.abort()
        with StreamReader(path) as reader:
            assert reader.total_rows == events.rows

    def test_an_exception_in_the_with_block_writes_no_footer(self, tmp_path,
                                                             events):
        path = str(tmp_path / "raised.opstream")
        with pytest.raises(RuntimeError):
            with StreamFileSink(path, memory_budget_bytes=BUDGET) as sink:
                _feed(sink, events.events, stop_after=100)
                raise RuntimeError("crash")
        with pytest.raises(StreamFormatError, match="footer"):
            StreamReader(path)
        with salvage_stream(path) as salvaged:
            assert salvaged.chunk_index and not salvaged.complete


def _footerless_copy(tmp_path, clean_artifact):
    """``clean_artifact`` cut at its footer: every chunk, the short tail
    chunk included, but no index — a writer killed inside ``close()``."""
    with StreamReader(clean_artifact) as reader:
        footer = reader.data_end
    path = str(tmp_path / "footerless.opstream")
    with open(clean_artifact, "rb") as src, open(path, "wb") as out:
        out.write(src.read(footer))
    return path


class TestSalvage:
    def test_salvage_indexes_the_verified_chunks(self, tmp_path, events):
        path = _crashed_artifact(tmp_path, events, stop_after=100)
        with salvage_stream(path) as salvaged:
            assert not salvaged.complete
            assert 0 < salvaged.total_rows <= 100
            rows_per_chunk = salvaged.rows_per_chunk
            assert all(c.rows == rows_per_chunk
                       for c in salvaged.chunk_index)
            assert salvaged.data_end == os.path.getsize(path)
            assert salvaged.damage and salvaged.damage[0].startswith("footer:")
            rows, _ = salvaged.replay(UsageLog())
            assert rows == salvaged.total_rows

    def test_salvage_keeps_a_short_tail_resume_drops_it(self, tmp_path,
                                                        clean_artifact):
        path = _footerless_copy(tmp_path, clean_artifact)
        with StreamReader(clean_artifact) as clean:
            chunks = clean.chunk_index
            tail_rows = chunks[-1].rows
        assert tail_rows < BUDGET // ROW_BYTES
        with salvage_stream(path) as salvaged:
            assert salvaged.chunk_index == chunks
            assert salvaged.damage == [salvaged.damage[0]]  # footer only
        sink, prefix = resume_stream_sink(path, memory_budget_bytes=BUDGET)
        with prefix:
            assert prefix.chunk_index == chunks[:-1]
            assert prefix.data_end == chunks[-1].offset
        sink.abort()
        assert os.path.getsize(path) == chunks[-1].offset

    def test_salvage_replay_reports_boundary_user(self, tmp_path, events):
        path = _crashed_artifact(tmp_path, events, stop_after=200)
        log = UsageLog()
        boundary = _ResumeBoundary(log)
        with salvage_stream(path) as salvaged:
            rows, sessions = salvaged.replay(boundary)
            assert rows == salvaged.total_rows == len(log.operations)
        assert boundary.last_user == max(op.user_id for op in log.operations)
        boundary_rows = sum(1 for op in log.operations
                            if op.user_id == boundary.last_user)
        assert boundary.last_user_rows == boundary_rows
        assert boundary.last_user_sessions == sum(
            1 for record in log.sessions
            if record.user_id == boundary.last_user)
        assert boundary.max_end_us == max(
            [op.start_us + op.response_us for op in log.operations]
            + [record.end_us for record in log.sessions])

    def test_complete_artifact_salvages_complete(self, clean_artifact):
        with salvage_stream(clean_artifact) as salvaged:
            assert salvaged.complete and salvaged.damage == []
            with StreamReader(clean_artifact) as reader:
                assert salvaged.chunk_index == reader.chunk_index


class TestResume:
    @pytest.mark.parametrize("stop_after", [40, 100, 333])
    def test_resumed_file_is_bit_for_bit(self, tmp_path, events,
                                         clean_artifact, stop_after):
        path = _crashed_artifact(tmp_path, events, stop_after,
                                 name=f"c{stop_after}")
        sink, salvaged = resume_stream_sink(
            path, memory_budget_bytes=BUDGET)
        assert sink is not None and salvaged is not None
        salvaged.close()
        # Continue with the remainder of the identical event stream.
        _feed(sink, events.events, skip_rows=salvaged.total_rows,
              skip_sessions=salvaged.total_sessions)
        sink.close()
        clean = open(clean_artifact, "rb").read()
        assert open(path, "rb").read() == clean

    def test_resume_after_a_lost_footer_is_bit_for_bit(self, tmp_path, events,
                                                       clean_artifact):
        path = _footerless_copy(tmp_path, clean_artifact)
        sink, prefix = resume_stream_sink(path, memory_budget_bytes=BUDGET)
        prefix.close()
        _feed(sink, events.events, skip_rows=prefix.total_rows,
              skip_sessions=prefix.total_sessions)
        sink.close()
        assert open(path, "rb").read() == open(clean_artifact, "rb").read()

    def test_resume_nothing_salvageable_starts_fresh(self, tmp_path, events,
                                                     clean_artifact):
        # Crash before the first flush: zero full chunks on disk.
        path = _crashed_artifact(tmp_path, events, stop_after=5, name="tiny")
        sink, salvaged = resume_stream_sink(path, memory_budget_bytes=BUDGET)
        assert salvaged is None  # fresh start
        _feed(sink, events.events)
        sink.close()
        assert open(path, "rb").read() == open(clean_artifact, "rb").read()

    def test_resume_complete_artifact_returns_no_sink(self, clean_artifact):
        sink, salvaged = resume_stream_sink(
            clean_artifact, memory_budget_bytes=BUDGET)
        assert sink is None
        assert salvaged is not None and salvaged.complete
        salvaged.close()

    def test_resume_budget_mismatch_starts_fresh(self, tmp_path, events,
                                                 clean_artifact):
        # A different budget means different chunk boundaries: reusing
        # salvaged chunks would break bit-identity, so start over.
        path = _crashed_artifact(tmp_path, events, stop_after=100)
        sink, salvaged = resume_stream_sink(
            path, memory_budget_bytes=BUDGET * 2)
        assert salvaged is None
        sink.abort()

    def test_resume_rejects_metadata_mismatch(self, tmp_path, events):
        path = str(tmp_path / "m.opstream")
        sink = StreamFileSink(path, memory_budget_bytes=BUDGET,
                              metadata={"run": 1})
        _feed(sink, events.events, stop_after=100)
        sink.abort()
        before = open(path, "rb").read()
        with pytest.raises(StreamFormatError, match="metadata"):
            resume_stream_sink(path, memory_budget_bytes=BUDGET,
                               metadata={"run": 2})
        assert open(path, "rb").read() == before  # nothing cut or written


class TestVerify:
    def test_clean_artifact_verifies(self, clean_artifact, events):
        report = verify_stream(clean_artifact)
        assert report.ok and report.complete
        assert report.chunks_ok == report.chunks > 0
        assert report.rows == events.rows
        assert report.errors == []
        kv = report.as_kv()
        assert kv["verdict"] == "ok"
        assert kv["chunks ok"] == f"{report.chunks}/{report.chunks}"

    def test_bitflip_in_chunk_is_localized(self, tmp_path, clean_artifact):
        data = bytearray(open(clean_artifact, "rb").read())
        data[len(data) // 2] ^= 0xFF
        path = str(tmp_path / "flipped.opstream")
        open(path, "wb").write(bytes(data))
        report = verify_stream(path)
        assert not report.ok
        assert report.chunks_ok == report.chunks - 1
        assert any("chunk" in e for e in report.errors)
        assert report.as_kv()["verdict"] == "CORRUPT"

    def test_truncation_reported(self, tmp_path, clean_artifact, events):
        data = open(clean_artifact, "rb").read()
        path = str(tmp_path / "cut.opstream")
        open(path, "wb").write(data[: int(len(data) * 0.6)])
        report = verify_stream(path)
        assert not report.ok and not report.complete
        assert report.rows < events.rows
        assert report.errors

    def test_aborted_artifact_not_ok_but_chunks_verify(self, tmp_path,
                                                       events):
        path = _crashed_artifact(tmp_path, events, stop_after=150)
        report = verify_stream(path)
        assert not report.ok and not report.complete
        assert report.chunks_ok == report.chunks > 0


def reframe_footer(path, mutate):
    """Rewrite ``path``'s footer as ``mutate(footer)`` leaves it, re-CRC'd."""
    with StreamReader(path) as reader:
        offset = reader.data_end
        _, raw = reader._read_frame(offset, "footer")
    footer = json.loads(raw)
    footer = mutate(footer) or footer
    raw = json.dumps(footer, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "r+b") as stream:
        stream.truncate(offset)
        stream.seek(offset)
        stream.write(struct.pack(_FRAME_FMT, b"F", len(raw), zlib.crc32(raw)))
        stream.write(raw)
        stream.write(struct.pack(_TAIL_FMT, offset) + MAGIC)


def _set(holder, key, value):
    def mutate(footer):
        target = footer if holder is None else footer["chunks"][holder]
        target[key] = value
    return mutate


def _drop(holder, key):
    def mutate(footer):
        del footer["chunks"][holder][key]
    return mutate


def _swap_offsets(footer):
    first, second = footer["chunks"][:2]
    first["offset"], second["offset"] = second["offset"], first["offset"]


FOOTER_MUTATIONS = {
    "rows is a string": _set(None, "rows", "x"),
    "rows is negative": _set(None, "rows", -1),
    "sessions is a float": _set(None, "sessions", 1.5),
    "chunks is a number": _set(None, "chunks", 7),
    "footer is a list": lambda footer: [footer],
    "entry is a number": lambda footer: footer["chunks"].insert(0, 7),
    "entry lacks offset": _drop(0, "offset"),
    "entry rows is a bool": _set(1, "rows", True),
    "offset is negative": _set(0, "offset", -5),
    "offset inside the header": _set(0, "offset", 3),
    "offset past the footer": _set(-1, "offset", 2**40),
    "offsets out of order": _swap_offsets,
    "user_lo is null": _set(0, "user_lo", None),
    "user_hi is a float": _set(0, "user_hi", 1.0),
    "user range is inverted": _set(0, "user_lo", 10**6),
    "start_hi is a string": _set(0, "start_hi", "9.5"),
    "start_lo is NaN": _set(0, "start_lo", float("nan")),
    "start_lo is missing": _drop(0, "start_lo"),
}


class TestHostileFooter:
    """A CRC-valid footer is still outside input: typed errors only."""

    @pytest.mark.parametrize("why", sorted(FOOTER_MUTATIONS))
    def test_misshaped_footer_is_a_typed_error(self, clean_artifact, why):
        reframe_footer(clean_artifact, FOOTER_MUTATIONS[why])
        with pytest.raises(StreamFormatError, match="footer"):
            StreamReader(clean_artifact)
        for selector in ({"users": [0]}, {"time_range": (0.0, 1e12)}):
            with pytest.raises(StreamFormatError, match="footer"):
                list(iter_batches(clean_artifact, **selector))
        report = verify_stream(clean_artifact)
        assert not report.ok and not report.complete
        assert any(e.startswith("footer:") for e in report.errors)
        # Salvage treats the footer as lost and falls back to the frames.
        with salvage_stream(clean_artifact) as salvaged:
            assert not salvaged.complete

    def test_ranges_on_an_empty_chunk_are_rejected(self, tmp_path, events):
        path = str(tmp_path / "sessions-only.opstream")
        with StreamFileSink(path, 32 * ROW_BYTES) as sink:
            for kind, payload in events.events:
                if kind == "session":
                    sink.record_session(payload)
        assert verify_stream(path).ok
        reframe_footer(path, _set(0, "user_lo", 0))
        with pytest.raises(StreamFormatError, match="footer"):
            StreamReader(path)

    def test_reframing_alone_changes_nothing(self, clean_artifact):
        before = open(clean_artifact, "rb").read()
        reframe_footer(clean_artifact, lambda footer: None)
        assert open(clean_artifact, "rb").read() == before

    @pytest.mark.parametrize("key, shift", [
        ("user_lo", -1), ("user_hi", 1), ("start_lo", -0.5),
        ("start_hi", 0.5), ("user_lo", 1), ("start_hi", -0.5),
    ])
    def test_verify_catches_an_index_that_lies(self, clean_artifact, key,
                                               shift):
        # Well-formed but wrong: slices would skip (or needlessly read)
        # this chunk, so the artifact must not verify clean.
        def lie(footer):
            entry = footer["chunks"][1]
            entry[key] += shift
            if key == "user_lo" and shift > 0:  # keep lo <= hi
                entry["user_hi"] = max(entry["user_hi"], entry[key])

        reframe_footer(clean_artifact, lie)
        with StreamReader(clean_artifact) as reader:
            assert len(reader.chunk_index) > 2  # still opens
        report = verify_stream(clean_artifact)
        assert not report.ok and report.complete
        assert report.errors == ["chunk 1: footer index disagrees with rows"]


def reframe_header(path, mutate):
    """Rewrite ``path``'s header as ``mutate(header)`` leaves it, re-CRC'd.

    The header's length may change, so every frame moves: the footer's
    chunk offsets and the tail's footer offset are shifted to match, and
    a header that is still well-formed leaves a valid artifact.
    """
    with StreamReader(path) as reader:
        data_start, footer_offset = reader._data_start, reader.data_end
        header = reader.header
        _, raw_footer = reader._read_frame(footer_offset, "footer")
    with open(path, "rb") as stream:
        data = stream.read()
    header = mutate(header) or header
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    head = (data[:len(MAGIC) + 2]
            + struct.pack(_HEAD_FMT, len(raw), zlib.crc32(raw)) + raw)
    shift = len(head) - data_start
    footer = json.loads(raw_footer)
    for entry in footer["chunks"]:
        entry["offset"] += shift
    raw_footer = json.dumps(footer, sort_keys=True,
                            separators=(",", ":")).encode()
    with open(path, "wb") as stream:
        stream.write(head + data[data_start:footer_offset])
        stream.write(struct.pack(_FRAME_FMT, b"F", len(raw_footer),
                                 zlib.crc32(raw_footer)))
        stream.write(raw_footer)
        stream.write(struct.pack(_TAIL_FMT, footer_offset + shift) + MAGIC)


def _drop_rows_per_chunk(header):
    del header["rows_per_chunk"]


HEADER_MUTATIONS = {
    "header is a list": lambda header: [header],
    "header is a number": lambda header: 7,
    "rows_per_chunk is missing": _drop_rows_per_chunk,
    "rows_per_chunk is a string": _set(None, "rows_per_chunk", "x"),
    "rows_per_chunk is null": _set(None, "rows_per_chunk", None),
    "rows_per_chunk is a float": _set(None, "rows_per_chunk", 32.5),
    "rows_per_chunk is a bool": _set(None, "rows_per_chunk", True),
    "rows_per_chunk is zero": _set(None, "rows_per_chunk", 0),
    "rows_per_chunk is a list": _set(None, "rows_per_chunk", [32]),
    "metadata is a list": _set(None, "metadata", [["a", 1]]),
    "metadata is a number": _set(None, "metadata", 7),
    "kinds is a number": _set(None, "kinds", 7),
    "columns is a number": _set(None, "columns", 7),
    "columns holds a number": _set(None, "columns", [7]),
    "version is a string": _set(None, "version", "x"),
    "version is a list": _set(None, "version", [1]),
}


class TestHostileHeader:
    """A CRC-valid header is outside input too: typed errors only."""

    @pytest.mark.parametrize("why", sorted(HEADER_MUTATIONS))
    def test_misshaped_header_is_a_typed_error(self, clean_artifact, why):
        reframe_header(clean_artifact, HEADER_MUTATIONS[why])
        with pytest.raises(StreamFormatError, match="header|kind|column"):
            StreamReader(clean_artifact)
        report = verify_stream(clean_artifact)
        assert not report.ok and not report.complete
        assert len(report.errors) == 1
        assert report.errors[0].startswith("header:")
        # Without a header there is no chunk size to salvage against.
        with pytest.raises(StreamFormatError, match="header|kind|column"):
            salvage_stream(clean_artifact)

    def test_reframing_alone_changes_nothing(self, clean_artifact):
        before = open(clean_artifact, "rb").read()
        reframe_header(clean_artifact, lambda header: None)
        assert open(clean_artifact, "rb").read() == before

    def test_a_longer_wellformed_header_still_verifies(self, clean_artifact,
                                                       events):
        reframe_header(clean_artifact,
                       _set(None, "metadata", {"note": "x" * 100}))
        report = verify_stream(clean_artifact)
        assert report.ok and report.rows == events.rows
        with StreamReader(clean_artifact) as reader:
            assert reader.metadata == {"note": "x" * 100}
