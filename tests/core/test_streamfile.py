"""On-disk op-stream artifacts: format round trips, corruption, merge.

The format's contract has three legs, each tested here:

* **lossless**: any event stream — arbitrary paths (tabs, newlines,
  non-ASCII), int64 extremes, empty batches, think columns, sessions on
  exact chunk boundaries — reads back identical, at any chunk size
  (property-based, hypothesis);
* **loud**: any truncation or single-bit flip raises a clean
  :class:`StreamFormatError`, never garbage records (every frame is
  CRC-framed, the tail is cross-checked);
* **deterministic**: chunk boundaries depend only on the budget, so a
  replay into a same-budget sink reproduces the file byte for byte, and
  a k-way shard merge is bit-identical to the 1-shard artifact.
"""

import io
import json
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OP_KIND_NAMES,
    OpBatch,
    OpRecord,
    SessionRecord,
    StreamFileSink,
    StreamFormatError,
    StreamReader,
    TeeSink,
    UsageLog,
    WorkloadGenerator,
    iter_batches,
    merge_stream_files,
    paper_workload_spec,
    salvage_stream,
)
from repro.core import streamfile
from repro.core.streamfile import (
    _COLUMNS,
    _FRAME_FMT,
    _STRING_COLUMNS,
    _TAIL_FMT,
    _THINK_COLUMN,
    MAGIC,
    ROW_BYTES,
    _buffers,
    _decode_chunk,
    _encode_chunk,
    _parse_sessions,
    rows_per_chunk_for,
    verify_stream,
)
from repro.fleet.merge import ShardAccumulator

# ``think`` rows live in the optional think column, never in records.
RECORD_KINDS = tuple(k for k in OP_KIND_NAMES if k != "think")

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# Deliberately hostile strings: separator bytes, escapes, non-ASCII.
NASTY_TEXT = st.text(
    alphabet=st.sampled_from(
        list("abz/._-\\,\t\n\r") + ["é", "ß", "日", "🐍", " "]
    ),
    max_size=12,
)

op_records = st.builds(
    OpRecord,
    user_id=st.integers(min_value=0, max_value=INT64_MAX),
    user_type=NASTY_TEXT,
    session_id=st.integers(min_value=0, max_value=INT64_MAX),
    op=st.sampled_from(RECORD_KINDS),
    path=NASTY_TEXT,
    category_key=NASTY_TEXT,
    size=st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    start_us=st.floats(allow_nan=False, allow_infinity=False),
    response_us=st.floats(allow_nan=False, allow_infinity=False),
)

session_records = st.builds(
    SessionRecord,
    user_id=st.integers(min_value=0, max_value=INT64_MAX),
    user_type=NASTY_TEXT,
    session_id=st.integers(min_value=0, max_value=INT64_MAX),
    start_us=st.floats(allow_nan=False, allow_infinity=False),
    end_us=st.floats(allow_nan=False, allow_infinity=False),
    files_referenced=st.integers(min_value=0, max_value=INT64_MAX),
    bytes_accessed=st.integers(min_value=0, max_value=INT64_MAX),
    file_bytes_referenced=st.integers(min_value=0, max_value=INT64_MAX),
    # Empty category keys are dropped by the oplog line format itself.
    categories=st.lists(NASTY_TEXT.filter(lambda s: s),
                        max_size=3).map(tuple),
)


@st.composite
def op_batches(draw, max_rows=8):
    """An arbitrary OpBatch, sometimes empty, sometimes with think."""
    records = draw(st.lists(op_records, min_size=0, max_size=max_rows))
    batch = OpBatch.from_records(records)
    if draw(st.booleans()):
        batch.think_us = np.array(
            draw(st.lists(
                st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
                min_size=len(records), max_size=len(records),
            )),
            dtype=np.int64,
        )
    return batch


@st.composite
def event_streams(draw):
    """An interleaving of batches and session summaries."""
    return draw(st.lists(
        st.one_of(op_batches(), session_records), min_size=0, max_size=6))


def sink_at(path, rows_per_chunk, metadata=None):
    """A stream file sink writing ``rows_per_chunk``-row chunks."""
    return StreamFileSink(path, rows_per_chunk * ROW_BYTES, metadata=metadata)


def write_events(path, events, rows_per_chunk, metadata=None):
    with sink_at(path, rows_per_chunk, metadata=metadata) as sink:
        for event in events:
            if isinstance(event, SessionRecord):
                sink.record_session(event)
            else:
                sink.record_batch(event)
    return path


def flatten_events(events):
    """(records, think-or-None, sessions-in-order) ground truth."""
    batches = [e for e in events if not isinstance(e, SessionRecord)]
    batches = [b for b in batches if len(b)]
    records = [r for b in batches for r in b.to_records()]
    think = None
    if batches and all(b.think_us is not None for b in batches):
        think = np.concatenate([b.think_us for b in batches])
    sessions = [e for e in events if isinstance(e, SessionRecord)]
    return records, think, sessions


def read_back(path):
    """(records, think-or-None, sessions) as the reader sees them."""
    with StreamReader(path) as reader:
        chunks = [reader.read_chunk(info.index)
                  for info in reader.chunk_index]
    batches = [c.batch for c in chunks if len(c.batch)]
    records = [r for b in batches for r in b.to_records()]
    think = None
    if batches and all(b.think_us is not None for b in batches):
        think = np.concatenate([b.think_us for b in batches])
    sessions = [rec for c in chunks for _, rec in c.sessions]
    return records, think, sessions


class TestPropertyRoundTrip:
    """Leg one: arbitrary event streams survive the disk byte-exactly."""

    @given(events=event_streams(), rows_per_chunk=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identical(self, tmp_path_factory, events,
                                  rows_per_chunk):
        path = str(tmp_path_factory.mktemp("rt") / "a.opstream")
        write_events(path, events, rows_per_chunk)
        want_records, want_think, want_sessions = flatten_events(events)
        got_records, got_think, got_sessions = read_back(path)
        assert got_records == want_records
        assert got_sessions == want_sessions
        if want_think is None:
            assert got_think is None
        else:
            assert got_think is not None
            assert np.array_equal(got_think, want_think)

    @given(events=event_streams())
    @settings(max_examples=25, deadline=None)
    def test_chunk_size_never_changes_content(self, tmp_path_factory,
                                              events):
        tmp = tmp_path_factory.mktemp("cs")
        views = []
        for rows_per_chunk in (1, 3, 1000):
            path = str(tmp / f"c{rows_per_chunk}.opstream")
            write_events(path, events, rows_per_chunk)
            views.append(read_back(path))
        for records, think, sessions in views[1:]:
            assert records == views[0][0]
            assert sessions == views[0][2]
            if views[0][1] is None:
                assert think is None
            else:
                assert np.array_equal(think, views[0][1])

    @given(events=event_streams(), rows_per_chunk=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_footer_counts_match(self, tmp_path_factory, events,
                                 rows_per_chunk):
        path = str(tmp_path_factory.mktemp("fc") / "a.opstream")
        write_events(path, events, rows_per_chunk)
        records, _, sessions = flatten_events(events)
        with StreamReader(path) as reader:
            assert reader.total_rows == len(records)
            assert reader.total_sessions == len(sessions)
            assert sum(c.rows for c in reader.chunk_index) == len(records)


def small_artifact(path, rows_per_chunk=3):
    """A fixed multi-chunk artifact with sessions for corruption tests."""
    records = [
        OpRecord(u, "heavy", s, op, f"/u{u}/f{i}", "user:rdonly",
                 64 * i, float(i), 1.5)
        for i, (u, s, op) in enumerate(
            (u, s, op)
            for u in (0, 1)
            for s in (0, 1)
            for op in ("open", "read", "write", "close")
        )
    ]
    sessions = [
        SessionRecord(u, "heavy", s, 0.0, 9.0, 2, 128, 256, ("user:rdonly",))
        for u in (0, 1) for s in (0, 1)
    ]
    with sink_at(path, rows_per_chunk) as sink:
        for u in (0, 1):
            for s in (0, 1):
                batch = OpBatch.from_records(
                    [r for r in records if r.user_id == u
                     and r.session_id == s])
                sink.record_batch(batch)
                sink.record_session(sessions[2 * u + s])
    return records, sessions


def consume_fully(path):
    """Open and decode everything (corrupt files must raise here)."""
    with StreamReader(path) as reader:
        sink = ShardAccumulator()
        reader.replay(sink)
        return sink.tally


class TestCorruptionIsLoud:
    """Leg two: damaged files raise StreamFormatError, never bad data."""

    def test_truncation_at_every_length(self, tmp_path):
        cut = tmp_path / "cut.opstream"
        small_artifact(str(cut))
        size = cut.stat().st_size
        fd = os.open(str(cut), os.O_WRONLY)
        try:
            # Every proper prefix must be rejected: shave the file down
            # in place (step keeps it fast but still crosses every
            # frame boundary).
            for n in range(size - 1, -1, -7):
                os.ftruncate(fd, n)
                with pytest.raises(StreamFormatError):
                    consume_fully(str(cut))
        finally:
            os.close(fd)

    def test_single_bit_flip_at_every_byte(self, tmp_path):
        flipped = tmp_path / "flip.opstream"
        # One full chunk plus a short tail chunk keeps the sweep fast
        # while still crossing every structural region (magic, version,
        # header, both frame kinds, footer, tail).
        small_artifact(str(flipped), rows_per_chunk=12)
        blob = flipped.read_bytes()
        fd = os.open(str(flipped), os.O_WRONLY)
        try:
            for n in range(len(blob)):
                # Alternate low/high bit: every byte is hit, both ends.
                bit = 0x01 if n % 2 == 0 else 0x80
                os.pwrite(fd, bytes([blob[n] ^ bit]), n)
                with pytest.raises(StreamFormatError):
                    consume_fully(str(flipped))
                os.pwrite(fd, blob[n:n + 1], n)
        finally:
            os.close(fd)

    def test_unclosed_writer_is_rejected(self, tmp_path):
        path = str(tmp_path / "open.opstream")
        sink = sink_at(path, 4)
        sink.record_batch(OpBatch.from_records(
            [OpRecord(0, "t", 0, "open", "/f", "", 0, 0.0, 1.0)]))
        sink._stream.flush()
        with pytest.raises(StreamFormatError, match="tail|footer"):
            StreamReader(path)
        sink.close()
        consume_fully(path)

    def test_missing_file_and_non_stream_file(self, tmp_path):
        with pytest.raises(StreamFormatError, match="cannot open"):
            StreamReader(str(tmp_path / "nope.opstream"))
        other = tmp_path / "other.bin"
        other.write_bytes(b"this is not an op stream, not even close....")
        with pytest.raises(StreamFormatError, match="magic"):
            StreamReader(str(other))


def chunk_payloads(path):
    """Every chunk frame's CRC-checked payload, in file order."""
    with StreamReader(path) as reader:
        return [reader._read_frame(info.offset, "chunk")[1]
                for info in reader.chunk_index]


def reference_blocks(payload):
    """The pre-rewrite decoder: per-field cursor takes and ``np.load``.

    Returns ``(tables, columns, sessions)`` with plain lists for the
    tables and each column as stored, so the comparison needs nothing
    from the code under test.
    """
    cursor = io.BytesIO(payload)

    def unpack(fmt):
        return struct.unpack(fmt, cursor.read(struct.calcsize(fmt)))

    n, has_think = unpack("<QB")
    tables = []
    for _ in range(3):
        (count,) = unpack("<L")
        tables.append([cursor.read(unpack("<L")[0]).decode("utf-8")
                       for _ in range(count)])
    columns = {}
    for name, _ in _COLUMNS + ((_THINK_COLUMN,) if has_think else ()):
        (nbytes,) = unpack("<Q")
        columns[name] = np.load(io.BytesIO(cursor.read(nbytes)),
                                allow_pickle=False)
        assert columns[name].shape == (n,)
    sessions = []
    for _ in range(unpack("<L")[0]):
        position, nbytes = unpack("<QL")
        sessions.append((position, SessionRecord.from_line(
            cursor.read(nbytes).decode("utf-8"))))
    assert cursor.read() == b""
    return tables, columns, sessions


SCHEMA = dict((*_COLUMNS, _THINK_COLUMN))


def reference_decode(payload):
    """:func:`reference_blocks` with every column widened to its schema
    dtype, after checking the width rule: an integer column is a signed
    little-endian block no wider than its schema dtype, a float column
    exactly its schema dtype."""
    tables, columns, sessions = reference_blocks(payload)
    for name, stored in columns.items():
        schema = np.dtype(SCHEMA[name])
        if schema.kind == "i":
            assert stored.dtype.kind == "i", (name, stored.dtype)
            assert stored.dtype.byteorder in "<=|", (name, stored.dtype)
            assert stored.dtype.itemsize <= schema.itemsize, name
        else:
            assert stored.dtype.str == schema.newbyteorder("<").str, name
        columns[name] = stored.astype(schema)
    return tables, columns, sessions


class TestDecoderMatchesReference:
    """The one-pass decoder is the old decoder, only faster."""

    @given(events=event_streams(), rows_per_chunk=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_every_chunk_decodes_like_the_reference(
            self, tmp_path_factory, events, rows_per_chunk):
        path = str(tmp_path_factory.mktemp("ref") / "a.opstream")
        write_events(path, events, rows_per_chunk)
        for payload in chunk_payloads(path):
            tables, columns, sessions = reference_decode(payload)
            batch, frames = _decode_chunk(payload, "chunk")
            assert [batch.paths.values(), batch.categories.values(),
                    batch.user_types.values()] == tables
            assert (batch.think_us is None) == ("think_us" not in columns)
            for name, want in columns.items():
                got = getattr(batch, name)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert _parse_sessions(frames, "chunk") == sessions

    def test_sessions_only_artifact_has_an_empty_chunk(self, tmp_path):
        path = str(tmp_path / "empty.opstream")
        _, sessions = small_artifact(str(tmp_path / "unused.opstream"))
        write_events(path, sessions, rows_per_chunk=3)
        (payload,) = chunk_payloads(path)
        batch, frames = _decode_chunk(payload, "chunk")
        parsed = _parse_sessions(frames, "chunk")
        assert len(batch) == 0
        assert [record for _, record in parsed] == sessions
        assert parsed == reference_decode(payload)[2]

    def test_decoded_columns_own_writable_memory(self, tmp_path):
        # Views of the payload would pin every chunk a consumer keeps
        # one column of, and np.load's arrays were writable.
        path = str(tmp_path / "own.opstream")
        records, _ = small_artifact(str(tmp_path / "unused.opstream"))
        batch = OpBatch.from_records(records)
        batch.think_us = np.arange(len(batch), dtype=np.int64)
        write_events(path, [batch], rows_per_chunk=5)
        for batch in iter_batches(path):
            for name, _ in (*_COLUMNS, _THINK_COLUMN):
                column = getattr(batch, name)
                assert column.flags.owndata and column.flags.writeable, name


def _reference_remap(idx, source, target):
    """Re-intern ``idx`` (indices into ``source``) into ``target``."""
    used = np.unique(idx[idx >= 0])
    if used.size == 0:
        return idx.astype(np.int32, copy=True)
    values = source.values()
    lut = np.full(int(used[-1]) + 1, -1, dtype=np.int32)
    lut[used] = target.intern_many([values[i] for i in used.tolist()])
    out = lut[np.maximum(idx, 0)]
    out[idx < 0] = -1
    return out


def reference_concat(batches):
    """The writer's former concatenation: one batch, tables re-interned
    per run of same-table slices, ``think_us`` kept only when every
    non-empty input carries it, a well-typed empty batch for none."""
    batches = [b for b in batches if len(b)]
    if not batches:
        return OpBatch.empty(0)
    if len(batches) == 1:
        return batches[0]
    out = OpBatch.empty(sum(len(b) for b in batches))
    for column in ("kinds", "plan_ids", "sizes", "flags", "user_ids",
                   "session_ids", "start_us", "response_us",
                   *(idx for idx, _ in _STRING_COLUMNS)):
        np.concatenate([getattr(b, column) for b in batches],
                       out=getattr(out, column))
    if all(b.think_us is not None for b in batches):
        out.think_us = np.concatenate([b.think_us for b in batches],
                                      dtype=np.int64)
    pos = run_start = 0
    for b, following in zip(batches, batches[1:] + [None]):
        pos += len(b)
        if following is not None and all(
                getattr(following, table) is getattr(b, table)
                for _, table in _STRING_COLUMNS):
            continue
        for column, table in _STRING_COLUMNS:
            run = getattr(out, column)[run_start:pos]
            run[:] = _reference_remap(run, getattr(b, table),
                                      getattr(out, table))
        run_start = pos
    return out


def _reference_compact(idx, table):
    """``(new_idx, values)``: the strings ``idx`` uses, first use first."""
    used = idx[idx >= 0]
    if used.size == 0:
        return idx.astype(np.int32, copy=False), []
    uniq, first = np.unique(used, return_index=True)
    ordered = uniq[np.argsort(first, kind="stable")]
    lut = np.full(int(uniq[-1]) + 1, -1, dtype=np.int32)
    lut[ordered] = np.arange(len(ordered), dtype=np.int32)
    new_idx = lut[np.maximum(idx, 0)]
    new_idx[idx < 0] = -1
    values = table.values()
    return new_idx, [values[int(i)] for i in ordered]


def reference_width(column, schema):
    """The file dtype of ``column``: for an integer column of a
    non-empty chunk, the first of int8/16/32/64 (no wider than
    ``schema``) that round-trips every value; else ``schema`` itself."""
    schema = np.dtype(schema)
    if schema.kind == "i" and len(column):
        for itemsize in (1, 2, 4):
            width = np.dtype(f"<i{itemsize}")
            if itemsize < schema.itemsize and np.array_equal(
                    column.astype(width).astype(schema), column):
                return width
    return schema


def reference_payload(tables, columns, sessions, narrow=True):
    """A chunk payload from its parts: ``np.save`` into a ``BytesIO``
    per column, every block copied into one payload ``BytesIO``.
    ``narrow=False`` writes every column at its schema width (format
    version 1).  Shares no code with the encoder under test."""
    def write_array(out, array):
        block = io.BytesIO()
        np.save(block, array, allow_pickle=False)
        raw = block.getvalue()
        out.write(struct.pack("<Q", len(raw)))
        out.write(raw)

    out = io.BytesIO()
    n = len(columns["kinds"])
    out.write(struct.pack("<QB", n, int("think_us" in columns)))
    for values in tables:
        out.write(struct.pack("<L", len(values)))
        for value in values:
            raw = value.encode("utf-8")
            out.write(struct.pack("<L", len(raw)))
            out.write(raw)
    for name, schema in _COLUMNS + (_THINK_COLUMN,):
        if name in columns:
            column = np.ascontiguousarray(columns[name], dtype=schema)
            width = reference_width(column, schema) if narrow else schema
            write_array(out, column.astype(width))
    out.write(struct.pack("<L", len(sessions)))
    for position, record in sessions:
        raw = record.to_line().encode("utf-8")
        out.write(struct.pack("<QL", position, len(raw)))
        out.write(raw)
    return out.getvalue()


def reference_encode(batch, sessions, narrow=True):
    """The concatenating encoder of one batch: its string columns
    compacted, then :func:`reference_payload`."""
    columns = {name: getattr(batch, name) for name, _ in _COLUMNS}
    if batch.think_us is not None:
        columns["think_us"] = batch.think_us
    tables = []
    for idx_name, table_name in _STRING_COLUMNS:
        columns[idx_name], values = _reference_compact(
            getattr(batch, idx_name), getattr(batch, table_name))
        tables.append(values)
    return reference_payload(tables, columns, sessions, narrow)


def as_version_1(src, dst):
    """Write ``dst`` as the format-1 file of ``src``'s rows: a version-1
    header, every chunk salvaged from ``src`` re-encoded at schema
    width by the reference encoder, and a re-indexed footer if ``src``
    has one (a crashed prefix stays footer-less)."""
    def framed(kind, raw):
        return struct.pack(_FRAME_FMT, kind, len(raw), zlib.crc32(raw)) + raw

    def compact_json(value):
        return json.dumps(value, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    out = io.BytesIO()
    with salvage_stream(src) as reader:
        header = compact_json(dict(reader.header, version=1))
        out.write(MAGIC + struct.pack("<HLL", 1, len(header),
                                      zlib.crc32(header)) + header)
        entries = []
        for info in reader.chunk_index:
            payload = reader._read_frame(info.offset, "chunk")[1]
            entries.append(dict(info.entry(), offset=out.tell()))
            out.write(framed(b"C", reference_payload(
                *reference_decode(payload), narrow=False)))
        if reader.complete:
            offset = out.tell()
            out.write(framed(b"F", compact_json({
                "chunks": entries, "rows": reader.total_rows,
                "sessions": reader.total_sessions})))
            out.write(struct.pack(_TAIL_FMT, offset) + MAGIC)
    with open(dst, "wb") as stream:
        stream.write(out.getvalue())
    return dst


def encoded_buffers(pieces, sessions):
    """The encoder's payload buffers for ``pieces``, in file order, after
    checking each is ``bytes`` or a C-contiguous 1-D column array."""
    buffers = list(_buffers(_encode_chunk(pieces, sessions)))
    for buffer in buffers:
        if isinstance(buffer, bytes):
            continue
        assert isinstance(buffer, np.ndarray), type(buffer)
        assert buffer.ndim == 1 and buffer.flags.c_contiguous
    return buffers


def encoded(pieces, sessions):
    """The payload the encoder writes for ``pieces``."""
    return b"".join(encoded_buffers(pieces, sessions))


@st.composite
def chunk_pieces(draw):
    """What the writer hands the encoder: slices of shared parents (so
    runs of pieces share table objects) in any order (so others do not),
    some empty or strided, with and without think columns."""
    pieces = []
    for parent in draw(st.lists(op_batches(max_rows=10), max_size=3)):
        cuts = sorted(draw(st.lists(st.integers(0, len(parent)),
                                    max_size=3)))
        bounds = [0, *cuts, len(parent)]
        step = draw(st.sampled_from([1, 1, 2, 3]))
        pieces += [parent.select(slice(a, b, step))
                   for a, b in zip(bounds, bounds[1:])]
    return draw(st.permutations(pieces))


def big_batch(n, seed=5):
    """``n`` rows of realistic width: 400 paths, one category and type."""
    rng = np.random.default_rng(seed)
    batch = OpBatch.empty(n)
    batch.kinds[:] = rng.integers(0, len(RECORD_KINDS), n)
    for name in ("plan_ids", "sizes", "user_ids", "session_ids"):
        getattr(batch, name)[:] = rng.integers(0, 2**40, n)
    batch.flags[:] = 0
    batch.think_us = rng.integers(0, 10**6, n)
    batch.path_idx[:] = batch.paths.intern_many(
        [f"/home/u{i % 400}/file{i % 400}" for i in range(n)])
    batch.category_idx[:] = batch.categories.intern("REG:USER:RDONLY")
    batch.user_type_idx[:] = batch.user_types.intern("heavy")
    return batch


class TestEncoderMatchesReference:
    """The pieces encoder writes the concatenating encoder's bytes,
    without the concatenation."""

    @given(pieces=chunk_pieces(),
           sessions=st.lists(session_records, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_parts_join_to_the_reference_bytes(self, pieces, sessions):
        # The pieces encode as their concatenation would have; strided
        # pieces (step > 1) are made contiguous before being referenced.
        framed = list(enumerate(sessions))
        assert encoded(pieces, framed) == reference_encode(
            reference_concat(pieces), framed)

    @given(events=event_streams(), rows_per_chunk=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_written_chunks_are_the_reference_bytes(
            self, tmp_path_factory, events, rows_per_chunk):
        # Through _take_rows / _flush_chunk: what lands in each frame
        # (CRC-checked by the reader) is the reference's payload for the
        # rows and sessions the writer cut.
        path = str(tmp_path_factory.mktemp("enc") / "a.opstream")
        want = []

        def recording(pieces, sessions):
            want.append(reference_encode(reference_concat(pieces), sessions))
            return _encode_chunk(pieces, sessions)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(streamfile, "_encode_chunk", recording)
            write_events(path, events, rows_per_chunk)
        assert chunk_payloads(path) == want

    def test_sessions_only_chunk(self):
        # An empty chunk's columns stay at schema width.
        sessions = [(0, SessionRecord(1, "héavy", 0, 0.0, 9.0, 2, 128, 256,
                                      ("user:rdonly",)))]
        empty = reference_encode(OpBatch.empty(0), sessions)
        assert empty == reference_encode(OpBatch.empty(0), sessions,
                                         narrow=False)
        for think in (None, np.empty(0, dtype=np.int64)):
            batch = OpBatch.empty(0)
            batch.think_us = think
            for pieces in ([], [batch], [batch, batch]):
                assert encoded(pieces, sessions) == empty

    def test_int64_extremes_and_non_ascii_paths(self):
        records = [
            OpRecord(INT64_MAX, "日本", INT64_MAX, op, f"/ü/🐍\t{i}", "ß:é",
                     size, -1e308, 1e308)
            for i, (op, size) in enumerate(
                zip(RECORD_KINDS, (INT64_MIN, INT64_MAX, 0, -1) * 3))
        ]
        batch = OpBatch.from_records(records)
        batch.think_us = np.array(
            [(INT64_MIN, INT64_MAX)[i % 2] for i in range(len(batch))],
            dtype=np.int64)
        other = OpBatch.from_records(records[::-1])  # same strings, own tables
        other.think_us = batch.think_us[::-1].copy()
        pieces = [batch.select(slice(0, 5)), other, batch.select(slice(5, None))]
        assert encoded(pieces, []) == reference_encode(
            reference_concat(pieces), [])

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_every_width_edge_round_trips(self, bits):
        # Each integer column holds the edges of a ``bits``-wide int, or
        # one past them: stored at exactly the width that holds them,
        # decoded back to the schema dtype unchanged, -1 indices kept.
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        cases = [([lo, hi, 0], bits)]
        if bits < 64:
            cases += [([lo - 1, 0], 2 * bits), ([0, hi + 1], 2 * bits)]
        for values, want_bits in cases:
            batch = OpBatch.empty(len(values))
            batch.kinds[:] = 0
            batch.flags[:] = np.clip(values, -(1 << 15), (1 << 15) - 1)
            for name in ("plan_ids", "sizes", "user_ids", "session_ids"):
                getattr(batch, name)[:] = values
            batch.think_us = np.array(values, dtype=np.int64)
            batch.start_us[:] = batch.response_us[:] = 1.5
            for column, _ in _STRING_COLUMNS:
                getattr(batch, column)[:] = -1
            payload = encoded([batch], [])
            assert payload == reference_encode(batch, [])
            stored = reference_blocks(payload)[1]
            for name in ("plan_ids", "sizes", "user_ids", "session_ids",
                         "think_us"):
                assert stored[name].dtype == np.dtype(f"<i{want_bits // 8}")
            assert stored["flags"].dtype.itemsize == min(want_bits, 16) // 8
            assert stored["path_idx"].dtype == np.int8
            decoded, _ = _decode_chunk(payload, "c")
            for name, dtype in (*_COLUMNS, _THINK_COLUMN):
                got, want = getattr(decoded, name), getattr(batch, name)
                assert got.dtype == np.dtype(dtype), name
                assert np.array_equal(got, want), name

    def test_a_string_two_tables_share_is_one_entry(self):
        # Distinct table objects holding the same strings: the chunk's
        # table lists each string once, in first-use order.
        a = OpBatch.from_records([OpRecord(1, "t", 0, "read", "/x", "c",
                                           8, 0.0, 1.0)])
        b = OpBatch.from_records([OpRecord(1, "t", 0, "read", p, "c",
                                           8, 1.0, 1.0) for p in ("/y", "/x")])
        assert a.paths is not b.paths
        batch, _ = _decode_chunk(encoded([a, b], []), "c")
        assert batch.paths.values() == ["/x", "/y"]
        assert batch.path_idx.tolist() == [0, 1, 0]
        assert batch.user_types.values() == ["t"]

    def test_unused_string_column_aliases_the_batch(self, tmp_path):
        # Every index -1: the chunk keeps the pieces' own columns, so the
        # part is the caller's array, cast only as it is written — the
        # reason nothing may touch the rows between _encode_chunk and
        # the write.  A float column, and an integer one left at schema
        # width, is written as the caller's array itself.
        records, _ = small_artifact(str(tmp_path / "unused.opstream"))
        batch = OpBatch.from_records(records)
        batch.path_idx[:] = -1
        batch.plan_ids[0] = INT64_MAX
        parts = _encode_chunk([batch], [])
        columns = [p for p in parts if isinstance(p, tuple)]
        names = [name for name, _ in _COLUMNS]
        width, (path_part,) = columns[names.index("path_idx")]
        assert width == np.int8 and path_part is batch.path_idx
        buffers = encoded_buffers([batch], [])
        assert b"".join(buffers) == reference_encode(batch, [])
        arrays = [b for b in buffers if isinstance(b, np.ndarray)]
        for name in ("kinds", "plan_ids", "start_us", "response_us"):
            assert arrays[names.index(name)] is getattr(batch, name), name

    def test_a_column_of_many_pieces_references_each_piece(self):
        batch = big_batch(600)
        pieces = [batch.select(slice(i, i + 60)) for i in range(0, 600, 60)]
        buffers = encoded_buffers(pieces, [])
        assert b"".join(buffers) == reference_encode(batch, [])
        # sizes (up to 2**40) stays int64, start_us is float: each piece
        # is written as a view of the parent, never a joined copy.
        for name in ("sizes", "start_us"):
            views = [b for b in buffers if isinstance(b, np.ndarray)
                     and len(b) == 60 and b.dtype == getattr(batch, name).dtype
                     and np.shares_memory(b, getattr(batch, name))]
            assert len(views) == 10, name
        # Only the three compacted string columns span the chunk.
        assert sum(isinstance(b, np.ndarray) and len(b) == 600
                   for b in buffers) == len(_STRING_COLUMNS)

    def test_preamble_memo_is_bounded(self):
        for n in range(3 * streamfile._NPY_HEADERS_MAX):
            batch = OpBatch.empty(n)
            batch.kinds[:] = 0
            for column, _ in _STRING_COLUMNS:
                getattr(batch, column)[:] = -1
            _encode_chunk([batch], [])
            assert (len(streamfile._NPY_PREAMBLES)
                    <= streamfile._NPY_HEADERS_MAX)

    @pytest.mark.parametrize("piece_rows", [20_000, 60])
    def test_flush_allocates_under_half_the_payload(self, tmp_path,
                                                    piece_rows):
        # The BytesIO encoder copied every column three times and peaked
        # at ~1.4 x the schema-width payload here; the concatenating
        # writer still copied every row of a many-piece chunk once
        # (~1.4 x).  What is left is the three compacted int32 index
        # columns and compaction's first-row scatter, plus, over many
        # pieces, one joined column at a time (a width's min/max) and
        # one piece's narrowed cast at a time (CRC pass, then write).
        n = 20_000
        batch = big_batch(n)
        with sink_at(str(tmp_path / "a.opstream"), n) as sink:
            for i in range(0, n, piece_rows):
                sink.record_batch(batch.select(slice(i, i + piece_rows)))
            assert sink.chunks_written == 0  # one chunk, not yet flushed
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                sink._flush_chunk(n)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert sink.chunks_written == 1
        (payload,) = chunk_payloads(str(tmp_path / "a.opstream"))
        assert payload == reference_encode(batch, [])
        assert peak < 0.5 * n * ROW_BYTES, (peak, n * ROW_BYTES)


def npy_block(array, version=(1, 0)):
    out = io.BytesIO()
    np.lib.format.write_array(out, array, version=version)
    return out.getvalue()


def npy_block_with_header(header, data):
    """An npy 1.0 block around ``header`` (a dict, or raw header text)."""
    if isinstance(header, bytes):
        return (np.lib.format.magic(1, 0) + struct.pack("<H", len(header))
                + header + data)
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, header)
    return out.getvalue() + data


def payload_with(n=2, **blocks):
    """A chunk payload of ``n`` rows with some columns' blocks replaced."""
    out = io.BytesIO()
    out.write(struct.pack("<QB", n, 0))
    out.write(struct.pack("<L", 0) * 3)  # three empty string tables
    for name, dtype in _COLUMNS:
        block = blocks.get(name)
        if block is None:  # kind 0 (open), every string index "none"
            block = npy_block(np.full(n, -(name != "kinds"), dtype=dtype))
        out.write(struct.pack("<Q", len(block)))
        out.write(block)
    out.write(struct.pack("<L", 0))  # no sessions
    return out.getvalue()


GOOD_SIZES = npy_block(np.array([5, 6], dtype=np.int64))
HOSTILE_BLOCKS = {
    "object dtype": npy_block_with_header(
        {"descr": "|O", "fortran_order": False, "shape": (2,)}, b"\0" * 16),
    "fortran order": npy_block_with_header(
        {"descr": "<i8", "fortran_order": True, "shape": (2,)}, b"\0" * 16),
    "unsigned dtype": npy_block(np.array([5, 6], dtype="<u2")),
    "big-endian narrower dtype": npy_block(np.array([5, 6], dtype=">i2")),
    "float dtype": npy_block(np.array([5, 6], dtype="<f8")),
    "big-endian dtype": npy_block(np.array([5, 6], dtype=">i8")),
    "too many rows": npy_block(np.array([5, 6, 7], dtype=np.int64)),
    "two axes": npy_block(np.array([[5], [6]], dtype=np.int64)),
    "data one byte short": GOOD_SIZES[:-1],
    "data one byte long": GOOD_SIZES + b"\0",
    "v2 header": npy_block(np.array([5, 6], dtype=np.int64), (2, 0)),
    "v3 header": npy_block(np.array([5, 6], dtype=np.int64), (3, 0)),
    "header length past the block": (
        GOOD_SIZES[:8] + struct.pack("<H", 0xFFFF) + GOOD_SIZES[10:]),
    "bad magic": b"\x93NUMPX" + GOOD_SIZES[6:],
    "header is not a dict": npy_block_with_header(b"7\n", b"\0" * 16),
    "header is not a literal": npy_block_with_header(
        b"__import__('os')\n", b"\0" * 16),
    "empty block": b"",
}


# Blocks outside the width rule in columns other than ``sizes``: wider
# than the schema dtype, an integer width for a float column, a bool.
HOSTILE_WIDTHS = {
    "kinds as <i2": ("kinds", np.zeros(2, dtype="<i2")),
    "flags as <i4": ("flags", np.zeros(2, dtype="<i4")),
    "start_us as <i8": ("start_us", np.zeros(2, dtype="<i8")),
    "flags as bool": ("flags", np.zeros(2, dtype=bool)),
}


class TestHostileNpyBlocks:
    """CRC-valid payloads carrying npy blocks the writer never emits."""

    def test_the_untouched_payload_decodes(self):
        batch, frames = _decode_chunk(payload_with(sizes=GOOD_SIZES), "c")
        assert batch.sizes.tolist() == [5, 6] and frames == []

    @pytest.mark.parametrize("width", ["<i1", "<i2", "<i4"])
    def test_a_narrower_signed_width_decodes_widened(self, width):
        block = npy_block(np.array([5, -6], dtype=width))
        batch, _ = _decode_chunk(payload_with(sizes=block), "c")
        assert batch.sizes.dtype == np.int64
        assert batch.sizes.tolist() == [5, -6]

    @pytest.mark.parametrize("why", sorted(HOSTILE_WIDTHS))
    def test_a_width_outside_the_rule_is_rejected(self, why):
        column, array = HOSTILE_WIDTHS[why]
        payload = payload_with(**{column: npy_block(array)})
        with pytest.raises(StreamFormatError, match=column):
            _decode_chunk(payload, "c")

    @pytest.mark.parametrize("why", sorted(HOSTILE_BLOCKS))
    def test_block_is_rejected_with_the_typed_error(self, why):
        with pytest.raises(StreamFormatError, match="sizes|truncated"):
            _decode_chunk(payload_with(sizes=HOSTILE_BLOCKS[why]), "c")
        assert not any(dtype.hasobject
                       for dtype, _ in streamfile._NPY_HEADERS.values())

    def test_length_field_past_the_payload(self):
        payload = payload_with(sizes=GOOD_SIZES)
        at = payload.index(GOOD_SIZES) - 8
        for nbytes in (len(payload), 2**63, 2**64 - 1):
            bad = payload[:at] + struct.pack("<Q", nbytes) + payload[at + 8:]
            with pytest.raises(StreamFormatError, match="truncated"):
                _decode_chunk(bad, "c")

    def test_header_memo_is_bounded(self):
        for n in range(3 * streamfile._NPY_HEADERS_MAX):
            _decode_chunk(payload_with(n=n), "c")
            assert len(streamfile._NPY_HEADERS) <= streamfile._NPY_HEADERS_MAX


def rewrite_chunk(path, index, mutate):
    """Replace chunk ``index``'s payload with ``mutate(payload)``, re-CRC'd.

    The new payload must keep its length (the footer's offsets stand).
    """
    with StreamReader(path) as reader:
        offset = reader.chunk_index[index].offset
        _, payload = reader._read_frame(offset, "chunk")
    mutated = mutate(payload)
    assert len(mutated) == len(payload) and mutated != payload
    with open(path, "r+b") as stream:
        stream.seek(offset)
        stream.write(struct.pack(_FRAME_FMT, b"C", len(mutated),
                                 zlib.crc32(mutated)))
        stream.write(mutated)


class TestLazySessions:
    """Session lines are framed at decode time, parsed on first read."""

    @pytest.fixture()
    def corrupt_line(self, tmp_path):
        path = str(tmp_path / "line.opstream")
        records, _ = small_artifact(path, rows_per_chunk=12)
        rewrite_chunk(path, 0, lambda payload: payload.replace(
            b"SESSION\t0\theavy\t1", b"SESSION\tx\theavy\t1"))
        return path, records

    def test_row_readers_never_parse_the_line(self, corrupt_line):
        path, records = corrupt_line
        got = [r for batch in iter_batches(path) for r in batch.to_records()]
        assert got == records
        sliced = [r for batch in iter_batches(path, users=1)
                  for r in batch.to_records()]
        assert sliced == [r for r in records if r.user_id == 1]

    def test_session_readers_get_the_typed_error(self, corrupt_line):
        path, _ = corrupt_line
        with StreamReader(path) as reader:
            chunk = reader.read_chunk(0)
            with pytest.raises(StreamFormatError, match="session record"):
                chunk.sessions
            with pytest.raises(StreamFormatError, match="session record"):
                reader.replay(UsageLog())
        with pytest.raises(StreamFormatError, match="session record"):
            merge_stream_files(path + ".merged", [path])
        assert not os.path.exists(path + ".merged")

    def test_verify_reports_it(self, corrupt_line):
        path, _ = corrupt_line
        report = verify_stream(path)
        assert not report.ok and report.complete
        assert report.chunks_ok == report.chunks - 1
        assert any("session record" in e for e in report.errors)

    def test_parsed_once_and_kept(self, tmp_path):
        path = str(tmp_path / "ok.opstream")
        _, sessions = small_artifact(path, rows_per_chunk=12)
        with StreamReader(path) as reader:
            chunk = reader.read_chunk(0)
        assert chunk.sessions is chunk.sessions
        assert [r for _, r in chunk.sessions] == sessions[:len(chunk.sessions)]


class TestSinkBudget:
    """StreamFileSink never buffers more than its memory budget."""

    def test_rows_per_chunk_matches_budget(self):
        assert rows_per_chunk_for(ROW_BYTES * 10) == 10
        assert rows_per_chunk_for(1) == 1  # floor, never zero
        assert rows_per_chunk_for(ROW_BYTES - 1) == 1

    def test_buffer_never_exceeds_budget(self, tmp_path):
        path = str(tmp_path / "budget.opstream")
        budget = ROW_BYTES * 8
        flushes = []
        with StreamFileSink(path, memory_budget_bytes=budget) as sink:
            assert sink.rows_per_chunk == 8
            inner = sink._flush_chunk

            def counting_flush(take):
                flushes.append(take)
                inner(take)

            sink._flush_chunk = counting_flush
            records, _ = small_artifact(str(tmp_path / "src.opstream"))
            for i in range(0, len(records), 3):
                sink.record_batch(OpBatch.from_records(records[i:i + 3]))
                # The budget bound: a full chunk awaiting its flush
                # trigger (the incoming batch's overflow is flushed
                # before record_batch returns).
                assert sink._buffered <= sink.rows_per_chunk
        # Every non-final flush is exactly one full chunk.
        assert all(take == 8 for take in flushes[:-1])
        assert sum(flushes) == len(records)

    def test_tiny_budget_one_row_chunks(self, tmp_path):
        src = str(tmp_path / "src.opstream")
        records, sessions = small_artifact(src)
        path = str(tmp_path / "tiny.opstream")
        with StreamFileSink(path, memory_budget_bytes=1) as sink:
            sink.record_batch(OpBatch.from_records(records))
            for record in sessions:
                sink.record_session(record)
        with StreamReader(path) as reader:
            assert reader.rows_per_chunk == 1
            assert reader.total_rows == len(records)
            got = [r for b in reader.iter_batches() for r in b.to_records()]
        assert got == records


class TestDeterminism:
    """Leg three: replay and merge reproduce artifacts byte for byte."""

    def run_spec(self, path, budget, user_ids=None):
        spec = paper_workload_spec(n_users=4, total_files=150, seed=23)
        with StreamFileSink(str(path), memory_budget_bytes=budget) as sink:
            WorkloadGenerator(spec).run_simulated(
                sessions_per_user=2, backend="fast-columnar", log=sink,
                user_ids=user_ids,
            )
        return path.read_bytes()

    @pytest.mark.parametrize("budget", [ROW_BYTES * 100, 1 << 20])
    def test_replay_reproduces_file(self, tmp_path, budget):
        original = self.run_spec(tmp_path / "a.opstream", budget)
        copy = tmp_path / "b.opstream"
        with StreamReader(str(tmp_path / "a.opstream")) as reader:
            with StreamFileSink(str(copy), memory_budget_bytes=budget) as s:
                reader.replay(s)
        assert copy.read_bytes() == original

    def test_replay_matches_in_ram_log(self, tmp_path):
        path = str(tmp_path / "a.opstream")
        spec = paper_workload_spec(n_users=3, total_files=150, seed=29)
        direct = UsageLog()
        with StreamFileSink(path, memory_budget_bytes=ROW_BYTES * 64) as s:
            WorkloadGenerator(spec).run_simulated(
                sessions_per_user=2, backend="fast-columnar",
                log=TeeSink(direct, s),
            )
        replayed = UsageLog()
        with StreamReader(path) as reader:
            reader.replay(replayed)
        assert replayed.operations == direct.operations
        assert replayed.sessions == direct.sessions

    @pytest.mark.parametrize("shards", [2, 3])
    def test_merge_bit_identical_to_single_shard(self, tmp_path, shards):
        budget = ROW_BYTES * 100
        whole = self.run_spec(tmp_path / "whole.opstream", budget)
        paths = []
        for shard in range(shards):
            path = tmp_path / f"s{shard}.opstream"
            self.run_spec(path, budget,
                          user_ids=[u for u in range(4)
                                    if u % shards == shard])
            paths.append(str(path))
        merged = tmp_path / "merged.opstream"
        # Shard order must not matter: feed them reversed.
        merge_stream_files(str(merged), list(reversed(paths)))
        assert merged.read_bytes() == whole

    def test_merge_rejects_overlapping_users(self, tmp_path):
        budget = ROW_BYTES * 100
        a = tmp_path / "a.opstream"
        b = tmp_path / "b.opstream"
        self.run_spec(a, budget, user_ids=[0, 1])
        self.run_spec(b, budget, user_ids=[1, 2])
        out = str(tmp_path / "bad.opstream")
        with pytest.raises(StreamFormatError, match="disjoint"):
            merge_stream_files(out, [str(a), str(b)])
        assert not os.path.exists(out)  # no half-written artifact

    def test_merge_rejects_interleaved_users(self, tmp_path):
        # A DES-style artifact interleaves users on the shared clock;
        # the merge must refuse it loudly rather than mis-chunk.
        path = str(tmp_path / "des.opstream")
        with sink_at(path, 4) as sink:
            for user in (0, 1, 0):
                sink.record_batch(OpBatch.from_records([
                    OpRecord(user, "t", 0, "read", "/f", "", 8, 1.0, 1.0),
                ]))
        out = str(tmp_path / "bad.opstream")
        with pytest.raises(StreamFormatError, match="user-contiguous"):
            merge_stream_files(out, [path])
        assert not os.path.exists(out)

    def test_merge_rejects_mismatched_budgets(self, tmp_path):
        # Only when the output's chunking is inferred from the inputs.
        a = tmp_path / "a.opstream"
        b = tmp_path / "b.opstream"
        self.run_spec(a, ROW_BYTES * 100, user_ids=[0])
        self.run_spec(b, ROW_BYTES * 200, user_ids=[1])
        with pytest.raises(StreamFormatError, match="budget"):
            merge_stream_files(str(tmp_path / "bad.opstream"),
                               [str(a), str(b)])

    @pytest.mark.parametrize("budgets", [
        (ROW_BYTES * 50,) * 2, (ROW_BYTES * 7, ROW_BYTES * 100, 1 << 20),
        (1,) * 4])
    def test_merge_at_a_named_chunk_size_ignores_input_budgets(
            self, tmp_path, budgets):
        # The output is re-chunked by global row count, so the budgets
        # the shards were written at cannot change a byte of it.
        whole = self.run_spec(tmp_path / "whole.opstream", ROW_BYTES * 100)
        k = len(budgets)
        paths = []
        for shard, budget in enumerate(budgets):
            path = tmp_path / f"s{shard}.opstream"
            self.run_spec(path, budget,
                          user_ids=[u for u in range(4) if u % k == shard])
            paths.append(str(path))
        merged = tmp_path / "merged.opstream"
        merge_stream_files(str(merged), paths, rows_per_chunk=100)
        assert merged.read_bytes() == whole


class TestReaderSlicing:
    """The footer index slices by user and time without full scans."""

    @pytest.fixture()
    def artifact(self, tmp_path):
        path = str(tmp_path / "a.opstream")
        spec = paper_workload_spec(n_users=4, total_files=150, seed=31)
        with StreamFileSink(path, memory_budget_bytes=ROW_BYTES * 50) as s:
            WorkloadGenerator(spec).run_simulated(
                sessions_per_user=1, backend="fast-columnar", log=s)
        return path

    def test_user_filter_matches_mask(self, artifact):
        everything = reference_concat(list(iter_batches(artifact)))
        for users in ([0], [1, 3], [99]):
            got = sum(len(b) for b in iter_batches(artifact, users=users))
            want = int(np.isin(everything.user_ids,
                               np.array(users)).sum())
            assert got == want

    def test_time_window_matches_mask(self, artifact):
        everything = reference_concat(list(iter_batches(artifact)))
        hi = float(np.quantile(everything.start_us, 0.4))
        got = sum(len(b)
                  for b in iter_batches(artifact, time_range=(0.0, hi)))
        want = int(((everything.start_us >= 0.0)
                    & (everything.start_us < hi)).sum())
        assert 0 < got == want

    def test_index_skips_chunks(self, artifact):
        with StreamReader(artifact) as reader:
            assert len(reader.chunk_index) > 1
            last_user_chunks = [
                c.index for c in reader.chunk_index
                if c.rows and c.user_hi >= 3
            ]
            visited = []
            sliced = reader._slice  # every filtered chunk read
            reader._slice = lambda i, *a: (visited.append(i), sliced(i, *a))[1]
            assert sum(map(len, reader.iter_batches(users=[3]))) > 0
            assert visited == last_user_chunks
            assert len(visited) < len(reader.chunk_index)


class TestVersionOneFiles:
    """A format-1 file (every column at schema width) reads as the
    format-2 file of the same rows."""

    @pytest.fixture()
    def pair(self, tmp_path):
        path = str(tmp_path / "v2.opstream")
        spec = paper_workload_spec(n_users=4, total_files=150, seed=31)
        with StreamFileSink(path, memory_budget_bytes=ROW_BYTES * 50) as s:
            WorkloadGenerator(spec).run_simulated(
                sessions_per_user=2, backend="fast-columnar", log=s)
        return path, as_version_1(path, str(tmp_path / "v1.opstream"))

    def test_opens_verifies_and_decodes_the_same_chunks(self, pair):
        v2, v1 = pair
        assert os.path.getsize(v1) > os.path.getsize(v2)
        report = verify_stream(v1)
        assert report.ok and report.complete, report.errors
        with StreamReader(v1) as old, StreamReader(v2) as new:
            assert (old.version, new.version) == (1, 2)
            assert len(old.chunk_index) == len(new.chunk_index) > 1
            for info in new.chunk_index:
                a, b = old.read_chunk(info.index), new.read_chunk(info.index)
                assert a.sessions == b.sessions
                for name, dtype in (*_COLUMNS, _THINK_COLUMN):
                    got, want = getattr(a.batch, name), getattr(b.batch, name)
                    assert got.dtype == want.dtype == np.dtype(dtype)
                    assert np.array_equal(got, want), name
                for _, table in _STRING_COLUMNS:
                    assert (getattr(a.batch, table).values()
                            == getattr(b.batch, table).values())

    @pytest.mark.parametrize("where", [dict(users=[1, 3]),
                                       dict(time_range=(0.0, 5e6))])
    def test_slices_like_the_new_file(self, pair, where):
        v2, v1 = pair
        got = [r for b in iter_batches(v1, **where) for r in b.to_records()]
        want = [r for b in iter_batches(v2, **where) for r in b.to_records()]
        assert got == want and got

    def test_replays_into_a_fresh_write(self, pair, tmp_path):
        v2, v1 = pair
        copy = tmp_path / "replayed.opstream"
        with StreamReader(v1) as reader:
            with StreamFileSink(str(copy), ROW_BYTES * 50,
                                metadata=reader.metadata) as sink:
                reader.replay(sink)
        assert copy.read_bytes() == open(v2, "rb").read()


class TestConcatRuns:
    """Slices of one parent are compacted as one run, not one by one."""

    RECORDS = [
        OpRecord(user_id=i % 3, user_type=f"t{i % 2}", session_id=0,
                 op="read", path=f"/p{i % 5}", category_key=f"c{i % 4}",
                 size=i, start_us=float(i), response_us=1.0)
        for i in range(40)
    ]

    def pieces(self):
        """Two parents cut into slices: A A A | B | A A (table-wise)."""
        a = OpBatch.from_records(self.RECORDS[:30] + self.RECORDS[34:])
        b = OpBatch.from_records(self.RECORDS[30:34])
        return [a.select(slice(0, 7)), a.select(slice(7, 8)),
                a.select(slice(8, 30)), b,
                a.select(slice(30, 32)), a.select(slice(32, 36))]

    def test_rows_survive_whatever_tables_they_shared(self):
        payload = encoded(self.pieces(), [])
        assert _decode_chunk(payload, "c")[0].to_records() == self.RECORDS

    def test_one_compaction_per_run_of_same_table_pieces(self, monkeypatch):
        calls = []
        real = streamfile._compact_column
        monkeypatch.setattr(
            streamfile, "_compact_column",
            lambda runs, *names: (
                calls.append([sum(map(len, run)) for run in runs]),
                real(runs, *names))[1])
        _encode_chunk(self.pieces(), [])
        # Three string columns, each over three runs (A-slices, B,
        # A-slices).
        assert calls == [[30, 4, 6]] * 3

    def test_writer_drains_many_small_pieces(self, tmp_path):
        path = str(tmp_path / "many.opstream")
        parent = OpBatch.from_records(self.RECORDS)
        with sink_at(path, 7) as sink:
            for i in range(len(parent)):
                sink.record_batch(parent.select(slice(i, i + 1)))
        got = [r for batch in iter_batches(path)
               for r in batch.to_records()]
        assert got == self.RECORDS


class TestEmptyBatches:
    """Degenerate containers stay well-typed end to end."""

    def test_from_records_empty_round_trip(self, tmp_path):
        batch = OpBatch.from_records([])
        assert len(batch) == 0
        assert batch.to_records() == []
        assert batch.kinds.dtype == np.int8
        assert batch.user_ids.dtype == np.int64
        path = str(tmp_path / "empty.opstream")
        with sink_at(path, 4) as sink:
            sink.record_batch(batch)
        with StreamReader(path) as reader:
            assert reader.total_rows == 0
            assert list(reader.iter_batches()) == []

    def test_empty_pieces_encode_an_empty_chunk(self):
        for pieces in ([], [OpBatch.from_records([])]):
            batch, frames = _decode_chunk(encoded(pieces, []), "c")
            assert len(batch) == 0 and batch.think_us is None
            assert frames == []

    def test_empty_record_batch_accepted_by_every_sink(self, tmp_path):
        empty = OpBatch.from_records([])
        log = UsageLog()
        tally = ShardAccumulator()
        path = str(tmp_path / "a.opstream")
        with StreamFileSink(path, memory_budget_bytes=1 << 16) as sink:
            for target in (log, tally, sink, TeeSink(log, tally, sink)):
                target.record_batch(empty)
        assert log.operations == []
        assert tally.tally.operations == 0
        with StreamReader(path) as reader:
            assert reader.total_rows == 0

    @pytest.mark.parametrize("backend", ["fast", "fast-columnar", "nfs"])
    def test_no_users_yields_empty_artifact(self, tmp_path, backend):
        # A run over no users records nothing; all three backends must
        # still produce a clean, empty, verifiable artifact.
        spec = paper_workload_spec(n_users=2, total_files=100, seed=5)
        path = tmp_path / "empty.opstream"
        direct = UsageLog()
        with StreamFileSink(str(path), memory_budget_bytes=1 << 16) as sink:
            WorkloadGenerator(spec).run_simulated(
                sessions_per_user=1, backend=backend,
                log=TeeSink(direct, sink), user_ids=(),
            )
        assert direct.operations == []
        assert direct.sessions == []
        with StreamReader(str(path)) as reader:
            assert reader.total_rows == 0
            assert reader.total_sessions == 0
            assert list(reader.iter_batches()) == []
        report = verify_stream(str(path))
        assert report.ok and report.complete


class _CountingBatchSink(UsageLog):
    """Batch-aware sink that counts how the rows arrived."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def record_batch(self, batch):
        self.batches.append(batch)
        super().record_batch(batch)


class TestTeeSinkBatchPath:
    def _batch(self, n=5):
        records = [
            OpRecord(user_id=1, user_type="t", session_id=0, op="read",
                     path=f"/f{i}", category_key="c", size=10 * i,
                     start_us=float(i), response_us=1.0)
            for i in range(n)
        ]
        return OpBatch.from_records(records)

    def test_batch_aware_sinks_receive_the_batch_object(self):
        a, b = _CountingBatchSink(), _CountingBatchSink()
        batch = self._batch()
        TeeSink(a, b).record_batch(batch)
        assert a.batches == [batch] and b.batches == [batch]
        assert a.operations == batch.to_records()

    def test_sessions_fan_out_to_every_sink(self):
        a, b = _CountingBatchSink(), _CountingBatchSink()
        session = SessionRecord(
            user_id=1, user_type="t", session_id=0, start_us=0.0,
            end_us=5.0, files_referenced=1, bytes_accessed=10,
            file_bytes_referenced=10, categories=("c",))
        TeeSink(a, b).record_session(session)
        assert a.sessions == [session]
        assert b.sessions == [session]
