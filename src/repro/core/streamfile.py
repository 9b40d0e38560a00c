"""On-disk op-stream artifacts — the run as a durable, re-readable file.

Every in-memory path so far (``UsageLog``, ``WorkloadTally``) either
stores the whole run or only its statistics.  At the ROADMAP's
million-user scale neither is enough: downstream consumers need the
*operation stream itself* — LWS-style log-driven replay wants the exact
ops, not a regeneration — and the machine generating it cannot hold it.
``repro.core.streamfile`` makes the op stream a file:

* :class:`StreamFileSink` is an :class:`~repro.core.oplog.OpSink` that
  spills :class:`~repro.core.opbatch.OpBatch` chunks to disk under a
  bounded ``memory_budget_bytes`` instead of accumulating;
* :class:`StreamReader` / :func:`iter_batches` stream the artifact back
  as batches, with a footer index for seeking and slicing by user id or
  time window without touching unrelated chunks;
* :meth:`StreamReader.replay` feeds a sink (tally, usage log, another
  stream file) straight from disk — the fast-columnar consumption path
  without regeneration;
* :func:`merge_stream_files` interleaves per-shard artifacts into one
  file **bit-identical** to the artifact a 1-shard run would have
  written.

File layout (all integers little-endian)::

    MAGIC  u16 version
    u32 len  u32 crc32  header-JSON          (schema, rows/chunk, metadata)
    'C' u64 len  u32 crc32  chunk payload    (repeated)
    'F' u64 len  u32 crc32  footer-JSON      (per-chunk seek index)
    u64 footer-offset  MAGIC                 (fixed-size tail)

Chunk payloads hold per-chunk *compacted* string tables (first-use
order) followed by one npy-framed block per column, then the session
records that ended inside the chunk, each tagged with its global op-row
position so the exact event order (ops interleaved with session
summaries) reconstructs on replay.

Determinism is the load-bearing property.  Chunk boundaries are a pure
function of the global op-row count (``rows_per_chunk`` rows each,
derived from the byte budget via the fixed :data:`ROW_BYTES`), never of
arrival granularity — so re-chunking the same event stream, whether it
comes from one run, a replay, or a k-way shard merge, reproduces the
same frames byte for byte.  Every frame is CRC-checked; any truncation
or bit flip surfaces as :class:`StreamFormatError`, never as garbage
records.

Reading is said once: :func:`_read_frame` is the one frame walk (seek,
frame head, length bounded by the file size, read, CRC) behind indexed
chunk/footer reads, the sequential scan and salvage's re-read, and
:func:`_chunk_events` is the one interleave of a chunk's op rows and
session summaries behind both replays and the shard merge.

Crash recovery trusts the file alone.  ``checkpoint=True`` makes the
writer ``flush()`` after every chunk frame, so a killed process leaves
whole frames; :func:`salvage_stream` is *footer, else scan* — a file
whose footer opens is complete, otherwise the frames are walked from
the header and only chunks that pass their CRC and decode survive.
Nothing beside the artifact is written or read.

Versioning: ``FORMAT_VERSION`` bumps on any layout change; readers
reject newer versions loudly.  See ``docs/architecture.md`` for the
format's rationale and evolution rules.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import time
import zlib
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .opbatch import OP_KIND_NAMES, OpBatch, StringTable
from .oplog import SessionRecord

__all__ = [
    "FORMAT_VERSION",
    "STREAM_FORMAT_VERSION",
    "ROW_BYTES",
    "DEFAULT_MEMORY_BUDGET",
    "StreamFormatError",
    "rows_per_chunk_for",
    "TeeSink",
    "StreamWriter",
    "StreamFileSink",
    "ChunkInfo",
    "StreamChunk",
    "StreamReader",
    "iter_batches",
    "merge_stream_files",
    "SalvagedStream",
    "salvage_stream",
    "resume_stream_sink",
    "StreamVerifyReport",
    "verify_stream",
]

MAGIC = b"REPRO-OPSTREAM\x00"
FORMAT_VERSION = 1
STREAM_FORMAT_VERSION = FORMAT_VERSION  # package-level alias

# Column schema, in serialisation order.  The chunk payload stores one
# npy block per entry; ``think_us`` is optional per chunk (synthesis
# batches carry it, scalar record bridges do not).
_COLUMNS: tuple[tuple[str, str], ...] = (
    ("kinds", "int8"),
    ("plan_ids", "int64"),
    ("sizes", "int64"),
    ("flags", "int16"),
    ("path_idx", "int32"),
    ("category_idx", "int32"),
    ("user_ids", "int64"),
    ("session_ids", "int64"),
    ("user_type_idx", "int32"),
    ("start_us", "float64"),
    ("response_us", "float64"),
)
_THINK_COLUMN = ("think_us", "int64")

ROW_BYTES = sum(np.dtype(d).itemsize for _, d in _COLUMNS) + np.dtype(
    _THINK_COLUMN[1]
).itemsize
"""Fixed bytes per op row (every column incl. the optional think one).

The budget → ``rows_per_chunk`` conversion goes through this constant
rather than the actual buffered column widths so that chunk boundaries —
and therefore the artifact's bytes — depend only on the budget, never on
which optional columns a particular run happened to carry.
"""

DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024
"""Default :class:`StreamFileSink` buffer budget: 64 MiB of column data."""

_FRAME_CHUNK = b"C"
_FRAME_FOOTER = b"F"
_HEAD_FMT = "<LL"  # frame length, crc32 (header frame)
_FRAME_FMT = "<cQL"  # frame type, payload length, crc32
_TAIL_FMT = "<Q"  # footer frame offset (followed by MAGIC)
_TAIL_BYTES = struct.calcsize(_TAIL_FMT) + len(MAGIC)


class StreamFormatError(ValueError):
    """A stream file is truncated, corrupt, or not a stream file at all."""


def rows_per_chunk_for(memory_budget_bytes: int) -> int:
    """Rows per chunk under ``memory_budget_bytes`` (at least one)."""
    if memory_budget_bytes < 1:
        raise ValueError(
            f"memory_budget_bytes must be >= 1, got {memory_budget_bytes}"
        )
    return max(1, int(memory_budget_bytes) // ROW_BYTES)


# ---------------------------------------------------------------------------
# Batch concatenation and per-chunk table compaction
# ---------------------------------------------------------------------------


def _remap_indices(idx: np.ndarray, source: StringTable,
                   target: StringTable) -> np.ndarray:
    """Re-intern ``idx`` (indices into ``source``) into ``target``.

    Only the values actually used are interned, so a slice sharing a
    large long-lived table costs O(distinct values used), not O(table).
    """
    used = np.unique(idx[idx >= 0])
    if used.size == 0:
        return idx.astype(np.int32, copy=True)
    values = source.values()
    lut = np.full(int(used[-1]) + 1, -1, dtype=np.int32)
    # np.unique sorts, so values are interned in ascending source index.
    lut[used] = target.intern_many([values[i] for i in used.tolist()])
    out = lut[np.maximum(idx, 0)]
    out[idx < 0] = -1
    return out


# (index column, the table it indexes), and every per-row column.
_STRING_COLUMNS = (("path_idx", "paths"), ("category_idx", "categories"),
                   ("user_type_idx", "user_types"))
_ROW_COLUMNS = ("kinds", "plan_ids", "sizes", "flags", "user_ids",
                "session_ids", "start_us", "response_us",
                *(column for column, _ in _STRING_COLUMNS))


def concat_batches(batches: Iterable[OpBatch]) -> OpBatch:
    """Concatenate batches into one, re-interning the string tables.

    Consecutive batches that share their table *objects* (slices of one
    parent — a user block's per-session views) are re-interned as one
    run, so the cost follows the number of distinct parents, not the
    number of slices.  The ``think_us`` column survives only when
    *every* input carries it (a record batch without thinks has no
    pause information to invent).  An empty input list yields a
    well-typed empty batch.
    """
    batches = [b for b in batches if len(b)]
    if not batches:
        return OpBatch.empty(0)
    if len(batches) == 1:
        return batches[0]
    out = OpBatch.empty(sum(len(b) for b in batches))
    for column in _ROW_COLUMNS:
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
            run[:] = _remap_indices(run, getattr(b, table),
                                    getattr(out, table))
        run_start = pos
    return out


def _compact_column(idx: np.ndarray, table: StringTable):
    """Compact one string column for serialisation.

    Returns ``(new_idx, values)`` where ``values`` holds only the
    strings the column references, ordered by first occurrence in row
    order — a pure function of the rows, so identical rows always
    serialise to identical bytes regardless of the table they shared in
    memory.
    """
    used = idx[idx >= 0]
    if used.size == 0:
        return idx.astype(np.int32, copy=False), []
    uniq, first = np.unique(used, return_index=True)
    order = np.argsort(first, kind="stable")
    ordered = uniq[order]
    lut = np.full(int(uniq[-1]) + 1, -1, dtype=np.int32)
    lut[ordered] = np.arange(len(ordered), dtype=np.int32)
    new_idx = lut[np.maximum(idx, 0)]
    new_idx[idx < 0] = -1
    values = table.values()
    return new_idx, [values[int(i)] for i in ordered]


# ---------------------------------------------------------------------------
# Chunk payload encode/decode
# ---------------------------------------------------------------------------


_U32 = struct.Struct("<L")
_U64 = struct.Struct("<Q")
_CHUNK_HEAD = struct.Struct("<QB")  # op rows, think flag
_SESSION_HEAD = struct.Struct("<QL")  # global op-row position, line bytes
_NPY_HEAD = struct.Struct("<8xH")  # npy 1.0 magic + version, header bytes
_COLUMN_DTYPES = tuple((name, np.dtype(dtype))
                       for name, dtype in (*_COLUMNS, _THINK_COLUMN))

# (dtype, shape) per npy header seen, keyed on its raw bytes: chunks repeat
# the same dozen headers and numpy's ``ast.literal_eval`` parse costs more
# than copying the column.  Bounded: a hostile file can vary them forever.
_NPY_HEADERS: dict[bytes, tuple[np.dtype, tuple]] = {}
_NPY_HEADERS_MAX = 64
# The write-side twin: u64 block length + npy 1.0 magic + header, per
# (dtype.str, rows) — every full chunk of a run repeats the same dozen.
_NPY_PREAMBLES: dict[tuple[str, int], bytes] = {}


def _table_bytes(values: list[str]) -> bytes:
    """A string table: u32 count, then u32 length + UTF-8 per value."""
    out = [_U32.pack(len(values))]
    for value in values:
        raw = value.encode("utf-8")
        out += (_U32.pack(len(raw)), raw)
    return b"".join(out)


def _npy_preamble(column: np.ndarray) -> bytes:
    """What ``np.save`` writes ahead of ``column``'s data, length-framed."""
    key = (column.dtype.str, len(column))
    preamble = _NPY_PREAMBLES.get(key)
    if preamble is None:
        head = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            head, np.lib.format.header_data_from_array_1_0(column))
        if len(_NPY_PREAMBLES) >= _NPY_HEADERS_MAX:
            _NPY_PREAMBLES.clear()
        preamble = _NPY_PREAMBLES[key] = (
            _U64.pack(head.tell() + column.nbytes) + head.getvalue())
    return preamble


def _encode_chunk(batch: OpBatch, sessions: list[tuple[int, SessionRecord]]
                  ) -> list[bytes | memoryview]:
    """The chunk payload as a list of buffers in file order.

    Small ``bytes`` (counts, string tables, npy preambles, session
    lines) alternate with a byte ``memoryview`` of each C-contiguous
    column — a reference, not a copy, and for a column already in its
    file dtype a view of the batch's own array.  The caller owns CRC
    and write order (chain ``zlib.crc32`` over the parts, then write
    them) and must do both before anything mutates the batch.
    """
    if len(batch) and int(batch.kinds.max()) >= len(OP_KIND_NAMES):
        raise StreamFormatError(
            "op kinds past the stream file's kind table (a trace's "
            "mkdir/rmdir, see RECORD_KIND_NAMES) cannot be written")
    has_think = batch.think_us is not None
    head = [_CHUNK_HEAD.pack(len(batch), int(has_think))]
    compacted = {}
    for idx_name, table_name in _STRING_COLUMNS:
        compacted[idx_name], values = _compact_column(
            getattr(batch, idx_name), getattr(batch, table_name))
        head.append(_table_bytes(values))
    parts: list[bytes | memoryview] = [b"".join(head)]
    for name, dtype in _COLUMN_DTYPES[:len(_COLUMNS) + has_think]:
        column = compacted.get(name)
        if column is None:
            column = getattr(batch, name)
        column = np.ascontiguousarray(column, dtype=dtype)
        parts += (_npy_preamble(column), memoryview(column).cast("B"))
    tail = [_U32.pack(len(sessions))]
    for position, record in sessions:
        raw = record.to_line().encode("utf-8")
        tail += (_SESSION_HEAD.pack(position, len(raw)), raw)
    parts.append(b"".join(tail))
    return parts


def _read_table(payload: bytes, pos: int) -> tuple[StringTable, int]:
    """The string table at ``pos`` and the offset just past it."""
    unpack, end = _U32.unpack_from, len(payload)
    (count,) = unpack(payload, pos)
    pos += _U32.size
    values = []
    for _ in range(count):
        (nbytes,) = unpack(payload, pos)
        pos += _U32.size + nbytes
        if pos > end:
            raise struct.error("string table runs past the payload")
        values.append(payload[pos - nbytes:pos].decode("utf-8"))
    return StringTable(values), pos


def _read_array(payload: bytes, pos: int, name: str, dtype: np.dtype,
                n: int) -> tuple[np.ndarray, int]:
    """The npy-framed column at ``pos`` and the offset just past it.

    The array is a copy that owns its memory, not a view: a consumer
    keeping one column of each chunk must not pin every payload.  New
    headers go through numpy's own parser, so nothing numpy rejects is
    accepted, nor is anything but npy 1.0, C order, no object dtype.
    """
    (nbytes,) = _U64.unpack_from(payload, pos)
    pos += _U64.size
    stop = pos + nbytes
    if stop > len(payload):
        raise struct.error(f"column {name!r} runs past the payload")
    data = pos + _NPY_HEAD.size + _NPY_HEAD.unpack_from(payload, pos)[0]
    raw = payload[pos:data]
    declared = _NPY_HEADERS.get(raw)
    if declared is None:
        try:
            stream = io.BytesIO(raw)
            if np.lib.format.read_magic(stream) != (1, 0):
                raise ValueError("not an npy 1.0 block")
            shape, fortran_order, found = (
                np.lib.format.read_array_header_1_0(stream))
            if fortran_order or found.hasobject:
                raise ValueError(f"unsupported layout or dtype {found}")
        except Exception as exc:
            raise StreamFormatError(
                f"column {name!r}: corrupt npy block ({exc})") from None
        if len(_NPY_HEADERS) >= _NPY_HEADERS_MAX:
            _NPY_HEADERS.clear()
        declared = _NPY_HEADERS[raw] = (found, shape)
    if declared != (dtype, (n,)) or stop - data != n * dtype.itemsize:
        raise StreamFormatError(
            f"column {name!r}: expected {n} x {dtype}, got "
            f"{declared[1]} x {declared[0]} in {stop - data} bytes")
    return np.frombuffer(payload, dtype, n, data).copy(), stop


def _decode_chunk(payload: bytes, what: str):
    """One bounds-checked forward pass over a CRC-checked chunk payload.

    Returns the op rows and the *framed* session records: ``(position,
    line bytes)`` pairs whose extents and count are checked here and
    whose text :func:`_parse_sessions` parses when someone reads it.
    """
    try:
        n, has_think = _CHUNK_HEAD.unpack_from(payload, 0)
        if has_think not in (0, 1):
            raise StreamFormatError(f"{what}: bad think flag {has_think}")
        pos = _CHUNK_HEAD.size
        tables = {}
        for _, table in _STRING_COLUMNS:
            tables[table], pos = _read_table(payload, pos)
        columns = {}
        for name, dtype in _COLUMN_DTYPES[:len(_COLUMNS) + has_think]:
            columns[name], pos = _read_array(payload, pos, name, dtype, n)
        (n_sessions,) = _U32.unpack_from(payload, pos)
        pos += _U32.size
        frames = []
        for _ in range(n_sessions):
            position, nbytes = _SESSION_HEAD.unpack_from(payload, pos)
            pos += _SESSION_HEAD.size + nbytes
            if pos > len(payload):
                raise struct.error("session record runs past the payload")
            frames.append((position, payload[pos - nbytes:pos]))
    except struct.error as exc:  # unpack_from past the end, or raised above
        raise StreamFormatError(f"{what}: truncated payload ({exc})") from None
    except UnicodeDecodeError as exc:
        raise StreamFormatError(f"corrupt string table: {exc}") from None
    if pos != len(payload):
        raise StreamFormatError(f"{what}: {len(payload) - pos} trailing bytes")
    for column, table in _STRING_COLUMNS:
        idx = columns[column]
        if n and (int(idx.min()) < -1
                  or int(idx.max()) >= len(tables[table])):
            raise StreamFormatError(f"{what}: {column} out of table range")
    return OpBatch(**columns, **tables), frames


def _parse_sessions(frames, what: str) -> list[tuple[int, SessionRecord]]:
    """Parse the session lines :func:`_decode_chunk` framed."""
    try:
        return [(position, SessionRecord.from_line(raw.decode("utf-8")))
                for position, raw in frames]
    except (UnicodeDecodeError, ValueError) as exc:
        raise StreamFormatError(
            f"{what}: corrupt session record ({exc})") from None


def _entry_from_chunk(offset: int, batch: OpBatch,
                      sessions: list) -> dict:
    """The footer-index entry of a chunk (the writer's, or one rebuilt
    from a decoded chunk)."""
    n = len(batch)
    return {
        "offset": offset,
        "rows": n,
        "sessions": len(sessions),
        "user_lo": int(batch.user_ids.min()) if n else None,
        "user_hi": int(batch.user_ids.max()) if n else None,
        "start_lo": float(batch.start_us.min()) if n else None,
        "start_hi": float(batch.start_us.max()) if n else None,
    }


def _chunk_events(batch: OpBatch, sessions, row_start: int):
    """A chunk's events in recorded order.

    Yields ``("rows", piece)`` for each non-empty run of op rows and
    ``("session", record)`` for each summary, cut at the global op-row
    positions the writer tagged the summaries with — the one interleave
    behind both replays and the shard merge.
    """
    cursor = 0
    for position, record in sessions:
        local = min(max(position - row_start, 0), len(batch))
        if local > cursor:
            yield "rows", batch.select(slice(cursor, local))
            cursor = local
        yield "session", record
    if cursor < len(batch):
        yield "rows", batch.select(slice(cursor, len(batch)))


# ---------------------------------------------------------------------------
# Frame and header parsing (shared by the reader, salvage, and verification)
# ---------------------------------------------------------------------------


def _read_frame(stream, offset: int, size: int, what: str):
    """The frame at ``offset`` of a ``size``-byte file, CRC-checked.

    Returns ``(kind, payload, next_offset)``.  The one frame walk: every
    reader of frames — indexed seeks, the sequential scan, salvage —
    comes through here, so a corrupt length field always surfaces as
    :class:`StreamFormatError` (bounded by the file size *before*
    reading, never a huge allocation) and no payload escapes unchecked.
    """
    head_bytes = struct.calcsize(_FRAME_FMT)
    stream.seek(offset)
    head = stream.read(head_bytes)
    if len(head) != head_bytes:
        raise StreamFormatError(
            f"truncated stream file: {what} frame header")
    kind, length, crc = struct.unpack(_FRAME_FMT, head)
    stop = offset + head_bytes + length
    if stop <= size:
        payload = stream.read(length)
    if stop > size or len(payload) != length:
        raise StreamFormatError(f"truncated stream file: {what} payload")
    if zlib.crc32(payload) != crc:
        raise StreamFormatError(f"{what} failed its checksum")
    return kind, payload, stop


def _parse_header(stream, size: int, path: str) -> tuple[int, dict, int]:
    """Validate and decode the header at the start of ``stream``.

    Returns ``(version, header, data_start)`` where ``data_start`` is
    the offset of the first frame.  Raises :class:`StreamFormatError`
    on any structural problem, exactly like :class:`StreamReader`.
    """

    def must_read(n: int, what: str) -> bytes:
        if n < 0 or n > size:
            raise StreamFormatError(f"truncated stream file: {what}")
        raw = stream.read(n)
        if len(raw) != n:
            raise StreamFormatError(f"truncated stream file: {what}")
        return raw

    stream.seek(0)
    magic = stream.read(len(MAGIC))
    if magic != MAGIC:
        raise StreamFormatError(
            f"{path!r} is not an op-stream file (bad magic)"
        )
    (version,) = struct.unpack("<H", must_read(2, "version"))
    if version > FORMAT_VERSION:
        raise StreamFormatError(
            f"stream format version {version} is newer than this "
            f"reader (supports <= {FORMAT_VERSION})"
        )
    length, crc = struct.unpack(
        _HEAD_FMT, must_read(struct.calcsize(_HEAD_FMT), "header"))
    raw = must_read(length, "header JSON")
    if zlib.crc32(raw) != crc:
        raise StreamFormatError("header failed its checksum")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise StreamFormatError(f"corrupt header JSON: {exc}") from None
    # CRC-valid is not well-formed: shape-check every field read, once.
    if not isinstance(header, dict):
        raise StreamFormatError("corrupt header: not an object")
    if header.get("version") != version:
        raise StreamFormatError(
            f"header version {header.get('version')!r} disagrees with "
            f"the file's version field {version} (corrupt header?)"
        )
    if header.get("kinds") != list(OP_KIND_NAMES):
        raise StreamFormatError(
            "stream file kind table does not match this build: "
            f"{header.get('kinds')!r}"
        )
    if header.get("columns") != [list(column) for column in _COLUMNS]:
        raise StreamFormatError("stream file column schema mismatch")
    rows_per_chunk = header.get("rows_per_chunk")
    if type(rows_per_chunk) is not int or rows_per_chunk < 1:
        raise StreamFormatError(
            f"corrupt header: rows_per_chunk is {rows_per_chunk!r}")
    if not isinstance(header.get("metadata", {}), dict):
        raise StreamFormatError("corrupt header: metadata is not an object")
    return version, header, stream.tell()


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class StreamWriter:
    """Low-level append writer: events in, canonical chunks out.

    Feed it the run's event stream (:meth:`add_batch` op rows,
    :meth:`add_session` summaries, in arrival order) and it emits frames
    of exactly ``rows_per_chunk`` rows each (the final one shorter), with
    every session attached to the chunk containing the op row it
    followed.  Chunk *i* is flushed only once a row of chunk *i + 1*
    arrives, so a summary landing exactly on a boundary still joins its
    own chunk — the buffered high-water mark is ``rows_per_chunk`` rows
    plus the incoming batch.
    """

    def __init__(self, path: str, rows_per_chunk: int,
                 metadata: dict | None = None, observer=None,
                 checkpoint: bool = False, flush_hook=None, *,
                 _salvaged: "SalvagedStream | None" = None):
        if rows_per_chunk < 1:
            raise ValueError(
                f"rows_per_chunk must be >= 1, got {rows_per_chunk}"
            )
        self.path = path
        self.rows_per_chunk = int(rows_per_chunk)
        self.metadata = dict(metadata or {})
        # Spill accounting: an enabled observer charges each chunk flush
        # to the "spill" stage and ticks stream.{chunks,rows,bytes}.
        # Flush timing/counting never changes what is written — chunk
        # boundaries stay a pure function of the global row count.
        self._observer = (observer if observer is not None
                          and getattr(observer, "enabled", False) else None)
        # ``checkpoint`` pushes every chunk frame to the OS as soon as
        # it is written (``flush()`` after each), so a killed process
        # leaves whole frames for :func:`salvage_stream` rather than a
        # userspace buffer; ``flush_hook(chunk_index)`` runs before each
        # flush — the fault-injection seam for spill-path errors
        # (ENOSPC).  Neither changes a single byte of the artifact.
        self._checkpoint = bool(checkpoint)
        self._flush_hook = flush_hook
        self._pieces: deque[OpBatch] = deque()
        self._buffered = 0
        self._sessions: list[tuple[int, SessionRecord]] = []
        self._closed = False
        self._rows_done = self._sessions_done = 0
        self._index: list[dict] = []
        if _salvaged is not None:  # continue its prefix (see resume())
            self._rows_done = _salvaged.rows
            self._sessions_done = _salvaged.sessions
            self._index = [dict(entry) for entry in _salvaged.index]
        self.chunks_written = len(self._index)
        self._stream = open(path, "wb" if _salvaged is None else "r+b")
        try:
            if _salvaged is None:
                self._write_header()
            else:
                self._stream.truncate(_salvaged.data_end)
                self._stream.seek(_salvaged.data_end)
        except BaseException:
            self._stream.close()
            raise

    @classmethod
    def resume(cls, salvaged: "SalvagedStream",
               metadata: dict | None = None, observer=None,
               checkpoint: bool = False, flush_hook=None) -> "StreamWriter":
        """Continue writing a crashed artifact from its salvaged prefix.

        The file is truncated to the end of the last intact chunk and
        the writer picks up with the salvaged row/session/chunk counts,
        so the frames it appends are exactly the frames the original
        writer would have written next — chunk boundaries are a pure
        function of the global row count.  The caller must feed the
        *remaining* event stream (everything after the salvaged rows)
        in the original order.

        ``metadata`` must match the salvaged header's (the header is
        already on disk and is not rewritten); a mismatch means the
        resume does not describe the same run and is rejected.
        """
        if salvaged.complete:
            raise StreamFormatError(
                f"{salvaged.path}: artifact is complete; nothing to resume"
            )
        if metadata is not None and dict(metadata) != salvaged.metadata:
            raise StreamFormatError(
                f"{salvaged.path}: resume metadata does not match the "
                "on-disk header"
            )
        return cls(salvaged.path, salvaged.rows_per_chunk,
                   metadata=salvaged.metadata, observer=observer,
                   checkpoint=checkpoint, flush_hook=flush_hook,
                   _salvaged=salvaged)

    # -- events ---------------------------------------------------------------

    @property
    def buffered_rows(self) -> int:
        """Op rows currently held in memory (pending the next flush)."""
        return self._buffered

    def add_batch(self, batch: OpBatch) -> None:
        """Append op rows (sliced views are fine; tables may be shared)."""
        if len(batch) == 0:
            return
        self._pieces.append(batch)
        self._buffered += len(batch)
        while self._buffered > self.rows_per_chunk:
            self._flush_chunk(self.rows_per_chunk)

    def add_session(self, record: SessionRecord) -> None:
        """Append a session summary at the current op-row position."""
        self._sessions.append((self._rows_done + self._buffered, record))

    def close(self) -> None:
        """Flush the tail chunk, write the footer index, close the file."""
        if self._closed:
            return
        try:
            while self._buffered > self.rows_per_chunk:
                self._flush_chunk(self.rows_per_chunk)
            if self._buffered or self._sessions:
                self._flush_chunk(self._buffered)
            self._write_footer()
        finally:
            self._closed = True
            self._stream.close()

    def abort(self) -> None:
        """Stop writing WITHOUT a footer (crash/failure path).

        Buffered rows are dropped; chunks already flushed stay on disk
        for :func:`salvage_stream`.  A footer must never cover a partial
        run — it would make the truncated artifact indistinguishable
        from a complete one and poison both resume and verification.
        Idempotent, and a no-op after :meth:`close`.
        """
        if self._closed:
            return
        self._closed = True
        self._stream.close()

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- framing --------------------------------------------------------------

    def _write_header(self) -> None:
        header = json.dumps(
            {
                "version": FORMAT_VERSION,
                "kinds": list(OP_KIND_NAMES),
                "columns": [list(c) for c in _COLUMNS],
                "think_column": list(_THINK_COLUMN),
                "rows_per_chunk": self.rows_per_chunk,
                "metadata": self.metadata,
            },
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        self._stream.write(MAGIC)
        self._stream.write(struct.pack("<H", FORMAT_VERSION))
        self._stream.write(struct.pack(_HEAD_FMT, len(header),
                                       zlib.crc32(header)))
        self._stream.write(header)

    def _take_rows(self, n: int) -> OpBatch:
        taken: list[OpBatch] = []
        pieces = self._pieces
        while n > 0:
            piece = pieces[0]
            if len(piece) <= n:
                taken.append(pieces.popleft())
                n -= len(piece)
            else:
                taken.append(piece.select(slice(0, n)))
                pieces[0] = piece.select(slice(n, len(piece)))
                n = 0
        return concat_batches(taken)

    def _flush_chunk(self, take: int) -> None:
        if self._flush_hook is not None:
            self._flush_hook(self.chunks_written)
        if self._observer is not None:
            # detlint: ignore[no-wall-clock] — observer-only spill span; never touches the stream
            wall0 = time.perf_counter()
            cpu0 = time.process_time()  # detlint: ignore[no-wall-clock] — observer-only spill span
        rows = self._take_rows(take)
        boundary = self._rows_done + take
        cut = 0
        while (cut < len(self._sessions)
               and self._sessions[cut][0] <= boundary):
            cut += 1
        sessions, self._sessions = self._sessions[:cut], self._sessions[cut:]
        parts = _encode_chunk(rows, sessions)
        crc = nbytes = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
            nbytes += len(part)
        offset = self._stream.tell()
        self._stream.write(struct.pack(_FRAME_FMT, _FRAME_CHUNK, nbytes, crc))
        for part in parts:
            self._stream.write(part)
        if self._observer is not None:
            framed = nbytes + struct.calcsize(_FRAME_FMT)
            metrics = self._observer.metrics
            metrics.counter("stream.chunks").inc()
            metrics.counter("stream.rows").inc(take)
            metrics.counter("stream.bytes").inc(framed)
            self._observer.stage_times("spill").add(
                # detlint: ignore[no-wall-clock] — observer-only spill span
                time.perf_counter() - wall0, time.process_time() - cpu0,
                rows=take, nbytes=framed,
            )
        self._index.append(_entry_from_chunk(offset, rows, sessions))
        self._rows_done = boundary
        self._buffered -= take
        self._sessions_done += len(sessions)
        self.chunks_written += 1
        if self._checkpoint:
            # The frame leaves the userspace buffer now: what a killed
            # process leaves behind is whole, salvageable chunks.
            self._stream.flush()

    def _write_footer(self) -> None:
        footer = json.dumps(
            {
                "chunks": self._index,
                "rows": self._rows_done,
                "sessions": self._sessions_done,
            },
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        offset = self._stream.tell()
        self._stream.write(struct.pack(_FRAME_FMT, _FRAME_FOOTER,
                                       len(footer), zlib.crc32(footer)))
        self._stream.write(footer)
        self._stream.write(struct.pack(_TAIL_FMT, offset))
        self._stream.write(MAGIC)


class TeeSink:
    """Fan one op stream out to several sinks (e.g. tally + stream file)."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def record_batch(self, batch: OpBatch) -> None:
        for sink in self.sinks:
            sink.record_batch(batch)

    def record_session(self, record: SessionRecord) -> None:
        for sink in self.sinks:
            sink.record_session(record)


class StreamFileSink:
    """An :class:`~repro.core.oplog.OpSink` that spills to a stream file.

    Drop-in for ``run_simulated(log=...)``: op rows buffer up to
    ``memory_budget_bytes`` of column data (``rows_per_chunk`` rows at
    the fixed :data:`ROW_BYTES` row width) and flush as one chunk frame;
    session records embed at their exact op-row positions.  Close the
    sink (or use it as a context manager) to write the footer index —
    an unclosed file has no footer and readers reject it as truncated.
    """

    def __init__(self, path: str,
                 memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
                 metadata: dict | None = None, observer=None,
                 checkpoint: bool = False, flush_hook=None, *,
                 _writer: "StreamWriter | None" = None):
        self.memory_budget_bytes = int(memory_budget_bytes)
        # ``_writer``: an already-open (resumed) writer to wrap instead.
        self._writer = _writer or StreamWriter(
            path, rows_per_chunk_for(memory_budget_bytes), metadata=metadata,
            observer=observer, checkpoint=checkpoint, flush_hook=flush_hook)

    @property
    def path(self) -> str:
        """The artifact path."""
        return self._writer.path

    @property
    def rows_per_chunk(self) -> int:
        """Op rows per chunk under this sink's budget."""
        return self._writer.rows_per_chunk

    @property
    def chunks_written(self) -> int:
        """Chunk frames flushed so far."""
        return self._writer.chunks_written

    def record_batch(self, batch: OpBatch) -> None:
        self._writer.add_batch(batch)

    def record_session(self, record: SessionRecord) -> None:
        self._writer.add_session(record)

    def close(self) -> None:
        """Flush everything and finalise the artifact."""
        self._writer.close()

    def abort(self) -> None:
        """Close the file without a footer (see StreamWriter.abort)."""
        self._writer.abort()

    def __enter__(self) -> "StreamFileSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkInfo:
    """One footer-index entry (everything needed to seek and skip)."""

    index: int
    offset: int
    rows: int
    row_start: int
    sessions: int
    user_lo: int | None
    user_hi: int | None
    start_lo: float | None
    start_hi: float | None

    def entry(self) -> dict:
        """The writer-style index entry this was read from."""
        entry = asdict(self)
        del entry["index"], entry["row_start"]
        return entry


@dataclass
class StreamChunk:
    """One decoded chunk: op rows plus positioned session records.

    Session lines are framed and counted at decode time but parsed on
    first read of :attr:`sessions` (a corrupt one raises
    :class:`StreamFormatError` there): row consumers never pay for them.
    """

    index: int
    batch: OpBatch
    frames: list[tuple[int, bytes]]
    row_start: int

    @cached_property
    def sessions(self) -> list[tuple[int, SessionRecord]]:
        """``(global op-row position, record)`` pairs, in stream order."""
        return _parse_sessions(self.frames, f"chunk {self.index}")


def _normalize_users(users) -> "np.ndarray | None":
    if users is None:
        return None
    if isinstance(users, (int, np.integer)):
        return np.array([int(users)], dtype=np.int64)
    return np.unique(np.array([int(u) for u in users], dtype=np.int64))


class StreamReader:
    """Streaming, index-backed reader of one artifact file.

    Opens the file, validates magic/version/header, then seeks the
    footer through the fixed-size tail — so a reader never scans the
    whole file to answer ``total_rows`` or to slice by user/time.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            self._stream = open(path, "rb")
        except OSError as exc:
            raise StreamFormatError(f"cannot open stream file: {exc}") from None
        try:
            self._size = os.fstat(self._stream.fileno()).st_size
            self._read_header()
            self._read_footer()
        except BaseException:
            self._stream.close()
            raise

    # -- parsing --------------------------------------------------------------

    def _read_header(self) -> None:
        version, header, self._data_start = _parse_header(
            self._stream, self._size, self.path)
        self.version = version
        self.header = header
        self.rows_per_chunk = header["rows_per_chunk"]
        self.metadata = dict(header.get("metadata", {}))
        self.kinds = tuple(header["kinds"])

    def _read_footer(self) -> None:
        size = self._size
        if size < _TAIL_BYTES:
            raise StreamFormatError("truncated stream file: no tail")
        self._stream.seek(size - _TAIL_BYTES)
        tail = self._stream.read(_TAIL_BYTES)
        if tail[struct.calcsize(_TAIL_FMT):] != MAGIC:
            raise StreamFormatError(
                "truncated stream file: missing footer (was the writer "
                "closed?)"
            )
        (footer_offset,) = struct.unpack(
            _TAIL_FMT, tail[:struct.calcsize(_TAIL_FMT)])
        if not (0 < footer_offset < size - _TAIL_BYTES):
            raise StreamFormatError("corrupt tail: footer offset out of range")
        kind, payload = self._read_frame(footer_offset, "footer")
        if kind != _FRAME_FOOTER:
            raise StreamFormatError("corrupt tail: offset is not a footer")
        try:
            footer = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise StreamFormatError(f"corrupt footer JSON: {exc}") from None
        self._footer_offset = footer_offset
        # CRC-valid is not well-formed: every field a seek, a skip
        # decision or a slice comparison will trust is type- and
        # range-checked here, once, so nothing downstream can raise
        # anything but StreamFormatError.

        def count(holder: dict, key: str) -> int:
            value = holder.get(key)
            if type(value) is not int or value < 0:
                raise StreamFormatError(
                    f"corrupt footer: {key!r} is {value!r}, not a count")
            return value

        if not isinstance(footer, dict) or not isinstance(
                footer.get("chunks"), list):
            raise StreamFormatError("corrupt footer: not a chunk index")
        self.total_rows = count(footer, "rows")
        self.total_sessions = count(footer, "sessions")
        chunks = []
        row_start = 0
        floor = self._data_start
        for i, entry in enumerate(footer["chunks"]):
            if not isinstance(entry, dict):
                raise StreamFormatError(
                    f"corrupt footer: chunk {i} entry is not an object")
            offset, rows = count(entry, "offset"), count(entry, "rows")
            if not floor <= offset < self._footer_offset:
                raise StreamFormatError(
                    f"corrupt footer: chunk {i} offset {offset} is out of "
                    "order or outside the data region")
            floor = offset + 1
            bounds = []
            for key, kinds in (("user", (int,)), ("start", (int, float))):
                lo, hi = entry.get(f"{key}_lo"), entry.get(f"{key}_hi")
                if rows == 0:
                    valid = lo is None and hi is None
                else:
                    valid = (type(lo) in kinds and type(hi) in kinds
                             and lo <= hi)
                if not valid:
                    raise StreamFormatError(
                        f"corrupt footer: chunk {i} {key} range "
                        f"{lo!r}..{hi!r} with {rows} rows")
                bounds += [lo, hi]
            chunks.append(ChunkInfo(i, offset, rows, row_start,
                                    count(entry, "sessions"), *bounds))
            row_start += rows
        if row_start != self.total_rows:
            raise StreamFormatError("corrupt footer: chunk rows disagree "
                                    "with the total")
        self.chunk_index: tuple[ChunkInfo, ...] = tuple(chunks)

    def _read_frame(self, offset: int, what: str):
        return _read_frame(self._stream, offset, self._size, what)[:2]

    # -- access ---------------------------------------------------------------

    def read_chunk(self, index: int) -> StreamChunk:
        """Decode chunk ``index`` (CRC-checked seek through the footer)."""
        info = self.chunk_index[index]
        kind, payload = self._read_frame(info.offset, f"chunk {index}")
        if kind != _FRAME_CHUNK:
            raise StreamFormatError(f"chunk {index}: not a chunk frame")
        batch, frames = _decode_chunk(payload, f"chunk {index}")
        if len(batch) != info.rows or len(frames) != info.sessions:
            raise StreamFormatError(
                f"chunk {index}: payload disagrees with the footer index"
            )
        return StreamChunk(index, batch, frames, info.row_start)

    def _chunk_matches(self, info: ChunkInfo, users: "np.ndarray | None",
                       time_range) -> bool:
        if info.rows == 0:
            return users is None and time_range is None
        if users is not None:
            inside = users[(users >= info.user_lo) & (users <= info.user_hi)]
            if inside.size == 0:
                return False
        if time_range is not None:
            lo, hi = time_range
            if info.start_hi < lo or info.start_lo >= hi:
                return False
        return True

    def iter_chunks(self, users=None, time_range=None) -> Iterator[StreamChunk]:
        """Yield chunks in order, skipping via the footer index.

        ``users`` is a user id or an iterable of them; ``time_range`` a
        ``(lo, hi)`` half-open window over op start times.  Filters are
        applied chunk-wise here (a yielded chunk may still contain other
        rows); :meth:`iter_batches` applies the row-level mask.
        """
        users = _normalize_users(users)
        for info in self.chunk_index:
            if self._chunk_matches(info, users, time_range):
                yield self.read_chunk(info.index)

    def iter_batches(self, users=None, time_range=None) -> Iterator[OpBatch]:
        """Yield op-row batches, row-filtered by user and time window."""
        norm = _normalize_users(users)
        for info in self.chunk_index:
            if not self._chunk_matches(info, norm, time_range):
                continue
            batch = self.read_chunk(info.index).batch
            if norm is None and time_range is None:
                if len(batch):
                    yield batch
                continue
            mask = np.ones(len(batch), dtype=bool)
            if norm is not None:
                mask &= np.isin(batch.user_ids, norm)
            if time_range is not None:
                lo, hi = time_range
                mask &= (batch.start_us >= lo) & (batch.start_us < hi)
            if mask.any():
                yield batch.select(mask)

    def replay(self, sink) -> tuple[int, int]:
        """Re-emit the artifact's exact event stream into ``sink``.

        Ops go through ``record_batch``; session summaries interleave
        at their recorded positions.
        Returns ``(op_rows, sessions)`` replayed.  Replaying into a new
        :class:`StreamFileSink` with the same budget reproduces the
        artifact byte for byte.
        """
        rows = sessions = 0
        for chunk in self.iter_chunks():
            for kind, event in _chunk_events(chunk.batch, chunk.sessions,
                                             chunk.row_start):
                if kind == "rows":
                    sink.record_batch(event)
                else:
                    sink.record_session(event)
                    sessions += 1
            rows += len(chunk.batch)
        return rows, sessions

    def info_kv(self) -> dict:
        """Human-readable summary (the ``stream info`` CLI verb)."""
        users = [c for c in self.chunk_index if c.rows]
        out = {
            "path": self.path,
            "format version": self.version,
            "op rows": self.total_rows,
            "sessions": self.total_sessions,
            "chunks": len(self.chunk_index),
            "rows per chunk": self.rows_per_chunk,
            "file bytes": os.path.getsize(self.path),
        }
        if users:
            out["user ids"] = (f"{min(c.user_lo for c in users)}.."
                               f"{max(c.user_hi for c in users)}")
            out["op start span (µs)"] = (
                f"{min(c.start_lo for c in users):.1f}.."
                f"{max(c.start_hi for c in users):.1f}")
        for key, value in sorted(self.metadata.items()):
            out[f"meta.{key}"] = value
        return out

    def close(self) -> None:
        """Close the underlying file."""
        self._stream.close()

    def __enter__(self) -> "StreamReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_batches(path: str, users=None, time_range=None) -> Iterator[OpBatch]:
    """Stream an artifact's op rows (module-level convenience).

    Opens ``path``, yields :class:`~repro.core.opbatch.OpBatch` chunks
    (row-filtered by ``users`` / ``time_range`` like
    :meth:`StreamReader.iter_batches`), and closes the file when the
    iterator is exhausted or discarded.
    """
    with StreamReader(path) as reader:
        yield from reader.iter_batches(users=users, time_range=time_range)


# ---------------------------------------------------------------------------
# Shard merge
# ---------------------------------------------------------------------------


def _iter_user_groups(reader: StreamReader):
    """Yield ``(user_id, events)`` per user, in the artifact's order.

    ``events`` is the user's slice of the event stream: ``("rows",
    batch)`` and ``("session", record)`` entries in arrival order.
    Requires user-contiguous artifacts (each user's events form one run,
    users in ascending order) — what the engine-free backends write.
    DES artifacts interleave users on the shared engine clock and are
    rejected.
    """
    current: int | None = None
    events: list = []
    for chunk in reader.iter_chunks():
        for kind, event in _chunk_events(chunk.batch, chunk.sessions,
                                         chunk.row_start):
            if kind == "rows":
                # One item per run of equal user ids inside the piece.
                cuts = (np.flatnonzero(np.diff(event.user_ids)) + 1).tolist()
                items = [event.select(slice(a, b)) for a, b in
                         zip([0, *cuts], [*cuts, len(event)])]
                uids = event.user_ids[[0, *cuts]].tolist()
            else:
                items, uids = [event], [event.user_id]
            for uid, item in zip(uids, items):
                if uid != current:
                    if current is not None:
                        yield current, events
                        if uid <= current:
                            raise StreamFormatError(
                                f"{reader.path}: user {uid} follows user "
                                f"{current}; stream merge needs "
                                "user-contiguous artifacts (engine-free "
                                "backends)"
                            )
                    current, events = uid, []
                events.append((kind, item))
    if current is not None:
        yield current, events


def merge_stream_files(output: str, inputs: Iterable[str],
                       metadata: dict | None = None) -> int:
    """K-way merge per-shard artifacts into one canonical file.

    Inputs must share the format version, schema and ``rows_per_chunk``
    and hold disjoint, user-contiguous populations (what
    ``run_fleet(..., out_stream=...)`` shards write).  Users interleave
    back into ascending id order — the engine-free backends' canonical
    execution order — and the event stream is re-chunked under the same
    deterministic boundary rule, so the merged artifact is **bit
    identical** to the one a single-shard run writes.  Returns the
    number of op rows merged.

    ``metadata`` defaults to the first input's (shard metadata is
    run-level and identical across shards).
    """
    paths = list(inputs)
    if not paths:
        raise ValueError("merge_stream_files needs at least one input")
    readers = [StreamReader(p) for p in paths]
    try:
        first = readers[0]
        for reader in readers[1:]:
            if reader.version != first.version:
                raise StreamFormatError(
                    f"{reader.path}: format version {reader.version} != "
                    f"{first.version}"
                )
            if reader.rows_per_chunk != first.rows_per_chunk:
                raise StreamFormatError(
                    f"{reader.path}: rows_per_chunk "
                    f"{reader.rows_per_chunk} != {first.rows_per_chunk}; "
                    "shards must share one memory budget"
                )
        if metadata is None:
            metadata = first.metadata
        groups = [_iter_user_groups(r) for r in readers]
        heads: dict[int, tuple[int, list]] = {}
        for i, group in enumerate(groups):
            head = next(group, None)
            if head is not None:
                heads[i] = head
        rows = 0
        try:
            with StreamWriter(output, first.rows_per_chunk,
                              metadata=metadata) as writer:
                while heads:
                    source = min(heads, key=lambda i: heads[i][0])
                    uid, events = heads[source]
                    clashes = [i for i, (u, _) in heads.items()
                               if u == uid and i != source]
                    if clashes:
                        raise StreamFormatError(
                            f"user {uid} appears in both "
                            f"{readers[source].path} and "
                            f"{readers[clashes[0]].path}; shards must be "
                            "disjoint"
                        )
                    for kind, payload in events:
                        if kind == "rows":
                            writer.add_batch(payload)
                            rows += len(payload)
                        else:
                            writer.add_session(payload)
                    head = next(groups[source], None)
                    if head is None:
                        del heads[source]
                    else:
                        heads[source] = head
        except BaseException:
            # Never leave a half-written artifact behind.
            with contextlib.suppress(OSError):
                os.unlink(output)
            raise
        return rows
    finally:
        for reader in readers:
            reader.close()


# ---------------------------------------------------------------------------
# Crash salvage, resume, and verification
# ---------------------------------------------------------------------------


def _sequential_scan(stream, size: int, data_start: int):
    """Walk chunk frames forward from ``data_start``, checking each.

    Returns ``(entries, data_end, error)``: the index entries of every
    intact (CRC-checked *and decoded*) chunk frame before the first
    problem, the offset just past the last of them, and a description of
    what stopped the walk (None when it ended cleanly at a footer frame
    or at end of data).
    """
    entries: list[dict] = []
    pos = data_start
    while pos < size:
        what = f"chunk {len(entries)}"
        try:
            kind, payload, stop = _read_frame(stream, pos, size, what)
            if kind == _FRAME_FOOTER:
                break
            if kind != _FRAME_CHUNK:
                raise StreamFormatError(f"unknown frame type {kind!r}")
            batch, frames = _decode_chunk(payload, what)
            sessions = _parse_sessions(frames, what)
        except StreamFormatError as exc:
            return entries, pos, f"{exc} (offset {pos})"
        entries.append(_entry_from_chunk(pos, batch, sessions))
        pos = stop
    return entries, pos, None


@dataclass
class ReplaySummary:
    """What :meth:`SalvagedStream.replay` fed into the sink.

    ``last_user`` (with its op-row and session counts inside the
    salvaged prefix) is the resume boundary: in a user-contiguous
    artifact every event the crash lost belongs to that user or later
    ones, because chunk *i* is only flushed once a row of chunk *i+1*
    has arrived — the last salvaged user's first row postdates every
    earlier user's entire event stream.
    """

    rows: int = 0
    sessions: int = 0
    max_end_us: float = 0.0
    last_user: int | None = None
    last_user_rows: int = 0
    last_user_sessions: int = 0


@dataclass
class SalvagedStream:
    """The verified, reusable prefix of a (possibly crashed) artifact.

    ``complete`` means the footer was intact and the whole file is
    reusable; otherwise ``index`` lists the CRC-verified *full* chunks
    (exactly ``rows_per_chunk`` rows each — a short tail chunk is
    dropped because resumed frames must land on the same deterministic
    boundaries) and ``data_end`` is the byte offset a resumed writer
    truncates to.
    """

    path: str
    version: int
    rows_per_chunk: int
    metadata: dict
    complete: bool
    index: list[dict]
    rows: int
    sessions: int
    data_end: int

    def _iter_chunks(self):
        with open(self.path, "rb") as stream:
            size = os.fstat(stream.fileno()).st_size
            for i, entry in enumerate(self.index):
                what = f"{self.path}: salvaged chunk {i}"
                kind, payload, _ = _read_frame(stream, entry["offset"], size,
                                               what)
                if kind != _FRAME_CHUNK:
                    raise StreamFormatError(f"{what}: not a chunk frame")
                batch, frames = _decode_chunk(payload, what)
                yield batch, _parse_sessions(frames, what)

    def replay(self, sink) -> ReplaySummary:
        """Re-emit the salvaged prefix into ``sink`` (see StreamReader).

        Ops and session records interleave at their recorded positions,
        so an order-invariant accumulator (the exact-integer tally)
        ends up exactly as if it had seen the original events.  The
        returned summary carries the resume boundary.
        """
        out = ReplaySummary()
        for batch, sessions in self._iter_chunks():
            for kind, event in _chunk_events(batch, sessions, out.rows):
                if kind == "rows":
                    sink.record_batch(event)
                    end = float((event.start_us + event.response_us).max())
                    uid = int(event.user_ids[-1])
                else:
                    sink.record_session(event)
                    out.sessions += 1
                    end, uid = float(event.end_us), int(event.user_id)
                if end > out.max_end_us:
                    out.max_end_us = end
                if out.last_user is None or uid > out.last_user:
                    out.last_user = uid
                    out.last_user_rows = out.last_user_sessions = 0
                if kind == "rows":
                    out.last_user_rows += int((event.user_ids == uid).sum())
                elif uid == out.last_user:
                    out.last_user_sessions += 1
            out.rows += len(batch)
        return out


def salvage_stream(path: str) -> SalvagedStream:
    """Find the intact, resumable prefix of an artifact at ``path``.

    A file with a valid footer is ``complete`` (fully reusable).
    Otherwise the chunk frames are walked from the header forward and
    only what that walk CRC-checked *and decoded* survives; anything
    doubtful is treated as lost and will be regenerated.
    """
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise StreamFormatError(f"cannot stat stream file: {exc}") from None
    try:
        with StreamReader(path) as reader:
            entries = [info.entry() for info in reader.chunk_index]
            return SalvagedStream(
                path=path, version=reader.version,
                rows_per_chunk=reader.rows_per_chunk,
                metadata=dict(reader.metadata), complete=True,
                index=entries, rows=reader.total_rows,
                sessions=reader.total_sessions,
                data_end=reader._footer_offset,
            )
    except StreamFormatError:
        pass
    with open(path, "rb") as stream:
        version, header, data_start = _parse_header(stream, size, path)
        entries, data_end, _ = _sequential_scan(stream, size, data_start)
    rows_per_chunk = header["rows_per_chunk"]
    # Only full chunks resume on the original boundaries; a short tail
    # chunk (written by a crashed close()) is dropped and regenerated.
    # Frames are contiguous, so the prefix ends where the dropped one began.
    while entries and entries[-1]["rows"] != rows_per_chunk:
        data_end = entries.pop()["offset"]
    return SalvagedStream(
        path=path, version=version, rows_per_chunk=rows_per_chunk,
        metadata=dict(header.get("metadata", {})), complete=False,
        index=entries, rows=sum(e["rows"] for e in entries),
        sessions=sum(e["sessions"] for e in entries),
        data_end=data_end,
    )


def resume_stream_sink(path: str,
                       memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
                       metadata: dict | None = None, observer=None,
                       checkpoint: bool = True, flush_hook=None):
    """A :class:`StreamFileSink` continuing whatever survives at ``path``.

    Returns ``(sink, salvaged)``:

    * no usable prefix (missing file, foreign budget, nothing verified)
      — a fresh sink overwriting ``path``, ``salvaged`` None;
    * a crashed prefix — a sink resuming after the last intact chunk,
      with ``salvaged`` describing what to replay and skip;
    * an already-complete artifact — ``sink`` None, ``salvaged``
      carries the full file.
    """
    rows_per_chunk = rows_per_chunk_for(memory_budget_bytes)
    salvaged = None
    if os.path.exists(path):
        try:
            salvaged = salvage_stream(path)
        except StreamFormatError:
            salvaged = None
        if salvaged is not None and (
                salvaged.rows_per_chunk != rows_per_chunk
                or (not salvaged.complete and not salvaged.index)):
            salvaged = None
    if salvaged is None:
        sink = StreamFileSink(
            path, memory_budget_bytes, metadata=metadata, observer=observer,
            checkpoint=checkpoint, flush_hook=flush_hook)
        return sink, None
    if salvaged.complete:
        return None, salvaged
    writer = StreamWriter.resume(
        salvaged, metadata=metadata, observer=observer,
        checkpoint=checkpoint, flush_hook=flush_hook)
    return StreamFileSink(path, memory_budget_bytes, _writer=writer), salvaged


@dataclass
class StreamVerifyReport:
    """Outcome of a full-file CRC walk (the ``stream verify`` verb)."""

    path: str
    ok: bool
    complete: bool
    chunks: int
    chunks_ok: int
    rows: int
    sessions: int
    file_bytes: int
    errors: list[str]

    def as_kv(self) -> dict:
        """Human-readable summary for the CLI."""
        return {
            "path": self.path,
            "verdict": "ok" if self.ok else "CORRUPT",
            "complete": self.complete,
            "chunks ok": f"{self.chunks_ok}/{self.chunks}",
            "op rows": self.rows,
            "sessions": self.sessions,
            "file bytes": self.file_bytes,
            "errors": len(self.errors),
        }


def verify_stream(path: str) -> StreamVerifyReport:
    """Exhaustively CRC-check and decode every frame of an artifact.

    Unlike lazy reads — which only fault on the chunks a consumer
    happens to touch — this walks header, every chunk payload (decoded,
    not just checksummed), the footer, and the tail, and reports every
    problem found.  ``ok`` requires a complete file with zero errors.
    """
    errors: list[str] = []
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        return StreamVerifyReport(path=path, ok=False, complete=False,
                                  chunks=0, chunks_ok=0, rows=0, sessions=0,
                                  file_bytes=0, errors=[str(exc)])
    try:
        reader = StreamReader(path)
    except StreamFormatError as exc:
        footer_error = exc
    else:
        with reader:
            chunks_ok = 0
            sessions_seen = 0
            for info in reader.chunk_index:
                try:
                    chunk = reader.read_chunk(info.index)
                    sessions = chunk.sessions
                except StreamFormatError as exc:
                    errors.append(f"chunk {info.index}: {exc}")
                    continue
                chunks_ok += 1
                sessions_seen += len(sessions)
                if info.entry() != _entry_from_chunk(info.offset, chunk.batch,
                                                     sessions):
                    errors.append(f"chunk {info.index}: footer index "
                                  "disagrees with rows")
            if sessions_seen != reader.total_sessions and not errors:
                errors.append(
                    f"footer: session total {reader.total_sessions} != "
                    f"{sessions_seen} found in chunks"
                )
            return StreamVerifyReport(
                path=path, ok=not errors, complete=True,
                chunks=len(reader.chunk_index), chunks_ok=chunks_ok,
                rows=reader.total_rows, sessions=reader.total_sessions,
                file_bytes=size, errors=errors,
            )
    # No usable footer: say whether the header or the footer is at fault,
    # then count whatever chunk frames a forward CRC walk still finds.
    try:
        with open(path, "rb") as stream:
            _, _, data_start = _parse_header(stream, size, path)
    except (OSError, StreamFormatError) as exc:
        return StreamVerifyReport(path=path, ok=False, complete=False,
                                  chunks=0, chunks_ok=0, rows=0, sessions=0,
                                  file_bytes=size, errors=[f"header: {exc}"])
    errors.append(f"footer: {footer_error}")
    with open(path, "rb") as stream:
        entries, _, scan_error = _sequential_scan(stream, size, data_start)
    if scan_error is not None:
        errors.append(scan_error)
    return StreamVerifyReport(
        path=path, ok=False, complete=False, chunks=len(entries),
        chunks_ok=len(entries),
        rows=sum(e["rows"] for e in entries),
        sessions=sum(e["sessions"] for e in entries),
        file_bytes=size, errors=errors,
    )
