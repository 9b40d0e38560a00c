"""On-disk op-stream artifacts — the run as a durable, re-readable file.

An in-memory ``UsageLog`` or ``WorkloadTally`` stores the whole run or
only its statistics.  At million-user scale consumers need the *op
stream itself* (LWS-style log-driven replay wants the exact ops, not a
regeneration) and the generating machine cannot hold it, so this module
makes it a file, with one writer and one reader:

* :class:`StreamFileSink` is the writer: an
  :class:`~repro.core.oplog.OpSink` that spills
  :class:`~repro.core.opbatch.OpBatch` chunks to disk under a bounded
  ``memory_budget_bytes`` instead of accumulating;
* :class:`StreamReader` is the reader: it streams the artifact back as
  batches, with a footer index for seeking and slicing by user id or
  time window without touching unrelated chunks, and
  :meth:`StreamReader.replay` feeds a sink (tally, usage log, another
  stream file) straight from disk;
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
order) followed by the columns — an integer column as one npy-framed
block at the narrowest signed width that holds the chunk's values,
widened back to its schema dtype on read; a float column as an encoding
tag and its blocks: ``raw``, a ``dict`` of the response times' 64-bit
patterns, or the start times as exceptions to the think-time ``clock``
rule ``start[i] = (start[i-1] + response[i-1]) + think[i-1]``, whichever
is smallest of those that decode bit for bit — then the session records
that ended inside the chunk, each tagged with its global op-row position
so the exact event order (ops interleaved with session summaries)
reconstructs on replay.

Determinism is the load-bearing property.  Chunk boundaries are a pure
function of the global op-row count (``rows_per_chunk`` rows each,
derived from the byte budget via the fixed :data:`ROW_BYTES`), never of
arrival granularity, and widths and encodings a pure function of a
chunk's rows — so re-chunking the same event stream, whether it comes
from one run, a replay, or a k-way shard merge, reproduces the same
frames byte for byte.  Every frame is CRC-checked and every decoded
field range-checked; any truncation, bit flip or out-of-range field
surfaces as :class:`StreamFormatError`, never as garbage records.

Reading is said once: :func:`_read_frame` is the one frame walk (seek,
frame head, length bounded by the file size, read, CRC),
:func:`_check_chunk` the one payload check and ``StreamReader._events``
the one interleave of a chunk's op rows and session summaries, behind
replay, the shard merge and resume.  ``read_chunk`` decodes a whole
chunk; a user or time slice runs the same checks on the chunk as
stored, widens only the rows it returns and reuses a chunk's parsed
string tables while their bytes stay the same (a bounded memo).

Crash recovery trusts the file alone.  The writer flushes every chunk
frame as it writes it, so a killed process leaves whole frames;
:func:`salvage_stream` opens whatever survives as a :class:`StreamReader`
— indexed by the footer when it opens, otherwise by walking the frames
from the header, keeping only chunks that pass their CRC and decode —
and :func:`resume_stream_sink` continues writing after its last full
chunk.  Nothing beside the artifact is written or read.

Versioning: ``FORMAT_VERSION`` bumps on any layout change; readers
reject newer versions loudly.  Version 2 narrowed the integer columns
and version 3 put each float column behind an encoding tag; a version-1
or -2 file is the case without those changes and reads the same way.
``docs/architecture.md`` gives the format's rationale and evolution rules.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import numbers
import os
import struct
import sys
import time
import warnings
import zlib
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .opbatch import OP_KIND_NAMES, OpBatch, StringTable, flush_sink
from .oplog import SessionRecord

__all__ = [
    "FORMAT_VERSION",
    "ROW_BYTES",
    "DEFAULT_MEMORY_BUDGET",
    "StreamFormatError",
    "rows_per_chunk_for",
    "TeeSink",
    "StreamFileSink",
    "ChunkInfo",
    "StreamChunk",
    "StreamReader",
    "iter_batches",
    "merge_stream_files",
    "salvage_stream",
    "resume_stream_sink",
    "StreamVerifyReport",
    "verify_stream",
]

MAGIC = b"REPRO-OPSTREAM\x00"
FORMAT_VERSION = 3

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
# Per-chunk table compaction over the writer's pieces
# ---------------------------------------------------------------------------


# (index column, the table it indexes).
_STRING_COLUMNS = (("path_idx", "paths"), ("category_idx", "categories"),
                   ("user_type_idx", "user_types"))


def _joined(pieces: list[OpBatch], name: str) -> np.ndarray:
    """Column ``name`` of ``pieces`` as one array (a lone piece's own,
    an empty one for none)."""
    if len(pieces) == 1:
        return getattr(pieces[0], name)
    return np.concatenate([getattr(piece, name) for piece in pieces]
                          or [np.empty(0)])


def _table_runs(pieces: list[OpBatch]) -> list[list[OpBatch]]:
    """``pieces`` cut into runs of consecutive pieces that share all
    three string-table *objects* (slices of one parent — a user block's
    per-session views), so compaction costs follow the number of
    distinct parents, not the number of slices."""
    runs: list[list[OpBatch]] = []
    for piece in pieces:
        if runs and all(getattr(piece, table) is getattr(runs[-1][-1], table)
                        for _, table in _STRING_COLUMNS):
            runs[-1].append(piece)
        else:
            runs.append([piece])
    return runs


def _compact_column(runs: list[list[OpBatch]], idx_name: str,
                    table_name: str) -> tuple[list[np.ndarray], list[str]]:
    """Compact one string column of a chunk's pieces for serialisation.

    Returns ``(columns, values)``: ``values`` holds only the strings the
    rows reference, ordered by first occurrence in row order across the
    whole chunk (one entry per distinct string, whichever tables it came
    from), and ``columns`` the rows' indices into it, one array per run.
    A pure function of the rows, so identical rows always serialise to
    identical bytes regardless of the tables they shared in memory.  A
    chunk that references no string keeps its pieces' own columns.
    """
    chunk_table: dict[str, int] = {}
    columns = []
    for run in runs:
        # Source index i is i + 1 here; every negative index is 0.
        shifted = np.maximum(_joined(run, idx_name), -1)
        shifted += 1
        # Each index's first row in one scatter pass (np.unique's sort
        # costs ~20x the time and twice the transient memory).
        first = np.full(int(shifted.max()) + 1, len(shifted), dtype=np.int64)
        np.minimum.at(first, shifted, np.arange(len(shifted)))
        used = np.flatnonzero(first[1:] < len(shifted))
        ordered = used[np.argsort(first[used + 1], kind="stable")]
        values = getattr(run[0], table_name).values()
        lut = np.full(len(first), -1, dtype=np.int32)
        lut[ordered + 1] = [chunk_table.setdefault(values[i], len(chunk_table))
                            for i in ordered.tolist()]
        columns.append(lut[shifted])
    if not chunk_table:
        return [getattr(piece, idx_name) for run in runs for piece in run], []
    return columns, list(chunk_table)


# ---------------------------------------------------------------------------
# Chunk payload encode/decode
# ---------------------------------------------------------------------------


_U32 = struct.Struct("<L")
_U64 = struct.Struct("<Q")
_CHUNK_HEAD = struct.Struct("<QB")  # op rows, think flag
_SESSION_HEAD = struct.Struct("<QL")  # global op-row position, line bytes
_NPY_HEAD = struct.Struct("<8xH")  # npy 1.0 magic + version, header bytes


def _file_dtypes(schema: np.dtype) -> tuple[np.dtype, ...]:
    """The dtypes a column of ``schema`` may be stored at, narrowest
    first: an integer column any signed little-endian width up to its
    schema's (the writer picks the narrowest that holds the chunk), a
    float column only its own.  A version-1 file is the all-schema-width
    case."""
    sizes = (1, 2, 4, 8) if schema.kind == "i" else (schema.itemsize,)
    return tuple(np.dtype(f"<{schema.kind}{size}") for size in sizes
                 if size <= schema.itemsize)


# (name, schema dtype, file dtypes), in file order.
_COLUMN_DTYPES = tuple((name, np.dtype(dtype), _file_dtypes(np.dtype(dtype)))
                       for name, dtype in (*_COLUMNS, _THINK_COLUMN))

# Float-column encodings (format 3): a tag byte ahead of the column's
# blocks.  ``raw`` is the format-2 block; ``dict`` (``response_us``
# only) a table and an index block; ``clock`` (``start_us``, chunks with
# think times) a positions block and a ``(previous, own)`` start block.
_RAW, _DICT, _CLOCK = range(3)
_ENCODINGS = ("raw", "dict", "clock")
_FLOAT_COLUMNS = {"start_us": _CLOCK, "response_us": _DICT}
_F8, _I8 = np.dtype("<f8"), np.dtype("<i8")
_INDEX_WIDTHS = _file_dtypes(_I8)
_NEGATIVE_ZERO = np.array(-0.0).view(np.int64)


@dataclass(frozen=True)
class _Coded:
    """A ``dict`` or ``clock`` float column of ``rows`` rows as stored:
    ``keys`` the row indices into the table ``values`` (dict), or the
    exception positions with ``values`` their ``(previous start, own
    start)`` pairs (clock)."""

    tag: int
    rows: int
    keys: np.ndarray
    values: np.ndarray


def _clock(response: np.ndarray, think: np.ndarray, at: np.ndarray,
           previous: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Start times of ``len(response) + 1`` rows, the first an exception,
    by one ``np.cumsum`` over a ``2 x rows`` contribution array: row
    ``j`` contributes ``(response[j - 1], think[j - 1])``, the row before
    it's, unless it is an exception (``at``), which contributes
    ``(-previous, own)`` and so resets the running sum exactly
    (``x + -x == +0.0``, ``0.0 + v == v``).  The first row contributes
    ``(-0.0, own)``: a decode may enter at any exception."""
    sums = np.empty(2 * len(response) + 2)
    sums[2::2] = response
    sums[3::2] = think
    sums[2 * at] = -previous
    sums[2 * at + 1] = own
    sums[0] = -0.0
    with np.errstate(all="ignore"):  # inf - inf is data here
        np.cumsum(sums, out=sums)
    return sums[1::2]


def _float_rows(columns: dict, name: str, lo: int = 0,
                hi: "int | None" = None) -> np.ndarray:
    """Rows ``[lo, hi)`` of float column ``name`` of a chunk's stored
    ``columns``, decoded (a raw column's are a view).

    A clock column is decoded from the last exception at or before
    ``lo``, each exception's start being ``-0.0 + own``, so that every
    entry point gives the same rows.  One :func:`_clock` cumsum does it
    when each reset inside the range is exact: the previous start it
    cancels is the decoded row before (finite: ``x + -x == +0.0``) and
    the row's own start is not -0.0 (``+0.0 + v == -0.0 + v`` for every
    other ``v``).  The writer checks that of every file it writes; a file
    it did not write falls back to one cumsum per run of rule-following
    rows.
    """
    coded = columns[name]
    if not isinstance(coded, _Coded):
        return coded[lo:hi]
    hi = coded.rows if hi is None else hi
    if coded.tag == _DICT:
        return np.take(coded.values.view(np.float64), coded.keys[lo:hi])
    if hi <= lo:
        return np.empty(0)
    positions, values = coded.keys, coded.values
    first = int(np.searchsorted(positions, lo, "right")) - 1
    stop = int(np.searchsorted(positions, hi))
    base = int(positions[first])
    at = positions[first:stop].astype(np.int64) - base
    previous = values[2 * first:2 * stop:2]
    own = values[2 * first + 1:2 * stop:2]
    response = _float_rows(columns, "response_us", base, hi - 1)
    think = columns["think_us"][base:hi - 1]
    starts = _clock(response, think, at, previous, own)
    later = at[1:]
    if len(later) and not (
            np.isfinite(previous[1:]).all()
            and np.array_equal(starts[later - 1].view(np.int64),
                               previous[1:].view(np.int64))
            and (own[1:].view(np.int64) != _NEGATIVE_ZERO).all()):
        edges = [*at.tolist(), hi - base]
        starts = np.concatenate([
            _clock(response[a:b - 1], think[a:b - 1], at[:1], previous[:1],
                   own[j:j + 1])
            for j, (a, b) in enumerate(zip(edges, edges[1:]))])
    return starts[lo - base:]


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


def _npy_preamble(dtype: np.dtype, rows: int) -> bytes:
    """What ``np.save`` writes ahead of a ``rows`` x ``dtype`` column,
    length-framed."""
    key = (dtype.str, rows)
    preamble = _NPY_PREAMBLES.get(key)
    if preamble is None:
        head = io.BytesIO()
        np.lib.format.write_array_header_1_0(head, {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False, "shape": (rows,)})
        if len(_NPY_PREAMBLES) >= _NPY_HEADERS_MAX:
            _NPY_PREAMBLES.clear()
        preamble = _NPY_PREAMBLES[key] = (
            _U64.pack(head.tell() + rows * dtype.itemsize) + head.getvalue())
    return preamble


def _width(widths: tuple[np.dtype, ...], columns) -> np.dtype:
    """The first of ``widths`` (narrowest first) that holds every value
    of ``columns``, non-empty arrays reduced one at a time."""
    if len(widths) > 1:
        lo = hi = 0  # fits every width, so never changes the choice
        for column in columns:
            lo, hi = min(lo, int(column.min())), max(hi, int(column.max()))
        for width in widths:
            bound = 1 << (8 * width.itemsize - 1)
            if -bound <= lo and hi < bound:
                return width
    return widths[-1]


def _index_width(limit: int) -> np.dtype:
    """The narrowest signed width holding ``0..limit``."""
    return _width(_INDEX_WIDTHS, [np.array([limit])])


def _parts_nbytes(parts) -> int:
    """Bytes :func:`_buffers` makes of ``parts``."""
    return sum(len(part) if isinstance(part, bytes)
               else part[0].itemsize * sum(map(len, part[1]))
               for part in parts)


_WINDOW_ROWS = 8192


def _windows(pieces: list[OpBatch], names: tuple[str, ...],
             lead: bool = False):
    """Columns ``names`` of the rows of ``pieces`` in windows of
    :data:`_WINDOW_ROWS` rows (the last one shorter), each joined, and
    with ``lead`` each after the first led by a copy of the row before
    it: yields ``(first row, arrays)``.  The float encoders' transient
    memory is a window's, whatever the chunk's size or piecing."""
    windows, segments, room = [], [], _WINDOW_ROWS
    for piece in pieces:
        at = 0
        while at < len(piece):
            take = min(room, len(piece) - at)
            segments.append((piece, at, at + take))
            at, room = at + take, room - take
            if not room:
                windows.append(segments)
                segments, room = [], _WINDOW_ROWS
    if segments:
        windows.append(segments)
    before, first = None, 0
    for segments in windows:
        arrays = []
        for i, name in enumerate(names):
            parts = [getattr(piece, name)[lo:hi] for piece, lo, hi in segments]
            arrays.append(np.concatenate(
                parts if before is None else [before[i], *parts]))
        yield first, arrays
        first += sum(hi - lo for _, lo, hi in segments)
        if lead:
            before = [array[-1:].copy() for array in arrays]
        arrays = None  # not alive while the next window is joined


def _unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct ``values`` (``np.unique``'s first call
    imports ``numpy.ma``, half a megabyte, inside a chunk flush)."""
    ordered = np.sort(values)
    fresh = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered[fresh]


def _dict_parts(pieces: list[OpBatch], n: int):
    """``response_us`` as a dictionary: its sorted unique 64-bit patterns
    (an ``<i8`` view, so -0.0 and NaN payloads stay apart) and each row's
    index into them at the narrowest width.  Exact by construction.

    One sort per window gives the window's distinct patterns and each
    row's rank among them; the chunk's table is their union, and a row's
    index is its rank's place in it."""
    tables, ranks = [], []
    for _, (column,) in _windows(pieces, ("response_us",)):
        patterns = column.view(np.int64)
        order = np.argsort(patterns)
        ordered = patterns[order]
        fresh = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
        tables.append(ordered[fresh])
        ranks.append((order.astype(np.int32),
                      np.cumsum(fresh, dtype=np.int32) - 1))
    table = _unique(np.concatenate(tables))
    width = _index_width(len(table) - 1)
    if 8 * len(table) + width.itemsize * n >= 8 * n:
        return None  # never beats raw
    keys = []
    for local, (order, rank) in zip(tables, ranks):
        key = np.empty(len(order), dtype=width)
        key[order] = np.searchsorted(table, local)[rank]
        keys.append(key)
    return [bytes([_DICT]) + _npy_preamble(_I8, len(table)), (_I8, [table]),
            _npy_preamble(width, n), (width, keys)]


def _clock_parts(pieces: list[OpBatch], n: int):
    """``start_us`` as exceptions to the think-time clock rule
    ``start[i] = (start[i-1] + response[i-1]) + think[i-1]`` (compared as
    bit patterns): each exception's position and ``(previous start, own
    start)`` pair, row 0 always one, its previous start stored as 0.0.

    None unless every exception after row 0 follows a finite start and
    :func:`_clock` gives the column back bit for bit.  Two passes over
    :func:`_windows`: the first finds the exceptions (and gives up once
    they cannot beat raw), the second decodes each window from its lead
    row as an exception — the rows before it checked, the lead's start
    is the whole decode's running sum there, so each window decodes as
    the whole chunk does — and gathers the pairs."""
    names = ("start_us", "response_us", "think_us")
    width = _index_width(n - 1)
    found, k = [np.zeros(1, dtype=np.int64)], 1
    for first, (start, response, think) in _windows(pieces, names, True):
        with np.errstate(all="ignore"):  # inf - inf is data here
            follows = start[:-1] + response[:-1]
            follows += think[:-1]
        rows = np.flatnonzero(
            follows.view(np.int64) != start[1:].view(np.int64))
        # follows[j] is window row j + 1: chunk row j + 1 in the first
        # window, first + j past a lead.
        rows += first + (first == 0)
        found.append(rows)
        k += len(rows)
        if k * (width.itemsize + 16) >= 8 * n:
            return None  # never beats raw: skip the check
    positions = np.concatenate(found)
    values = np.zeros(2 * k)
    for first, (start, response, think) in _windows(pieces, names, True):
        # Chunk row r is window row r - first, one more past the lead.
        lead = int(first > 0)
        lo, hi = np.searchsorted(positions,
                                 [first, first + len(start) - lead])
        at = positions[lo:hi] - (first - lead)
        if lead:
            at = np.concatenate(([0], at))
        previous = start[np.maximum(at - 1, 0)]
        previous[:1 - lead] = 0.0  # chunk row 0's is stored as 0.0
        if not np.isfinite(previous[1:]).all():
            return None
        decoded = _clock(response[:-1], think[:-1], at, previous, start[at])
        if not np.array_equal(decoded.view(np.int64), start.view(np.int64)):
            return None
        values[2 * lo:2 * hi:2] = previous[lead:]
        values[2 * lo + 1:2 * hi:2] = start[at[lead:]]
    return [bytes([_CLOCK]) + _npy_preamble(width, k), (width, [positions]),
            _npy_preamble(_F8, 2 * k), (_F8, [values])]


def _float_parts(name: str, pieces: list[OpBatch], n: int,
                 has_think: bool, raw_floats: bool) -> list:
    """Float column ``name`` as an encoding tag and its blocks: ``raw``
    (the pieces' own arrays), or, unless ``raw_floats``, the column's
    other encoding (``clock`` for ``start_us`` when the chunk has think
    times, ``dict`` for ``response_us``) when that decodes bit for bit
    in fewer bytes."""
    raw = [bytes([_RAW]) + _npy_preamble(_F8, n),
           (_F8, [getattr(piece, name) for piece in pieces])]
    coded = None
    if n and not raw_floats and name == "response_us":
        coded = _dict_parts(pieces, n)
    elif n and not raw_floats and has_think:
        coded = _clock_parts(pieces, n)
    if coded is None or _parts_nbytes(coded) >= _parts_nbytes(raw):
        return raw
    return coded


def _encode_chunk(pieces: list[OpBatch],
                  sessions: list[tuple[int, SessionRecord]],
                  raw_floats: bool = False
                  ) -> list[bytes | tuple[np.dtype, list[np.ndarray]]]:
    """The payload of a chunk made of ``pieces``, as parts in file order.

    The pieces are encoded as if concatenated, without concatenating
    them: each integer column is one npy preamble for the chunk's row
    count followed by one ``(file dtype, arrays)`` part: an array per
    piece (per run of same-table pieces for the compacted string
    columns), cast by :func:`_buffers` only as it is reached.  An
    integer column's file dtype is the narrowest signed width holding
    the chunk's values (:func:`_width`, one min/max per run of
    same-parent pieces); a column already contiguous in its file dtype
    — an integer one left at its schema width, a ``raw`` float column —
    is the piece's own array, not a copy.  Each float column is a tag
    byte and its encoding's blocks (:func:`_float_parts`; ``raw`` only,
    with ``raw_floats``).  ``think_us``
    is written only when every non-empty piece carries one (a record
    batch has no pause to invent).  Small ``bytes`` (counts, string
    tables, preambles, session lines) fill the gaps.  The caller owns
    CRC and write order (chain ``zlib.crc32`` over one pass of the
    buffers, then write a second) and must do both before anything
    mutates the pieces.
    """
    pieces = [piece for piece in pieces if len(piece)]
    n = sum(len(piece) for piece in pieces)
    if n and int(_joined(pieces, "kinds").max()) >= len(OP_KIND_NAMES):
        raise StreamFormatError(
            "op kinds past the stream file's kind table (a trace's "
            "mkdir/rmdir, see RECORD_KIND_NAMES) cannot be written")
    has_think = bool(pieces) and all(piece.think_us is not None
                                     for piece in pieces)
    runs = _table_runs(pieces)
    head = [_CHUNK_HEAD.pack(n, int(has_think))]
    compacted = {}
    for idx_name, table_name in _STRING_COLUMNS:
        columns, values = _compact_column(runs, idx_name, table_name)
        if values:  # else the pieces' own columns came back
            compacted[idx_name] = columns
        head.append(_table_bytes(values))
    parts: list[bytes | tuple[np.dtype, list[np.ndarray]]] = [
        b"".join(head)]
    for name, _, widths in _COLUMN_DTYPES[:len(_COLUMNS) + has_think]:
        if name in _FLOAT_COLUMNS:
            parts += _float_parts(name, pieces, n, has_think, raw_floats)
            continue
        columns = compacted.pop(name, None)
        if columns is None:
            columns = [getattr(piece, name) for piece in pieces]
            width = (_width(widths, (_joined(run, name) for run in runs))
                     if n else widths[-1])
        else:  # compacted copies: narrowed now, they hold less meanwhile
            width = _width(widths, columns) if n else widths[-1]
            columns = [column.astype(width) for column in columns]
        parts += [_npy_preamble(width, n), (width, columns)]
    tail = [_U32.pack(len(sessions))]
    for position, record in sessions:
        raw = record.to_line().encode("utf-8")
        tail += (_SESSION_HEAD.pack(position, len(raw)), raw)
    parts.append(b"".join(tail))
    return parts


def _buffers(parts: list[bytes | tuple[np.dtype, list[np.ndarray]]]):
    """:func:`_encode_chunk`'s parts as C-contiguous buffers, each array
    cast to its file dtype only as it is reached: a caller that drops
    each buffer before asking for the next holds one cast at a time."""
    for part in parts:
        if isinstance(part, bytes):
            yield part
        else:
            width, columns = part
            for column in columns:
                yield np.ascontiguousarray(column, dtype=width)


def _read_table(payload: bytes, pos: int) -> tuple[list[str], int]:
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
    return values, pos


def _read_array(payload: bytes, pos: int, name: str,
                widths: tuple[np.dtype, ...], n: "int | None"
                ) -> tuple[np.ndarray, int]:
    """The npy-framed column at ``pos``, as stored, and the offset just
    past it.

    The block must hold ``n`` rows (any number, if None; a 1-D block
    still) at one of the file dtypes ``widths``.
    The array is a view of ``payload``: :func:`_batch` widens it into a
    copy that owns its memory, since a consumer keeping one column of
    each chunk must not pin every payload.  New headers go through
    numpy's own parser, so nothing numpy rejects is accepted, nor is
    anything but npy 1.0, C order, no object dtype.
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
            with warnings.catch_warnings():
                # numpy's Python 2 header fallback only warns: refuse it.
                warnings.simplefilter("error")
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
    found, shape = declared
    allowed = [width.str for width in widths]
    rows = shape[0] if n is None and len(shape) == 1 else n
    if (shape != (rows,) or found.str not in allowed
            or stop - data != rows * found.itemsize):
        raise StreamFormatError(
            f"column {name!r}: expected {n} x {'/'.join(allowed)}, got "
            f"{shape} x {found.str} in {stop - data} bytes")
    return np.frombuffer(payload, found, rows, data), stop


def _read_float(payload: bytes, pos: int, name: str, n: int,
                has_think: bool):
    """Format 3's float column ``name`` at ``pos``: its encoding tag and
    blocks, checked, as a raw array or a :class:`_Coded`, and the offset
    just past it.  The clock's decode needs the think column, which comes
    later: ``has_think`` says whether the chunk has one."""
    tag = payload[pos]
    if tag not in (_RAW, _FLOAT_COLUMNS[name]) or (
            tag == _CLOCK and not has_think):
        raise StreamFormatError(f"column {name!r}: bad encoding tag {tag}")
    if tag == _RAW:
        return _read_array(payload, pos + 1, name, (_F8,), n)
    if tag == _DICT:
        values, pos = _read_array(payload, pos + 1, name, (_I8,), None)
        keys, pos = _read_array(payload, pos, name, _INDEX_WIDTHS, n)
        valid = (not n or 0 <= int(keys.min())
                 and int(keys.max()) < len(values)) and bool(
                     (values[1:] > values[:-1]).all())
    else:
        keys, pos = _read_array(payload, pos + 1, name, _INDEX_WIDTHS, None)
        values, pos = _read_array(payload, pos, name, (_F8,), 2 * len(keys))
        valid = (len(keys) > 0) == (n > 0) and (
            not n or int(keys[0]) == 0 and int(keys[-1]) < n
            and bool((keys[1:] > keys[:-1]).all()))
    if not valid:
        raise StreamFormatError(
            f"column {name!r}: {_ENCODINGS[tag]} "
            + ("index outside its table or table not sorted unique"
               if tag == _DICT else "exception positions not increasing "
               "from row 0 inside the chunk"))
    return _Coded(tag, n, keys, values), pos


def _check_chunk(payload: bytes, what: str, row_start: "int | None" = None,
                 footer: "ChunkInfo | None" = None,
                 known: tuple = (b"", None), version: int = FORMAT_VERSION):
    """One bounds-checked forward pass over a CRC-checked chunk payload.

    Returns the string tables' values, the bytes they were parsed from
    (a payload whose table region starts with the bytes of ``known``,
    an earlier pass's ``(region, tables)``, has those tables), the
    columns as stored (range checks run on them: narrowing keeps values;
    a coded float column is a :class:`_Coded` whose structure is checked
    here and whose rows :func:`_float_rows` decodes), the *framed*
    session records, ``(position, line bytes)`` pairs
    :func:`_parse_sessions` parses when someone reads them, and each
    float column's ``(encoding, payload bytes)``.  Session positions
    must run in order from ``row_start``, and the rows and sessions must
    match the ``footer`` entry, when those are given.  A ``version``
    before 3 has no encoding tags: its float columns are raw.
    """
    try:
        n, has_think = _CHUNK_HEAD.unpack_from(payload, 0)
        if has_think not in (0, 1):
            raise StreamFormatError(f"{what}: bad think flag {has_think}")
        pos = _CHUNK_HEAD.size
        region, tables = known
        if tables is not None and payload.startswith(region, pos):
            pos += len(region)
        else:
            tables = []
            for _ in _STRING_COLUMNS:
                values, pos = _read_table(payload, pos)
                tables.append(values)
            region = payload[_CHUNK_HEAD.size:pos]
        columns, spans = {}, {}
        tagged = version >= 3
        for name, _, widths in _COLUMN_DTYPES[:len(_COLUMNS) + has_think]:
            at = pos
            if name in _FLOAT_COLUMNS and tagged:
                columns[name], pos = _read_float(payload, pos, name, n,
                                                 has_think)
            else:
                columns[name], pos = _read_array(payload, pos, name,
                                                 widths, n)
            if name in _FLOAT_COLUMNS:
                coded = columns[name]
                spans[name] = (_ENCODINGS[getattr(coded, "tag", _RAW)],
                               pos - at)
        (n_sessions,) = _U32.unpack_from(payload, pos)
        pos += _U32.size
        frames = []
        for _ in range(n_sessions):
            position, nbytes = _SESSION_HEAD.unpack_from(payload, pos)
            pos += _SESSION_HEAD.size + nbytes
            if pos > len(payload):
                raise struct.error("session record runs past the payload")
            frames.append((position, payload[pos - nbytes:pos]))
    except (struct.error, IndexError) as exc:  # read past the end
        raise StreamFormatError(f"{what}: truncated payload ({exc})") from None
    except UnicodeDecodeError as exc:
        raise StreamFormatError(f"corrupt string table: {exc}") from None
    if pos != len(payload):
        raise StreamFormatError(f"{what}: {len(payload) - pos} trailing bytes")
    kinds = columns["kinds"]
    if n and (int(kinds.min()) < 0 or int(kinds.max()) >= len(OP_KIND_NAMES)):
        raise StreamFormatError(f"{what}: op kind outside the kind table")
    for (column, _), values in zip(_STRING_COLUMNS, tables):
        idx = columns[column]
        if n and (int(idx.min()) < -1 or int(idx.max()) >= len(values)):
            raise StreamFormatError(f"{what}: {column} out of table range")
    if row_start is not None:
        bounds = [row_start, *(position for position, _ in frames),
                  row_start + n]
        if bounds != sorted(bounds):
            raise StreamFormatError(f"{what}: session positions out of "
                                    "order or outside its rows")
    if footer is not None and (n != footer.rows
                               or len(frames) != footer.sessions):
        raise StreamFormatError(
            f"{what}: payload disagrees with the footer index")
    return tables, region, columns, frames, spans


def _with_floats(columns: dict) -> dict:
    """``columns`` with both float columns decoded whole, the response
    times first: a clock-coded start column reads them too."""
    columns = dict(columns)
    for name in ("response_us", "start_us"):
        columns[name] = _float_rows(columns, name)
    return columns


def _batch(tables, columns: dict, rows=None) -> OpBatch:
    """The stored ``columns`` (only ``rows``, ascending, if given) as an
    :class:`OpBatch`: each widened or decoded to its schema dtype into a
    fresh array that owns its memory, each table a fresh
    :class:`StringTable`.  A float column is decoded over the rows from
    the first to the last of ``rows`` only."""
    widened = {}
    lo, hi = 0, None
    if rows is None:
        columns = _with_floats(columns)
    else:
        lo, hi = (int(rows[0]), int(rows[-1]) + 1) if len(rows) else (0, 0)
        rows = rows - lo
    for name, dtype, _ in _COLUMN_DTYPES[:len(columns)]:
        column = (_float_rows(columns, name, lo, hi)
                  if name in _FLOAT_COLUMNS else columns[name][lo:hi])
        # A decoded float column may already be a fresh array.
        widened[name] = (column.astype(dtype, copy=column.base is not None)
                         if rows is None
                         else column.take(rows).astype(dtype, copy=False))
    return OpBatch(**widened, **{table: StringTable(values) for (_, table),
                                 values in zip(_STRING_COLUMNS, tables)})


def _decode_chunk(payload: bytes, what: str, row_start: "int | None" = None,
                  footer: "ChunkInfo | None" = None,
                  version: int = FORMAT_VERSION):
    """A payload checked by :func:`_check_chunk`, decoded whole: the one
    whole-chunk decode, behind ``read_chunk`` and the salvage scan."""
    tables, _, columns, frames, _ = _check_chunk(
        payload, what, row_start, footer, version=version)
    return _batch(tables, columns), frames


def _parse_sessions(frames, what: str) -> list[tuple[int, SessionRecord]]:
    """Parse the session lines :func:`_check_chunk` framed."""
    try:
        return [(position, SessionRecord.from_line(raw.decode("utf-8")))
                for position, raw in frames]
    except (UnicodeDecodeError, ValueError) as exc:
        raise StreamFormatError(
            f"{what}: corrupt session record ({exc})") from None


def _entry_from_chunk(offset: int, users: np.ndarray, starts: np.ndarray,
                      sessions: int) -> dict:
    """The footer-index entry of a chunk of these user ids and start
    times (the writer's pieces joined, or a read chunk's columns)."""
    n = len(users)
    return {"offset": offset, "rows": n, "sessions": sessions,
            "user_lo": int(users.min()) if n else None,
            "user_hi": int(users.max()) if n else None,
            "start_lo": float(starts.min()) if n else None,
            "start_hi": float(starts.max()) if n else None}


# ---------------------------------------------------------------------------
# Frame walk (the reader's indexed seeks and its scan)
# ---------------------------------------------------------------------------


def _read_frame(stream, offset: int, size: int, what: str):
    """The frame at ``offset`` of a ``size``-byte file, CRC-checked.

    Returns ``(kind, payload, next_offset)``.  The one frame walk: every
    read of a frame — indexed seeks and the forward scan — comes through
    here, so a corrupt length field always surfaces as
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


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class TeeSink:
    """Fan one op stream out to several sinks (e.g. tally + stream file),
    ``flush()`` included."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def record_batch(self, batch: OpBatch) -> None:
        for sink in self.sinks:
            sink.record_batch(batch)

    def record_session(self, record: SessionRecord) -> None:
        for sink in self.sinks:
            sink.record_session(record)

    def flush(self) -> None:
        for sink in self.sinks:
            flush_sink(sink)


class StreamFileSink:
    """The writer: an :class:`~repro.core.oplog.OpSink` spilling to a
    stream file.

    Feed it the run's event stream (op rows, session summaries, in
    arrival order).  Rows buffer up to ``memory_budget_bytes`` of column
    data (``rows_per_chunk`` rows at the fixed :data:`ROW_BYTES` row
    width) and leave as frames of exactly ``rows_per_chunk`` rows (the
    final one shorter), every session attached to the chunk holding the
    op row it followed.  Chunk *i* is written only once a row of chunk
    *i + 1* arrives, so a summary landing exactly on a boundary still
    joins its own chunk — the buffered high-water mark is
    ``rows_per_chunk`` rows plus the incoming batch.  Each frame is
    flushed to the OS as it is written, so a killed process leaves whole
    frames for :func:`salvage_stream`.  Close the sink (or leave its
    ``with`` block) to write the footer index; an unclosed file has no
    footer and readers reject it as truncated.

    ``flush_hook(chunk_index)`` runs before each chunk is written — the
    fault-injection seam for spill-path errors (ENOSPC) — and an enabled
    ``observer`` charges each write to the "spill" stage and ticks
    ``stream.{chunks,rows,bytes}``.  Neither changes a byte of the file.
    ``raw_floats`` stores every float column ``raw``: for a file that is
    only ever merged, which decodes and re-encodes it anyway.
    """

    def __init__(self, path: str,
                 memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
                 metadata: dict | None = None, observer=None,
                 flush_hook=None, raw_floats: bool = False):
        self._start(path, memory_budget_bytes, metadata, observer, flush_hook,
                    raw_floats)
        self._stream = open(path, "wb")
        try:
            self._write_header()
        except BaseException:
            self._stream.close()
            raise

    def _start(self, path, memory_budget_bytes, metadata, observer,
               flush_hook, raw_floats) -> None:
        self.path = path
        self._raw_floats = raw_floats
        self.rows_per_chunk = rows_per_chunk_for(memory_budget_bytes)
        self.metadata = dict(metadata or {})
        self._observer = (observer if getattr(observer, "enabled", False)
                          else None)
        self._flush_hook = flush_hook
        self._pieces: deque[OpBatch] = deque()
        self._buffered = 0
        self._sessions: list[tuple[int, SessionRecord]] = []
        self._closed = False
        self._rows_done = self._sessions_done = 0
        self._index: list[dict] = []

    @classmethod
    def _continuing(cls, prefix: "StreamReader", memory_budget_bytes: int,
                    observer=None, flush_hook=None,
                    raw_floats=False) -> "StreamFileSink":
        """A sink appending to ``prefix``'s footer-less file after its
        last indexed chunk.

        The file is cut back to ``prefix.data_end`` and the sink takes up
        the prefix's row, session and chunk counts, so the frames it
        writes are exactly those the crashed writer would have written
        next.  The caller feeds the events after the prefix, in order.
        """
        sink = cls.__new__(cls)  # the header is on disk: no __init__
        sink._start(prefix.path, memory_budget_bytes, prefix.metadata,
                    observer, flush_hook, raw_floats)
        sink._index = [info.entry() for info in prefix.chunk_index]
        sink._rows_done = prefix.total_rows
        sink._sessions_done = prefix.total_sessions
        sink._stream = open(prefix.path, "r+b")
        try:
            sink._stream.truncate(prefix.data_end)
            sink._stream.seek(prefix.data_end)
        except BaseException:
            sink._stream.close()
            raise
        return sink

    @property
    def chunks_written(self) -> int:
        """Chunk frames in the file so far (a continued prefix's too)."""
        return len(self._index)

    # -- events ---------------------------------------------------------------

    def record_batch(self, batch: OpBatch) -> None:
        """Append op rows (sliced views are fine; tables may be shared)."""
        if len(batch) == 0:
            return
        self._pieces.append(batch)
        self._buffered += len(batch)
        while self._buffered > self.rows_per_chunk:
            self._flush_chunk(self.rows_per_chunk)

    def record_session(self, record: SessionRecord) -> None:
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

        Buffered rows are dropped; chunks already written stay on disk
        for :func:`salvage_stream`.  A footer must never cover a partial
        run — it would make the truncated artifact indistinguishable
        from a complete one and poison both resume and verification.
        Idempotent, and a no-op after :meth:`close`.
        """
        if self._closed:
            return
        self._closed = True
        self._stream.close()

    def __enter__(self) -> "StreamFileSink":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

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

    def _take_rows(self, n: int) -> list[OpBatch]:
        """The next ``n`` buffered rows as pieces (the last one split)."""
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
        return taken

    def _flush_chunk(self, take: int) -> None:
        if self._flush_hook is not None:
            self._flush_hook(self.chunks_written)
        if self._observer is not None:
            # detlint: ignore[no-wall-clock] — observer-only spill span; never touches the stream
            wall0 = time.perf_counter()
            cpu0 = time.process_time()  # detlint: ignore[no-wall-clock] — observer-only spill span
        pieces = self._take_rows(take)
        boundary = self._rows_done + take
        cut = 0
        while (cut < len(self._sessions)
               and self._sessions[cut][0] <= boundary):
            cut += 1
        sessions, self._sessions = self._sessions[:cut], self._sessions[cut:]
        offset = self._stream.tell()
        entry = _entry_from_chunk(offset, _joined(pieces, "user_ids"),
                                  _joined(pieces, "start_us"), len(sessions))
        parts = _encode_chunk(pieces, sessions, self._raw_floats)
        # Two passes, one cast array alive at a time: CRC and length
        # first (the frame head precedes its payload), then the write.
        crc = nbytes = 0
        for buffer in _buffers(parts):
            crc = zlib.crc32(buffer, crc)
            nbytes += memoryview(buffer).nbytes
            buffer = None
        self._stream.write(struct.pack(_FRAME_FMT, _FRAME_CHUNK, nbytes, crc))
        for buffer in _buffers(parts):
            self._stream.write(buffer)
            buffer = None
        # The frame leaves the userspace buffer now: what a killed
        # process leaves behind is whole, salvageable chunks.
        self._stream.flush()
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
        self._index.append(entry)
        self._rows_done = boundary
        self._buffered -= take
        self._sessions_done += len(sessions)

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


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkInfo:
    """One chunk-index entry (everything needed to seek and skip)."""

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

    @cached_property
    def sessions(self) -> list[tuple[int, SessionRecord]]:
        """``(global op-row position, record)`` pairs, in stream order."""
        return _parse_sessions(self.frames, f"chunk {self.index}")


def _normalize_users(users) -> "np.ndarray | None":
    """``users``, an int id or an iterable of them, as sorted unique
    int64s (a bool, float or string id: TypeError; past int64: ValueError)."""
    if users is None:
        return None
    scalar = (int, np.integer, str, bytes, bytearray)
    ids = [users] if isinstance(users, scalar) else list(users)
    if not all(isinstance(u, (int, np.integer)) and not isinstance(u, bool)
               for u in ids):
        raise TypeError(f"users must be int ids, got {users!r}")
    if not all(-2**63 <= int(u) < 2**63 for u in ids):
        raise ValueError(f"users {users!r}: an id is outside int64")
    return np.unique(np.array([int(u) for u in ids], dtype=np.int64))


def _normalize_window(time_range) -> "tuple | None":
    """``time_range`` as a ``(lo, hi)`` pair of numbers with ``lo < hi``
    (never true of a NaN bound; ``±inf`` is fine), else a ValueError."""
    if time_range is None:
        return None
    try:
        lo, hi = time_range
        if all(isinstance(b, numbers.Real) for b in (lo, hi)) and lo < hi:
            return lo, hi
    except (TypeError, ValueError):
        pass
    raise ValueError("time_range must be (lo, hi) with lo < hi, got "
                     f"{time_range!r}")


class StreamReader:
    """Streaming, index-backed reader of one artifact file.

    Opens the file, validates magic/version/header, then seeks the
    footer through the fixed-size tail — so a reader never scans the
    whole file to answer ``total_rows`` or to slice by user/time.  A
    file without an intact footer is refused here; :func:`salvage_stream`
    opens one anyway, indexed by a forward scan of its frames.

    ``complete`` says the footer indexes the file; ``data_end`` is the
    offset just past the last indexed chunk (where a continuing writer
    appends); ``damage`` lists what a salvaging open found wrong, empty
    for a complete file.
    """

    def __init__(self, path: str):
        self._open(path, salvage=False)

    def _open(self, path: str, salvage: bool) -> None:
        self.path = path
        # Chunk index -> (table bytes, tables, cost), filled by _slice.
        self._memo, self._memo_bytes = {}, 0
        self.complete, self.damage = True, []
        try:
            self._stream = open(path, "rb")
        except OSError as exc:
            raise StreamFormatError(f"cannot open stream file: {exc}") from None
        try:
            self._size = os.fstat(self._stream.fileno()).st_size
            self._read_header()
            try:
                self._read_footer()
            except StreamFormatError as exc:
                if not salvage:
                    raise
                self.complete, self.damage = False, [f"footer: {exc}"]
                self._scan()
        except BaseException:
            self._stream.close()
            raise

    # -- parsing --------------------------------------------------------------

    def _read_header(self) -> None:
        """Validate and decode the header; ``_data_start`` is the offset
        of the first frame."""
        stream, size = self._stream, self._size

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
                f"{self.path!r} is not an op-stream file (bad magic)"
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
        self.version = version
        self.header = header
        self.rows_per_chunk = rows_per_chunk
        self.metadata = dict(header.get("metadata", {}))
        self.kinds = tuple(header["kinds"])
        self._data_start = stream.tell()

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
        total_rows = count(footer, "rows")
        total_sessions = count(footer, "sessions")
        chunks = []
        row_start = 0
        floor = self._data_start
        for i, entry in enumerate(footer["chunks"]):
            if not isinstance(entry, dict):
                raise StreamFormatError(
                    f"corrupt footer: chunk {i} entry is not an object")
            offset, rows = count(entry, "offset"), count(entry, "rows")
            if not floor <= offset < footer_offset:
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
        if row_start != total_rows:
            raise StreamFormatError("corrupt footer: chunk rows disagree "
                                    "with the total")
        self._index_as(chunks, total_sessions, footer_offset)

    def _scan(self) -> None:
        """Index the file by walking its chunk frames from the header on,
        up to the first one that fails its CRC or decode (noted in
        ``damage``), the footer frame, or the end of the file."""
        chunks: list[ChunkInfo] = []
        pos, row_start = self._data_start, 0
        while pos < self._size:
            index = len(chunks)
            try:
                kind, payload, stop = _read_frame(
                    self._stream, pos, self._size, f"chunk {index}")
                if kind == _FRAME_FOOTER:
                    break
                if kind != _FRAME_CHUNK:
                    raise StreamFormatError(f"unknown frame type {kind!r}")
                chunk = StreamChunk(index, *_decode_chunk(
                    payload, f"chunk {index}", row_start,
                    version=self.version))
                sessions = chunk.sessions
            except StreamFormatError as exc:
                self.damage.append(f"{exc} (offset {pos})")
                break
            chunks.append(ChunkInfo(
                index=index, row_start=row_start, **_entry_from_chunk(
                    pos, chunk.batch.user_ids, chunk.batch.start_us,
                    len(sessions))))
            row_start += len(chunk.batch)
            pos = stop
            payload = chunk = sessions = None  # not alive into the next
        self._index_as(chunks, sum(c.sessions for c in chunks), pos)

    def _index_as(self, chunks, total_sessions: int, data_end: int) -> None:
        self.chunk_index: tuple[ChunkInfo, ...] = tuple(chunks)
        self.total_rows = sum(c.rows for c in chunks)
        self.total_sessions = total_sessions
        self.data_end = data_end

    def _keep(self, n: int) -> None:
        """Forget chunks ``n`` on: the reader then indexes (and replays)
        only the first ``n``, and ``data_end`` is where chunk ``n``
        began."""
        self._memo, self._memo_bytes = {}, 0
        if n < len(self.chunk_index):
            chunks = self.chunk_index[:n]
            self._index_as(chunks, sum(c.sessions for c in chunks),
                           self.chunk_index[n].offset)

    def _read_frame(self, offset: int, what: str):
        return _read_frame(self._stream, offset, self._size, what)[:2]

    # -- access ---------------------------------------------------------------

    def _payload(self, index: int) -> tuple[ChunkInfo, bytes]:
        """Chunk ``index``'s footer entry and CRC-checked payload."""
        info = self.chunk_index[index]
        kind, payload = self._read_frame(info.offset, f"chunk {index}")
        if kind != _FRAME_CHUNK:
            raise StreamFormatError(f"chunk {index}: not a chunk frame")
        return info, payload

    def read_chunk(self, index: int) -> StreamChunk:
        """Decode chunk ``index`` whole: every column widened."""
        info, payload = self._payload(index)
        return StreamChunk(index, *_decode_chunk(
            payload, f"chunk {index}", info.row_start, info, self.version))

    def _slice(self, index: int, users: "np.ndarray | None",
               time_range) -> OpBatch:
        """Chunk ``index``'s rows that ``users`` and ``time_range``
        select, the chunk checked whole but only those rows widened (a
        user slice decodes clock-coded start times from the exception at
        or before its first row; a time window needs them all).  Its
        tables come from the memo if its table bytes are those they were
        parsed from.  An entry costs its table bytes plus the parsed
        strings and their lists; the memo holds at most one chunk's
        budget of them, dropping its oldest entries first."""
        memo = self._memo
        entry = memo.pop(index, (b"", None, 0))
        self._memo_bytes -= entry[2]
        info, payload = self._payload(index)
        tables, region, columns, _, _ = _check_chunk(
            payload, f"chunk {index}", info.row_start, info, entry[:2],
            self.version)
        if tables is not entry[1]:  # parsed by this read
            entry = (region, tables, len(region) + sum(
                map(sys.getsizeof, itertools.chain(tables, *tables))))
        budget = self.rows_per_chunk * ROW_BYTES
        while memo and self._memo_bytes + entry[2] > budget:
            self._memo_bytes -= memo.pop(next(iter(memo)))[2]
        if self._memo_bytes + entry[2] <= budget:
            memo[index] = entry
            self._memo_bytes += entry[2]
        mask = np.ones(len(columns["kinds"]), dtype=bool)
        if users is not None:
            mask &= np.isin(columns["user_ids"], users)
        if time_range is not None:
            # Decoded once, whole: the batch then takes its rows.
            columns = _with_floats(columns)
            starts = columns["start_us"]
            mask &= (starts >= time_range[0]) & (starts < time_range[1])
        return _batch(tables, columns, np.flatnonzero(mask))

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

    def iter_batches(self, users=None, time_range=None) -> Iterator[OpBatch]:
        """Yield op-row batches, row-filtered by user and time window.

        ``users`` is a user id or an iterable of them; ``time_range`` a
        ``(lo, hi)`` half-open window over op start times.  Both are
        checked before any chunk is read.  Chunks the index rules out
        are never read; a filtered read checks the chunks it reads whole
        but widens only the rows it yields (:meth:`_slice`).

        The reader keeps no decoded chunk alive while it decodes the
        next, but it cannot release the caller's loop variable: ``for
        batch in reader.iter_batches(): ...`` still holds the previous
        batch while the next chunk is read.  A caller that must hold one
        chunk at a time ends its loop body with ``del batch``.
        """
        norm = _normalize_users(users)
        time_range = _normalize_window(time_range)
        for info in self.chunk_index:
            if not self._chunk_matches(info, norm, time_range):
                continue
            if norm is None and time_range is None:
                batch = self.read_chunk(info.index).batch
            else:
                batch = self._slice(info.index, norm, time_range)
            if len(batch):
                yield batch
            batch = None  # not alive while the next chunk decodes

    def _events(self):
        """The artifact's events in recorded order.

        Yields ``("rows", piece)`` for each non-empty run of op rows and
        ``("session", record)`` for each summary, cut at the global
        op-row positions the writer tagged the summaries with — the one
        chunk-to-events walk behind :meth:`replay`, the shard merge and
        the resume boundary.  One decoded chunk is alive at a time as
        long as the caller drops each event before asking for the next.
        """
        for info in self.chunk_index:
            chunk = self.read_chunk(info.index)
            batch, cursor = chunk.batch, 0
            for position, record in chunk.sessions:
                if position - info.row_start > cursor:
                    yield "rows", batch.select(
                        slice(cursor, position - info.row_start))
                    cursor = position - info.row_start
                yield "session", record
            if cursor < len(batch):
                yield "rows", batch.select(slice(cursor, len(batch)))
            chunk = batch = None  # not alive while the next chunk decodes

    def replay(self, sink) -> tuple[int, int]:
        """Re-emit the artifact's exact event stream into ``sink``.

        Ops go through ``record_batch``; session summaries interleave
        at their recorded positions, and the stream ends with the
        sink's optional ``flush()``.
        Returns ``(op_rows, sessions)`` replayed.  Replaying into a new
        :class:`StreamFileSink` with the same budget reproduces the
        artifact byte for byte.  One decoded chunk is alive at a time
        (plus whatever views ``sink`` keeps).
        """
        rows = sessions = 0
        for kind, event in self._events():
            if kind == "rows":
                sink.record_batch(event)
                rows += len(event)
            else:
                sink.record_session(event)
                sessions += 1
            event = None  # not alive while the next chunk decodes
        flush_sink(sink)
        return rows, sessions

    def info_kv(self) -> dict:
        """Human-readable summary (the ``stream info`` CLI verb); the
        float encodings read every chunk once."""
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
        if self.total_rows:
            out["bytes per op row"] = (
                f"{out['file bytes'] / self.total_rows:.2f}")
        if users:
            out["user ids"] = (f"{min(c.user_lo for c in users)}.."
                               f"{max(c.user_hi for c in users)}")
            out["op start span (µs)"] = (
                f"{min(c.start_lo for c in users):.1f}.."
                f"{max(c.start_hi for c in users):.1f}")
        out.update(self._encoding_kv(out["file bytes"]))
        for key, value in sorted(self.metadata.items()):
            out[f"meta.{key}"] = value
        return out

    def _encoding_kv(self, file_bytes: int) -> dict:
        """Per float column, the encodings its chunks are stored in and
        its share of the file's bytes (one checked pass over the chunks;
        a chunk that fails it is counted, not raised)."""
        chunks = {name: dict.fromkeys(_ENCODINGS, 0)
                  for name in _FLOAT_COLUMNS}
        spent = dict.fromkeys(_FLOAT_COLUMNS, 0)
        unreadable = 0
        for info in self.chunk_index:
            try:
                payload = self._payload(info.index)[1]
                spans = _check_chunk(payload, f"chunk {info.index}",
                                     version=self.version)[4]
            except StreamFormatError:
                unreadable += 1
                continue
            for name, (encoding, nbytes) in spans.items():
                chunks[name][encoding] += 1
                spent[name] += nbytes
        out = {}
        for name in _FLOAT_COLUMNS:
            used = ", ".join(f"{encoding} x{count}" for encoding, count
                             in chunks[name].items() if count)
            share = 100 * spent[name] / file_bytes if file_bytes else 0.0
            out[f"{name} encoding"] = (f"{used or 'no chunks'} "
                                       f"({share:.1f}% of file bytes)")
        if unreadable:
            out["unreadable chunks"] = unreadable
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


def _iter_user_events(reader: StreamReader):
    """Yield ``(user_id, kind, event)`` in the artifact's order: op rows
    cut wherever the user id changes, and session records.

    The merge copies a user's events through as they are read instead
    of gathering them, so an input pins only the chunk it is read from.
    Requires user-contiguous artifacts (users ascending, each one run) —
    what the engine-free backends write; DES artifacts interleave users
    on the shared engine clock and are rejected.
    """
    last: int | None = None
    for kind, event in reader._events():
        if kind == "rows":
            # One item per run of equal user ids inside the piece.
            cuts = (np.flatnonzero(np.diff(event.user_ids)) + 1).tolist()
            items = [event.select(slice(a, b)) for a, b in
                     zip([0, *cuts], [*cuts, len(event)])]
            uids = event.user_ids[[0, *cuts]].tolist()
        else:
            items, uids = [event], [event.user_id]
        event = None
        for uid, item in zip(uids, items):
            if last is not None and uid < last:
                raise StreamFormatError(
                    f"{reader.path}: user {uid} follows user {last}; "
                    "stream merge needs user-contiguous artifacts "
                    "(engine-free backends)"
                )
            last = uid
            yield uid, kind, item
        items = item = None  # not alive into the next read


def merge_stream_files(output: str, inputs: Iterable[str],
                       metadata: dict | None = None,
                       rows_per_chunk: int | None = None) -> int:
    """K-way merge per-shard artifacts into one canonical file.

    Inputs must share the format version and schema and hold disjoint,
    user-contiguous populations (what ``run_fleet(..., out_stream=...)``
    shards write).  Users interleave back into ascending id order — the
    engine-free backends' canonical execution order — and the event
    stream is re-chunked at ``rows_per_chunk`` rows by the same writer
    under the same boundary rule, so the merged artifact is **bit
    identical** to the one a single-shard run at that chunk size writes,
    whatever chunk sizes the inputs were written at.  Returns the
    number of op rows merged.

    ``rows_per_chunk`` defaults to the inputs' own, which must then
    agree.  The merge holds about one decoded chunk per input, so
    ``run_fleet`` writes its k shard temps at ``1/k`` of the run's budget
    and passes the run's chunk size here.  ``metadata`` defaults to the
    first input's (shard metadata is run-level, the same in every shard).
    """
    paths = list(inputs)
    if not paths:
        raise ValueError("merge_stream_files needs at least one input")
    if os.path.exists(output) and any(os.path.samefile(output, p) for p in paths):
        raise ValueError(f"output {output} is also an input; writing it would truncate it")
    readers = [StreamReader(p) for p in paths]
    try:
        first = readers[0]
        for reader in readers[1:]:
            if reader.version != first.version:
                raise StreamFormatError(
                    f"{reader.path}: format version {reader.version} != "
                    f"{first.version}"
                )
            if (rows_per_chunk is None
                    and reader.rows_per_chunk != first.rows_per_chunk):
                raise StreamFormatError(
                    f"{reader.path}: rows_per_chunk "
                    f"{reader.rows_per_chunk} != {first.rows_per_chunk}; "
                    "shards must share one memory budget (or name the "
                    "output's rows_per_chunk)"
                )
        if rows_per_chunk is None:
            rows_per_chunk = first.rows_per_chunk
        if metadata is None:
            metadata = first.metadata
        streams = [_iter_user_events(r) for r in readers]
        heads: dict[int, tuple] = {}  # each input's next event
        for i, stream in enumerate(streams):
            head = next(stream, None)
            if head is not None:
                heads[i] = head
        rows = 0
        try:
            with StreamFileSink(output, rows_per_chunk * ROW_BYTES,
                                metadata=metadata) as sink:
                while heads:
                    source = min(heads, key=lambda i: heads[i][0])
                    head = heads.pop(source)
                    uid = head[0]
                    clashes = [i for i, (u, *_) in heads.items() if u == uid]
                    if clashes:
                        raise StreamFormatError(
                            f"user {uid} appears in both "
                            f"{readers[source].path} and "
                            f"{readers[clashes[0]].path}; shards must be "
                            "disjoint"
                        )
                    # Copy the user's events through as they are read.
                    while head is not None and head[0] == uid:
                        _, kind, event = head
                        if kind == "rows":
                            sink.record_batch(event)
                            rows += len(event)
                        else:
                            sink.record_session(event)
                        head = event = None  # not alive into the next read
                        head = next(streams[source], None)
                    if head is not None:
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


def salvage_stream(path: str) -> StreamReader:
    """Open what survives of the artifact at ``path``: *footer, else scan*.

    A file whose footer opens is ``complete``.  Otherwise the reader is
    indexed by walking the chunk frames from the header forward: only
    chunks that pass their CRC *and decode* survive, ``data_end`` is the
    offset just past the last of them and ``damage`` says what stopped
    the walk.  A bad header still raises :class:`StreamFormatError` —
    there is no chunk size to salvage against.
    """
    reader = StreamReader.__new__(StreamReader)  # StreamReader() refuses it
    reader._open(path, salvage=True)
    return reader


def resume_stream_sink(path: str,
                       memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
                       metadata: dict | None = None, observer=None,
                       flush_hook=None, raw_floats: bool = False):
    """A :class:`StreamFileSink` continuing whatever survives at ``path``.

    Returns ``(sink, prefix)``, ``prefix`` an open :class:`StreamReader`
    over the reused chunks (the caller closes it):

    * no usable prefix (missing file, another format version, foreign
      budget, nothing verified) — a fresh sink overwriting ``path``,
      ``prefix`` None: the continued file must be the one a clean run
      writes, header and frames alike;
    * a crashed prefix — a sink appending after its last *full* chunk
      (a short tail chunk, written by a crashed ``close()``, is dropped:
      resumed frames must land on the original boundaries), with
      ``prefix`` the chunks to replay and skip;
    * an already-complete artifact — ``sink`` None, ``prefix`` the whole
      file.

    ``metadata`` must match the salvaged header's (the header is on
    disk and is not rewritten): a mismatch means the resume does not
    describe the same run and raises :class:`StreamFormatError`.
    """
    rows_per_chunk = rows_per_chunk_for(memory_budget_bytes)
    prefix = None
    if os.path.exists(path):
        with contextlib.suppress(StreamFormatError):
            prefix = salvage_stream(path)
    if prefix is not None and not prefix.complete:
        full = len(prefix.chunk_index)
        while full and prefix.chunk_index[full - 1].rows != rows_per_chunk:
            full -= 1
        prefix._keep(full)
    if prefix is not None and (
            prefix.version != FORMAT_VERSION
            or prefix.rows_per_chunk != rows_per_chunk
            or (not prefix.complete and not prefix.chunk_index)):
        prefix.close()
        prefix = None
    if prefix is None:
        return StreamFileSink(path, memory_budget_bytes, metadata=metadata,
                              observer=observer, flush_hook=flush_hook,
                              raw_floats=raw_floats), None
    if prefix.complete:
        return None, prefix
    try:
        if metadata is not None and dict(metadata) != prefix.metadata:
            raise StreamFormatError(
                f"{path}: resume metadata does not match the on-disk header")
        sink = StreamFileSink._continuing(prefix, memory_budget_bytes,
                                          observer, flush_hook, raw_floats)
    except BaseException:
        prefix.close()
        raise
    return sink, prefix


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
    problem found.  A file whose footer is lost is reported through the
    chunks a salvaging scan still finds.  ``ok`` requires a complete
    file with zero errors.
    """
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        return StreamVerifyReport(path=path, ok=False, complete=False,
                                  chunks=0, chunks_ok=0, rows=0, sessions=0,
                                  file_bytes=0, errors=[str(exc)])
    try:
        reader = salvage_stream(path)
    except StreamFormatError as exc:
        return StreamVerifyReport(path=path, ok=False, complete=False,
                                  chunks=0, chunks_ok=0, rows=0, sessions=0,
                                  file_bytes=size, errors=[f"header: {exc}"])
    with reader:
        errors = list(reader.damage)
        chunks_ok = sessions_seen = 0
        for info in reader.chunk_index:
            # Checked whole, but only the start times decoded: the footer
            # entry needs nothing else widened.
            columns = starts = None  # not alive while the next is read
            what = f"chunk {info.index}"
            try:
                columns, frames = _check_chunk(
                    reader._payload(info.index)[1], what, info.row_start,
                    info, version=reader.version)[2:4]
                sessions = len(_parse_sessions(frames, what))
            except StreamFormatError as exc:
                errors.append(f"{what}: {exc}")
                continue
            chunks_ok += 1
            sessions_seen += sessions
            starts = _float_rows(columns, "start_us")
            if info.entry() != _entry_from_chunk(
                    info.offset, columns["user_ids"], starts, sessions):
                errors.append(f"chunk {info.index}: footer index "
                              "disagrees with rows")
        if sessions_seen != reader.total_sessions and not errors:
            errors.append(
                f"footer: session total {reader.total_sessions} != "
                f"{sessions_seen} found in chunks"
            )
        return StreamVerifyReport(
            path=path, ok=not errors, complete=reader.complete,
            chunks=len(reader.chunk_index), chunks_ok=chunks_ok,
            rows=reader.total_rows, sessions=reader.total_sessions,
            file_bytes=size, errors=errors,
        )
