"""The usage log (Figure 4.1's output artefact).

Every executed system call becomes an :class:`OpRecord`; every login
session a :class:`SessionRecord`.  The log round-trips to a line-oriented
text format so that runs can be archived and re-analysed, and the
:class:`~repro.core.analyzer.UsageAnalyzer` consumes it directly.

The executors in :mod:`repro.core.usim` record through the
:class:`OpSink` protocol rather than the concrete :class:`UsageLog`, so a
run may stream into any accumulator — the fleet layer
(:mod:`repro.fleet`) uses an online statistics sink that never stores
individual records, which is what keeps million-operation shard runs in
constant memory.
"""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    Protocol,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - opbatch imports OpRecord from here
    from .opbatch import OpBatch

__all__ = [
    "OpRecord",
    "SessionRecord",
    "OpSink",
    "UsageLog",
]

OP_KIND_NAMES: tuple[str, ...] = (
    "open", "creat", "read", "write", "lseek", "close", "unlink", "stat",
    "listdir", "think",
)
"""Canonical op-kind order; the int8 code of a kind is its index here."""

RECORD_KIND_NAMES: tuple[str, ...] = OP_KIND_NAMES + ("mkdir", "rmdir")
"""Op names a record may carry: the kinds above plus the two namespace
calls only an imported trace records (``repro.traces.CANONICAL_OPS``).
Their codes lie past the stream file's kind table, so the stream writer
refuses them."""

_OP_FIELDS = 9
_SESSION_FIELDS = 9

# Text-format escaping: string fields (paths above all) may contain the
# tab separator, newlines, or the comma used to join category lists, any
# of which would silently corrupt the line format.  ``\`` escapes keep
# the format line-oriented and human-readable while making round-trips
# lossless for arbitrary strings.
_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r", ",": ","}

# Almost every field is a plain path or type name with nothing to
# escape; one compiled-regex scan decides that and skips the five
# str.replace passes on the hot serialisation path.
_NEEDS_ESCAPE = re.compile(r"[\\\t\n\r]")
_NEEDS_ESCAPE_COMMA = re.compile(r"[\\\t\n\r,]")


def _escape(value: str, comma: bool = False) -> str:
    pattern = _NEEDS_ESCAPE_COMMA if comma else _NEEDS_ESCAPE
    if pattern.search(value) is None:
        return value
    for raw, escaped in _ESCAPES.items():
        value = value.replace(raw, escaped)
    if comma:
        value = value.replace(",", "\\,")
    return value


def _unescape(value: str) -> str:
    if "\\" not in value:
        return value
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\":
            if i + 1 >= len(value):
                raise ValueError(f"dangling escape in field {value!r}")
            key = value[i + 1]
            if key not in _UNESCAPES:
                raise ValueError(f"unknown escape \\{key} in field {value!r}")
            out.append(_UNESCAPES[key])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _split_categories(field_text: str) -> tuple[str, ...]:
    """Split a comma-joined category list, honouring ``\\,`` escapes."""
    if "\\" not in field_text:
        # No escape anywhere: every comma is a separator.
        return tuple(p for p in field_text.split(",") if p)
    parts: list[str] = []
    current: list[str] = []
    i = 0
    while i < len(field_text):
        ch = field_text[i]
        if ch == "\\" and i + 1 < len(field_text):
            current.append(ch)
            current.append(field_text[i + 1])
            i += 2
        elif ch == ",":
            parts.append("".join(current))
            current = []
            i += 1
        else:
            current.append(ch)
            i += 1
    parts.append("".join(current))
    return tuple(_unescape(p) for p in parts if p)


@dataclass(frozen=True)
class OpRecord:
    """One executed file I/O system call."""

    user_id: int
    user_type: str
    session_id: int
    op: str
    path: str
    category_key: str
    size: int
    start_us: float
    response_us: float

    def to_line(self) -> str:
        """Serialise as a tab-separated line."""
        return "\t".join(
            (
                "OP",
                str(self.user_id),
                _escape(self.user_type),
                str(self.session_id),
                _escape(self.op),
                _escape(self.path),
                _escape(self.category_key),
                str(self.size),
                repr(self.start_us),
                repr(self.response_us),
            )
        )

    @classmethod
    def from_line(cls, line: str) -> "OpRecord":
        """Parse a line produced by :meth:`to_line`."""
        parts = line.rstrip("\n").split("\t")
        if len(parts) != _OP_FIELDS + 1 or parts[0] != "OP":
            raise ValueError(f"not an OP record: {line!r}")
        op = _unescape(parts[4])
        if op not in RECORD_KIND_NAMES:
            raise ValueError(f"unknown op {op!r} in OP record: {line!r}")
        return cls(
            user_id=int(parts[1]),
            user_type=_unescape(parts[2]),
            session_id=int(parts[3]),
            op=op,
            path=_unescape(parts[5]),
            category_key=_unescape(parts[6]),
            size=int(parts[7]),
            start_us=float(parts[8]),
            response_us=float(parts[9]),
        )


@dataclass(frozen=True)
class SessionRecord:
    """One login session's summary."""

    user_id: int
    user_type: str
    session_id: int
    start_us: float
    end_us: float
    files_referenced: int
    bytes_accessed: int
    file_bytes_referenced: int
    categories: tuple[str, ...]

    @property
    def duration_us(self) -> float:
        """Wall (or simulated) session length."""
        return self.end_us - self.start_us

    @property
    def access_per_byte(self) -> float:
        """Session-average access-per-byte (Figure 5.3's quantity)."""
        if self.file_bytes_referenced <= 0:
            return 0.0
        return self.bytes_accessed / self.file_bytes_referenced

    @property
    def mean_file_size(self) -> float:
        """Session-average referenced file size (Figure 5.4's quantity)."""
        if self.files_referenced <= 0:
            return 0.0
        return self.file_bytes_referenced / self.files_referenced

    def to_line(self) -> str:
        """Serialise as a tab-separated line."""
        return "\t".join(
            (
                "SESSION",
                str(self.user_id),
                _escape(self.user_type),
                str(self.session_id),
                repr(self.start_us),
                repr(self.end_us),
                str(self.files_referenced),
                str(self.bytes_accessed),
                str(self.file_bytes_referenced),
                ",".join(_escape(c, comma=True) for c in self.categories),
            )
        )

    @classmethod
    def from_line(cls, line: str) -> "SessionRecord":
        """Parse a line produced by :meth:`to_line`."""
        parts = line.rstrip("\n").split("\t")
        if len(parts) != _SESSION_FIELDS + 1 or parts[0] != "SESSION":
            raise ValueError(f"not a SESSION record: {line!r}")
        return cls(
            user_id=int(parts[1]),
            user_type=_unescape(parts[2]),
            session_id=int(parts[3]),
            start_us=float(parts[4]),
            end_us=float(parts[5]),
            files_referenced=int(parts[6]),
            bytes_accessed=int(parts[7]),
            file_bytes_referenced=int(parts[8]),
            categories=_split_categories(parts[9]),
        )


@runtime_checkable
class OpSink(Protocol):
    """Anything a workload run records into: batches in, summaries in.

    ``record_batch`` folds a columnar :class:`~repro.core.opbatch.OpBatch`
    of executed ops; ``record_session`` takes each login session's
    summary, after every op recorded before it.  A sink may also have
    ``flush()``, which the producers call when the stream ends
    (:func:`~repro.core.opbatch.flush_sink`) and wrapping sinks
    forward.  That is the whole protocol.  The engine-free executor and
    the stream readers emit batches; the producers that finish one call
    at a time (the DES user processes, ``RealRunner``, the trace
    sessionizer) reach a sink through
    :class:`~repro.core.opbatch.RecordBatcher`.

    :class:`UsageLog` is the archival implementation;
    :class:`repro.fleet.merge.ShardAccumulator` is the constant-memory
    one used for large fleet runs.
    """

    def record_batch(self, batch: "OpBatch") -> None: ...

    def record_session(self, record: SessionRecord) -> None: ...


@dataclass
class UsageLog:
    """The complete record of one workload run."""

    operations: list[OpRecord] = field(default_factory=list)
    sessions: list[SessionRecord] = field(default_factory=list)

    def record_op(self, record: OpRecord) -> None:
        """Append an operation record."""
        self.operations.append(record)

    def record_session(self, record: SessionRecord) -> None:
        """Append a session summary."""
        self.sessions.append(record)

    def record_batch(self, batch: "OpBatch") -> None:
        """Append a columnar batch's rows as operation records."""
        self.operations.extend(batch.to_records())

    def extend(self, other: "UsageLog") -> None:
        """Merge another log into this one."""
        self.operations.extend(other.operations)
        self.sessions.extend(other.sessions)

    @classmethod
    def merged(cls, logs: Iterable["UsageLog"]) -> "UsageLog":
        """Concatenate several logs in the given order.

        The fleet layer merges per-shard logs shard-by-shard, so the
        result is deterministic for a fixed shard order even though the
        interleaving *within* each shard followed that shard's own
        simulation clock.
        """
        merged = cls()
        for log in logs:
            merged.extend(log)
        return merged

    # -- queries ---------------------------------------------------------------

    def data_ops(self) -> Iterator[OpRecord]:
        """Only the byte-moving calls (read/write)."""
        return (op for op in self.operations if op.op in ("read", "write"))

    def ops_of(self, *names: str) -> Iterator[OpRecord]:
        """Operations filtered by syscall name."""
        wanted = set(names)
        return (op for op in self.operations if op.op in wanted)

    def sessions_of_user(self, user_id: int) -> list[SessionRecord]:
        """Sessions belonging to one virtual user."""
        return [s for s in self.sessions if s.user_id == user_id]

    @property
    def total_bytes(self) -> int:
        """Bytes moved by read+write calls."""
        return sum(op.size for op in self.data_ops())

    @property
    def total_response_us(self) -> float:
        """Summed response time across all file-access calls (think time
        excluded)."""
        return sum(op.response_us for op in self.operations)

    # -- persistence -----------------------------------------------------------

    _DUMP_CHUNK_LINES = 4096

    def dump(self, stream: io.TextIOBase) -> None:
        """Write the log to a text stream.

        Lines are joined into multi-kilobyte chunks before writing: one
        ``write`` call per ~4k records instead of one per record keeps
        million-operation dumps out of the per-call overhead regime.
        """
        chunk: list[str] = []
        for record in itertools.chain(self.sessions, self.operations):
            chunk.append(record.to_line())
            if len(chunk) >= self._DUMP_CHUNK_LINES:
                stream.write("\n".join(chunk) + "\n")
                chunk.clear()
        if chunk:
            stream.write("\n".join(chunk) + "\n")

    def dumps(self) -> str:
        """Serialise to a string."""
        buffer = io.StringIO()
        self.dump(buffer)
        return buffer.getvalue()

    @classmethod
    def load(cls, stream: Iterable[str]) -> "UsageLog":
        """Read a log from lines (inverse of :meth:`dump`)."""
        log = cls()
        for line in stream:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("SESSION\t"):
                log.record_session(SessionRecord.from_line(line))
            elif line.startswith("OP\t"):
                log.record_op(OpRecord.from_line(line))
            else:
                raise ValueError(f"unrecognised log line: {line!r}")
        return log

    @classmethod
    def loads(cls, text: str) -> "UsageLog":
        """Parse from a string."""
        return cls.load(io.StringIO(text))
