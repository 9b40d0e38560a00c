"""Sessionization: canonical trace events → the usage-log record stream.

The thesis's characterisation is *per login session*, but most external
traces carry no session records.  This module reconstructs them:

* when events carry an explicit ``session`` value, a change of value
  (per user) is a session boundary;
* otherwise a user going idle for more than ``gap_us`` closes the
  session (the classic idle-gap heuristic).

Events stream straight into any :class:`~repro.core.oplog.OpSink` —
memory stays proportional to the number of *users and open-session
paths*, never the number of operations — and each closed session emits a
best-effort :class:`~repro.core.oplog.SessionRecord` summary.

Traces also rarely carry the thesis's ``(file type, owner, use)``
category labels.  :class:`CategoryInferencer` derives them: directory
ops mark DIR files, path prefixes pick the owner, and each path's
observed create/write history picks the type of use (``/tmp`` paths are
TEMP, created paths NEW, written paths RD-WRT, the rest RDONLY).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core.opbatch import RecordBatcher
from ..core.oplog import OpRecord, OpSink, SessionRecord
from ..core.spec import FileCategory, SpecError
from .events import IngestStats, IssueCollector, TraceEvent

__all__ = [
    "DEFAULT_GAP_US",
    "TRACE_USER_TYPE",
    "PathSizeIndex",
    "CategoryInferencer",
    "SessionizeResult",
    "sessionize_events",
]

# 30 minutes of idle time ends a session — the conventional boundary in
# session-reconstruction literature; override per trace via ``gap_us``.
DEFAULT_GAP_US = 30 * 60 * 1_000_000.0

# All reconstructed users share one user-type label; calibration builds a
# single characterized user type from them.
TRACE_USER_TYPE = "trace"

_DATA_OPS = ("read", "write", "listdir")
_REFERENCE_OPS = ("open", "creat", "stat", "read", "write")
_DIR_OPS = ("listdir", "mkdir", "rmdir")


class PathSizeIndex:
    """Observed file sizes by path — a duck-typed ``FileSystemLayout``.

    Only *explicit* size observations (``TraceEvent.file_size``) are
    stored; paths whose size is unknown return ``None`` so that the
    characterisation's write-accumulation fallback applies.
    """

    def __init__(self) -> None:
        self._sizes: dict[str, int] = {}

    def observe(self, path: str, size: int) -> None:
        """Record the most recent size observation for ``path``."""
        self._sizes[path] = int(size)

    def size_of(self, path: str) -> int | None:
        """The last observed size of ``path``, or None."""
        return self._sizes.get(path)

    def __len__(self) -> int:
        return len(self._sizes)


class CategoryInferencer:
    """Heuristic ``(file type, owner, type of use)`` labels for raw paths."""

    USER_PREFIXES = ("/home/", "/users/", "/u/", "/export/home/", "~")
    TEMP_PREFIXES = ("/tmp/", "/var/tmp/", "/private/tmp/")

    def __init__(self) -> None:
        self._created: set[str] = set()
        self._written: set[str] = set()

    def key_for(self, event: TraceEvent) -> str:
        """The inferred category key for one event."""
        path = event.path
        if event.op == "creat":
            self._created.add(path)
        elif event.op == "write":
            self._written.add(path)

        file_type = "DIR" if event.op in _DIR_OPS else "REG"
        if any(path.startswith(p) for p in self.USER_PREFIXES):
            owner = "USER"
        elif "/notes" in path:
            owner = "NOTES"
        else:
            owner = "OTHER"
        if file_type == "DIR":
            use = "RDONLY"  # directories are read-only special files
        elif any(path.startswith(p) for p in self.TEMP_PREFIXES):
            use = "TEMP"
        elif path in self._created:
            use = "NEW"
        elif path in self._written:
            use = "RD-WRT"
        else:
            use = "RDONLY"
        return f"{file_type}:{owner}:{use}"


@dataclass
class _OpenSession:
    """Accumulator for one in-progress reconstructed session."""

    session_id: int
    source_session: str | None
    start_us: float
    last_us: float
    last_end_us: float
    bytes_accessed: int = 0
    referenced: dict[str, int] = field(default_factory=dict)
    categories: set[str] = field(default_factory=set)


@dataclass
class SessionizeResult:
    """Everything a sessionization pass produced besides the records."""

    stats: IngestStats
    size_index: PathSizeIndex
    user_ids: dict[str, int]


def sessionize_events(
    events: Iterable[TraceEvent],
    sink: OpSink,
    gap_us: float = DEFAULT_GAP_US,
    issues: IssueCollector | None = None,
) -> SessionizeResult:
    """Stream ``events`` into ``sink`` as OpRecords + SessionRecords.

    Events must be in (roughly) timestamp order per user; small
    inversions are clamped to the user's last-seen time.  Distinct
    ``event.user`` values become dense integer user ids in order of
    first appearance (deterministic for a fixed trace).
    """
    if gap_us <= 0:
        raise ValueError(f"gap_us must be positive, got {gap_us!r}")
    issues = issues if issues is not None else IssueCollector()
    inferencer = CategoryInferencer()
    size_index = PathSizeIndex()
    user_ids: dict[str, int] = {}
    open_sessions: dict[int, _OpenSession] = {}
    session_counts: dict[int, int] = {}
    stats = IngestStats()
    paths_seen: set[str] = set()
    records = RecordBatcher(sink)

    def close(user_id: int, state: _OpenSession) -> None:
        file_bytes = 0
        for path, write_bytes in state.referenced.items():
            known = size_index.size_of(path)
            file_bytes += known if known is not None else write_bytes
        records.record_session(
            SessionRecord(
                user_id=user_id,
                user_type=TRACE_USER_TYPE,
                session_id=state.session_id,
                start_us=state.start_us,
                end_us=max(state.last_end_us, state.start_us),
                files_referenced=len(state.referenced),
                bytes_accessed=state.bytes_accessed,
                file_bytes_referenced=file_bytes,
                categories=tuple(sorted(state.categories)),
            )
        )
        stats.sessions += 1

    for index, event in enumerate(events, 1):
        user_id = user_ids.setdefault(event.user, len(user_ids))
        state = open_sessions.get(user_id)

        timestamp = event.timestamp_us
        if state is not None and timestamp < state.last_us:
            timestamp = state.last_us  # clamp small out-of-order inversions

        boundary = state is not None and (
            (event.session is not None and event.session != state.source_session)
            or (event.session is None and timestamp - state.last_us > gap_us)
        )
        if boundary:
            assert state is not None
            close(user_id, state)
            state = None
        if state is None:
            session_id = session_counts.get(user_id, 0)
            session_counts[user_id] = session_id + 1
            state = _OpenSession(
                session_id=session_id,
                source_session=event.session,
                start_us=timestamp,
                last_us=timestamp,
                last_end_us=timestamp,
            )
            open_sessions[user_id] = state

        category = event.category
        if category is not None:
            try:
                FileCategory.from_key(category)
            except SpecError:
                issues.add(
                    index,
                    f"invalid category key {category!r}; inferring",
                    unit="event",
                )
                category = None
        if category is None:
            category = inferencer.key_for(event)
        else:
            # Keep the inferencer's create/write history warm so later
            # unlabelled events on the same path classify consistently.
            inferencer.key_for(event)

        if event.file_size is not None:
            size_index.observe(event.path, event.file_size)

        records.record_op(
            OpRecord(
                user_id=user_id,
                user_type=TRACE_USER_TYPE,
                session_id=state.session_id,
                op=event.op,
                path=event.path,
                category_key=category,
                size=event.size,
                start_us=timestamp,
                response_us=event.duration_us,
            )
        )
        stats.events += 1
        paths_seen.add(event.path)
        state.last_us = timestamp
        state.last_end_us = max(state.last_end_us, timestamp + event.duration_us)
        state.categories.add(category)
        if event.op in _DATA_OPS:
            state.bytes_accessed += event.size
        if event.op in _REFERENCE_OPS:
            accumulated = state.referenced.get(event.path, 0)
            if event.op == "write":
                accumulated += event.size
            state.referenced[event.path] = accumulated

    for user_id, state in sorted(open_sessions.items()):
        close(user_id, state)
    records.flush()

    stats.users = len(user_ids)
    stats.distinct_paths = len(paths_seen)
    stats.issues_total = issues.total
    stats.issue_sample = list(issues.issues)
    return SessionizeResult(stats=stats, size_index=size_index, user_ids=user_ids)
