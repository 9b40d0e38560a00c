"""Columnar operation streams — the op stream as parallel NumPy arrays.

A scalar op stream is a sequence of :class:`SessionOp` /
:class:`~repro.core.oplog.OpRecord` dataclasses; at fleet scale the
per-object allocation and per-field attribute access dominate an
executor's runtime.  :class:`OpBatch` stores the same stream as a
struct-of-arrays: one int8 *kind code* per operation, int64
``plan_id``/``size`` columns, float64 timing columns, and small interned
string tables for paths, category keys and user-type names (string
columns hold int32 indices into those tables, ``-1`` meaning "absent").

The batch is the unit the pipeline moves around:

* :meth:`repro.core.synthesis.BlockColumns.assemble` produces one batch
  per block of users (timing columns zero;
  ``SessionGenerator.generate_session_batch`` is its one-session form);
* :class:`repro.core.execution.FastReplayBackend` fills
  ``start_us``/``response_us`` with one array expression and hands each
  session's executed slice to the sink;
* the DES user process and ``RealRunner`` issue one call at a time, so
  they read a session through :meth:`OpBatch.iter_session_ops`
  (``SessionGenerator.generate_session``);
* every sink folds whole batches (``record_batch``); the producers
  that emit one record at a time reach it through
  :class:`RecordBatcher`, and :class:`~repro.core.oplog.UsageLog`, the
  row store, unpacks a batch with :meth:`to_records`;
* the sinks whose arithmetic would cost more per session than the
  session is worth hold the columns they fold in :class:`PendingBatches`
  and fold in bulk, finishing when the stream ends (:func:`flush_sink`).

Determinism: a batch is a *representation*, never a re-sampling.  The
bridges (:meth:`to_records`, :meth:`from_records`,
:meth:`iter_session_ops`) are exact images of the scalar structures;
``tests/core/test_columnar_golden.py`` pins the bridged stream to the
scalar reference builder kept in ``tests/core/reference_scalar.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..vfs import OpenFlags
from .oplog import OP_KIND_NAMES, RECORD_KIND_NAMES, OpRecord

__all__ = [
    "OP_KIND_NAMES",
    "OP_KIND_CODES",
    "RECORD_KIND_NAMES",
    "KIND_OPEN",
    "KIND_CREAT",
    "KIND_READ",
    "KIND_WRITE",
    "KIND_LSEEK",
    "KIND_CLOSE",
    "KIND_UNLINK",
    "KIND_STAT",
    "KIND_LISTDIR",
    "KIND_THINK",
    "DATA_KIND_CODES",
    "REFERENCE_KIND_CODES",
    "SessionOp",
    "StringTable",
    "OpBatch",
    "RecordBatcher",
    "FOLD_ROWS",
    "PendingBatches",
    "flush_sink",
]

OP_KIND_CODES: dict[str, int] = {name: i for i, name in enumerate(OP_KIND_NAMES)}

_RECORD_KIND_CODES = {name: i for i, name in enumerate(RECORD_KIND_NAMES)}

(
    KIND_OPEN,
    KIND_CREAT,
    KIND_READ,
    KIND_WRITE,
    KIND_LSEEK,
    KIND_CLOSE,
    KIND_UNLINK,
    KIND_STAT,
    KIND_LISTDIR,
    KIND_THINK,
) = range(len(OP_KIND_NAMES))

DATA_KIND_CODES: tuple[int, ...] = (KIND_READ, KIND_WRITE, KIND_LISTDIR)
"""Kinds whose ``size`` is bytes actually moved (recorded as-is)."""

# Kinds that reference a file for session accounting (open/creat/stat).
REFERENCE_KIND_CODES: tuple[int, ...] = (KIND_OPEN, KIND_CREAT, KIND_STAT)


@dataclass(frozen=True)
class SessionOp:
    """One element of a session's operation stream.

    ``size`` is overloaded per kind: file size for open/creat, byte count
    for read/write/listdir, absolute offset for lseek, microseconds for
    think.
    """

    kind: str                       # open|creat|read|write|lseek|close|
    #                                 unlink|stat|listdir|think
    plan_id: int | None = None      # links data ops to their open file
    path: str | None = None
    category_key: str | None = None
    size: int = 0
    flags: OpenFlags = OpenFlags.RDONLY


class StringTable:
    """An append-only string interner: string ↔ dense int32 index."""

    __slots__ = ("_values", "_index")

    def __init__(self, values: Iterable[str] = ()):
        self._values: list[str] = list(values)
        # Built on first intern: a table decoded from a stream chunk is
        # usually only ever looked up.
        self._index: "dict[str, int] | None" = None

    def _reverse(self) -> dict[str, int]:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._values)}
        return self._index

    def intern(self, value: "str | None") -> int:
        """Index of ``value`` (appending it on first sight); None → -1."""
        if value is None:
            return -1
        index = self._index or self._reverse()
        idx = index.get(value)
        if idx is None:
            idx = len(self._values)
            self._values.append(value)
            index[value] = idx
        return idx

    def intern_many(self, values: Sequence[str]) -> np.ndarray:
        """Intern a whole sequence in one call; returns the int32 indices.

        One bound-method dispatch for a session's (or user's) entire path
        vocabulary instead of one :meth:`intern` call per op — the
        batched interning the columnar plan builder uses.  Append order
        (first sight wins) is identical to sequential ``intern`` calls.
        """
        index = self._reverse()
        table = self._values
        out = np.empty(len(values), dtype=np.int32)
        for i, value in enumerate(values):
            idx = index.get(value)
            if idx is None:
                idx = len(table)
                table.append(value)
                index[value] = idx
            out[i] = idx
        return out

    def lookup(self, idx: int) -> "str | None":
        """Inverse of :meth:`intern` (−1 → None)."""
        if idx < 0:
            return None
        return self._values[idx]

    def values(self) -> list[str]:
        """The interned strings, in index order."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)


class OpBatch:
    """One op stream as parallel arrays plus interned string tables.

    All columns have the same length.  ``plan_ids``, ``path_idx``,
    ``category_idx`` and ``user_type_idx`` use ``-1`` for "absent"
    (``None`` in the scalar structures).  Slicing (:meth:`select`)
    shares the string tables with the parent batch — indices stay valid
    because tables are append-only.
    """

    __slots__ = (
        "kinds", "plan_ids", "sizes", "flags", "path_idx", "category_idx",
        "user_ids", "session_ids", "user_type_idx", "start_us",
        "response_us", "think_us", "paths", "categories", "user_types",
    )

    def __init__(
        self,
        kinds: np.ndarray,
        plan_ids: np.ndarray,
        sizes: np.ndarray,
        flags: np.ndarray,
        path_idx: np.ndarray,
        category_idx: np.ndarray,
        user_ids: np.ndarray,
        session_ids: np.ndarray,
        user_type_idx: np.ndarray,
        start_us: np.ndarray,
        response_us: np.ndarray,
        paths: StringTable,
        categories: StringTable,
        user_types: StringTable,
        think_us: "np.ndarray | None" = None,
    ):
        self.kinds = kinds                  # int8 kind codes
        self.plan_ids = plan_ids            # int64, -1 = None
        self.sizes = sizes                  # int64
        self.flags = flags                  # int16 OpenFlags values
        self.path_idx = path_idx            # int32 into paths, -1 = None
        self.category_idx = category_idx    # int32 into categories, -1 = None
        self.user_ids = user_ids            # int64
        self.session_ids = session_ids      # int64
        self.user_type_idx = user_type_idx  # int32 into user_types
        self.start_us = start_us            # float64
        self.response_us = response_us      # float64
        # Synthesis-produced batches carry the think pause *after* each
        # op as a parallel int64 column rather than interleaved rows:
        # half the rows to gather/time, and record batches (which never
        # contain thinks) stay a 1:1 image of OpRecord lists.
        self.think_us = think_us
        self.paths = paths
        self.categories = categories
        self.user_types = user_types

    def __len__(self) -> int:
        return len(self.kinds)

    # -- construction ----------------------------------------------------------

    @classmethod
    def empty(
        cls,
        n: int,
        paths: "StringTable | None" = None,
        categories: "StringTable | None" = None,
        user_types: "StringTable | None" = None,
    ) -> "OpBatch":
        """An uninitialised batch of ``n`` rows (caller fills every column)."""
        return cls(
            kinds=np.empty(n, dtype=np.int8),
            plan_ids=np.empty(n, dtype=np.int64),
            sizes=np.empty(n, dtype=np.int64),
            flags=np.empty(n, dtype=np.int16),
            path_idx=np.empty(n, dtype=np.int32),
            category_idx=np.empty(n, dtype=np.int32),
            user_ids=np.empty(n, dtype=np.int64),
            session_ids=np.empty(n, dtype=np.int64),
            user_type_idx=np.empty(n, dtype=np.int32),
            start_us=np.zeros(n, dtype=np.float64),
            response_us=np.zeros(n, dtype=np.float64),
            paths=paths if paths is not None else StringTable(),
            categories=categories if categories is not None else StringTable(),
            user_types=user_types if user_types is not None else StringTable(),
        )

    @classmethod
    def from_records(cls, records: Sequence[OpRecord]) -> "OpBatch":
        """Columnarise :class:`OpRecord` rows one column at a time (inverse
        of :meth:`to_records`; think rows cannot appear in records)."""
        n = len(records)

        def column(name: str, dtype) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), records), dtype, n)

        def interned(name: str) -> tuple[StringTable, np.ndarray]:
            values = list(map(attrgetter(name), records))
            index = {v: i for i, v in enumerate(dict.fromkeys(values))}  # first-sight order
            return (StringTable(index),
                    np.fromiter(map(index.__getitem__, values), np.int32, n))

        paths, path_idx = interned("path")
        categories, category_idx = interned("category_key")
        user_types, user_type_idx = interned("user_type")
        return cls(
            kinds=np.fromiter(map(_RECORD_KIND_CODES.__getitem__,
                                  map(attrgetter("op"), records)), np.int8, n),
            plan_ids=np.full(n, -1, dtype=np.int64),
            sizes=column("size", np.int64),
            flags=np.zeros(n, dtype=np.int16),
            path_idx=path_idx,
            category_idx=category_idx,
            user_ids=column("user_id", np.int64),
            session_ids=column("session_id", np.int64),
            user_type_idx=user_type_idx,
            start_us=column("start_us", np.float64),
            response_us=column("response_us", np.float64),
            paths=paths,
            categories=categories,
            user_types=user_types,
        )

    # -- slicing ---------------------------------------------------------------

    def select(self, index) -> "OpBatch":
        """Row subset (slice, boolean mask or integer indices).

        String tables are shared; a slice index yields column *views*,
        fancy indices copy (NumPy semantics).
        """
        return OpBatch(
            kinds=self.kinds[index],
            plan_ids=self.plan_ids[index],
            sizes=self.sizes[index],
            flags=self.flags[index],
            path_idx=self.path_idx[index],
            category_idx=self.category_idx[index],
            user_ids=self.user_ids[index],
            session_ids=self.session_ids[index],
            user_type_idx=self.user_type_idx[index],
            start_us=self.start_us[index],
            response_us=self.response_us[index],
            think_us=(self.think_us[index] if self.think_us is not None
                      else None),
            paths=self.paths,
            categories=self.categories,
            user_types=self.user_types,
        )

    # -- bridges ---------------------------------------------------------------

    def to_records(self) -> list[OpRecord]:
        """Bridge to scalar :class:`OpRecord` rows (1:1 with op rows;
        the ``think_us`` column, if any, is not part of records).

        ``-1`` string indices become ``""`` (the :class:`OpRecord`
        convention).
        """
        paths = self.paths.values()
        categories = self.categories.values()
        user_types = self.user_types.values()
        return [
            OpRecord(
                user_id=int(self.user_ids[i]),
                user_type=user_types[ti] if (ti := int(self.user_type_idx[i])) >= 0 else "",
                session_id=int(self.session_ids[i]),
                op=RECORD_KIND_NAMES[self.kinds[i]],
                path=paths[pi] if (pi := int(self.path_idx[i])) >= 0 else "",
                category_key=categories[ci] if (ci := int(self.category_idx[i])) >= 0 else "",
                size=int(self.sizes[i]),
                start_us=float(self.start_us[i]),
                response_us=float(self.response_us[i]),
            )
            for i in range(len(self))
        ]

    def iter_session_ops(self) -> Iterator[SessionOp]:
        """Bridge to scalar :class:`SessionOp`\\ s — what the DES user
        process and ``RealRunner`` consume.

        Yields each op followed by its think op (from the ``think_us``
        column), ``None`` for absent strings/plan ids, and ``OpenFlags``
        values.  Each column is converted to Python scalars once.
        """
        paths = self.paths.values()
        categories = self.categories.values()
        thinks = self.think_us.tolist() if self.think_us is not None else None
        rows = zip(self.kinds.tolist(), self.plan_ids.tolist(),
                   self.path_idx.tolist(), self.category_idx.tolist(),
                   self.sizes.tolist(), self.flags.tolist())
        for i, (kind, plan_id, path_i, cat_i, size, flags) in enumerate(rows):
            yield SessionOp(
                kind=OP_KIND_NAMES[kind],
                plan_id=plan_id if plan_id >= 0 else None,
                path=paths[path_i] if path_i >= 0 else None,
                category_key=categories[cat_i] if cat_i >= 0 else None,
                size=size,
                flags=OpenFlags(flags),
            )
            if thinks is not None:
                yield SessionOp("think", size=thinks[i])


class RecordBatcher:
    """The one way a record-at-a-time producer feeds a sink.

    Sinks fold batches; the DES user processes, ``RealRunner`` and the
    trace sessionizer emit one :class:`OpRecord` at a time.  This
    buffers their records, in arrival order, and hands the sink
    ``OpBatch.from_records(...)`` every :attr:`BLOCK_ROWS` records and
    before forwarding any ``record_session`` (so a summary lands after
    every op recorded before it).  The producer calls :meth:`flush`
    when it ends.
    """

    BLOCK_ROWS = 4096

    def __init__(self, sink):
        self.sink = sink
        self._pending: list[OpRecord] = []

    def record_op(self, record: OpRecord) -> None:
        self._pending.append(record)
        if len(self._pending) >= self.BLOCK_ROWS:
            self.flush()

    def record_session(self, record) -> None:
        self.flush()
        self.sink.record_session(record)

    def flush(self) -> None:
        """Hand the buffered records to the sink as one batch."""
        if self._pending:
            records, self._pending = self._pending, []
            self.sink.record_batch(OpBatch.from_records(records))


FOLD_ROWS = 4096
"""Rows a bulk-folding sink buffers before it folds them.

Enough to spread a fold's fixed cost (a dozen NumPy calls, one dict
update per key) over thousands of rows.  On a 2-core VM, 16 384 folded
no faster and raised a 4-shard in-process fleet run's peak RSS by ~5%."""


class PendingBatches:
    """The columns ``names`` of recorded batches, held for one bulk fold.

    Each batch is copied into a block of ``threshold`` (:data:`FOLD_ROWS`)
    rows, allocated once; a batch the block cannot take is held as it
    is.  :meth:`add` says when ``rows`` reaches ``threshold`` and
    :meth:`take` must follow before the next ``add``, so the buffer is
    at most the block plus the incoming batch and pins at most that
    batch's source (one decoded chunk or executor block).  Consecutive
    batches sharing a ``categories`` table form a run; ``take``
    re-indexes each run's ``category_idx`` (when held) into the block's
    own table.
    """

    __slots__ = ("names", "threshold", "rows", "_block", "_runs",
                 "_categories", "_overflow")

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.threshold = FOLD_ROWS
        self.rows = 0
        self._block: dict[str, np.ndarray] = {}
        self._runs: list[tuple[int, StringTable]] = []  # (first row, table)
        self._categories = StringTable()
        self._overflow: OpBatch | None = None

    def add(self, batch: OpBatch) -> bool:
        """Buffer ``batch``'s columns; True once a fold is due."""
        n = len(batch)
        lo, self.rows = self.rows, self.rows + n
        if self.rows > self.threshold:
            assert self._overflow is None, "take() is due"
            self._overflow = batch
        elif n:
            if not self._block:
                self._block = {name: np.empty(self.threshold,
                                              getattr(batch, name).dtype)
                               for name in self.names}
            if not self._runs or batch.categories is not self._runs[-1][1]:
                self._runs.append((lo, batch.categories))
            for name, column in self._block.items():
                column[lo:self.rows] = getattr(batch, name)
        return self.rows >= self.threshold

    def take(self) -> list:
        """The buffered rows, emptying the buffer: the block, as a
        namespace of the ``names`` columns (views, valid until the next
        :meth:`add`) and ``categories``, then the batch it could not
        take."""
        overflow = self._overflow
        filled = self.rows - (len(overflow) if overflow is not None else 0)
        runs = []
        if filled:
            codes = self._block.get("category_idx")
            if codes is not None:
                ends = [start for start, _ in self._runs[1:]] + [filled]
                for (start, table), end in zip(self._runs, ends):
                    lut = np.concatenate((
                        [-1], self._categories.intern_many(table.values())))
                    segment = codes[start:end]
                    np.take(lut, segment + 1, out=segment)
            runs.append(SimpleNamespace(categories=self._categories, **{
                name: column[:filled] for name, column in self._block.items()}))
        if overflow is not None:
            runs.append(overflow)
        self.rows = 0
        self._runs = []
        self._overflow = None
        return runs


def flush_sink(sink) -> None:
    """End the stream into ``sink``: call its ``flush()``, which the sink
    protocol makes optional, so a bulk-folding sink is complete when
    the producer returns."""
    flush = getattr(sink, "flush", None)
    if flush is not None:
        flush()
