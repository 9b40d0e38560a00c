"""The Usage Analyzer.

Section 5.1 mentions "a program, Usage Analyzer, for users to analyze the
results and display them graphically".  This module is that program.
Its one measuring pass is :class:`UsageFold`, an op sink that reads a
run as it is generated, an artifact as it is replayed, or a stored
:class:`~repro.core.oplog.UsageLog`; the per-op marginals are array
functions over the same batches.  :class:`UsageAnalyzer` produces, from
a log,

* the per-session usage measures of Figures 5.3–5.5 (average
  access-per-byte, average file size, average number of files referenced),
  as raw and smoothed histograms;
* the per-syscall access-size and response-time statistics of Table 5.3;
* the response-time-per-byte figure of merit used by Figures 5.6–5.12;
* a re-derived user characterization in the shape of Table 5.2, which
  closes the loop: feed the generator Table 5.2, measure the synthetic
  workload, and get Table 5.2 back (within sampling error).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..sim import Histogram, RunningStats
from .fsc import FileSystemLayout
from .opbatch import (
    DATA_KIND_CODES,
    KIND_READ,
    KIND_WRITE,
    RECORD_KIND_NAMES,
    REFERENCE_KIND_CODES,
    OpBatch,
)
from .oplog import SessionRecord, UsageLog
from .plotting import render_histogram

__all__ = [
    "SessionMeasures",
    "CategorySamples",
    "CategoryCharacterization",
    "UsageFold",
    "access_sizes",
    "request_gaps",
    "think_gaps",
    "UsageAnalyzer",
]


_ACCESS = (KIND_READ, KIND_WRITE)


@dataclass(frozen=True)
class SessionMeasures:
    """Per-session arrays of the three Figure 5.3–5.5 measures."""

    access_per_byte: np.ndarray
    mean_file_size: np.ndarray
    files_referenced: np.ndarray

    @property
    def n_sessions(self) -> int:
        """Number of sessions measured."""
        return len(self.access_per_byte)


@dataclass
class CategorySamples:
    """One category's per-cell observations: a cell's accesses per byte
    (when its files hold any bytes), its file count, its files' sizes."""

    category_key: str
    accesses_per_byte: np.ndarray
    files_per_session: np.ndarray
    file_sizes: np.ndarray

    @property
    def sessions_accessing(self) -> int:
        """Cells, i.e. sessions that referenced a file of the category."""
        return len(self.files_per_session)


@dataclass(frozen=True)
class CategoryCharacterization:
    """One re-derived Table 5.2 row."""

    category_key: str
    mean_accesses_per_byte: float
    mean_file_size: float
    mean_files: float
    percent_of_users: float
    sessions_accessing: int


def _mean(values: np.ndarray) -> float:
    return float(np.mean(values)) if len(values) else 0.0


class UsageFold:
    """Table 5.2's measures in one pass over an op stream.

    A *cell* is one session's use of one file category: the bytes its
    read/write/listdir rows moved and the distinct files its
    open/creat/stat/write rows referenced.  A file is sized by
    ``layout.size_of`` (the FSC's size of a file it created; ``layout``
    is anything with that method, or None), else by the bytes the
    session wrote to it.  A session's cells close at its
    ``record_session``, or at ``flush()`` for a stream without session
    records; a session's rows need not be contiguous (DES users
    interleave), but must precede its record.  The fold holds the open
    sessions' cells plus, per closed cell, its samples.  One sort groups
    a batch by (user, session, category, path), so Python runs once per
    group, not per row.
    """

    def __init__(self, layout: FileSystemLayout | None = None):
        self.layout = layout
        self.sessions_recorded = 0
        self.sessions_touched = 0  # sessions with a categorized row
        # (user, session) → category → [bytes moved, {path: bytes written}]
        self._open: dict[tuple[int, int], dict[str, list]] = {}
        # category → (accesses per byte, files per cell, file sizes)
        self._closed: dict[str, tuple[array, array, array]] = {}

    def record_batch(self, batch: OpBatch) -> None:
        rows = np.flatnonzero(batch.category_idx >= 0)
        if not len(rows):
            return
        keys = (batch.user_ids[rows], batch.session_ids[rows],
                batch.category_idx[rows], batch.path_idx[rows])
        order = np.lexsort(keys[::-1])
        keys = [key[order] for key in keys]
        fresh = np.ones(len(rows), dtype=bool)
        fresh[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
        heads = np.flatnonzero(fresh)
        kinds = batch.kinds[rows][order]
        sizes = batch.sizes[rows][order]
        moved = np.add.reduceat(
            np.where(np.isin(kinds, DATA_KIND_CODES), sizes, 0), heads)
        written = np.add.reduceat(np.where(kinds == KIND_WRITE, sizes, 0),
                                  heads)
        refers = np.logical_or.reduceat(
            np.isin(kinds, REFERENCE_KIND_CODES + (KIND_WRITE,)), heads)
        categories = batch.categories.values()
        paths = batch.paths.values()
        open_cells = self._open
        for user, session, cat, path, nbytes, nwritten, ref in zip(
                *(key[heads].tolist() for key in keys), moved.tolist(),
                written.tolist(), refers.tolist()):
            name = categories[cat]
            if not name:
                continue
            cell = open_cells.setdefault((user, session), {}).setdefault(
                name, [0, {}])
            cell[0] += nbytes
            if ref:
                files = cell[1]
                path = paths[path] if path >= 0 else ""
                files[path] = files.get(path, 0) + nwritten

    def record_session(self, record: SessionRecord) -> None:
        self.sessions_recorded += 1
        self._close((record.user_id, record.session_id))

    def flush(self) -> None:
        for key in list(self._open):
            self._close(key)

    def _close(self, key: tuple[int, int]) -> None:
        cells = self._open.pop(key, None)
        if cells is None:
            return
        self.sessions_touched += 1
        size_of = (self.layout.size_of if self.layout is not None
                   else lambda path: None)
        for name, (nbytes, files) in cells.items():
            if not files:
                continue
            sizes = [written if (recorded := size_of(path)) is None
                     else recorded for path, written in files.items()]
            per_byte, counts, file_sizes = self._closed.setdefault(
                name, (array("d"), array("d"), array("d")))
            counts.append(len(sizes))
            file_sizes.extend(sizes)
            total = sum(sizes)
            if total > 0:
                per_byte.append(nbytes / total)

    @property
    def n_sessions(self) -> int:
        """The "% of users" denominator (at least 1)."""
        return max(self.sessions_touched, self.sessions_recorded, 1)

    def samples(self) -> dict[str, CategorySamples]:
        """Per category (sorted), the closed cells' observations."""
        return {name: CategorySamples(name, *map(np.array, self._closed[name]))
                for name in sorted(self._closed)}

    def characterization(self) -> list[CategoryCharacterization]:
        """Per-category usage measures, averaged over accessing sessions."""
        return [
            CategoryCharacterization(
                name, _mean(s.accesses_per_byte), _mean(s.file_sizes),
                _mean(s.files_per_session),
                100.0 * s.sessions_accessing / self.n_sessions,
                s.sessions_accessing)
            for name, s in self.samples().items()
        ]


def access_sizes(batch: OpBatch) -> np.ndarray:
    """Bytes moved by each read/write row, in row order."""
    return batch.sizes[np.isin(batch.kinds, _ACCESS)].astype(float)


def _by_session(batch: OpBatch, *ties: np.ndarray):
    """Row order grouping sessions (in order of first appearance), by
    start time then ``ties`` within one; and which ordered rows follow
    a row of the same session."""
    _, first, inverse = np.unique(
        np.stack((batch.user_ids, batch.session_ids), axis=1), axis=0,
        return_index=True, return_inverse=True)
    session = first[inverse.reshape(-1)]  # the session's first row
    order = np.lexsort(ties[::-1] + (batch.start_us, session))
    session = session[order]
    return order, session[1:] == session[:-1]


def request_gaps(batch: OpBatch) -> np.ndarray:
    """Inter-request gaps (think plus service time): consecutive start
    times within a session."""
    order, same = _by_session(batch)
    gaps = np.diff(batch.start_us[order])[same]
    return gaps[gaps >= 0]


def think_gaps(batch: OpBatch) -> np.ndarray:
    """Think times: next start minus the previous call's end within a
    session (inter-request gaps where the source has no durations)."""
    order, same = _by_session(batch, batch.response_us)
    start = batch.start_us[order]
    end = start[:-1] + batch.response_us[order][:-1]
    return np.maximum(start[1:] - end, 0.0)[same]


class UsageAnalyzer:
    """Statistics over a usage log (optionally with the FSC manifest)."""

    def __init__(self, log: UsageLog, layout: FileSystemLayout | None = None):
        self.log = log
        self.layout = layout

    @cached_property
    def batch(self) -> OpBatch:
        """The log's operations as one batch."""
        return OpBatch.from_records(self.log.operations)

    @cached_property
    def fold(self) -> UsageFold:
        """The log through :class:`UsageFold`: its operations, then its
        session records."""
        fold = UsageFold(self.layout)
        fold.record_batch(self.batch)
        for record in self.log.sessions:
            fold.record_session(record)
        fold.flush()
        return fold

    # -- session-level measures (Figures 5.3-5.5) ------------------------------

    def session_measures(self) -> SessionMeasures:
        """The three per-session usage measures, one entry per session."""
        return SessionMeasures(*(
            np.array([getattr(s, name) for s in self.log.sessions], dtype=float)
            for name in ("access_per_byte", "mean_file_size",
                         "files_referenced")))

    def _histogram(self, values: np.ndarray, lo: float, hi: float,
                   n_bins: int) -> Histogram:
        hist = Histogram(lo, hi, n_bins)
        hist.add_many(values)
        return hist

    def histogram_access_per_byte(self, hi: float = 7.0,
                                  n_bins: int = 28) -> Histogram:
        """Figure 5.3's histogram (x axis 0..~7 accesses per byte)."""
        return self._histogram(self.session_measures().access_per_byte,
                               0.0, hi, n_bins)

    def histogram_file_size(self, hi: float = 60_000.0,
                            n_bins: int = 30) -> Histogram:
        """Figure 5.4's histogram (x axis 0..60 000 bytes)."""
        return self._histogram(self.session_measures().mean_file_size,
                               0.0, hi, n_bins)

    def histogram_files_referenced(self, hi: float = 100.0,
                                   n_bins: int = 25) -> Histogram:
        """Figure 5.5's histogram (x axis 0..100 files)."""
        return self._histogram(self.session_measures().files_referenced,
                               0.0, hi, n_bins)

    def render_measure_figure(self, which: str, window: int = 3) -> str:
        """ASCII rendition of Figure 5.3/5.4/5.5, before and after smoothing."""
        histograms = {
            "access_per_byte": (self.histogram_access_per_byte,
                                "Average access-per-byte"),
            "file_size": (self.histogram_file_size,
                          "Average file size (bytes)"),
            "files_referenced": (self.histogram_files_referenced,
                                 "Average number of files referenced"),
        }
        if which not in histograms:
            raise ValueError(
                f"which must be one of {sorted(histograms)}, got {which!r}"
            )
        build, title = histograms[which]
        hist = build()
        before = render_histogram(hist.centers, hist.counts,
                                  title=f"{title} (before smoothing)")
        after = render_histogram(hist.centers, hist.smoothed(window=window),
                                 title=f"{title} (after smoothing)")
        return before + "\n\n" + after

    # -- syscall-level statistics (Table 5.3) -----------------------------------

    def access_size_stats(self) -> RunningStats:
        """Mean/std of bytes moved per read/write call."""
        stats = RunningStats()
        stats.add_many(access_sizes(self.batch).tolist())
        return stats

    def response_time_stats(self, ops: tuple[str, ...] | None = None
                            ) -> RunningStats:
        """Mean/std of per-call response time (µs).

        By default covers every file-access call, as Table 5.3 does;
        restrict with ``ops=("read", "write")`` etc.
        """
        response = self.batch.response_us
        if ops is not None:
            response = response[np.isin(self.batch.kinds, [
                RECORD_KIND_NAMES.index(name) for name in ops
                if name in RECORD_KIND_NAMES])]
        stats = RunningStats()
        stats.add_many(response.tolist())
        return stats

    def response_per_byte(self) -> float:
        """Total data-op response time over total bytes moved (µs/byte).

        The figure of merit of Figures 5.6–5.12.
        """
        data = np.isin(self.batch.kinds, _ACCESS)
        total_bytes = int(self.batch.sizes[data].sum())
        if total_bytes <= 0:
            return 0.0
        return sum(self.batch.response_us[data].tolist()) / total_bytes

    # -- characterization (re-deriving Table 5.2) ----------------------------------

    def characterization(self) -> list[CategoryCharacterization]:
        """Per-category usage measures, averaged over accessing sessions."""
        return self.fold.characterization()
