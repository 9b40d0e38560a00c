"""The Usage Analyzer.

Section 5.1 mentions "a program, Usage Analyzer, for users to analyze the
results and display them graphically".  This module is that program: it
consumes a :class:`~repro.core.oplog.UsageLog` and produces

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

from dataclasses import dataclass

import numpy as np

from ..sim import Histogram, RunningStats
from .characterize import extract_samples
from .fsc import FileSystemLayout
from .oplog import UsageLog
from .plotting import render_histogram

__all__ = [
    "SessionMeasures",
    "CategoryCharacterization",
    "UsageAnalyzer",
]

_DATA_OPS = ("read", "write")


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


@dataclass(frozen=True)
class CategoryCharacterization:
    """One re-derived Table 5.2 row."""

    category_key: str
    mean_accesses_per_byte: float
    mean_file_size: float
    mean_files: float
    percent_of_users: float
    sessions_accessing: int


class UsageAnalyzer:
    """Statistics over a usage log (optionally with the FSC manifest)."""

    def __init__(self, log: UsageLog, layout: FileSystemLayout | None = None):
        self.log = log
        self.layout = layout

    # -- session-level measures (Figures 5.3-5.5) ------------------------------

    def session_measures(self) -> SessionMeasures:
        """The three per-session usage measures, one entry per session."""
        sessions = self.log.sessions
        return SessionMeasures(
            access_per_byte=np.array(
                [s.access_per_byte for s in sessions], dtype=float
            ),
            mean_file_size=np.array(
                [s.mean_file_size for s in sessions], dtype=float
            ),
            files_referenced=np.array(
                [float(s.files_referenced) for s in sessions], dtype=float
            ),
        )

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
        stats.add_many(op.size for op in self.log.ops_of(*_DATA_OPS))
        return stats

    def response_time_stats(self, ops: tuple[str, ...] | None = None
                            ) -> RunningStats:
        """Mean/std of per-call response time (µs).

        By default covers every file-access call, as Table 5.3 does;
        restrict with ``ops=("read", "write")`` etc.
        """
        stats = RunningStats()
        if ops is None:
            records = self.log.operations
        else:
            records = list(self.log.ops_of(*ops))
        stats.add_many(op.response_us for op in records)
        return stats

    def response_per_byte(self) -> float:
        """Total data-op response time over total bytes moved (µs/byte).

        The figure of merit of Figures 5.6–5.12.
        """
        total_us = sum(op.response_us for op in self.log.ops_of(*_DATA_OPS))
        total_bytes = self.log.total_bytes
        if total_bytes <= 0:
            return 0.0
        return total_us / total_bytes

    # -- characterization (re-deriving Table 5.2) ----------------------------------

    def characterization(self) -> list[CategoryCharacterization]:
        """Per-category usage measures, averaged over accessing sessions."""
        by_category, _, _ = extract_samples(self.log, self.layout)
        # The %-of-users denominator: sessions that touched any category,
        # or the logged session count when that is larger.
        touched = {(op.user_id, op.session_id)
                   for op in self.log.operations if op.category_key}
        n_sessions = max(len(touched), len(self.log.sessions), 1)

        def mean(values: list[float]) -> float:
            return float(np.mean(values)) if values else 0.0

        return [
            CategoryCharacterization(
                category_key=key,
                mean_accesses_per_byte=mean(samples.accesses_per_byte),
                mean_file_size=mean(samples.file_sizes),
                mean_files=mean(samples.files_per_session),
                percent_of_users=100.0 * samples.sessions_accessing / n_sessions,
                sessions_accessing=samples.sessions_accessing,
            )
            for key, samples in by_category.items()
        ]
