"""Trace calibration: any ingested trace → a shareable :class:`WorkloadSpec`.

The pipeline is adapter → :func:`sessionize_events` → the existing
:func:`~repro.core.characterize.characterize_log` machinery, with two
trace-specific refinements:

* the population size and file-system size default to what the trace
  actually showed (observed users / distinct paths);
* the think-time distribution is re-fitted from *service-time-corrected*
  gaps (:func:`~repro.core.analyzer.think_gaps`) whenever the
  source carries per-call durations — the raw inter-request gaps
  ``characterize_log`` uses include service time, which double-counts
  latency once the synthetic workload adds its own.

The result carries the spec, the reconstructed usage log, and ingestion
provenance; ``repro trace calibrate`` writes the spec as a JSON artefact
(see :mod:`repro.core.specjson`) ready for ``repro trace validate`` or a
:func:`~repro.scenarios.register_spec_file` scenario entry.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from ..core.analyzer import UsageAnalyzer, think_gaps
from ..core.characterize import characterize_log, fit_measure
from ..core.oplog import OpSink, UsageLog
from ..core.spec import WorkloadSpec
from .adapters import detect_format, get_adapter
from .events import IngestStats, IssueCollector, TraceError
from .sessionize import DEFAULT_GAP_US, PathSizeIndex, sessionize_events

__all__ = [
    "CalibrationResult",
    "ingest_trace_lines",
    "ingest_trace_file",
    "calibrate_log",
    "calibrate_trace_file",
]

_SNIFF_LINES = 50


@dataclass
class CalibrationResult:
    """A calibrated spec plus how it was obtained."""

    spec: WorkloadSpec
    log: UsageLog
    size_index: PathSizeIndex
    stats: IngestStats
    method: str
    gap_us: float

    def meta(self, source: str = "") -> dict:
        """Provenance block for the spec JSON artefact."""
        return {
            "calibrated_from": os.path.basename(source) if source else "",
            "adapter": self.stats.adapter,
            "method": self.method,
            "gap_us": self.gap_us,
            "events": self.stats.events,
            "sessions": self.stats.sessions,
            "users": self.stats.users,
            "distinct_paths": self.stats.distinct_paths,
            "parse_issues": self.stats.issues_total,
        }


def _resolve_adapter(lines: Iterator[str], fmt: str | None):
    """(adapter, line iterator) — sniffing re-chains the consumed sample."""
    if fmt is not None:
        return get_adapter(fmt), lines
    sample = list(itertools.islice(lines, _SNIFF_LINES))
    try:
        name = detect_format(sample)
    except ValueError as exc:
        raise TraceError(str(exc)) from exc
    return get_adapter(name), itertools.chain(sample, lines)


def ingest_trace_lines(
    lines: Iterable[str],
    sink: OpSink,
    fmt: str | None = None,
    gap_us: float = DEFAULT_GAP_US,
    strict: bool = False,
    source_name: str = "",
) -> tuple[IngestStats, PathSizeIndex]:
    """Parse + sessionize ``lines`` into ``sink``; returns (stats, sizes).

    ``fmt`` names an adapter (see :func:`~repro.traces.adapters.adapter_names`)
    or ``None`` to sniff.  ``strict`` turns the first malformed line into
    a :class:`~repro.traces.events.TraceParseError`.
    """
    adapter, line_iter = _resolve_adapter(iter(lines), fmt)
    issues = IssueCollector(strict=strict, source=source_name)
    events = adapter.iter_events(line_iter, issues)
    result = sessionize_events(events, sink, gap_us=gap_us, issues=issues)
    result.stats.adapter = adapter.name
    return result.stats, result.size_index


def ingest_trace_file(
    path: str,
    sink: OpSink,
    fmt: str | None = None,
    gap_us: float = DEFAULT_GAP_US,
    strict: bool = False,
) -> tuple[IngestStats, PathSizeIndex]:
    """:func:`ingest_trace_lines` over a file, streaming."""
    with open(path, "r", encoding="utf-8", errors="replace") as stream:
        return ingest_trace_lines(
            stream,
            sink,
            fmt=fmt,
            gap_us=gap_us,
            strict=strict,
            source_name=os.path.basename(path),
        )


def calibrate_log(
    log: UsageLog,
    size_index: PathSizeIndex | None = None,
    method: str = "fit",
    seed: int = 0,
    n_users: int | None = None,
    total_files: int | None = None,
    user_type_name: str = "calibrated",
) -> WorkloadSpec:
    """Characterize a reconstructed log into a generator-ready spec.

    Defaults derive from the log itself: the population is the number of
    distinct users observed and the file-system size the number of
    distinct paths (floored at 50 so tiny traces still generate).
    """
    if not log.operations:
        raise TraceError("trace produced no operations to calibrate from")
    analyzer = UsageAnalyzer(log, size_index)
    batch = analyzer.batch  # its path table holds each distinct path once
    spec = characterize_log(
        analyzer,
        method=method,
        user_type_name=user_type_name,
        total_files=total_files or max(50, len(batch.paths)),
        n_users=n_users or len(np.unique(batch.user_ids)),
        seed=seed,
    )
    gaps = think_gaps(batch)
    if len(gaps) >= 2:
        think_time = fit_measure(gaps, method)
        spec = replace(
            spec,
            user_types=tuple(replace(ut, think_time=think_time) for ut in spec.user_types),
        )
    return spec


def calibrate_trace_file(
    path: str,
    fmt: str | None = None,
    gap_us: float = DEFAULT_GAP_US,
    method: str = "fit",
    seed: int = 0,
    n_users: int | None = None,
    total_files: int | None = None,
    user_type_name: str = "calibrated",
    strict: bool = False,
) -> CalibrationResult:
    """The full measure→characterise pipeline over one trace file."""
    log = UsageLog()
    stats, size_index = ingest_trace_file(
        path, log, fmt=fmt, gap_us=gap_us, strict=strict
    )
    try:
        spec = calibrate_log(
            log,
            size_index=size_index,
            method=method,
            seed=seed,
            n_users=n_users,
            total_files=total_files,
            user_type_name=user_type_name,
        )
    except ValueError as exc:
        raise TraceError(f"{os.path.basename(path)}: {exc}") from exc
    return CalibrationResult(
        spec=spec,
        log=log,
        size_index=size_index,
        stats=stats,
        method=method,
        gap_us=gap_us,
    )
