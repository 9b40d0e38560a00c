"""Trace ingestion, spec calibration, and closed-loop validation.

This subsystem turns the reproduction into a tool you can point at any
real-world trace:

* **Ingestion** (:mod:`~repro.traces.adapters`): pluggable adapters
  parse external formats (generic CSV/JSONL, strace syscall logs,
  nfsdump-style packet logs, the native usage-log format) into a
  canonical event stream, line by line with explicit error reporting.
* **Sessionization** (:mod:`~repro.traces.sessionize`): events become
  the repo's ``OpRecord``/``SessionRecord`` stream — explicit session
  records when the source has them, idle-gap reconstruction when not,
  plus heuristic file-category inference.
* **Calibration** (:mod:`~repro.traces.calibrate`): the existing
  characterisation machinery fits a :class:`~repro.core.spec.WorkloadSpec`
  to the ingested trace; specs serialise to JSON artefacts
  (:mod:`repro.core.specjson`) and register as scenarios.
* **Validation** (:mod:`~repro.traces.validate`): the closed loop —
  regenerate from the calibrated spec, re-measure, and report KS
  distance plus mean relative error per usage measure.

CLI: ``repro trace import | calibrate | validate | formats``.
"""

from .adapters import (
    CsvTraceAdapter,
    JsonlTraceAdapter,
    NfsDumpAdapter,
    StraceAdapter,
    TraceAdapter,
    UsageLogAdapter,
    adapter_names,
    detect_format,
    export_csv,
    get_adapter,
)
from .calibrate import (
    CalibrationResult,
    calibrate_log,
    calibrate_trace_file,
    ingest_trace_file,
    ingest_trace_lines,
)
from .events import (
    CANONICAL_OPS,
    IngestStats,
    IssueCollector,
    ParseIssue,
    TraceError,
    TraceEvent,
    TraceParseError,
)
from .sessionize import (
    DEFAULT_GAP_US,
    CategoryInferencer,
    PathSizeIndex,
    SessionizeResult,
    sessionize_events,
)
from .validate import (
    DEFAULT_KS_THRESHOLD,
    MEASURES,
    FidelityReport,
    MeasureFidelity,
    measure_samples,
    regenerate,
    validate_spec,
)

__all__ = [
    "CANONICAL_OPS",
    "DEFAULT_GAP_US",
    "DEFAULT_KS_THRESHOLD",
    "MEASURES",
    "CalibrationResult",
    "CategoryInferencer",
    "CsvTraceAdapter",
    "FidelityReport",
    "IngestStats",
    "IssueCollector",
    "JsonlTraceAdapter",
    "MeasureFidelity",
    "NfsDumpAdapter",
    "ParseIssue",
    "PathSizeIndex",
    "SessionizeResult",
    "StraceAdapter",
    "TraceAdapter",
    "TraceError",
    "TraceEvent",
    "TraceParseError",
    "UsageLogAdapter",
    "adapter_names",
    "calibrate_log",
    "calibrate_trace_file",
    "detect_format",
    "export_csv",
    "get_adapter",
    "ingest_trace_file",
    "ingest_trace_lines",
    "measure_samples",
    "regenerate",
    "sessionize_events",
    "validate_spec",
]
