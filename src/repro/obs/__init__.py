"""Run-wide observability: metrics, stage spans, progress, manifests.

``repro.obs`` instruments the generation pipeline without ever touching
it: a disabled run pays one predicate check (see
:data:`~repro.obs.observer.NULL_OBSERVER`), an enabled run collects
counters/gauges/stats/histograms into a
:class:`~repro.obs.metrics.MetricsRegistry`, charges wall+CPU spans to
pipeline stages, optionally paints a live progress line, and can be
rolled up into a run-manifest JSON artifact.  Instrumentation never
consumes randomness or alters recorded bytes — golden byte-identity
holds with metrics on.
"""

from .manifest import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    build_manifest,
    peak_rss_kib,
    spec_fingerprint,
    write_manifest,
)
from .metrics import Counter, Gauge, MetricsRegistry, merge_snapshots
from .observer import (
    NULL_OBSERVER,
    NullObserver,
    Observer,
    ObservingSink,
    RunObserver,
    StageTimes,
)
from .progress import ProgressMeter, QueueProgressSender, format_progress_line

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "merge_snapshots",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "RunObserver",
    "StageTimes",
    "ObservingSink",
    "ProgressMeter",
    "QueueProgressSender",
    "format_progress_line",
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "build_manifest",
    "peak_rss_kib",
    "spec_fingerprint",
    "write_manifest",
]
