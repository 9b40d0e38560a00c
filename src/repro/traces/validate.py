"""Closed-loop validation: does the calibrated spec reproduce its trace?

The thesis's correctness argument is a loop — measure → characterise →
synthesise → measure — whose two characterisations must agree.  This
module runs that loop mechanically:

1. regenerate a synthetic workload from the calibrated spec (one engine,
   or sharded through :mod:`repro.fleet` for large traces);
2. take the same measure samples from source and synthetic logs
   (:func:`measure_samples`: one Usage Analyzer, one bias on both);
3. compare each measure with a two-sample KS distance and a mean
   relative error.

The fidelity report renders as text (CLI) and JSON (automation);
``passed`` applies one KS threshold across all measures.  The default
threshold of 0.35 is deliberately loose: bootstrap-level agreement for a
moderate trace lands near 0.05–0.15 per measure, and a mis-calibrated
spec typically blows past 0.5, so 0.35 separates "the loop closed" from
"it did not" without flagging sampling noise.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, replace
from typing import Any

import numpy as np

from ..core.analyzer import UsageAnalyzer, access_sizes, think_gaps
from ..core.generator import WorkloadGenerator
from ..core.oplog import UsageLog
from ..core.spec import WorkloadSpec
from ..distributions import ks_two_sample

__all__ = [
    "DEFAULT_KS_THRESHOLD",
    "MEASURES",
    "MeasureFidelity",
    "FidelityReport",
    "measure_samples",
    "regenerate",
    "validate_spec",
]

DEFAULT_KS_THRESHOLD = 0.35

# The five usage measures of the thesis's characterization (Table 5.2
# plus the two global distributions of section 5.1).
MEASURES = (
    "access_size",
    "file_size",
    "files_referenced",
    "access_per_byte",
    "think_time",
)


def measure_samples(log: UsageLog, layout=None) -> dict[str, np.ndarray]:
    """Sample arrays for every measure in :data:`MEASURES`.

    Per-category samples are pooled across categories: the closed-loop
    check compares whole-workload marginals, which stays meaningful
    even when source and synthetic category taxonomies differ slightly
    (e.g. heuristically inferred categories).  ``layout`` is anything
    with ``size_of(path)`` for resolving referenced-file sizes.
    """
    analyzer = UsageAnalyzer(log, layout)
    by_category = analyzer.fold.samples().values()

    def pooled(measure: str) -> np.ndarray:
        return np.concatenate(
            [getattr(samples, measure) for samples in by_category] + [[]])

    return {
        "access_size": access_sizes(analyzer.batch),
        "file_size": pooled("file_sizes"),
        "files_referenced": pooled("files_per_session"),
        "access_per_byte": pooled("accesses_per_byte"),
        "think_time": think_gaps(analyzer.batch),
    }


@dataclass(frozen=True)
class MeasureFidelity:
    """Source-vs-synthetic agreement for one usage measure."""

    measure: str  # fields in the report table's column order
    n_source: int
    n_synthetic: int
    source_mean: float
    synthetic_mean: float
    ks: float
    mean_relative_error: float

    def as_row(self) -> tuple:
        return astuple(self)


@dataclass
class FidelityReport:
    """The closed-loop comparison across every measure."""

    measures: list[MeasureFidelity]
    threshold: float
    source_sessions: int
    synthetic_sessions: int
    source_ops: int
    synthetic_ops: int
    sessions_per_user: int
    shards: int
    seed: int

    @property
    def worst_ks(self) -> float:
        """The largest KS distance across measures."""
        return max((m.ks for m in self.measures), default=0.0)

    @property
    def passed(self) -> bool:
        """True when every measure's KS distance is within the threshold."""
        return all(m.ks <= self.threshold for m in self.measures)

    def formatted(self) -> str:
        """Human-readable report."""
        from ..harness import format_kv, format_table

        header = format_kv(
            {
                "source sessions": self.source_sessions,
                "synthetic sessions": self.synthetic_sessions,
                "source ops": self.source_ops,
                "synthetic ops": self.synthetic_ops,
                "sessions per user": self.sessions_per_user,
                "shards": self.shards,
                "seed": self.seed,
                "KS threshold": self.threshold,
            },
            title="Closed-loop validation",
        )
        table = format_table(
            ["measure", "n src", "n syn", "mean src", "mean syn", "KS", "rel err"],
            [m.as_row() for m in self.measures],
            title="Fidelity by measure (two-sample KS, mean relative error)",
        )
        verdict = (
            f"PASS: all {len(self.measures)} measures within KS {self.threshold}"
            if self.passed
            else f"FAIL: worst KS {self.worst_ks:.4f} exceeds {self.threshold}"
        )
        return "\n\n".join([header, table, verdict])

    def to_jsonable(self) -> dict[str, Any]:
        """Machine-readable report."""
        return {
            "passed": self.passed,
            "threshold": self.threshold,
            "worst_ks": self.worst_ks,
            "source_sessions": self.source_sessions,
            "synthetic_sessions": self.synthetic_sessions,
            "source_ops": self.source_ops,
            "synthetic_ops": self.synthetic_ops,
            "sessions_per_user": self.sessions_per_user,
            "shards": self.shards,
            "seed": self.seed,
            "measures": {
                m.measure: {
                    "ks": m.ks,
                    "source_mean": m.source_mean,
                    "synthetic_mean": m.synthetic_mean,
                    "mean_relative_error": _json_number(m.mean_relative_error),
                    "n_source": m.n_source,
                    "n_synthetic": m.n_synthetic,
                }
                for m in self.measures
            },
        }

    def to_json(self) -> str:
        # allow_nan=False guarantees the artefact is strict JSON (no
        # bare Infinity/NaN tokens that non-Python parsers reject).
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True, allow_nan=False)


def _json_number(value: float) -> float | None:
    """Strict-JSON-safe number: non-finite values become null."""
    import math

    return value if math.isfinite(value) else None


def regenerate(
    spec: WorkloadSpec,
    sessions_per_user: int,
    shards: int = 1,
    backend: str = "nfs",
):
    """Run the spec's synthetic workload; returns ``(log, layout)``.

    The run goes through :func:`repro.fleet.run_fleet` at any shard count
    (the merged content is shard-count-invariant, so the fidelity
    numbers do not depend on ``shards`` — only wall-clock does).
    ``backend`` accepts any execution backend, including ``fast``: the
    regenerated op stream is backend-invariant, so a ``fast`` validation
    differs only in the service-time component of recorded timings.
    """
    from ..fleet import FleetConfig, run_fleet

    result = run_fleet(
        FleetConfig(
            spec=spec,
            shards=min(shards, spec.n_users),
            sessions_per_user=sessions_per_user,
            backend=backend,
            collect_ops=True,
        )
    )
    return result.log, WorkloadGenerator(spec).manifest()


def _has_sizes(layout) -> bool:
    """True unless ``layout`` is a visibly empty size index."""
    try:
        return len(layout) > 0
    except TypeError:
        return True  # no length protocol (e.g. FileSystemLayout): trust it


def _compare(measure: str, source: np.ndarray, synthetic: np.ndarray) -> MeasureFidelity:
    n_source, n_synthetic = len(source), len(synthetic)
    if n_source == 0 and n_synthetic == 0:
        ks = 0.0
    elif n_source == 0 or n_synthetic == 0:
        ks = 1.0  # one side never observed the measure: maximal mismatch
    else:
        ks = ks_two_sample(source, synthetic)
    source_mean = float(np.mean(source)) if n_source else 0.0
    synthetic_mean = float(np.mean(synthetic)) if n_synthetic else 0.0
    if source_mean != 0.0:
        rel_err = abs(synthetic_mean - source_mean) / abs(source_mean)
    else:
        rel_err = 0.0 if synthetic_mean == 0.0 else float("inf")
    return MeasureFidelity(
        measure=measure,
        ks=ks,
        source_mean=source_mean,
        synthetic_mean=synthetic_mean,
        mean_relative_error=rel_err,
        n_source=n_source,
        n_synthetic=n_synthetic,
    )


def validate_spec(
    spec: WorkloadSpec,
    source_log: UsageLog,
    source_layout=None,
    sessions_per_user: int | None = None,
    shards: int = 1,
    backend: str = "nfs",
    threshold: float = DEFAULT_KS_THRESHOLD,
    seed: int | None = None,
) -> FidelityReport:
    """Run the closed loop and report per-measure fidelity.

    ``sessions_per_user`` defaults to matching the source's session
    count across the spec's population.  ``seed`` overrides the spec's
    seed for the regeneration (the loop is deterministic either way).
    ``source_layout`` is anything with ``size_of(path)`` — typically the
    :class:`~repro.traces.sessionize.PathSizeIndex` from ingestion.
    """
    if seed is not None:
        spec = replace(spec, seed=seed)
    if sessions_per_user is None:
        sessions = max(len(source_log.sessions), 1)
        sessions_per_user = max(1, round(sessions / spec.n_users))
    synthetic_log, synthetic_layout = regenerate(
        spec, sessions_per_user=sessions_per_user, shards=shards, backend=backend
    )
    # Symmetry: file sizes must resolve the same way on both sides.  A
    # source with no size information falls back to write-accumulation,
    # so the synthetic side must too — otherwise the file-size measure
    # compares "true layout sizes" against "bytes written" and reports a
    # mismatch the calibration did not cause.
    if source_layout is None or not _has_sizes(source_layout):
        synthetic_layout = None
    source = measure_samples(source_log, source_layout)
    synthetic = measure_samples(synthetic_log, synthetic_layout)
    comparisons = [
        _compare(measure, source[measure], synthetic[measure]) for measure in MEASURES
    ]
    return FidelityReport(
        measures=comparisons,
        threshold=threshold,
        source_sessions=len(source_log.sessions),
        synthetic_sessions=len(synthetic_log.sessions),
        source_ops=len(source_log.operations),
        synthetic_ops=len(synthetic_log.operations),
        sessions_per_user=sessions_per_user,
        shards=shards,
        seed=spec.seed,
    )
