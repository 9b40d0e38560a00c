"""Trace characterization: from a usage log back to a workload spec.

Section 2.2: "Our method analyzes trace data to obtain the distributions
of resource usage of users and then uses the distributions during the
simulation phase."  This module is that first half.  Given a
:class:`~repro.core.oplog.UsageLog` (measured on a real system through
the RealRunner, or produced by any tool that writes the log format), it

1. extracts per-category samples of the Table 5.2 measures
   (accesses-per-byte, files referenced, file size) and the global
   access-size and think-time samples,
2. fits each with the GDS's families (or keeps the empirical
   distribution), and
3. assembles a :class:`~repro.core.spec.WorkloadSpec` ready to drive the
   generator.

Together with the generator this closes the thesis's loop: measure →
characterise → synthesise → measure, with the synthetic workload's
characterization converging to the original's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions import (
    Distribution,
    EmpiricalDistribution,
    ShiftedExponential,
    fit_best,
)
from .fsc import FileSystemLayout
from .oplog import UsageLog
from .spec import (
    FileCategory,
    FileCategorySpec,
    UsageSpec,
    UserTypeSpec,
    WorkloadSpec,
)

__all__ = [
    "CategorySamples",
    "extract_samples",
    "characterize_log",
    "fit_measure",
]

_DATA_OPS = ("read", "write")
_REFERENCE_OPS = ("open", "creat", "stat")
_MIN_FIT_SAMPLES = 8
# A category accessed in fewer sessions than this is left out of the spec.
_MIN_SESSIONS_PER_CATEGORY = 2


@dataclass
class CategorySamples:
    """Raw per-category observations extracted from a log."""

    category_key: str
    accesses_per_byte: list[float]
    files_per_session: list[float]
    file_sizes: list[float]
    sessions_accessing: int

    def has_enough(self, minimum: int = _MIN_FIT_SAMPLES) -> bool:
        """True when every measure has at least ``minimum`` observations."""
        return (
            len(self.accesses_per_byte) >= minimum
            and len(self.files_per_session) >= minimum
            and len(self.file_sizes) >= minimum
        )


def extract_samples(
    log: UsageLog, layout: FileSystemLayout | None = None
) -> tuple[dict[str, CategorySamples], list[float], list[float]]:
    """Pull per-category measure samples plus access sizes out of a log.

    Returns ``(samples_by_category, access_sizes, inter_request_gaps)``.
    Inter-request gaps (think time plus service) are derived from
    consecutive operation start times within a session; they upper-bound
    think time, which is all a trace exposes without kernel help.
    """
    per_cell_bytes: dict[tuple[tuple[int, int], str], int] = {}
    per_cell_sizes: dict[tuple[tuple[int, int], str], dict[str, int]] = {}
    session_keys: set[tuple[int, int]] = set()
    access_sizes: list[float] = []
    op_starts: dict[tuple[int, int], list[float]] = {}

    for op in log.operations:
        session = (op.user_id, op.session_id)
        op_starts.setdefault(session, []).append(op.start_us)
        if op.op in _DATA_OPS:
            access_sizes.append(float(op.size))
        if not op.category_key:
            continue
        session_keys.add(session)
        cell = (session, op.category_key)
        if op.op in _DATA_OPS or op.op == "listdir":
            per_cell_bytes[cell] = per_cell_bytes.get(cell, 0) + op.size
        if op.op in _REFERENCE_OPS:
            per_cell_sizes.setdefault(cell, {}).setdefault(op.path, 0)
        if op.op == "write":
            sizes = per_cell_sizes.setdefault(cell, {})
            sizes[op.path] = sizes.get(op.path, 0) + op.size

    # FSC-recorded sizes are authoritative for pre-existing files (a
    # rewritten file's size is its length, not the bytes written over it);
    # session-created files fall back to their accumulated write bytes.
    for (session, key), sizes in per_cell_sizes.items():
        for path in list(sizes):
            recorded = layout.size_of(path) if layout is not None else None
            if recorded is not None:
                sizes[path] = recorded

    categories = {cell[1] for cell in per_cell_sizes}
    out: dict[str, CategorySamples] = {}
    for key in sorted(categories):
        samples = CategorySamples(key, [], [], [], 0)
        for session in session_keys:
            cell = (session, key)
            sizes = per_cell_sizes.get(cell)
            if not sizes:
                continue
            samples.sessions_accessing += 1
            samples.files_per_session.append(float(len(sizes)))
            samples.file_sizes.extend(float(v) for v in sizes.values())
            total_size = sum(sizes.values())
            if total_size > 0:
                samples.accesses_per_byte.append(
                    per_cell_bytes.get(cell, 0) / total_size
                )
        out[key] = samples

    gaps: list[float] = []
    for starts in op_starts.values():
        ordered = sorted(starts)
        gaps.extend(
            b - a for a, b in zip(ordered, ordered[1:]) if b - a >= 0
        )
    return out, access_sizes, gaps


def _fit(samples: list[float], method: str) -> Distribution:
    data = np.asarray(samples, dtype=float)
    if method == "empirical":
        return EmpiricalDistribution(data)
    if method == "fit":
        if len(data) >= _MIN_FIT_SAMPLES and float(np.std(data)) > 0:
            try:
                return fit_best(data, max_phases=2).distribution
            # detlint: ignore[swallowed-exceptions] — degenerate fit: empirical fallback below
            except Exception:
                pass
        return EmpiricalDistribution(data)
    if method == "exponential":
        mean = max(float(np.mean(data)), 1e-9)
        return ShiftedExponential(mean)
    raise ValueError(
        f"method must be empirical|fit|exponential, got {method!r}"
    )


def fit_measure(samples: list[float], method: str = "fit") -> Distribution:
    """Fit one measure's samples the way :func:`characterize_log` does.

    Public entry point for callers (the trace-calibration pipeline) that
    need to re-fit a single measure — e.g. replacing the think-time
    distribution once per-call service times are known.
    """
    return _fit(samples, method)


def characterize_log(
    log: UsageLog,
    layout: FileSystemLayout | None = None,
    method: str = "fit",
    user_type_name: str = "characterized",
    total_files: int = 400,
    n_users: int = 1,
    seed: int = 0,
) -> WorkloadSpec:
    """Build a :class:`WorkloadSpec` whose distributions fit the log.

    ``method`` selects how each measure's samples become a distribution:
    ``"fit"`` (GDS families via best-KS, falling back to empirical),
    ``"empirical"`` (bootstrap the observations), or ``"exponential"``
    (mean-matched, the thesis's section 5.1 simplification).
    """
    by_category, access_sizes, gaps = extract_samples(log, layout)
    n_sessions = max(len(log.sessions), 1)

    usage_specs: list[UsageSpec] = []
    weighted: list[tuple[FileCategory, Distribution, float]] = []
    for key, samples in sorted(by_category.items()):
        if samples.sessions_accessing < _MIN_SESSIONS_PER_CATEGORY:
            continue
        if not samples.has_enough(2):
            continue
        category = FileCategory.from_key(key)
        usage_specs.append(
            UsageSpec(
                category=category,
                access_per_byte=_fit(samples.accesses_per_byte, method),
                file_count=_fit(samples.files_per_session, method),
                file_size=_fit(samples.file_sizes, method),
                fraction_of_users=min(
                    1.0, samples.sessions_accessing / n_sessions
                ),
            )
        )
        weighted.append(
            (category, _fit(samples.file_sizes, method),
             float(len(samples.file_sizes)))
        )

    if not usage_specs:
        raise ValueError("log contains too little data to characterize")

    total_size_weight = sum(weight for _, _, weight in weighted)
    category_specs = [
        FileCategorySpec(
            category=category,
            size_distribution=dist,
            fraction_of_files=weight / total_size_weight,
        )
        for category, dist, weight in weighted
    ]

    access_size = (
        _fit(access_sizes, method) if len(access_sizes) >= 2
        else ShiftedExponential(1024.0)
    )
    think_time = (
        _fit(gaps, method) if len(gaps) >= 2
        else ShiftedExponential(5000.0)
    )
    user_type = UserTypeSpec(
        name=user_type_name,
        fraction=1.0,
        usage=tuple(usage_specs),
        think_time=think_time,
        access_size=access_size,
    )
    return WorkloadSpec(
        file_categories=tuple(category_specs),
        user_types=(user_type,),
        total_files=total_files,
        n_users=n_users,
        seed=seed,
    )
