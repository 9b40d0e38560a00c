"""Trace characterization: from a usage log back to a workload spec.

Section 2.2: "Our method analyzes trace data to obtain the distributions
of resource usage of users and then uses the distributions during the
simulation phase."  This module is that first half.  Given a
:class:`~repro.core.oplog.UsageLog` (measured on a real system through
the RealRunner, or produced by any tool that writes the log format), it

1. takes per-category samples of the Table 5.2 measures (accesses-per-
   byte, files referenced, file size) and the global access-size and
   inter-request-gap samples from the Usage Analyzer,
2. fits each with the GDS's families (or keeps the empirical
   distribution), and
3. assembles a :class:`~repro.core.spec.WorkloadSpec` ready to drive the
   generator.

Together with the generator this closes the thesis's loop: measure →
characterise → synthesise → measure, with the synthetic workload's
characterization converging to the original's.
"""

from __future__ import annotations

import numpy as np

from ..distributions import (
    Distribution,
    EmpiricalDistribution,
    ShiftedExponential,
    fit_best,
)
from .analyzer import UsageAnalyzer, access_sizes, request_gaps
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
    "characterize_log",
    "fit_measure",
]

_MIN_FIT_SAMPLES = 8
# A category accessed in fewer sessions than this is left out of the spec.
_MIN_SESSIONS_PER_CATEGORY = 2


def fit_measure(samples, method: str = "fit") -> Distribution:
    """Fit one measure's samples: ``"fit"`` (GDS families via best-KS,
    falling back to empirical), ``"empirical"`` (bootstrap the
    observations), or ``"exponential"`` (mean-matched, the thesis's
    section 5.1 simplification)."""
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


def characterize_log(
    log: UsageLog | UsageAnalyzer,
    layout: FileSystemLayout | None = None,
    method: str = "fit",
    user_type_name: str = "characterized",
    total_files: int = 400,
    n_users: int = 1,
    seed: int = 0,
) -> WorkloadSpec:
    """Build a :class:`WorkloadSpec` whose distributions fit the log,
    each measure's samples through :func:`fit_measure` with ``method``.
    ``log`` may be an analyzer already built over it (and its layout)."""
    analyzer = (log if isinstance(log, UsageAnalyzer)
                else UsageAnalyzer(log, layout))
    usage_specs: list[UsageSpec] = []
    weighted: list[tuple[FileCategory, Distribution, float]] = []
    for key, samples in analyzer.fold.samples().items():
        if (samples.sessions_accessing < _MIN_SESSIONS_PER_CATEGORY
                or len(samples.accesses_per_byte) < 2):
            continue
        category = FileCategory.from_key(key)
        file_size = fit_measure(samples.file_sizes, method)
        usage_specs.append(
            UsageSpec(
                category=category,
                access_per_byte=fit_measure(samples.accesses_per_byte, method),
                file_count=fit_measure(samples.files_per_session, method),
                file_size=file_size,
                fraction_of_users=min(
                    1.0, samples.sessions_accessing / analyzer.fold.n_sessions
                ),
            )
        )
        weighted.append((category, file_size, float(len(samples.file_sizes))))

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

    sizes = access_sizes(analyzer.batch)
    gaps = request_gaps(analyzer.batch)
    access_size = (
        fit_measure(sizes, method) if len(sizes) >= 2
        else ShiftedExponential(1024.0)
    )
    think_time = (
        fit_measure(gaps, method) if len(gaps) >= 2
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
