"""One function per paper table and figure.

Each function runs the workload generator with the paper's section 5
parameters and returns a structured result carrying both the measured
series/rows and, where the paper states them, the published values for
side-by-side comparison.  ``benchmarks/bench_paper.py`` calls them.

Experiment sizing: the thesis used 600 login sessions for Figures
5.3–5.5 and 50 sessions per measured point elsewhere.  Those are the
defaults here; tests and quick runs pass smaller numbers.

Note on Figures 5.1/5.2: the scanned thesis leaves some panel captions
illegible.  Legible parameters are used verbatim (``exp(22.1, x)``,
``0.4exp(12.7,x)+0.3exp(18.2,x-18)+…``, ``g(1.5,25.4,x-12)``,
``0.7g(1.3,12.3,x)+0.2g(1.5,12.4,x-23)+0.1g(1.3,12.3,x-41)``); the
unreadable panels are reconstructed with parameters of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import (
    TABLE_5_1,
    TABLE_5_2,
    TABLE_5_4_THINK_TIME_US,
    FileSystemCreator,
    SessionGenerator,
    UsageAnalyzer,
    UsageFold,
    WorkloadGenerator,
    paper_user_type,
    paper_workload_spec,
)
from ..distributions import (
    MultiStageGamma,
    PhaseTypeExponential,
    RandomStreams,
)
from ..nfs import NfsTiming
from ..vfs import MemoryFileSystem
from .report import format_table

__all__ = [
    "TableResult",
    "FigureResult",
    "table_5_1",
    "table_5_2",
    "table_5_3",
    "table_5_4",
    "figure_5_1",
    "figure_5_2",
    "figure_5_3",
    "figure_5_4",
    "figure_5_5",
    "figure_5_6",
    "figure_5_7",
    "figure_5_8",
    "figure_5_9",
    "figure_5_10",
    "figure_5_11",
    "figure_5_12",
    "response_per_byte_vs_users",
    "PAPER_EXPERIMENTS",
]


@dataclass
class TableResult:
    """A reproduced table: headers + rows, ready to print."""

    ident: str
    title: str
    headers: list[str]
    rows: list[list]

    def formatted(self) -> str:
        """ASCII rendition."""
        return format_table(self.headers, self.rows,
                            title=f"{self.ident}: {self.title}")


@dataclass
class FigureResult:
    """A reproduced figure: one or more named series over a shared x."""

    ident: str
    title: str
    x_label: str
    y_label: str
    xs: list
    series: dict[str, list] = field(default_factory=dict)

    @property
    def ys(self) -> list:
        """The first (or only) series."""
        return next(iter(self.series.values()))

    def formatted(self) -> str:
        """ASCII rendition (one column per series)."""
        headers = [self.x_label] + list(self.series)
        rows = [
            [x] + [self.series[name][i] for name in self.series]
            for i, x in enumerate(self.xs)
        ]
        return format_table(
            headers, rows,
            title=f"{self.ident}: {self.title}  [{self.y_label}]",
        )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table_5_1(total_files: int = 4000, seed: int = 0) -> TableResult:
    """File characterization: paper's means vs a realised FSC build."""
    spec = paper_workload_spec(n_users=4, total_files=total_files, seed=seed)
    layout = FileSystemCreator(spec).create(
        MemoryFileSystem(), materialize_users=set(), materialize_shared=False)
    measured_sizes = layout.mean_size_by_category()
    counts = layout.count_by_category()
    rows = []
    for row in TABLE_5_1:
        key = row.category.key
        rows.append(
            [
                key,
                row.mean_file_size,
                measured_sizes.get(key, 0.0),
                row.percent_of_files,
                100.0 * counts.get(key, 0) / layout.total_files,
            ]
        )
    return TableResult(
        ident="Table 5.1",
        title="File characterization by file category (paper vs created)",
        headers=["category", "size(paper)", "size(measured)",
                 "%files(paper)", "%files(measured)"],
        rows=rows,
    )


def table_5_2(sessions: int = 300, seed: int = 0) -> TableResult:
    """User characterization: paper's Table 5.2 vs the analyzer's fold."""
    measured = {c.category_key: c
                for c in _table_5_2_fold(sessions, seed).characterization()}
    rows = []
    for row in TABLE_5_2:
        key = row.category.key
        got = measured.get(key)
        rows.append(
            [
                key,
                row.mean_accesses_per_byte,
                got.mean_accesses_per_byte if got else 0.0,
                row.mean_files,
                got.mean_files if got else 0.0,
                row.percent_of_users,
                got.percent_of_users if got else 0.0,
            ]
        )
    return TableResult(
        ident="Table 5.2",
        title="User characterization by file category (paper vs measured)",
        headers=["category", "acc/B(paper)", "acc/B(meas)",
                 "files(paper)", "files(meas)",
                 "%users(paper)", "%users(meas)"],
        rows=rows,
    )


def _table_5_2_fold(sessions: int, seed: int) -> UsageFold:
    """Table 5.2's workload folded as it is generated, engine-free
    (usage does not depend on response times).  It scales by users of
    150 sessions and 200 files: the executor holds a user's sessions in
    one block, so more sessions per user would grow it."""
    n_users = max(2, sessions // 150)
    spec = paper_workload_spec(n_users=n_users, total_files=200 * n_users,
                               seed=seed)
    generator = WorkloadGenerator(spec)
    fold = UsageFold(generator.manifest())
    generator.run_simulated(sessions_per_user=max(1, sessions // n_users),
                            backend="fast", log=fold)
    return fold


_TABLE_5_3_PAPER = {
    1: (946.71, 956.76, 1284.83, 4201.52),
    2: (936.06, 945.16, 1716.26, 7026.62),
    3: (932.80, 946.87, 2120.99, 13308.12),
    4: (956.12, 965.49, 2447.55, 16834.38),
    5: (947.98, 948.53, 2960.32, 16197.86),
    6: (928.66, 935.09, 3494.30, 30059.28),
}


def table_5_3(
    max_users: int = 6,
    sessions_total: int = 50,
    total_files: int = 300,
    seed: int = 0,
    timing: NfsTiming | None = None,
) -> TableResult:
    """Access size and response time vs number of concurrent users.

    Heavy-I/O users (5 000 µs think time) on the simulated NFS, exactly
    the section 5.1 configuration.
    """
    rows = []
    for n_users in range(1, max_users + 1):
        spec = paper_workload_spec(
            n_users=n_users, total_files=total_files, seed=seed
        )
        result = WorkloadGenerator(spec).run_simulated(
            sessions_per_user=max(1, round(sessions_total / n_users)),
            timing=timing,
        )
        analyzer = result.analyzer
        size_stats = analyzer.access_size_stats()
        resp_stats = analyzer.response_time_stats()
        paper = _TABLE_5_3_PAPER.get(n_users, (0, 0, 0, 0))
        rows.append(
            [
                n_users,
                size_stats.mean,
                size_stats.sample_std,
                resp_stats.mean,
                resp_stats.sample_std,
                paper[2],
                paper[3],
            ]
        )
    return TableResult(
        ident="Table 5.3",
        title="Access size & response time (µs) of file access system calls",
        headers=["users", "size mean", "size std",
                 "resp mean", "resp std",
                 "resp mean(paper)", "resp std(paper)"],
        rows=rows,
    )


def table_5_4(sessions: int = 20, seed: int = 0) -> TableResult:
    """The three experiment user types, with measured mean think times."""
    spec = paper_workload_spec(n_users=1, total_files=200, seed=seed)
    layout = FileSystemCreator(spec).create(
        MemoryFileSystem(), materialize_users=set(), materialize_shared=False)
    rows = []
    for name, think_us in TABLE_5_4_THINK_TIME_US.items():
        user_type = paper_user_type(name, think_time_mean_us=think_us)
        generator = SessionGenerator(
            user_type, layout, RandomStreams(seed), user_id=0
        )
        thinks: list[float] = []
        for sid in range(sessions):
            thinks.extend(
                op.size for op in generator.generate_session(sid)
                if op.kind == "think"
            )
        rows.append([name, think_us, float(np.mean(thinks))])
    return TableResult(
        ident="Table 5.4",
        title="Types of users simulated in experiments",
        headers=["user type", "think time (paper, µs)",
                 "mean think (measured, µs)"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figures 5.1 / 5.2 — example distribution panels
# ---------------------------------------------------------------------------


def figure_5_1(n_points: int = 101) -> FigureResult:
    """Example phase-type exponential densities (three panels)."""
    xs = np.linspace(0.0, 100.0, n_points)
    panels = {
        "exp(22.1,x)": PhaseTypeExponential([1.0], [22.1]),
        "0.6exp(15.0,x)+0.4exp(25.0,x-20)": PhaseTypeExponential(
            [0.6, 0.4], [15.0, 25.0], [0.0, 20.0]
        ),
        "0.4exp(12.7,x)+0.3exp(18.2,x-18)+0.3exp(24.5,x-41)":
            PhaseTypeExponential(
                [0.4, 0.3, 0.3], [12.7, 18.2, 24.5], [0.0, 18.0, 41.0]
            ),
    }
    return FigureResult(
        ident="Figure 5.1",
        title="Examples of phase-type exponential distributions",
        x_label="x",
        y_label="f(x)",
        xs=xs.tolist(),
        series={name: np.asarray(dist.pdf(xs)).tolist()
                for name, dist in panels.items()},
    )


def figure_5_2(n_points: int = 101) -> FigureResult:
    """Example multi-stage gamma densities (three panels)."""
    xs = np.linspace(0.0, 100.0, n_points)
    panels = {
        "g(2.0,10.5,x)": MultiStageGamma([1.0], [2.0], [10.5]),
        "g(1.5,25.4,x-12)": MultiStageGamma([1.0], [1.5], [25.4], [12.0]),
        "0.7g(1.3,12.3,x)+0.2g(1.5,12.4,x-23)+0.1g(1.3,12.3,x-41)":
            MultiStageGamma(
                [0.7, 0.2, 0.1], [1.3, 1.5, 1.3], [12.3, 12.4, 12.3],
                [0.0, 23.0, 41.0]
            ),
    }
    return FigureResult(
        ident="Figure 5.2",
        title="Examples of multi-stage gamma distributions",
        x_label="x",
        y_label="f(x)",
        xs=xs.tolist(),
        series={name: np.asarray(dist.pdf(xs)).tolist()
                for name, dist in panels.items()},
    )


# ---------------------------------------------------------------------------
# Figures 5.3–5.5 — system-wide usage distributions over 600 sessions
# ---------------------------------------------------------------------------


def _measure_sessions(sessions: int, seed: int,
                      total_files: int) -> UsageAnalyzer:
    """Figures 5.3–5.5's sessions, engine-free: the per-session measures
    depend on no clock."""
    spec = paper_workload_spec(n_users=4, total_files=total_files, seed=seed)
    return WorkloadGenerator(spec).run_simulated(
        sessions_per_user=max(1, sessions // spec.n_users), backend="fast",
    ).analyzer


def _histogram_figure(ident: str, title: str, x_label: str, hist,
                      window: int = 3) -> FigureResult:
    return FigureResult(
        ident=ident,
        title=title,
        x_label=x_label,
        y_label="count",
        xs=hist.centers.tolist(),
        series={
            "before smoothing": hist.counts.tolist(),
            "after smoothing": hist.smoothed(window=window).tolist(),
        },
    )


def figure_5_3(sessions: int = 600, seed: int = 0,
               total_files: int = 400) -> FigureResult:
    """Average access-per-byte histogram, before and after smoothing."""
    analyzer = _measure_sessions(sessions, seed, total_files)
    return _histogram_figure(
        "Figure 5.3", "Average access-per-byte", "access-per-byte",
        analyzer.histogram_access_per_byte(),
    )


def figure_5_4(sessions: int = 600, seed: int = 0,
               total_files: int = 400) -> FigureResult:
    """Average file size histogram, before and after smoothing."""
    analyzer = _measure_sessions(sessions, seed, total_files)
    return _histogram_figure(
        "Figure 5.4", "Average file size (bytes)", "file size",
        analyzer.histogram_file_size(),
    )


def figure_5_5(sessions: int = 600, seed: int = 0,
               total_files: int = 400) -> FigureResult:
    """Average number of files referenced, before and after smoothing."""
    analyzer = _measure_sessions(sessions, seed, total_files)
    return _histogram_figure(
        "Figure 5.5", "Average number of files referenced", "number of files",
        analyzer.histogram_files_referenced(),
    )


# ---------------------------------------------------------------------------
# Figures 5.6–5.11 — response time per byte vs number of users
# ---------------------------------------------------------------------------


def response_per_byte_vs_users(
    heavy_fraction: float,
    heavy_think_us: float = 5000.0,
    light_think_us: float = 20000.0,
    max_users: int = 6,
    sessions_total: int = 50,
    total_files: int = 300,
    seed: int = 0,
    timing: NfsTiming | None = None,
    backend: str = "nfs",
) -> tuple[list[int], list[float]]:
    """The shared sweep behind Figures 5.6–5.11.

    Returns ``(users, response_us_per_byte)`` with each point averaged
    over ~``sessions_total`` login sessions, as in the paper.
    """
    users = list(range(1, max_users + 1))
    values: list[float] = []
    for n_users in users:
        spec = paper_workload_spec(
            n_users=n_users,
            total_files=total_files,
            seed=seed,
            heavy_fraction=heavy_fraction,
            heavy_think_us=heavy_think_us,
            light_think_us=light_think_us,
        )
        result = WorkloadGenerator(spec).run_simulated(
            sessions_per_user=max(1, round(sessions_total / n_users)),
            timing=timing,
            backend=backend,
        )
        values.append(result.analyzer.response_per_byte())
    return users, values


def _population_figure(ident: str, title: str, heavy_fraction: float,
                       heavy_think_us: float = 5000.0,
                       **kwargs) -> FigureResult:
    users, values = response_per_byte_vs_users(
        heavy_fraction, heavy_think_us=heavy_think_us, **kwargs
    )
    return FigureResult(
        ident=ident,
        title=title,
        x_label="users",
        y_label="response time per byte (µs)",
        xs=users,
        series={"response µs/byte": values},
    )


def figure_5_6(**kwargs) -> FigureResult:
    """All extremely-heavy users (zero think time): near-linear growth."""
    return _population_figure(
        "Figure 5.6",
        "Avg response time per byte — all extremely heavy I/O users",
        heavy_fraction=1.0, heavy_think_us=0.0, **kwargs,
    )


def figure_5_7(**kwargs) -> FigureResult:
    """100% heavy I/O users (5 000 µs think time)."""
    return _population_figure(
        "Figure 5.7",
        "Avg response time per byte — 100% heavy I/O users",
        heavy_fraction=1.0, **kwargs,
    )


def figure_5_8(**kwargs) -> FigureResult:
    """80% heavy / 20% light users."""
    return _population_figure(
        "Figure 5.8",
        "Avg response time per byte — 80% heavy, 20% light I/O users",
        heavy_fraction=0.8, **kwargs,
    )


def figure_5_9(**kwargs) -> FigureResult:
    """50% heavy / 50% light users."""
    return _population_figure(
        "Figure 5.9",
        "Avg response time per byte — 50% heavy, 50% light I/O users",
        heavy_fraction=0.5, **kwargs,
    )


def figure_5_10(**kwargs) -> FigureResult:
    """20% heavy / 80% light users."""
    return _population_figure(
        "Figure 5.10",
        "Avg response time per byte — 20% heavy, 80% light I/O users",
        heavy_fraction=0.2, **kwargs,
    )


def figure_5_11(**kwargs) -> FigureResult:
    """100% light I/O users (20 000 µs think time)."""
    return _population_figure(
        "Figure 5.11",
        "Avg response time per byte — 100% light I/O users",
        heavy_fraction=0.0, **kwargs,
    )


# ---------------------------------------------------------------------------
# Figure 5.12 — response per byte vs access size
# ---------------------------------------------------------------------------


def figure_5_12(
    access_sizes: tuple[int, ...] = (128, 256, 512, 1024, 1536, 2048),
    sessions_total: int = 50,
    total_files: int = 300,
    seed: int = 0,
    timing: NfsTiming | None = None,
) -> FigureResult:
    """Per-byte access time vs mean access size, one extremely-heavy user.

    The paper's point: larger access sizes amortise fixed per-call costs,
    "which is why most language libraries want to keep a buffer for each
    file".
    """
    values: list[float] = []
    for mean_size in access_sizes:
        spec = paper_workload_spec(
            n_users=1,
            total_files=total_files,
            seed=seed,
            heavy_think_us=0.0,
            access_size_mean=float(mean_size),
        )
        result = WorkloadGenerator(spec).run_simulated(
            sessions_per_user=sessions_total, timing=timing
        )
        values.append(result.analyzer.response_per_byte())
    return FigureResult(
        ident="Figure 5.12",
        title="Avg access time per byte vs access size of file I/O calls",
        x_label="mean access size (bytes)",
        y_label="response time per byte (µs)",
        xs=list(access_sizes),
        series={"response µs/byte": values},
    )


PAPER_EXPERIMENTS = {
    "table5.1": table_5_1,
    "table5.2": table_5_2,
    "table5.3": table_5_3,
    "table5.4": table_5_4,
    "fig5.1": figure_5_1,
    "fig5.2": figure_5_2,
    "fig5.3": figure_5_3,
    "fig5.4": figure_5_4,
    "fig5.5": figure_5_5,
    "fig5.6": figure_5_6,
    "fig5.7": figure_5_7,
    "fig5.8": figure_5_8,
    "fig5.9": figure_5_9,
    "fig5.10": figure_5_10,
    "fig5.11": figure_5_11,
    "fig5.12": figure_5_12,
}
"""``figures`` CLI ident → the function that regenerates that table or
figure (called with its defaults)."""
