"""The thesis's measured characterization tables, transcribed.

Tables 5.1 and 5.2 summarise the Devarakonda & Iyer measurements of a
UNIX university environment the thesis drives its example experiments
with; Table 5.4 defines the three user types of the section 5.2 NFS
study.  The thesis specifies only *means* for these measures and then
assumes exponential distributions (section 5.1); the builder functions
below do exactly that, while letting callers swap in any other
distribution family.

Note on Table 5.2's first "accesses" entry: the thesis prints ``3128``
for DIR/USER/RDONLY where every other category lies in 0.75–3.50; the
column is accesses *per byte* (the quantity plotted in Figure 5.3 with
an axis reaching ~6), so we transcribe it as 3.128 — a missing decimal
point in the scanned original.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..distributions import Constant, Distribution, ShiftedExponential
from .spec import (
    FileCategory,
    FileCategorySpec,
    FileType,
    Owner,
    SpecError,
    UsageSpec,
    UserTypeSpec,
    UseType,
    WorkloadSpec,
)

__all__ = [
    "Table51Row",
    "Table52Row",
    "TABLE_5_1",
    "TABLE_5_2",
    "TABLE_5_4_THINK_TIME_US",
    "DEFAULT_ACCESS_SIZE_MEAN",
    "DEFAULT_THINK_TIME_MEAN",
    "paper_file_categories",
    "paper_usage_specs",
    "paper_user_type",
    "paper_workload_spec",
]


def _cat(file_type: str, owner: str, use: str) -> FileCategory:
    return FileCategory(FileType(file_type), Owner(owner), UseType(use))


@dataclass(frozen=True)
class Table51Row:
    """One row of Table 5.1: file characterization by category."""

    category: FileCategory
    mean_file_size: float
    percent_of_files: float


@dataclass(frozen=True)
class Table52Row:
    """One row of Table 5.2: user characterization by category."""

    category: FileCategory
    mean_accesses_per_byte: float
    mean_file_size: float
    mean_files: float
    percent_of_users: float


TABLE_5_1: tuple[Table51Row, ...] = (
    Table51Row(_cat("DIR", "USER", "RDONLY"), 714.0, 7.7),
    Table51Row(_cat("DIR", "OTHER", "RDONLY"), 779.0, 3.4),
    Table51Row(_cat("REG", "USER", "RDONLY"), 5794.0, 21.8),
    Table51Row(_cat("REG", "USER", "NEW"), 11164.0, 9.7),
    Table51Row(_cat("REG", "USER", "RD-WRT"), 17431.0, 4.6),
    Table51Row(_cat("REG", "USER", "TEMP"), 12431.0, 38.2),
    Table51Row(_cat("REG", "NOTES", "RDONLY"), 31347.0, 6.4),
    Table51Row(_cat("REG", "NOTES", "RD-WRT"), 18771.0, 3.2),
    Table51Row(_cat("REG", "OTHER", "RDONLY"), 15072.0, 5.0),
)
"""Table 5.1 as printed (sizes in bytes, percentages of all files)."""


TABLE_5_2: tuple[Table52Row, ...] = (
    Table52Row(_cat("DIR", "USER", "RDONLY"), 3.128, 808.0, 2.9, 69.0),
    Table52Row(_cat("DIR", "OTHER", "RDONLY"), 2.28, 1198.0, 2.5, 70.0),
    Table52Row(_cat("REG", "USER", "RDONLY"), 1.42, 2608.0, 6.0, 100.0),
    Table52Row(_cat("REG", "USER", "NEW"), 2.36, 11438.0, 4.0, 40.0),
    Table52Row(_cat("REG", "USER", "RD-WRT"), 3.50, 19860.0, 2.2, 46.0),
    Table52Row(_cat("REG", "USER", "TEMP"), 2.00, 9233.0, 9.7, 59.0),
    Table52Row(_cat("REG", "NOTES", "RDONLY"), 0.75, 53965.0, 11.3, 53.0),
    Table52Row(_cat("REG", "NOTES", "RD-WRT"), 1.77, 20383.0, 5.7, 38.0),
    Table52Row(_cat("REG", "OTHER", "RDONLY"), 2.11, 13578.0, 3.1, 55.0),
)
"""Table 5.2 as printed (see module docstring for the 3.128 reading)."""


TABLE_5_4_THINK_TIME_US: dict[str, float] = {
    "extremely heavy I/O": 0.0,
    "heavy I/O": 5000.0,
    "light I/O": 20000.0,
}
"""Table 5.4: the three experiment user types by mean think time (µs)."""

DEFAULT_ACCESS_SIZE_MEAN = 1024.0
"""Section 5.1: access sizes exponentially distributed, mean 1 024 bytes."""

DEFAULT_THINK_TIME_MEAN = 5000.0
"""Section 5.1: think time exponentially distributed, mean 5 000 µs."""


def paper_file_categories() -> tuple[FileCategorySpec, ...]:
    """Table 5.1 as FSC input, with the exponential-size assumption."""
    return tuple(
        FileCategorySpec(
            category=row.category,
            size_distribution=ShiftedExponential(row.mean_file_size),
            fraction_of_files=row.percent_of_files / 100.0,
        )
        for row in TABLE_5_1
    )


def paper_usage_specs() -> tuple[UsageSpec, ...]:
    """Table 5.2 as USIM input, with the exponential assumption."""
    return tuple(
        UsageSpec(
            category=row.category,
            access_per_byte=ShiftedExponential(row.mean_accesses_per_byte),
            file_count=ShiftedExponential(row.mean_files),
            file_size=ShiftedExponential(row.mean_file_size),
            fraction_of_users=row.percent_of_users / 100.0,
        )
        for row in TABLE_5_2
    )


def paper_user_type(
    name: str,
    fraction: float = 1.0,
    think_time_mean_us: float = DEFAULT_THINK_TIME_MEAN,
    access_size_mean: float = DEFAULT_ACCESS_SIZE_MEAN,
) -> UserTypeSpec:
    """A Table 5.2 user with the given think-time mean (Table 5.4 values).

    A zero mean produces the "extremely heavy I/O" point-mass think time;
    a negative one is a :class:`SpecError`.
    """
    if not think_time_mean_us >= 0:
        raise SpecError(
            f"think time mean must be >= 0 µs, got {think_time_mean_us} "
            f"for user type {name!r}"
        )
    if think_time_mean_us > 0:
        think: Distribution = ShiftedExponential(think_time_mean_us)
    else:
        think = Constant(0.0)
    return UserTypeSpec(
        name=name,
        fraction=fraction,
        usage=paper_usage_specs(),
        think_time=think,
        access_size=ShiftedExponential(access_size_mean),
    )


def paper_workload_spec(
    n_users: int = 1,
    total_files: int = 400,
    seed: int = 0,
    heavy_fraction: float = 1.0,
    heavy_think_us: float = TABLE_5_4_THINK_TIME_US["heavy I/O"],
    light_think_us: float = TABLE_5_4_THINK_TIME_US["light I/O"],
    access_size_mean: float = DEFAULT_ACCESS_SIZE_MEAN,
) -> WorkloadSpec:
    """The section 5.2 experiment populations.

    ``heavy_fraction`` selects the population mix: 1.0 reproduces the
    "100% heavy" runs, 0.8 the "80% heavy / 20% light" runs, and so on.
    Pass ``heavy_think_us=0`` for the all-extremely-heavy population of
    Figure 5.6.
    """
    user_types: list[UserTypeSpec] = []
    if heavy_fraction > 0:
        user_types.append(
            paper_user_type(
                "heavy", heavy_fraction,
                think_time_mean_us=heavy_think_us,
                access_size_mean=access_size_mean,
            )
        )
    if heavy_fraction < 1:
        user_types.append(
            paper_user_type(
                "light", 1.0 - heavy_fraction,
                think_time_mean_us=light_think_us,
                access_size_mean=access_size_mean,
            )
        )
    return WorkloadSpec(
        file_categories=paper_file_categories(),
        user_types=tuple(user_types),
        total_files=total_files,
        n_users=n_users,
        seed=seed,
    )
