"""Experiment harness: one function per paper table/figure, plus ablations
and the section 5.3 file-system comparison procedure."""

from .ablations import (
    ablation_cdf_table_points,
    ablation_server_cache,
    ablation_write_policy,
)
from .comparison import (
    CandidateResult,
    FileSystemComparison,
    compare_file_systems,
)
from .figures import (
    PAPER_EXPERIMENTS,
    FigureResult,
    TableResult,
    figure_5_1,
    figure_5_2,
    figure_5_3,
    figure_5_4,
    figure_5_5,
    figure_5_6,
    figure_5_7,
    figure_5_8,
    figure_5_9,
    figure_5_10,
    figure_5_11,
    figure_5_12,
    response_per_byte_vs_users,
    table_5_1,
    table_5_2,
    table_5_3,
    table_5_4,
)
from .fleet import (
    fleet_aggregate_block,
    fleet_offered_load_block,
    fleet_recovery_block,
    fleet_report,
)
from .report import format_kv, format_series, format_table

__all__ = [
    "ablation_cdf_table_points",
    "ablation_server_cache",
    "ablation_write_policy",
    "CandidateResult",
    "FileSystemComparison",
    "compare_file_systems",
    "PAPER_EXPERIMENTS",
    "FigureResult",
    "TableResult",
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
    "table_5_1",
    "table_5_2",
    "table_5_3",
    "table_5_4",
    "fleet_aggregate_block",
    "fleet_offered_load_block",
    "fleet_recovery_block",
    "fleet_report",
    "format_kv",
    "format_series",
    "format_table",
]
