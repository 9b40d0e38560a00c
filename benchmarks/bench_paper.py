"""The paper's tables, figures, ablations and comparison, regenerated.

One parametrised benchmark: each entry of ``PAPER`` regenerates one
artefact at the paper's experiment size and archives it as
``benchmarks/results/bench_<ident>.txt``.  Pick one with ``-k``::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper.py -q -k table_5_3
"""

import pytest

from repro import harness

from .conftest import emit, once

_SIMULATED = dict(sessions_total=50, total_files=300, seed=0)
_SESSIONS_600 = dict(sessions=600, seed=0)

# ident -> (harness function, its arguments, what it reproduces)
PAPER = {
    "table_5_1": ("table_5_1", dict(total_files=4000, seed=0),
                  "file characterization by category: the initial file "
                  "system at paper scale (4 000 files) vs the published "
                  "per-category mean sizes and file shares"),
    "table_5_2": ("table_5_2", dict(sessions=300, seed=0),
                  "user characterization by category, re-derived from the "
                  "usage log of 300 login sessions"),
    "table_5_3": ("table_5_3", dict(max_users=6, **_SIMULATED),
                  "access size and response time vs concurrent users: "
                  "simulated SUN NFS, heavy-I/O users (5 000 µs think "
                  "time), 1-6 users, ~50 login sessions per point"),
    "table_5_4": ("table_5_4", dict(sessions=50, seed=0),
                  "user types simulated: think-time streams hit the three "
                  "user-type means (0 / 5 000 / 20 000 µs)"),
    "fig_5_1": ("figure_5_1", {},
                "example phase-type exponential densities"),
    "fig_5_2": ("figure_5_2", {}, "example multi-stage gamma densities"),
    "fig_5_3": ("figure_5_3", _SESSIONS_600,
                "average access-per-byte over 600 login sessions"),
    "fig_5_4": ("figure_5_4", _SESSIONS_600,
                "average file size over 600 login sessions"),
    "fig_5_5": ("figure_5_5", _SESSIONS_600,
                "average number of files referenced over 600 sessions"),
    "fig_5_6": ("figure_5_6", _SIMULATED,
                "response/byte vs users, 100% extremely heavy I/O"),
    "fig_5_7": ("figure_5_7", _SIMULATED,
                "response/byte vs users, 100% heavy I/O"),
    "fig_5_8": ("figure_5_8", _SIMULATED,
                "response/byte vs users, 80% heavy / 20% light"),
    "fig_5_9": ("figure_5_9", _SIMULATED,
                "response/byte vs users, 50% heavy / 50% light"),
    "fig_5_10": ("figure_5_10", _SIMULATED,
                 "response/byte vs users, 20% heavy / 80% light"),
    "fig_5_11": ("figure_5_11", _SIMULATED,
                 "response/byte vs users, 100% light I/O"),
    "fig_5_12": ("figure_5_12", _SIMULATED,
                 "access time per byte vs access size (128-2048 B)"),
    "ablation_write_policy": (
        "ablation_write_policy",
        dict(n_users=3, sessions_total=30, total_files=300, seed=0),
        "A1 — server write policy (write-behind vs strict NFSv2), the "
        "main calibration decision of the NFS substitute"),
    "ablation_server_cache": (
        "ablation_server_cache",
        dict(n_users=3, sessions_total=30, total_files=300, seed=0,
             cache_sizes=(0, 64, 1024)),
        "A2 — server buffer-cache size sweep: why steady-state reads are "
        "network-bound, and what removing the cache costs"),
    "ablation_cdf_table_points": (
        "ablation_cdf_table_points",
        dict(points=(17, 65, 257, 1025, 4097), n_samples=50_000, seed=0),
        "A3 — CDF-table resolution (section 4.2): the accuracy bought per "
        "byte of table memory"),
    "comparison_5_3": (
        "compare_file_systems",
        dict(n_users=4, sessions_total=40, total_files=300, seed=0),
        "section 5.3 end to end: identical op streams against simulated "
        "SUN NFS, local disk and an AFS-like whole-file-caching system"),
}


@pytest.mark.parametrize("ident", list(PAPER))
def test_bench_paper(benchmark, ident):
    function, kwargs, _ = PAPER[ident]
    result = once(benchmark, lambda: getattr(harness, function)(**kwargs))
    emit(f"bench_{ident}", result.formatted())
