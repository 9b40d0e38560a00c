"""Tests for the per-table/per-figure harness (small parameters).

These verify the *shapes* the paper reports, scaled down so the suite
stays fast; the benchmarks run the full-size versions.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.cli import main
from repro.harness import (
    ablation_cdf_table_points,
    ablation_server_cache,
    ablation_write_policy,
    compare_file_systems,
    figure_5_1,
    figure_5_2,
    figure_5_3,
    figure_5_6,
    figure_5_7,
    figure_5_11,
    figure_5_12,
    format_table,
    response_per_byte_vs_users,
    table_5_1,
    table_5_2,
    table_5_3,
    table_5_4,
)
from repro.harness.figures import _table_5_2_fold

# `repro figures table5.2` at its defaults, line by line (trailing
# padding stripped) and byte for byte.
TABLE_5_2_GOLDEN = (
    "Table 5.2: User characterization by file category (paper vs measured)",
    "category          acc/B(paper)  acc/B(meas)  files(paper)  files(meas)"
    "  %users(paper)  %users(meas)",
    "----------------  ------------  -----------  ------------  -----------"
    "  -------------  ------------",
    "DIR:USER:RDONLY   3.13          3.25         2.90          3.02"
    "         69.00          67.33",
    "DIR:OTHER:RDONLY  2.28          2.66         2.50          2.76"
    "         70.00          68.00",
    "REG:USER:RDONLY   1.42          1.43         6.00          5.92"
    "         100.00         100.00",
    "REG:USER:NEW      2.36          2.61         4.00          3.60"
    "         40.00          41.33",
    "REG:USER:RD-WRT   3.50          3.74         2.20          2.62"
    "         46.00          46.67",
    "REG:USER:TEMP     2.00          2.18         9.70          10.61"
    "        59.00          61.00",
    "REG:NOTES:RDONLY  0.7500        0.7035       11.30         11.04"
    "        53.00          54.00",
    "REG:NOTES:RD-WRT  1.77          1.75         5.70          5.10"
    "         38.00          34.00",
    "REG:OTHER:RDONLY  2.11          2.15         3.10          3.34"
    "         55.00          57.67",
)
TABLE_5_2_SHA256 = (
    "851b2bd90ea9133ec76403581da0c857c6cfb52a952762635b137175b2ca10b8")


class TestTables:
    def test_table_5_1_matches_paper_within_sampling(self):
        result = table_5_1(total_files=3000, seed=1)
        assert len(result.rows) == 9
        for row in result.rows:
            _, paper_size, measured_size, paper_pct, measured_pct = row
            assert measured_size == pytest.approx(paper_size, rel=0.25)
            assert measured_pct == pytest.approx(paper_pct, abs=1.0)

    def test_table_5_2_recovers_input_shape(self):
        result = table_5_2(sessions=150, seed=1)
        by_key = {row[0]: row for row in result.rows}
        # The category accessed by 100% of users must stay dominant.
        assert by_key["REG:USER:RDONLY"][6] > 85.0
        # NOTES RDONLY has the lowest accesses/byte in the paper; the
        # measured value must be below the measured TEMP value.
        assert (by_key["REG:NOTES:RDONLY"][2]
                < by_key["REG:USER:TEMP"][2] + 1.0)

    def test_table_5_2_default_output_is_pinned(self, capsys):
        assert main(["figures", "table5.2"]) == 0
        out = capsys.readouterr().out
        assert tuple(line.rstrip() for line in out.splitlines()) == (
            TABLE_5_2_GOLDEN)
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_5_2_SHA256

    def test_table_5_3_response_grows_with_users(self):
        result = table_5_3(max_users=4, sessions_total=12,
                           total_files=200, seed=1)
        means = [row[3] for row in result.rows]
        assert means[-1] > means[0]
        # Access sizes stay near the exponential(1024) input.
        sizes = [row[1] for row in result.rows]
        assert all(500 < s < 1300 for s in sizes)

    def test_table_5_4_think_times(self):
        result = table_5_4(sessions=10, seed=1)
        measured = {row[0]: row[2] for row in result.rows}
        assert measured["extremely heavy I/O"] == 0.0
        assert measured["heavy I/O"] == pytest.approx(5000, rel=0.15)
        assert measured["light I/O"] == pytest.approx(20000, rel=0.15)

    def test_formatted_output(self):
        out = table_5_4(sessions=2, seed=0).formatted()
        assert "Table 5.4" in out
        assert "heavy I/O" in out


class TestDistributionFigures:
    def test_figure_5_1_panels_are_densities(self):
        fig = figure_5_1(n_points=201)
        xs = np.array(fig.xs)
        for name, ys in fig.series.items():
            ys = np.array(ys)
            assert np.all(ys >= 0), name
            # Mass over the plotted window is below 1 and substantial.
            area = np.trapezoid(ys, xs)
            assert 0.5 < area <= 1.001, name

    def test_figure_5_1_first_panel_peak_at_origin(self):
        fig = figure_5_1()
        ys = fig.series["exp(22.1,x)"]
        assert ys[0] == pytest.approx(1 / 22.1)
        assert ys[0] == max(ys)

    def test_figure_5_2_offset_panel_zero_before_onset(self):
        fig = figure_5_2(n_points=201)
        xs = np.array(fig.xs)
        ys = np.array(fig.series["g(1.5,25.4,x-12)"])
        assert np.all(ys[xs < 12.0] == 0.0)
        assert ys[xs > 20.0].max() > 0.0


class TestHistogramFigures:
    def test_figure_5_3_counts_sessions(self):
        fig = figure_5_3(sessions=80, seed=2, total_files=200)
        before = np.array(fig.series["before smoothing"])
        after = np.array(fig.series["after smoothing"])
        assert before.sum() > 0
        # Smoothing preserves mass up to edge effects.
        assert after.sum() == pytest.approx(before.sum(), rel=0.1)
        # And reduces roughness.
        assert np.var(np.diff(after)) <= np.var(np.diff(before))


class TestResponseFigures:
    def test_figure_5_6_near_linear_growth(self):
        fig = figure_5_6(max_users=4, sessions_total=16,
                         total_files=200, seed=3)
        ys = fig.ys
        # Monotone-ish growth, substantially super-flat.
        assert ys[-1] > ys[0] * 1.6
        assert all(b > a * 0.85 for a, b in zip(ys, ys[1:]))

    def test_figure_5_7_milder_than_5_6(self):
        heavy = figure_5_7(max_users=4, sessions_total=16,
                           total_files=200, seed=3)
        xheavy = figure_5_6(max_users=4, sessions_total=16,
                            total_files=200, seed=3)
        heavy_growth = heavy.ys[-1] / heavy.ys[0]
        xheavy_growth = xheavy.ys[-1] / xheavy.ys[0]
        assert heavy_growth < xheavy_growth

    def test_figure_5_11_flat(self):
        fig = figure_5_11(max_users=4, sessions_total=16,
                          total_files=200, seed=3)
        ys = fig.ys
        assert max(ys) / min(ys) < 1.4

    def test_heavy_and_light_have_similar_averages(self):
        """The paper's 'interesting observation' (section 5.2)."""
        _, heavy = response_per_byte_vs_users(
            1.0, max_users=3, sessions_total=12, total_files=200, seed=3
        )
        _, light = response_per_byte_vs_users(
            0.0, max_users=3, sessions_total=12, total_files=200, seed=3
        )
        assert np.mean(heavy) == pytest.approx(np.mean(light), rel=0.5)

    def test_figure_5_12_decreasing_per_byte_cost(self):
        fig = figure_5_12(access_sizes=(128, 512, 2048),
                          sessions_total=10, total_files=200, seed=4)
        ys = fig.ys
        assert ys[0] > ys[1] > ys[2]
        # The paper's factor from 128B to 2048B is roughly 3-5x.
        assert ys[0] / ys[2] > 2.0

    def test_figure_formatted(self):
        fig = figure_5_12(access_sizes=(256, 1024), sessions_total=4,
                          total_files=150, seed=4)
        out = fig.formatted()
        assert "Figure 5.12" in out
        assert "256" in out


class TestComparisonAndAblations:
    def test_comparison_prefers_non_nfs(self):
        comparison = compare_file_systems(
            n_users=2, sessions_total=8, total_files=150, seed=5
        )
        assert {c.backend for c in comparison.candidates} == {
            "nfs", "local", "afs"
        }
        nfs = next(c for c in comparison.candidates if c.backend == "nfs")
        local = next(c for c in comparison.candidates if c.backend == "local")
        assert local.response_mean_us < nfs.response_mean_us
        assert comparison.best_backend in ("local", "afs")
        assert "comparison" in comparison.formatted()

    def test_write_policy_ablation(self):
        result = ablation_write_policy(n_users=2, sessions_total=6,
                                       total_files=150, seed=5)
        by_policy = {row[0]: row for row in result.rows}
        # Write-through pays disk on every write: slower writes, more disk.
        assert (by_policy["write-through"][3]
                > by_policy["write-behind"][3])
        assert (by_policy["write-through"][5]
                > by_policy["write-behind"][5])

    def test_cache_ablation(self):
        result = ablation_server_cache(n_users=2, sessions_total=6,
                                       total_files=150, seed=5,
                                       cache_sizes=(0, 1024))
        no_cache, big_cache = result.rows
        assert no_cache[1] == 0.0            # hit ratio without a cache
        assert big_cache[1] > 0.5
        assert no_cache[2] > big_cache[2]    # reads slower without cache

    def test_cdf_points_ablation_monotone(self):
        result = ablation_cdf_table_points(points=(17, 257), n_samples=5000)
        coarse, fine = result.rows
        assert fine[1] < coarse[1]           # KS improves
        assert fine[3] > coarse[3]           # memory grows


class TestReportFormatting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert set(lines[2]) <= {"-", " "}
        assert len({len(l) for l in lines[1:]}) <= 2


class TestTable52AtScale:
    """Table 5.2 is a fold over the generated stream: what it keeps is a
    few numbers per session, and its peak does not grow with sessions
    (the executor's block of one 150-session user sets it)."""

    KIB_PER_SESSION = 4

    def test_retained_and_peak_per_session(self):
        peaks = {}
        try:
            for sessions in (600, 2400):
                tracemalloc.start()
                fold = _table_5_2_fold(sessions, seed=0)
                held, peaks[sessions] = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                assert fold.sessions_recorded == sessions
                assert held <= self.KIB_PER_SESSION * 1024 * sessions
                del fold
        finally:
            tracemalloc.stop()
        assert peaks[2400] - peaks[600] <= (
            self.KIB_PER_SESSION * 1024 * (2400 - 600))
