"""Integration tests: the full GDS → FSC → USIM pipeline (Figure 4.1)."""

import numpy as np
import pytest

from repro.core import (
    UsageLog,
    WorkloadGenerator,
    paper_workload_spec,
)
from repro.vfs import MemoryFileSystem


@pytest.fixture(scope="module")
def small_run():
    spec = paper_workload_spec(n_users=2, total_files=120, seed=5)
    return WorkloadGenerator(spec).run_simulated(sessions_per_user=3)


class TestSimulatedPipeline:
    def test_sessions_logged(self, small_run):
        assert len(small_run.log.sessions) == 2 * 3

    def test_operations_logged(self, small_run):
        assert len(small_run.log.operations) > 100

    def test_every_op_has_nonnegative_response(self, small_run):
        assert all(op.response_us >= 0 for op in small_run.log.operations)

    def test_simulated_time_advanced(self, small_run):
        assert small_run.simulated_duration_us > 0

    def test_reproducible_given_seed(self):
        def run():
            spec = paper_workload_spec(n_users=2, total_files=100, seed=9)
            return WorkloadGenerator(spec).run_simulated(sessions_per_user=2)

        a, b = run(), run()
        assert len(a.log.operations) == len(b.log.operations)
        assert a.simulated_duration_us == b.simulated_duration_us
        assert [o.response_us for o in a.log.operations] == [
            o.response_us for o in b.log.operations
        ]

    def test_different_seeds_differ(self):
        def run(seed):
            spec = paper_workload_spec(n_users=1, total_files=100, seed=seed)
            return WorkloadGenerator(spec).run_simulated(sessions_per_user=2)

        assert (run(1).simulated_duration_us
                != run(2).simulated_duration_us)

    def test_backends(self):
        spec = paper_workload_spec(n_users=1, total_files=80, seed=4)
        durations = {}
        for backend in ("nfs", "local", "afs"):
            result = WorkloadGenerator(spec).run_simulated(
                sessions_per_user=2, backend=backend
            )
            durations[backend] = result.simulated_duration_us
            assert result.backend == backend
            assert result.log.operations
        # The local disk must beat remote NFS on the same workload.
        assert durations["local"] < durations["nfs"]

    def test_bad_backend_rejected(self):
        spec = paper_workload_spec(n_users=1, total_files=50, seed=4)
        with pytest.raises(ValueError):
            WorkloadGenerator(spec).build_simulation(backend="zfs")

    def test_bad_session_count_rejected(self, small_run):
        spec = paper_workload_spec(n_users=1, total_files=50, seed=4)
        with pytest.raises(ValueError):
            WorkloadGenerator(spec).run_simulated(sessions_per_user=0)

    def test_memory_report_counts_all_tables(self):
        spec = paper_workload_spec(n_users=1, total_files=50, seed=4)
        gen = WorkloadGenerator(spec, table_points=65)
        report = gen.memory_report()
        # 9 file-size + per type: think + access-size + 3 x 9 usage = 29.
        assert len(report) == 9 + 29 + 1  # + TOTAL

    def test_log_roundtrips_through_text(self, small_run):
        restored = UsageLog.loads(small_run.log.dumps())
        assert len(restored.operations) == len(small_run.log.operations)


class TestRealPipeline:
    def test_run_real_on_memfs(self):
        spec = paper_workload_spec(n_users=2, total_files=100, seed=6)
        result = WorkloadGenerator(spec).run_real(
            MemoryFileSystem(), sessions_per_user=2
        )
        assert len(result.log.sessions) == 4
        assert all(op.response_us >= 0 for op in result.log.operations)
        assert result.backend == "real"

    def test_run_real_on_tmpdir(self, tmp_path):
        spec = paper_workload_spec(n_users=1, total_files=60, seed=6)
        result = WorkloadGenerator(spec).run_real(
            str(tmp_path / "w"), sessions_per_user=1
        )
        assert result.log.sessions
        # Real wall-clock responses are strictly positive.
        assert all(op.response_us > 0 for op in result.log.operations)

    def test_real_and_simulated_streams_have_same_op_counts(self):
        """The op stream is execution-independent: same seed, same calls."""
        spec = paper_workload_spec(n_users=1, total_files=100, seed=13)
        sim = WorkloadGenerator(spec).run_simulated(sessions_per_user=2)
        real = WorkloadGenerator(spec).run_real(
            MemoryFileSystem(), sessions_per_user=2
        )
        sim_ops = [(o.op, o.path) for o in sim.log.operations]
        real_ops = [(o.op, o.path) for o in real.log.operations]
        assert sim_ops == real_ops


class TestDesTimingGoldens:
    """Literal DES clocks per backend, and DES ≡ RealRunner call for call.

    Captured at the parent of PR 21 (before the simulated clients' RPC
    plumbing and the two executors' op ladders were each folded into one
    definition); the CLI smoke population (3 users × 2 sessions, 80
    files, seed 7).
    """

    GOLDEN = {
        # backend: (simulated_duration_us, summed response_us, ops,
        #           client.syscall_count, server.rpc_count)
        "nfs": (14421496.933333658, 6221226.953333754, 3542, 3542, 3291),
        "local": (11722750.266666653, 1813701.9733333264, 3542, 3542, 3291),
        "afs": (12122348.001999974, 2699291.998666635, 3542, 3542, 460),
    }

    @pytest.fixture(scope="class")
    def spec(self):
        return paper_workload_spec(n_users=3, total_files=80, seed=7)

    @pytest.fixture(scope="class")
    def real_log(self, spec):
        return WorkloadGenerator(spec).run_real(
            MemoryFileSystem(), sessions_per_user=2
        ).log

    @pytest.mark.parametrize("backend", ["nfs", "local", "afs"])
    def test_backend_clock_and_calls(self, spec, real_log, backend):
        result = WorkloadGenerator(spec).run_simulated(
            sessions_per_user=2, backend=backend
        )
        assert (
            result.simulated_duration_us,
            result.log.total_response_us,
            len(result.log.operations),
            result.handle.client.syscall_count,
            result.handle.server.rpc_count,
        ) == self.GOLDEN[backend]

        def calls(log, user_id):
            return [(o.session_id, o.op, o.path, o.category_key, o.size)
                    for o in log.operations if o.user_id == user_id]

        # The DES interleaves users on one clock; RealRunner runs them
        # back to back.  Per user the recorded calls are the same.
        for user_id in range(spec.n_users):
            assert calls(result.log, user_id) == calls(real_log, user_id)

        def sessions(log):
            return sorted((s.user_id, s.session_id, s.files_referenced,
                           s.bytes_accessed) for s in log.sessions)

        assert sessions(result.log) == sessions(real_log)


class TestAnalyzerOnRuns:
    @pytest.fixture(scope="class")
    def run(self):
        spec = paper_workload_spec(n_users=2, total_files=200, seed=21)
        return WorkloadGenerator(spec).run_simulated(sessions_per_user=10)

    def test_session_measures_sane(self, run):
        measures = run.analyzer.session_measures()
        assert measures.n_sessions == 20
        assert np.all(measures.access_per_byte >= 0)
        assert np.all(measures.files_referenced >= 0)
        # Most sessions reference at least one file.
        assert np.median(measures.files_referenced) >= 1

    def test_access_per_byte_in_paper_range(self, run):
        """Figure 5.3's x axis spans ~0-7; session averages should too."""
        measures = run.analyzer.session_measures()
        positive = measures.access_per_byte[measures.access_per_byte > 0]
        assert positive.size > 0
        assert np.median(positive) < 7.0

    def test_histograms_capture_sessions(self, run):
        hist = run.analyzer.histogram_access_per_byte()
        assert hist.total + hist.overflow + hist.underflow == 20

    def test_render_measure_figures(self, run):
        for which in ("access_per_byte", "file_size", "files_referenced"):
            out = run.analyzer.render_measure_figure(which)
            assert "before smoothing" in out
            assert "after smoothing" in out
        with pytest.raises(ValueError):
            run.analyzer.render_measure_figure("bogus")

    def test_access_size_stats_near_1024(self, run):
        stats = run.analyzer.access_size_stats()
        # Exponential(1024) truncated by file sizes: mean somewhat below.
        assert 500 < stats.mean < 1300

    def test_response_time_stats_positive(self, run):
        stats = run.analyzer.response_time_stats()
        assert stats.mean > 0
        assert stats.count == len(run.log.operations)

    def test_response_per_byte_sane(self, run):
        rpb = run.analyzer.response_per_byte()
        assert 0.5 < rpb < 20.0

    def test_characterization_covers_major_categories(self, run):
        rows = {c.category_key: c for c in run.analyzer.characterization()}
        # REG:USER:RDONLY is accessed by 100% of users in Table 5.2.
        assert "REG:USER:RDONLY" in rows
        assert rows["REG:USER:RDONLY"].percent_of_users > 80.0

    def test_characterization_respects_table_5_2_shape(self):
        """With many sessions the re-derived table approaches the input."""
        spec = paper_workload_spec(n_users=2, total_files=400, seed=31)
        result = WorkloadGenerator(spec).run_simulated(sessions_per_user=40)
        rows = {c.category_key: c
                for c in result.analyzer.characterization()}
        notes = rows.get("REG:NOTES:RDONLY")
        assert notes is not None
        # Table 5.2: 53% of users, ~0.75 accesses/byte.  Allow generous
        # sampling slack: 80 sessions is still a small sample.
        assert 30.0 < notes.percent_of_users < 75.0
        assert 0.3 < notes.mean_accesses_per_byte < 1.5
