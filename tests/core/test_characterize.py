"""Tests for trace characterization (measure → spec → re-measure loop)."""

import numpy as np
import pytest

from repro.core import (
    UsageAnalyzer,
    UsageLog,
    WorkloadGenerator,
    characterize_log,
    paper_workload_spec,
)
from repro.core.analyzer import access_sizes, request_gaps
from repro.distributions import EmpiricalDistribution
from repro.vfs import MemoryFileSystem


@pytest.fixture(scope="module")
def measured():
    """A 'trace': 60 sessions of the paper workload on an in-memory FS."""
    spec = paper_workload_spec(n_users=2, total_files=300, seed=77)
    result = WorkloadGenerator(spec).run_real(
        MemoryFileSystem(), sessions_per_user=30
    )
    return result


class TestFoldSamples:
    def test_categories_present(self, measured):
        analyzer = UsageAnalyzer(measured.log, measured.layout)
        assert "REG:USER:RDONLY" in analyzer.fold.samples()
        assert len(access_sizes(analyzer.batch)) > 100
        assert len(request_gaps(analyzer.batch)) > 100

    def test_sessions_accessing_bounded(self, measured):
        fold = UsageAnalyzer(measured.log, measured.layout).fold
        n_sessions = len(measured.log.sessions)
        for samples in fold.samples().values():
            assert 0 < samples.sessions_accessing <= n_sessions

    def test_access_per_byte_positive(self, measured):
        fold = UsageAnalyzer(measured.log, measured.layout).fold
        rdonly = fold.samples()["REG:USER:RDONLY"]
        assert all(r >= 0 for r in rdonly.accesses_per_byte)
        assert np.mean(rdonly.accesses_per_byte) == pytest.approx(1.42,
                                                                  rel=0.4)

    def test_empty_log(self):
        analyzer = UsageAnalyzer(UsageLog())
        assert analyzer.fold.samples() == {}
        assert len(access_sizes(analyzer.batch)) == 0
        assert len(request_gaps(analyzer.batch)) == 0


class TestCharacterizeLog:
    def test_produces_valid_spec(self, measured):
        spec = characterize_log(measured.log, measured.layout)
        assert spec.user_types[0].usage
        assert abs(sum(fc.fraction_of_files
                       for fc in spec.file_categories) - 1.0) < 1e-9

    def test_spec_is_runnable(self, measured):
        spec = characterize_log(measured.log, measured.layout,
                                total_files=150)
        result = WorkloadGenerator(spec).run_real(
            MemoryFileSystem(), sessions_per_user=3
        )
        assert result.log.sessions

    def test_loop_converges_on_access_size(self, measured):
        """Synthesising from the characterization reproduces the trace's
        access-size distribution — the thesis's measure→synthesise loop."""
        spec = characterize_log(measured.log, measured.layout,
                                total_files=200)
        replay = WorkloadGenerator(spec).run_real(
            MemoryFileSystem(), sessions_per_user=20
        )
        original = measured.analyzer.access_size_stats().mean
        synthetic = replay.analyzer.access_size_stats().mean
        assert synthetic == pytest.approx(original, rel=0.25)

    def test_loop_converges_on_files_referenced(self, measured):
        spec = characterize_log(measured.log, measured.layout,
                                total_files=200)
        replay = WorkloadGenerator(spec).run_real(
            MemoryFileSystem(), sessions_per_user=20
        )
        original = float(np.mean(
            measured.analyzer.session_measures().files_referenced))
        synthetic = float(np.mean(
            replay.analyzer.session_measures().files_referenced))
        assert synthetic == pytest.approx(original, rel=0.4)

    def test_empirical_method(self, measured):
        spec = characterize_log(measured.log, measured.layout,
                                method="empirical")
        usage = spec.user_types[0].usage[0]
        assert isinstance(usage.access_per_byte, EmpiricalDistribution)

    def test_exponential_method(self, measured):
        spec = characterize_log(measured.log, measured.layout,
                                method="exponential")
        assert spec.user_types[0].usage

    def test_bad_method_rejected(self, measured):
        with pytest.raises(ValueError):
            characterize_log(measured.log, measured.layout, method="magic")

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            characterize_log(UsageLog())
