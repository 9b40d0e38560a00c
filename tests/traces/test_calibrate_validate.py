"""Calibration + closed-loop validation tests (the tentpole acceptance)."""

import numpy as np
import pytest

from repro.core import UsageAnalyzer, UsageLog
from repro.core.analyzer import think_gaps
from repro.traces import (
    DEFAULT_KS_THRESHOLD,
    TraceError,
    calibrate_trace_file,
    ingest_trace_file,
    measure_samples,
    validate_spec,
)

from ..core import reference_analyzer as reference


def think_time_samples(log):
    return think_gaps(UsageAnalyzer(log).batch)


class TestIngestion:
    def test_ingest_example_trace(self, example_trace):
        log = UsageLog()
        stats, sizes = ingest_trace_file(example_trace, log)
        assert stats.adapter == "csv"
        assert stats.events == len(log.operations) > 1000
        assert stats.users == 4
        assert stats.sessions == len(log.sessions) == 8
        assert stats.issues_total == 0
        assert len(sizes) > 0

    def test_missing_file_raises_oserror(self):
        with pytest.raises(OSError):
            ingest_trace_file("/nonexistent/trace.csv", UsageLog())

    def test_empty_trace_cannot_calibrate(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp_us,op,path\n")
        with pytest.raises(TraceError, match="no operations"):
            calibrate_trace_file(str(path))


class TestCalibration:
    def test_defaults_derive_from_trace(self, example_trace):
        result = calibrate_trace_file(example_trace, seed=5)
        assert result.spec.n_users == 4
        assert result.spec.seed == 5
        assert result.spec.total_files == result.stats.distinct_paths
        assert len(result.spec.user_types) == 1
        assert result.spec.user_types[0].name == "calibrated"
        assert result.meta(example_trace)["adapter"] == "csv"

    def test_overrides_respected(self, example_trace):
        result = calibrate_trace_file(
            example_trace, n_users=10, total_files=500, user_type_name="campus"
        )
        assert result.spec.n_users == 10
        assert result.spec.total_files == 500
        assert result.spec.user_types[0].name == "campus"

    def test_think_time_excludes_service_time(self, example_trace):
        # Per-call durations are present, so the calibrated think time
        # must sit below the raw inter-request gap mean.
        result = calibrate_trace_file(example_trace, method="empirical")
        gaps = think_time_samples(result.log)
        assert result.spec.user_types[0].think_time.mean() == pytest.approx(
            float(gaps.mean()), rel=1e-6
        )

    def test_log_is_converted_once(self, example_trace, monkeypatch):
        # One analyzer serves the characterization, the think gaps and
        # the observed population and path counts.
        from repro.core import dumps_spec
        from repro.core.opbatch import OpBatch
        from repro.traces import calibrate_log

        log = UsageLog()
        _, sizes = ingest_trace_file(example_trace, log)
        expected = calibrate_trace_file(example_trace, seed=5).spec
        assert expected.n_users == len({op.user_id for op in log.operations})
        assert expected.total_files == max(
            50, len({op.path for op in log.operations}))
        calls = []
        convert = OpBatch.from_records.__func__
        monkeypatch.setattr(OpBatch, "from_records", classmethod(
            lambda cls, records: calls.append(len(records))
            or convert(cls, records)))
        spec = calibrate_log(log, sizes, seed=5)
        assert calls == [len(log.operations)]
        assert dumps_spec(spec) == dumps_spec(expected)

    def test_deterministic(self, example_trace):
        from repro.core import dumps_spec

        one = calibrate_trace_file(example_trace, seed=5)
        two = calibrate_trace_file(example_trace, seed=5)
        assert dumps_spec(one.spec) == dumps_spec(two.spec)


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def calibration(self, example_trace):
        return calibrate_trace_file(example_trace, seed=5)

    def test_loop_closes_within_threshold(self, calibration):
        report = validate_spec(
            calibration.spec, calibration.log, calibration.size_index
        )
        assert report.passed, report.formatted()
        assert report.worst_ks <= DEFAULT_KS_THRESHOLD
        assert {m.measure for m in report.measures} == {
            "access_size",
            "file_size",
            "files_referenced",
            "access_per_byte",
            "think_time",
        }
        for measure in report.measures:
            assert measure.n_source > 0
            assert measure.n_synthetic > 0

    def test_deterministic_for_fixed_seed(self, calibration):
        one = validate_spec(calibration.spec, calibration.log, calibration.size_index)
        two = validate_spec(calibration.spec, calibration.log, calibration.size_index)
        assert one.to_json() == two.to_json()

    def test_fleet_regeneration_matches_single_engine(self, calibration):
        # The fleet's merged content is shard-invariant, so the fidelity
        # numbers cannot depend on the regeneration topology.
        single = validate_spec(
            calibration.spec, calibration.log, calibration.size_index, shards=1
        )
        sharded = validate_spec(
            calibration.spec, calibration.log, calibration.size_index, shards=2
        )
        assert {m.measure: m.ks for m in single.measures} == {
            m.measure: m.ks for m in sharded.measures
        }

    def test_mismatched_spec_fails(self, calibration):
        from repro.scenarios import build_scenario_spec

        # A batch workload is nothing like the dev-team trace.
        wrong = build_scenario_spec("batch-heavy", 4, 5, total_files=70)
        report = validate_spec(wrong, calibration.log, calibration.size_index)
        assert not report.passed

    def test_report_renders_and_serialises(self, calibration):
        report = validate_spec(
            calibration.spec, calibration.log, calibration.size_index
        )
        text = report.formatted()
        assert "Closed-loop validation" in text
        assert "PASS" in text
        payload = report.to_jsonable()
        assert payload["passed"] is True
        assert set(payload["measures"]) == {m.measure for m in report.measures}


class TestMeasures:
    def test_think_time_subtracts_response(self):
        from repro.core import OpRecord

        log = UsageLog()
        ops = [
            OpRecord(1, "t", 0, "read", "/f", "", 10, 0.0, 40.0),
            OpRecord(1, "t", 0, "read", "/f", "", 10, 100.0, 5.0),
            OpRecord(1, "t", 0, "read", "/f", "", 10, 190.0, 0.0),
        ]
        for op in ops:
            log.record_op(op)
        gaps = think_time_samples(log)
        assert list(gaps) == [60.0, 85.0]

    def test_report_json_is_strict_even_with_infinite_rel_err(self):
        import json as json_module

        from repro.traces.validate import FidelityReport, MeasureFidelity

        report = FidelityReport(
            measures=[
                MeasureFidelity(
                    measure="think_time",
                    ks=0.1,
                    source_mean=0.0,
                    synthetic_mean=5.0,
                    mean_relative_error=float("inf"),
                    n_source=3,
                    n_synthetic=3,
                )
            ],
            threshold=0.35,
            source_sessions=1,
            synthetic_sessions=1,
            source_ops=3,
            synthetic_ops=3,
            sessions_per_user=1,
            shards=1,
            seed=0,
        )
        payload = json_module.loads(report.to_json())
        assert payload["measures"]["think_time"]["mean_relative_error"] is None
        assert "Infinity" not in report.to_json()

    def test_measure_samples_keys(self, example_trace):
        log = UsageLog()
        _, sizes = ingest_trace_file(example_trace, log)
        samples = measure_samples(log, sizes)
        assert set(samples) == {
            "access_size",
            "file_size",
            "files_referenced",
            "access_per_byte",
            "think_time",
        }
        assert all(len(v) > 0 for v in samples.values())

    def test_measure_samples_are_the_per_record_walks(self, example_trace):
        """Each measure's multiset is the per-record walks'; only the
        order of the pooled per-category samples may differ."""
        log = UsageLog()
        _, sizes = ingest_trace_file(example_trace, log)
        samples = measure_samples(log, sizes)
        by_category, access_sizes, _ = reference.extract_samples(log, sizes)
        np.testing.assert_array_equal(samples["access_size"], access_sizes)
        np.testing.assert_array_equal(samples["think_time"],
                                      reference.think_time_samples(log))
        for measure, field in (("file_size", "file_sizes"),
                               ("files_referenced", "files_per_session"),
                               ("access_per_byte", "accesses_per_byte")):
            expected = [value for cell in by_category.values()
                        for value in getattr(cell, field)]
            np.testing.assert_array_equal(np.sort(samples[measure]),
                                          np.sort(expected))
