"""``UsageFold`` is the per-record Usage Analyzer, in one pass.

The fold groups each batch by (user, session, category, path) and
closes a session's cells at its record (or at ``flush()``), so its
answer must not depend on how the stream is cut, on which string-table
objects a piece carries, on users interleaving, or on session records
being there at all.  Each input is checked against the per-record walk
kept in ``tests/core/reference_analyzer.py``: the same sample multisets
per category (sorted arrays equal; the walk orders samples by set
iteration), the same sessions accessing and "% of users", and means
equal up to that reordering.  The array marginals equal the walk's
exactly, order included.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    StreamReader,
    UsageAnalyzer,
    UsageFold,
    UsageLog,
    WorkloadGenerator,
    characterize_log,
    paper_workload_spec,
)
from repro.core.analyzer import access_sizes, request_gaps, think_gaps
from repro.core.opbatch import OpBatch, flush_sink
from repro.core.streamfile import StreamFileSink

from ..fleet.test_bulk_fold import Events, splits
from . import reference_analyzer as reference

MEASURES = ("accesses_per_byte", "files_per_session", "file_sizes")
# The walk's means sum the same samples in another order.
REL = 1e-12


def _feed(stream, sink):
    for kind, event in stream:
        if kind == "rows":
            sink.record_batch(event)
        else:
            sink.record_session(event)
    flush_sink(sink)
    return sink


def _assert_matches_reference(fold, log, layout):
    expected, _, _ = reference.extract_samples(log, layout)
    got = fold.samples()
    assert list(got) == list(expected)
    for key, samples in got.items():
        assert samples.sessions_accessing == expected[key].sessions_accessing
        for measure in MEASURES:
            np.testing.assert_array_equal(
                np.sort(getattr(samples, measure)),
                np.sort(getattr(expected[key], measure)))
    rows = fold.characterization()
    reference_rows = reference.characterization(log, layout)
    assert len(rows) == len(reference_rows)
    for row, (key, per_byte, size, files, percent, accessing) in zip(
            rows, reference_rows):
        assert (row.category_key, row.percent_of_users,
                row.sessions_accessing) == (key, percent, accessing)
        assert row.mean_accesses_per_byte == pytest.approx(per_byte, rel=REL)
        assert row.mean_file_size == pytest.approx(size, rel=REL)
        assert row.mean_files == pytest.approx(files, rel=REL)


def _assert_marginals_match(log):
    batch = UsageAnalyzer(log).batch
    _, sizes, gaps = reference.extract_samples(log)
    np.testing.assert_array_equal(access_sizes(batch), sizes)
    np.testing.assert_array_equal(request_gaps(batch), gaps)
    np.testing.assert_array_equal(think_gaps(batch),
                                  reference.think_time_samples(log))


SPEC = paper_workload_spec(n_users=3, total_files=120, seed=3)


@pytest.fixture(scope="module")
def layout():
    return WorkloadGenerator(SPEC).manifest()


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    """A multi-chunk artifact's replayed event stream."""
    path = str(tmp_path_factory.mktemp("fold") / "a.opstream")
    with StreamFileSink(path, memory_budget_bytes=4096) as sink:
        WorkloadGenerator(SPEC).run_simulated(
            sessions_per_user=3, backend="fast-columnar", log=sink)
    with StreamReader(path) as reader:
        assert len(reader.chunk_index) >= 8
        sink = Events()
        reader.replay(sink)
    return sink.events


@pytest.fixture(scope="module")
def interleaved():
    """A DES run's event stream: users interleave within batches."""
    sink = WorkloadGenerator(SPEC).run_simulated(
        sessions_per_user=2, backend="nfs", log=Events()).log
    batches = [event for kind, event in sink.events if kind == "rows"]
    assert any(len(np.unique(batch.user_ids)) > 1 for batch in batches)
    return sink.events


def _ops_only(events):
    return [(kind, event) for kind, event in events if kind == "rows"]


SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[
                        HealthCheck.function_scoped_fixture,
                        HealthCheck.too_slow])


class TestFoldEqualsPerRecordWalk:
    @SETTINGS
    @given(data=st.data(), ops_only=st.booleans())
    def test_replayed_artifact_recut(self, replayed, layout, data, ops_only):
        events = _ops_only(replayed) if ops_only else replayed
        stream = data.draw(splits(events))
        fold = _feed(stream, UsageFold(layout))
        log = _feed(stream, UsageLog())
        assert len(log.sessions) == (0 if ops_only else 9)
        _assert_matches_reference(fold, log, layout)

    @SETTINGS
    @given(data=st.data(), ops_only=st.booleans())
    def test_interleaved_des_log_recut(self, interleaved, layout, data,
                                       ops_only):
        events = _ops_only(interleaved) if ops_only else interleaved
        stream = data.draw(splits(events))
        fold = _feed(stream, UsageFold(layout))
        log = _feed(stream, UsageLog())
        _assert_matches_reference(fold, log, layout)

    @pytest.mark.parametrize("source", ["replayed", "interleaved"])
    def test_without_a_layout(self, source, request):
        events = request.getfixturevalue(source)
        log = _feed(events, UsageLog())
        _assert_matches_reference(_feed(events, UsageFold()), log, None)

    @pytest.mark.parametrize("source", ["replayed", "interleaved"])
    def test_marginals(self, source, request):
        log = _feed(request.getfixturevalue(source), UsageLog())
        _assert_marginals_match(log)
        _assert_marginals_match(UsageLog(operations=log.operations[::-1]))

    def test_empty_stream(self):
        fold = _feed([("rows", OpBatch.empty(0))], UsageFold())
        assert fold.samples() == {} and fold.characterization() == []
        assert fold.n_sessions == 1

    def test_holds_only_open_sessions(self, replayed, layout):
        fold = UsageFold(layout)
        for kind, event in replayed:
            if kind == "rows":
                fold.record_batch(event)
            else:
                fold.record_session(event)
                assert not fold._open


class TestOneDenominator:
    """"% of users" is the analyzer's on every path, with or without
    session records."""

    @pytest.fixture(scope="class")
    def run(self):
        spec = paper_workload_spec(n_users=2, total_files=300, seed=77)
        return WorkloadGenerator(spec).run_simulated(
            sessions_per_user=30, backend="fast")

    def test_log_without_session_records(self, run):
        stripped = UsageLog(operations=run.log.operations)
        expected = {key: (accessing, percent) for key, _, _, _, percent,
                    accessing in reference.characterization(stripped,
                                                            run.layout)}
        assert min(percent for _, percent in expected.values()) < 50.0
        rows = UsageAnalyzer(stripped, run.layout).characterization()
        assert {row.category_key: (row.sessions_accessing,
                                   row.percent_of_users)
                for row in rows} == expected
        spec = characterize_log(stripped, run.layout)
        usage = spec.user_types[0].usage
        assert len(usage) == len(expected)
        for entry in usage:
            _, percent = expected[entry.category.key]
            assert entry.fraction_of_users == pytest.approx(percent / 100.0,
                                                            rel=REL)

    def test_log_with_session_records_keeps_its_fractions(self, run):
        n_sessions = len(run.log.sessions)
        accessing = {key: n for key, *_, n in reference.characterization(
            run.log, run.layout)}
        spec = characterize_log(run.log, run.layout)
        for entry in spec.user_types[0].usage:
            assert entry.fraction_of_users == min(
                1.0, accessing[entry.category.key] / n_sessions)
