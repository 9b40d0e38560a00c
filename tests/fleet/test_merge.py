"""WorkloadTally / ShardAccumulator: online tallies merge exactly."""

from repro.core import OpBatch, OpRecord, OpSink, SessionRecord, UsageLog
from repro.fleet import ShardAccumulator, WorkloadTally


def _op(op="read", size=100, category="REG:USER:RDONLY", user=0):
    return OpRecord(
        user_id=user, user_type="heavy", session_id=0, op=op,
        path="/user00/f", category_key=category, size=size,
        start_us=0.0, response_us=12.5,
    )


def _fold(sink, *ops):
    sink.record_batch(OpBatch.from_records(ops))


def _session(user=0, files=3, accessed=500, referenced=900, utype="heavy"):
    return SessionRecord(
        user_id=user, user_type=utype, session_id=0, start_us=0.0,
        end_us=10.0, files_referenced=files, bytes_accessed=accessed,
        file_bytes_referenced=referenced, categories=("REG:USER:RDONLY",),
    )


class TestWorkloadTally:
    def test_counts_ops_and_bytes(self):
        tally = WorkloadTally()
        _fold(tally, _op("read", 100), _op("write", 40), _op("open", 0))
        assert tally.operations == 3
        assert tally.bytes_read == 100
        assert tally.bytes_written == 40
        assert tally.ops_by_kind == {"read": 1, "write": 1, "open": 1}
        assert tally.bytes_by_category == {"REG:USER:RDONLY": 140}

    def test_counts_sessions(self):
        tally = WorkloadTally()
        tally.record_session(_session(utype="heavy"))
        tally.record_session(_session(utype="light"))
        assert tally.sessions == 2
        assert tally.files_referenced == 6
        assert tally.sessions_by_type == {"heavy": 1, "light": 1}

    def test_merge_equals_sequential_recording(self):
        ops = [_op("read", s) for s in (10, 20, 30, 40)]
        whole = WorkloadTally()
        _fold(whole, *ops)
        left, right = WorkloadTally(), WorkloadTally()
        _fold(left, *ops[:2])
        _fold(right, *ops[2:])
        assert left.merge(right) == whole
        # merge is symmetric for the aggregate
        assert right.merge(left) == whole

    def test_merge_all_and_from_log_agree(self):
        log = UsageLog()
        log.record_op(_op("read", 64))
        log.record_op(_op("write", 32, category="REG:USER:NEW"))
        log.record_session(_session())
        replayed = WorkloadTally.from_log(log)
        online = WorkloadTally()
        _fold(online, *log.operations)
        for session in log.sessions:
            online.record_session(session)
        assert replayed == online
        assert WorkloadTally.merge_all([replayed]) == online

    def test_as_kv_deterministic_order(self):
        tally = WorkloadTally()
        _fold(tally, _op("write", 1, category="Z"),
              _op("read", 1, category="A"))
        keys = list(tally.as_kv())
        assert keys.index("bytes[A]") < keys.index("bytes[Z]")


class TestWindowedTally:
    """Temporal bucketing: the offered-load curve inside the tally."""

    def _record(self, tally):
        _fold(tally, *(OpRecord(**{**_op().__dict__, "start_us": start})
                       for start in (0.0, 5.0, 9.999, 10.0, 25.0)))

    def test_buckets_by_start_clock(self):
        tally = WorkloadTally(window_us=10.0)
        self._record(tally)
        assert tally.ops_by_window == {0: 3, 1: 1, 2: 1}
        # as_kv stays the backend-invariant content block: window
        # buckets (keyed by start clocks) report via offered_load().
        assert not any(k.startswith("window") for k in tally.as_kv())

    def test_no_window_means_no_buckets(self):
        tally = WorkloadTally()
        self._record(tally)
        assert tally.ops_by_window == {}
        assert tally.offered_load() == []

    def test_merge_adds_buckets_and_keeps_window(self):
        a = WorkloadTally(window_us=10.0)
        b = WorkloadTally(window_us=10.0)
        _fold(a, OpRecord(**{**_op().__dict__, "start_us": 1.0}))
        _fold(b, OpRecord(**{**_op().__dict__, "start_us": 11.0}))
        merged = a.merge(b)
        assert merged.window_us == 10.0
        assert merged.ops_by_window == {0: 1, 1: 1}

    def test_merge_rejects_mismatched_windows(self):
        import pytest

        a = WorkloadTally(window_us=10.0)
        b = WorkloadTally(window_us=20.0)
        with pytest.raises(ValueError, match="different windows"):
            a.merge(b)

    def test_merge_rejects_unbucketed_ops_meeting_a_window(self):
        # Ops folded without a window were never bucketed; silently
        # adopting a window would under-report the offered-load curve.
        import pytest

        windowless = WorkloadTally()
        _fold(windowless, _op())
        windowed = WorkloadTally(window_us=10.0)
        _fold(windowed, _op())
        with pytest.raises(ValueError, match="different windows"):
            windowless.merge(windowed)
        with pytest.raises(ValueError, match="different windows"):
            windowed.merge(windowless)
        # but a genuinely empty side merges fine in either direction
        assert WorkloadTally().merge(windowed).window_us == 10.0
        assert windowed.merge(WorkloadTally()).ops_by_window == {0: 1}

    def test_offered_load_rates(self):
        tally = WorkloadTally(window_us=2e6)  # 2-second windows
        _fold(tally, *(OpRecord(**{**_op().__dict__, "start_us": start})
                       for start in (0.0, 1e6, 2.5e6)))
        rows = tally.offered_load()
        assert rows == [(0.0, 2, 1.0), (2e6, 1, 0.5)]

    def test_from_log_accepts_window(self):
        log = UsageLog()
        log.record_op(_op())
        tally = WorkloadTally.from_log(log, window_us=10.0)
        assert tally.ops_by_window == {0: 1}


class TestShardAccumulator:
    def test_is_an_opsink(self):
        assert isinstance(ShardAccumulator(), OpSink)
        assert isinstance(UsageLog(), OpSink)

    def test_stats_only_mode_drops_records(self):
        sink = ShardAccumulator(collect_ops=False)
        _fold(sink, _op())
        sink.record_session(_session())
        assert sink.log is None
        assert sink.tally.operations == 1
        assert sink.response_us.count == 1

    def test_collect_mode_retains_log(self):
        sink = ShardAccumulator(collect_ops=True)
        _fold(sink, _op())
        sink.record_session(_session())
        assert len(sink.log.operations) == 1
        assert len(sink.log.sessions) == 1
        assert WorkloadTally.from_log(sink.log) == sink.tally
