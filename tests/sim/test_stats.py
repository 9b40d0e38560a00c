"""Unit tests for statistics accumulators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Delay, Engine, Histogram, RunningStats, smooth_counts
from repro.sim.stats import TimeWeightedValue


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.count == 0

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5, 2, size=1000)
        stats = RunningStats()
        stats.add_many(data)
        assert stats.mean == pytest.approx(np.mean(data))
        assert stats.variance == pytest.approx(np.var(data))
        assert stats.sample_variance == pytest.approx(np.var(data, ddof=1))
        assert stats.minimum == np.min(data)
        assert stats.maximum == np.max(data)

    @staticmethod
    def welford(state, value):
        # The scalar update, one observation at a time, as a reference.
        count, mean, m2, lo, hi = state
        value = float(value)
        count += 1
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
        return count, mean, m2, min(lo, value), max(hi, value)

    @given(st.lists(st.floats(allow_nan=False) | st.integers(-2**60, 2**60),
                    max_size=40),
           st.lists(st.floats(allow_nan=False), max_size=5))
    def test_add_many_is_welford_in_turn(self, values, before):
        # Bit for bit, from any prior state, ints included.
        stats = RunningStats()
        for value in before:
            stats.add(value)
        state = (stats.count, stats._mean, stats._m2, stats.minimum,
                 stats.maximum)
        for value in values:
            state = self.welford(state, value)
        stats.add_many(iter(values))
        assert repr((stats.count, stats._mean, stats._m2, stats.minimum,
                     stats.maximum)) == repr(state)

    def test_add_many_keeps_the_scalar_nan_order(self):
        for values in ([math.nan, 1.0], [1.0, math.nan, 0.5]):
            state = (0, 0.0, 0.0, math.inf, -math.inf)
            for value in values:
                state = self.welford(state, value)
            stats = RunningStats()
            stats.add_many(values)
            assert repr((stats.minimum, stats.maximum)) == repr(state[3:])

    def test_single_value(self):
        stats = RunningStats()
        stats.add(3.0)
        assert stats.mean == 3.0
        assert stats.variance == 0.0

    def test_merge_equals_combined(self):
        rng = np.random.default_rng(1)
        a_data, b_data = rng.normal(size=500), rng.normal(3, 2, size=700)
        a, b = RunningStats(), RunningStats()
        a.add_many(a_data)
        b.add_many(b_data)
        merged = a.merge(b)
        combined = np.concatenate([a_data, b_data])
        assert merged.count == 1200
        assert merged.mean == pytest.approx(np.mean(combined))
        assert merged.variance == pytest.approx(np.var(combined))

    def test_merge_with_empty(self):
        a = RunningStats()
        b = RunningStats()
        b.add_many([1.0, 2.0])
        assert a.merge(b).mean == 1.5
        assert b.merge(a).count == 2

    def test_summary_keys(self):
        stats = RunningStats()
        stats.add(1.0)
        assert set(stats.summary()) == {"count", "mean", "std", "min", "max"}

    def test_merge_two_empties_stays_empty(self):
        merged = RunningStats().merge(RunningStats())
        assert merged.count == 0
        assert merged.mean == 0.0
        assert merged.variance == 0.0

    def test_merge_does_not_mutate_inputs(self):
        a, b = RunningStats(), RunningStats()
        a.add_many([1.0, 2.0])
        b.add_many([10.0, 20.0, 30.0])
        a.merge(b)
        assert a.count == 2 and b.count == 3
        assert a.mean == pytest.approx(1.5)
        assert b.mean == pytest.approx(20.0)

    def test_merge_all_empty_iterable(self):
        merged = RunningStats.merge_all([])
        assert merged.count == 0
        assert merged.summary()["min"] == 0.0

    def test_merge_all_with_empty_parts_interleaved(self):
        parts = [RunningStats() for _ in range(5)]
        parts[1].add_many([1.0, 3.0])
        parts[3].add_many([5.0])
        merged = RunningStats.merge_all(parts)
        assert merged.count == 3
        assert merged.mean == pytest.approx(3.0)
        assert merged.minimum == 1.0
        assert merged.maximum == 5.0

    def test_merge_all_only_empty_parts(self):
        merged = RunningStats.merge_all([RunningStats(), RunningStats()])
        assert merged.count == 0

    def test_state_round_trip(self):
        stats = RunningStats()
        stats.add_many([1.0, 2.0, 4.0])
        rebuilt = RunningStats.from_state(stats.as_state())
        assert rebuilt.count == stats.count
        assert rebuilt.mean == stats.mean
        assert rebuilt.variance == stats.variance
        assert rebuilt.minimum == stats.minimum
        assert rebuilt.maximum == stats.maximum

    def test_state_of_empty_serialises_none_extrema(self):
        state = RunningStats().as_state()
        assert state["min"] is None and state["max"] is None
        rebuilt = RunningStats.from_state(state)
        assert rebuilt.count == 0
        # A rebuilt empty must merge exactly like a fresh empty.
        other = RunningStats()
        other.add(7.0)
        assert rebuilt.merge(other).mean == 7.0

    def test_state_merge_matches_in_memory_merge(self):
        rng = np.random.default_rng(3)
        a, b = RunningStats(), RunningStats()
        a.add_many(rng.normal(size=100))
        b.add_many(rng.normal(2, 3, size=50))
        direct = a.merge(b)
        via_state = RunningStats.from_state(a.as_state()).merge(
            RunningStats.from_state(b.as_state()))
        assert via_state.count == direct.count
        assert via_state.mean == direct.mean
        assert via_state.variance == direct.variance


class TestTimeWeightedValue:
    def test_time_average(self):
        engine = Engine()
        signal = TimeWeightedValue(engine)

        def proc():
            signal.record(2.0)
            yield Delay(10.0)
            signal.record(4.0)
            yield Delay(10.0)
            signal.record(0.0)

        engine.spawn(proc())
        engine.run()
        # (2*10 + 4*10) / 20
        assert signal.time_average() == pytest.approx(3.0)

    def test_zero_time(self):
        engine = Engine()
        signal = TimeWeightedValue(engine)
        assert signal.time_average() == 0.0


class TestSmoothing:
    def test_window_one_is_identity(self):
        counts = [1.0, 5.0, 2.0]
        np.testing.assert_array_equal(smooth_counts(counts, window=1), counts)

    def test_window_three_averages(self):
        out = smooth_counts([0.0, 3.0, 0.0], window=3)
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0])

    def test_mass_preserved_for_flat_signal(self):
        counts = np.full(10, 4.0)
        out = smooth_counts(counts, window=5, passes=3)
        np.testing.assert_allclose(out, counts)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            smooth_counts([1.0, 2.0], window=2)

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(2)
        noisy = rng.poisson(10, size=50).astype(float)
        smooth = smooth_counts(noisy, window=5)
        assert np.var(smooth) < np.var(noisy)


class TestHistogram:
    def test_basic_binning(self):
        hist = Histogram(0.0, 10.0, 10)
        hist.add_many([0.5, 1.5, 1.6, 9.99])
        assert hist.counts[0] == 1
        assert hist.counts[1] == 2
        assert hist.counts[9] == 1
        assert hist.total == 4

    def test_top_edge_in_last_bin(self):
        hist = Histogram(0.0, 10.0, 10)
        hist.add(10.0)
        assert hist.counts[9] == 1
        assert hist.overflow == 0

    def test_under_and_overflow(self):
        hist = Histogram(0.0, 1.0, 2)
        hist.add(-0.1)
        hist.add(1.1)
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.total == 0

    def test_centers_and_edges(self):
        hist = Histogram(0.0, 4.0, 4)
        np.testing.assert_allclose(hist.centers, [0.5, 1.5, 2.5, 3.5])
        assert len(hist.edges) == 5

    def test_smoothed_wraps_smooth_counts(self):
        hist = Histogram(0.0, 3.0, 3)
        hist.add_many([1.5, 1.5, 1.5])
        np.testing.assert_allclose(hist.smoothed(window=3), [1.0, 1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0, 5)

    def test_add_array_matches_scalar_adds(self):
        rng = np.random.default_rng(4)
        # Mix of underflow, in-range, the exact top edge, and overflow.
        values = np.concatenate([
            rng.uniform(-5.0, 15.0, size=500),
            np.array([0.0, 10.0, -0.0001, 10.0001]),
        ])
        vectored = Histogram(0.0, 10.0, 7)
        vectored.add_array(values)
        scalar = Histogram(0.0, 10.0, 7)
        scalar.add_many(values)
        np.testing.assert_array_equal(vectored.counts, scalar.counts)
        assert vectored.underflow == scalar.underflow
        assert vectored.overflow == scalar.overflow

    def test_add_array_empty_is_noop(self):
        hist = Histogram(0.0, 1.0, 2)
        hist.add_array(np.array([]))
        assert hist.total == 0 and hist.underflow == 0 and hist.overflow == 0
