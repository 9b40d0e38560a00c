"""Statistics accumulators used across the simulation and the analyzer.

* :class:`RunningStats` — Welford's online mean/variance (numerically
  stable; used for access-size and response-time summaries like Table 5.3).
* :class:`TimeWeightedValue` — integral of a piecewise-constant signal over
  simulated time (resource utilisation, queue lengths).
* :class:`Histogram` — fixed-bin counting histogram with the moving-average
  smoothing the thesis applies to Figures 5.3–5.5.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .engine import Engine

__all__ = ["RunningStats", "TimeWeightedValue", "Histogram", "smooth_counts"]


class RunningStats:
    """Welford online accumulator for count/mean/variance/min/max."""

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.add_many((value,))

    def add_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations in turn (Welford's update, with
        the running sums in locals)."""
        values = list(map(float, values))
        count, mean, m2 = self.count, self._mean, self._m2
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        self.count, self._mean, self._m2 = count, mean, m2
        self.minimum = min(itertools.chain((self.minimum,), values))
        self.maximum = max(itertools.chain((self.maximum,), values))

    def add_array(self, values: np.ndarray) -> None:
        """Fold a whole array in one vectorized step.

        Computes the array's count/mean/M2/min/max with NumPy and folds
        them in via the parallel Welford :meth:`merge`.  Mean and
        variance can differ from element-wise :meth:`add` in the last
        few float bits (both are valid accumulation orders); counts and
        extrema are exact.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        batch = RunningStats()
        batch.count = int(values.size)
        batch._mean = float(values.mean())
        batch._m2 = float(np.sum((values - batch._mean) ** 2))
        batch.minimum = float(values.min())
        batch.maximum = float(values.max())
        merged = self.merge(batch)
        self.count = merged.count
        self._mean = merged._mean
        self._m2 = merged._m2
        self.minimum = merged.minimum
        self.maximum = merged.maximum

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def sample_variance(self) -> float:
        """Unbiased (n-1) variance."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def sample_std(self) -> float:
        """Unbiased standard deviation."""
        return math.sqrt(self.sample_variance)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two accumulators (parallel Welford merge)."""
        merged = RunningStats()
        if self.count == 0:
            merged.__dict__.update(other.__dict__)
            return merged
        if other.count == 0:
            merged.__dict__.update(self.__dict__)
            return merged
        n = self.count + other.count
        delta = other._mean - self._mean
        merged.count = n
        merged._mean = self._mean + delta * other.count / n
        merged._m2 = (
            self._m2 + other._m2 + delta**2 * self.count * other.count / n
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    @classmethod
    def merge_all(cls, parts: Iterable["RunningStats"]) -> "RunningStats":
        """Fold many accumulators into one (left-to-right pairwise merge).

        Used by the fleet layer to combine per-shard response-time stats;
        the merge order is the shard order, so the result is deterministic
        for a fixed shard count.
        """
        merged = cls()
        for part in parts:
            merged = merged.merge(part)
        return merged

    def as_state(self) -> dict:
        """JSON-able full state (unlike :meth:`summary`, merge-exact).

        Carries the Welford ``m2`` term so :meth:`from_state` followed by
        :meth:`merge` reproduces the in-memory parallel merge exactly;
        the infinite extrema of an empty accumulator serialise as None.
        """
        return {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RunningStats":
        """Rebuild an accumulator from :meth:`as_state` output."""
        stats = cls()
        stats.count = int(state["count"])
        stats._mean = float(state["mean"])
        stats._m2 = float(state["m2"])
        if stats.count:
            stats.minimum = float(state["min"])
            stats.maximum = float(state["max"])
        return stats

    def summary(self) -> dict[str, float]:
        """Plain-dict snapshot for reports."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.sample_std,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class TimeWeightedValue:
    """Integral of a piecewise-constant signal over simulation time."""

    def __init__(self, engine: "Engine"):
        self._engine = engine
        self._last_time = engine.now
        self._current = 0.0
        self._integral = 0.0

    def record(self, value: float) -> None:
        """The signal takes ``value`` from the current simulated instant."""
        now = self._engine.now
        self._integral += self._current * (now - self._last_time)
        self._last_time = now
        self._current = float(value)

    def time_average(self) -> float:
        """Average value from t=0 to the engine's current time."""
        now = self._engine.now
        total = self._integral + self._current * (now - self._last_time)
        if now <= 0:
            return 0.0
        return total / now


def smooth_counts(counts: Sequence[float], window: int = 3,
                  passes: int = 1) -> np.ndarray:
    """Centered moving-average smoothing of histogram counts.

    This reproduces the "after smoothing" panels of Figures 5.3–5.5: a
    symmetric window (edges use the available neighbours), optionally
    applied repeatedly.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd number, got {window}")
    out = np.asarray(counts, dtype=float)
    half = window // 2
    for _ in range(passes):
        padded = np.pad(out, half, mode="edge")
        kernel = np.ones(window) / window
        out = np.convolve(padded, kernel, mode="valid")
    return out


class Histogram:
    """Fixed-range binning histogram with paper-style smoothing."""

    def __init__(self, lo: float, hi: float, n_bins: int):
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        if not (hi > lo):
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.n_bins = int(n_bins)
        self.counts = np.zeros(self.n_bins, dtype=float)
        self.underflow = 0
        self.overflow = 0

    @property
    def edges(self) -> np.ndarray:
        """Bin edges (length ``n_bins + 1``)."""
        return np.linspace(self.lo, self.hi, self.n_bins + 1)

    @property
    def centers(self) -> np.ndarray:
        """Bin centers (length ``n_bins``)."""
        edges = self.edges
        return 0.5 * (edges[:-1] + edges[1:])

    def add(self, value: float) -> None:
        """Count ``value`` into its bin (under/overflow tracked separately)."""
        if value < self.lo:
            self.underflow += 1
            return
        if value >= self.hi:
            # The top edge itself belongs to the last bin.
            if value == self.hi:
                self.counts[-1] += 1
            else:
                self.overflow += 1
            return
        width = (self.hi - self.lo) / self.n_bins
        idx = int((value - self.lo) / width)
        self.counts[min(idx, self.n_bins - 1)] += 1

    def add_many(self, values: Iterable[float]) -> None:
        """Count a batch."""
        for value in values:
            self.add(value)

    def add_array(self, values: np.ndarray) -> None:
        """Count a whole array in one vectorized step.

        Bin-for-bin identical to calling :meth:`add` per element: values
        below ``lo`` underflow, values above ``hi`` overflow, ``hi``
        itself lands in the last bin, and the index truncation matches
        the scalar ``int()`` floor for the non-negative offsets involved.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        self.underflow += int((values < self.lo).sum())
        self.overflow += int((values > self.hi).sum())
        in_range = values[(values >= self.lo) & (values <= self.hi)]
        if in_range.size:
            width = (self.hi - self.lo) / self.n_bins
            idx = ((in_range - self.lo) / width).astype(np.int64)
            np.minimum(idx, self.n_bins - 1, out=idx)
            self.counts += np.bincount(idx, minlength=self.n_bins)

    @property
    def total(self) -> int:
        """In-range observation count."""
        return int(self.counts.sum())

    def smoothed(self, window: int = 3, passes: int = 1) -> np.ndarray:
        """Moving-average smoothed counts (the thesis's "after smoothing")."""
        return smooth_counts(self.counts, window=window, passes=passes)
