"""The metrics registry: named counters, gauges, stats and histograms.

One :class:`MetricsRegistry` per observed run.  It deliberately reuses
the simulation's own accumulators — :class:`~repro.sim.RunningStats`
for streaming summaries and :class:`~repro.sim.Histogram` for fixed-bin
distributions — so a metric costs the same as the statistics the
analyzer already keeps, and the fleet layer can merge per-shard
registries with the exact parallel-Welford math the tally merge uses.

Everything round-trips through :meth:`MetricsRegistry.snapshot`: a
plain JSON-able dict that workers can pickle back to the coordinator,
:func:`merge_snapshots` can fold across shards, and the run manifest
embeds as is.
"""

from __future__ import annotations

from typing import Iterable

from ..sim import Histogram, RunningStats

__all__ = ["Counter", "Gauge", "MetricsRegistry", "merge_snapshots"]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0) to the counter."""
        self.value += n


class Gauge:
    """A point-in-time value (last write wins; merges take the max)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the gauge's current value."""
        self.value = float(value)


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Names are free-form dotted strings (``stream.chunks``,
    ``sink.response_us``); re-asking for a name returns the same object,
    so instrumentation sites can resolve their metrics once and hold the
    reference — the per-event cost is then one attribute update.
    """

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.stats: dict[str, RunningStats] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        return gauge

    def stat(self, name: str) -> RunningStats:
        """The streaming summary called ``name`` (created on first use)."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = RunningStats()
        return stat

    def histogram(self, name: str, lo: float, hi: float,
                  n_bins: int) -> Histogram:
        """The histogram called ``name``.

        The bin layout is fixed by the first call; later calls must ask
        for the same ``(lo, hi, n_bins)`` or a :class:`ValueError`
        surfaces the mismatch instead of silently mixing layouts.
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(lo, hi, n_bins)
        elif (hist.lo, hist.hi, hist.n_bins) != (float(lo), float(hi),
                                                 int(n_bins)):
            raise ValueError(
                f"histogram {name!r} already registered with layout "
                f"[{hist.lo}, {hist.hi}] x {hist.n_bins}"
            )
        return hist

    def snapshot(self) -> dict:
        """Plain JSON-able dict of every metric's current state."""
        return {
            "counters": {k: v.value for k, v in sorted(self.counters.items())},
            "gauges": {k: v.value for k, v in sorted(self.gauges.items())},
            "stats": {k: v.as_state() for k, v in sorted(self.stats.items())},
            "histograms": {
                k: {
                    "lo": v.lo,
                    "hi": v.hi,
                    "n_bins": v.n_bins,
                    "counts": [int(c) for c in v.counts],
                    "underflow": v.underflow,
                    "overflow": v.overflow,
                }
                for k, v in sorted(self.histograms.items())
            },
        }


def merge_snapshots(parts: Iterable[dict]) -> dict:
    """Fold per-shard registry snapshots into one run-level snapshot.

    Counters add, gauges keep the maximum (the fleet-level reading of a
    per-shard high-water mark), stats combine through the exact
    parallel-Welford merge, and histograms with identical bin layouts
    add count-for-count.  Mismatched histogram layouts raise — shards of
    one run share one instrumentation configuration by construction.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    stats: dict[str, RunningStats] = {}
    histograms: dict[str, dict] = {}
    stages: dict[str, dict] = {}
    for part in parts:
        for name, span in part.get("stages", {}).items():
            mine = stages.setdefault(name, {
                "wall_s": 0.0, "cpu_s": 0.0, "calls": 0,
                "rows": 0, "bytes": 0,
            })
            for key in mine:
                # detlint: ignore[float-accum] — spans are additive totals folded in fixed shard
                # order (not statistics); the Welford path below handles every distributional metric
                mine[key] += span.get(key, 0)
        for name, value in part.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in part.get("gauges", {}).items():
            gauges[name] = max(gauges.get(name, float(value)), float(value))
        for name, state in part.get("stats", {}).items():
            incoming = RunningStats.from_state(state)
            mine = stats.get(name)
            stats[name] = incoming if mine is None else mine.merge(incoming)
        for name, hist in part.get("histograms", {}).items():
            mine = histograms.get(name)
            if mine is None:
                histograms[name] = {
                    "lo": hist["lo"], "hi": hist["hi"],
                    "n_bins": hist["n_bins"],
                    "counts": list(hist["counts"]),
                    "underflow": int(hist["underflow"]),
                    "overflow": int(hist["overflow"]),
                }
                continue
            if (mine["lo"], mine["hi"], mine["n_bins"]) != (
                    hist["lo"], hist["hi"], hist["n_bins"]):
                raise ValueError(
                    f"cannot merge histogram {name!r}: bin layouts differ"
                )
            mine["counts"] = [a + b for a, b in zip(mine["counts"],
                                                    hist["counts"])]
            mine["underflow"] += int(hist["underflow"])
            mine["overflow"] += int(hist["overflow"])
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "stats": {k: v.as_state() for k, v in sorted(stats.items())},
        "histograms": dict(sorted(histograms.items())),
        "stages": dict(sorted(stages.items())),
    }
