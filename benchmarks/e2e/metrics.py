"""Metric declarations: what the benchmark emits, with units and predictions.

``BENCHMARK.json`` repeats the names, units, directions and bounds from
here (its schema has no room for the rest); ``test_e2e.py`` holds the two
equal.  ``moves`` is the prediction written down before measuring: which
end-to-end metric, on which workload, a change to that layer should move.
A layer a workload never calls reports 0 for that workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER", "summarize"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    doc: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    doc: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "runner's first line -> start of the first timed repetition: "
             "imports, spec build, one-tenth-size warm-up, and for "
             "artifact-read generating the input artifact; median over "
             "SETUP_PROBES fresh processes"),
    EndToEnd("e2e_ops_per_s", "1/s", "higher", 0.25,
             "op rows produced (artifact-read: rows delivered to the "
             "consumer) / wall of the timed region, which ends with the "
             "artifact closed on disk and verify_stream(path).ok; the "
             "fastest repetition's"),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.05,
             "ru_maxrss of the measuring subprocess at exit"),
    EndToEnd("artifact_bytes_per_op", "B/op", "lower", 0.005,
             "published artifact bytes / op rows; exact for a seed, moves "
             "only with the codec"),
)

_SELF = "sum of span self times"

PER_LAYER = (
    PerLayer("spec.build_s", "s", "lower", "scenarios / core.spec",
             "setup_s, all", "scenario.build wall"),
    PerLayer("cli.startup_s", "s", "lower", "cli",
             "setup_s, all", "`python -m repro --version` wall, median of 3"),
    PerLayer("plan.assign_s", "s", "lower", "core.generator (plan)",
             "e2e_ops_per_s on short-session; flat on long-session",
             f"WorkloadGenerator.plan_users, {_SELF}"),
    PerLayer("plan.layout_s", "s", "lower", "core.generator (plan)",
             "e2e_ops_per_s on short-session; flat on long-session",
             f"WorkloadGenerator.create_file_system manifest build, {_SELF}"),
    PerLayer("plan.layout_files", "count", "lower", "core.generator (plan)",
             "e2e_ops_per_s on short-session; flat on long-session",
             "files in the manifests built"),
    PerLayer("synth.kernel_setup_s", "s", "lower", "core.synthesis",
             "e2e_ops_per_s on short-session",
             "time inside next() of iter_synthesized_users (kernel "
             f"construct + rebind_user), {_SELF}"),
    PerLayer("synth.kernel_setup_us_per_user", "us", "lower", "core.synthesis",
             "e2e_ops_per_s on short-session",
             "synth.kernel_setup_s / execute.users"),
    PerLayer("synth.generate_s", "s", "lower", "core.synthesis",
             "e2e_ops_per_s on long-session, sharded-fleet",
             f"SessionGenerator.generate_user_batch, {_SELF}"),
    PerLayer("synth.generate_calls", "count", "lower", "core.synthesis",
             "e2e_ops_per_s on long-session, sharded-fleet",
             "generate_user_batch calls"),
    PerLayer("synth.rows", "count", "higher", "core.synthesis",
             "e2e_ops_per_s on long-session, sharded-fleet",
             "op rows generate_user_batch returned (think rows included)"),
    PerLayer("rng.get_calls", "count", "lower", "distributions.rng",
             "e2e_ops_per_s on short-session; flat on long-session",
             "RandomStreams.get calls"),
    PerLayer("rng.get_calls_per_user", "1/user", "lower", "distributions.rng",
             "e2e_ops_per_s on short-session; flat on long-session",
             "rng.get_calls / execute.users"),
    PerLayer("rng.fork_calls", "count", "lower", "distributions.rng",
             "e2e_ops_per_s on short-session; flat on long-session",
             "RandomStreams.fork calls"),
    PerLayer("rng.get_s", "s", "lower", "distributions.rng",
             "e2e_ops_per_s on short-session; flat on long-session",
             f"RandomStreams.get + fork, {_SELF}"),
    PerLayer("sampling.sample_calls", "count", "lower",
             "distributions (sampling)", "e2e_ops_per_s on long-session",
             "TableSampler.sample calls (block refills and FSC draws)"),
    PerLayer("sampling.sample_s", "s", "lower", "distributions (sampling)",
             "e2e_ops_per_s on long-session",
             f"TableSampler.sample, {_SELF}"),
    PerLayer("sampling.variates_drawn", "count", "lower",
             "distributions (sampling)", "e2e_ops_per_s on short-session",
             "variates TableSampler.sample drew"),
    PerLayer("sampling.variates_per_op", "1/op", "lower",
             "distributions (sampling)", "e2e_ops_per_s on short-session",
             "sampling.variates_drawn / op rows: the wasted-work ratio"),
    PerLayer("arrivals.schedule_calls", "count", "lower", "core.arrivals",
             "e2e_ops_per_s on sharded-fleet only",
             "ArrivalModel.schedule calls"),
    PerLayer("arrivals.schedule_s", "s", "lower", "core.arrivals",
             "e2e_ops_per_s on sharded-fleet only",
             f"ArrivalModel.schedule, {_SELF}"),
    PerLayer("execute.self_s", "s", "lower", "core.execution",
             "e2e_ops_per_s on long-session, sharded-fleet",
             "ColumnarReplayBackend.execute minus the spans it contains"),
    PerLayer("execute.users", "count", "higher", "core.execution",
             "e2e_ops_per_s on long-session, sharded-fleet",
             "users the executor drained"),
    PerLayer("tally.record_s", "s", "lower", "fleet.merge (tally sink)",
             "e2e_ops_per_s on long-session; small on short-session",
             f"ShardAccumulator.record_batch + record_session, {_SELF}"),
    PerLayer("tally.batches", "count", "lower", "fleet.merge (tally sink)",
             "e2e_ops_per_s on long-session; small on short-session",
             "ShardAccumulator.record_batch calls"),
    PerLayer("stream.write_s", "s", "lower", "core.streamfile writer",
             "e2e_ops_per_s on long-session, sharded-fleet; peak_rss_mib; "
             "artifact_bytes_per_op",
             "StreamFileSink.record_batch + record_session + close, "
             f"{_SELF}"),
    PerLayer("stream.chunks", "count", "lower", "core.streamfile writer",
             "e2e_ops_per_s on long-session, sharded-fleet",
             "chunk frames the sinks flushed"),
    PerLayer("stream.bytes", "B", "lower", "core.streamfile writer",
             "artifact_bytes_per_op, all", "bytes the sinks left on disk"),
    PerLayer("stream.write_mib_per_s", "MiB/s", "higher",
             "core.streamfile writer",
             "e2e_ops_per_s on long-session, sharded-fleet",
             "stream.bytes / stream.write_s"),
    PerLayer("stream.verify_s", "s", "lower",
             "core.streamfile verify/reader", "e2e_ops_per_s, all",
             "verify_stream wall (its chunk reads included)"),
    PerLayer("stream.replay_s", "s", "lower",
             "core.streamfile verify/reader",
             "e2e_ops_per_s on artifact-read only",
             f"StreamReader.replay, {_SELF} (decode is in "
             "stream.read_chunk_s, the fold in tally.record_s)"),
    PerLayer("stream.replay_rows_per_s", "1/s", "higher",
             "core.streamfile verify/reader",
             "e2e_ops_per_s on artifact-read only",
             "rows replayed / StreamReader.replay wall, children included"),
    PerLayer("stream.read_chunk_calls", "count", "lower",
             "core.streamfile verify/reader",
             "e2e_ops_per_s on artifact-read only",
             "StreamReader.read_chunk calls outside verify and merge"),
    PerLayer("stream.read_chunk_s", "s", "lower",
             "core.streamfile verify/reader",
             "e2e_ops_per_s on artifact-read only",
             f"StreamReader.read_chunk outside verify and merge, {_SELF}"),
    PerLayer("stream.slice_user_ms_p50", "ms", "lower",
             "core.streamfile verify/reader",
             "e2e_ops_per_s on artifact-read only",
             "median wall of one iter_batches(users=u) read"),
    PerLayer("stream.slice_window_ms_p50", "ms", "lower",
             "core.streamfile verify/reader",
             "e2e_ops_per_s on artifact-read only",
             "median wall of one iter_batches(time_range=...) read"),
    PerLayer("stream.slice_filter_s", "s", "lower",
             "core.streamfile verify/reader",
             "e2e_ops_per_s on artifact-read only",
             f"StreamReader.iter_batches row masks and selects, {_SELF}"),
    PerLayer("stream.slice_amplification", "ratio", "lower",
             "core.streamfile verify/reader",
             "e2e_ops_per_s on artifact-read only",
             "rows decoded / rows returned, over all slice reads"),
    PerLayer("stream.merge_s", "s", "lower", "core.streamfile merge",
             "e2e_ops_per_s on sharded-fleet only",
             "merge_stream_files wall (its reads and writes included)"),
    PerLayer("stream.merge_rows_per_s", "1/s", "higher",
             "core.streamfile merge", "e2e_ops_per_s on sharded-fleet only",
             "rows merged / stream.merge_s"),
    PerLayer("fleet.run_s", "s", "lower", "fleet.runner",
             "e2e_ops_per_s on sharded-fleet only",
             "run_fleet wall, children included"),
    PerLayer("fleet.shards_s", "s", "lower", "fleet.runner",
             "e2e_ops_per_s on sharded-fleet only",
             "sum of the per-shard run_simulated walls, children included"),
    PerLayer("fleet.self_s", "s", "lower", "fleet.runner",
             "e2e_ops_per_s on sharded-fleet only",
             "run_fleet minus the spans it contains (shard run_simulated "
             "calls, merge, sink close): planning, shard temps, checkpoint "
             "sidecars, publish, manifest"),
    PerLayer("fleet.shard_overhead_ratio", "ratio", "lower", "fleet.runner",
             "e2e_ops_per_s on sharded-fleet only",
             "untraced 4-shard / 1-shard fleet region wall, same config, "
             "alternated repetitions, fastest of three each"),
    PerLayer("supervisor.wall_s", "s", "lower", "fleet.supervisor",
             "reported, never gated",
             "wall of one workers=2 run_fleet (two spawned workers on "
             "this box's two cores: a scheduler figure)"),
    PerLayer("supervisor.cpu_s", "s", "lower", "fleet.supervisor",
             "reported, never gated",
             "CPU of that run, this process plus its children"),
    PerLayer("supervisor.spawn_ipc_cpu_s", "s", "lower", "fleet.supervisor",
             "reported, never gated",
             "supervisor.cpu_s minus the CPU of an inline workers=1 run"),
    PerLayer("obs.overhead_pct", "%", "lower", "obs",
             "e2e_ops_per_s on sharded-fleet",
             "fleet region wall with RunObserver on (metrics_out) "
             "vs off, alternated repetitions, fastest of three each"),
    PerLayer("proc.cpu_s_per_mop", "s/Mop", "lower", "process", "-",
             "process CPU seconds per million op rows, untraced "
             "repetitions, median"),
    PerLayer("trace.wall_s", "s", "lower", "trace", "-",
             "wall of the traced repetition"),
    PerLayer("trace.overhead_pct", "%", "lower", "trace", "-",
             "fastest traced wall vs the fastest untraced one, alternated"),
    PerLayer("trace.residual_pct", "%", "lower", "trace", "-",
             "(traced wall - sum of the layer self times above) / wall"),
    PerLayer("host.spin_ms_median", "ms", "lower", "host", "-",
             "median wall of the fixed spin, timed around the repetitions"),
    PerLayer("host.spin_ms_iqr", "ms", "lower", "host", "-",
             "q3 - q1 of the same"),
    PerLayer("host.loadavg_1m", "load", "lower", "host", "-",
             "1-minute load average when the pass ended"),
)


def summarize(values) -> dict:
    """median/min/q1/q3/max/n of a run's repetitions (q1 = q3 = the value
    itself when there is only one)."""
    values = sorted(float(v) for v in values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "min": values[0], "q1": q1,
        "q3": q3, "max": values[-1], "n": len(values),
    }
