"""The traced pass: repetitions under ``traced()``, per-layer metrics out.

Never mixed into the end-to-end numbers.  The pass first runs a few
untraced repetitions in the same process (the reference the tracing
overhead is taken against), alternating with a few that have every
``PATCHES`` target behind a timing shim, and reports the fastest traced one.  It asserts that each
traced artifact's SHA-256 equals the untraced one's and that the counts
repeat exactly.  On ``sharded-fleet`` it also runs the fleet with the
observer off, with one shard, and once with two spawned workers; only
``supervisor.*`` comes from that last, multi-process run.  Walls are
compared fastest against fastest, like the end-to-end figure.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time

from benchmarks.e2e import host, regions
from benchmarks.e2e.metrics import PER_LAYER
from benchmarks.e2e.tracing import Recorder, traced
from benchmarks.e2e.workloads import Workload

__all__ = ["trace", "layer_metrics"]

REFERENCE_REPS = 5
TRACED_REPS = 3
COMPARISON_REPS = 3
CLI_STARTS = 3

# Span names whose self time belongs to no layer: the benchmark's own root
# span and run_simulated's glue between the stages.  It is the residual.
_UNATTRIBUTED = ("rep", "generator.run")


def _cli_startup_s() -> float:
    """Median wall of ``python -m repro --version`` (env already pinned)."""
    walls = []
    for _ in range(CLI_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "repro", "--version"],
                       check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def layer_metrics(totals: dict, counts: dict, rows: int, wall_s: float,
                  slice_rows: int, measured: dict) -> dict:
    """Every ``PER_LAYER`` metric from one traced repetition's spans.

    ``rows`` is the repetition's op rows, ``slice_rows`` what its slice
    reads returned, ``measured`` the metrics taken outside the spans.  A
    layer the workload never called has no spans and reports 0.
    """
    def self_s(*names):
        return sum(totals[n]["self_s"] for n in names if n in totals)

    def wall(name):
        return totals[name]["wall_s"] if name in totals else 0.0

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    users = counts["execute.users"]
    write_s = self_s("stream.write_batch", "stream.write_session",
                     "stream.write_close")
    slices_decoded = counts["stream.rows_decoded"] - counts["stream.replay_rows"]
    values = {
        "plan.assign_s": self_s("plan.assign"),
        "plan.layout_s": self_s("plan.layout"),
        "plan.layout_files": counts["plan.layout_files"],
        "synth.kernel_setup_s": self_s("synth.kernel_setup"),
        "synth.kernel_setup_us_per_user":
            ratio(self_s("synth.kernel_setup") * 1e6, users),
        "synth.generate_s": self_s("synth.generate"),
        "synth.generate_calls": calls("synth.generate"),
        "synth.rows": counts["synth.rows"],
        "rng.get_calls": calls("rng.get"),
        "rng.get_calls_per_user": ratio(calls("rng.get"), users),
        "rng.fork_calls": calls("rng.fork"),
        "rng.get_s": self_s("rng.get", "rng.fork"),
        "sampling.sample_calls": calls("sampling.sample"),
        "sampling.sample_s": self_s("sampling.sample"),
        "sampling.variates_drawn": counts["sampling.variates_drawn"],
        "sampling.variates_per_op":
            ratio(counts["sampling.variates_drawn"], rows),
        "arrivals.schedule_calls": calls("arrivals.schedule"),
        "arrivals.schedule_s": self_s("arrivals.schedule"),
        "execute.self_s": self_s("execute"),
        "execute.users": users,
        "tally.record_s": self_s("tally.record_batch", "tally.record_session"),
        "tally.batches": calls("tally.record_batch"),
        "stream.write_s": write_s,
        "stream.chunks": counts["stream.chunks"],
        "stream.bytes": counts["stream.bytes"],
        "stream.write_mib_per_s":
            ratio(counts["stream.bytes"] / (1 << 20), write_s),
        "stream.verify_s": self_s("stream.verify"),
        "stream.replay_s": self_s("stream.replay"),
        "stream.replay_rows_per_s":
            ratio(counts["stream.replay_rows"], wall("stream.replay")),
        "stream.read_chunk_calls": calls("stream.read_chunk"),
        "stream.read_chunk_s": self_s("stream.read_chunk"),
        "stream.slice_filter_s": self_s("stream.slice"),
        "stream.slice_amplification":
            ratio(slices_decoded, slice_rows),
        "stream.merge_s": self_s("stream.merge"),
        "stream.merge_rows_per_s":
            ratio(counts["stream.merge_rows"], wall("stream.merge")),
        "fleet.run_s": wall("fleet.run"),
        "fleet.shards_s": wall("generator.run") if "fleet.run" in totals
        else 0.0,
        "fleet.self_s": self_s("fleet.run"),
        "trace.wall_s": wall_s,
        "trace.residual_pct": 100.0 * ratio(self_s(*_UNATTRIBUTED), wall_s),
    }
    values.update(measured)
    return {m.name: {"value": values[m.name], "unit": m.unit}
            for m in PER_LAYER}


class _Pass:
    """Shared state of one traced pass: inputs, paths, problems, spins."""

    def __init__(self, inputs, workdir: str):
        self.inputs = inputs
        self.workdir = workdir
        self.problems: list = []
        self.spins = [host.spin_ms()]
        self.sha = None  # the first checked artifact's; all must match it

    def once(self, label: str, recorder: "Recorder | None" = None,
             **options) -> tuple:
        """One checked repetition: (wall s, CPU s, result, recorder).

        CPU is this process plus reaped children, so the one multi-process
        run is counted whole.  A ``recorder`` makes it a traced repetition.
        """
        inputs, source = self.inputs, self.inputs.source
        region = regions.REGIONS[inputs.workload.region]
        path = (source.path if source is not None
                else os.path.join(self.workdir, f"{label}.opstream"))
        gc.collect()
        cpu_start = sum(os.times()[:4])
        start = time.perf_counter()
        if recorder is None:
            result = region(inputs, path, **options)
        else:
            with traced(recorder), recorder.span("rep"):
                result = region(inputs, path, **options)
        wall_s = time.perf_counter() - start
        cpu_s = sum(os.times()[:4]) - cpu_start
        sha, failed = regions.check_repetition(inputs, path, result, self.sha)
        self.sha = self.sha or sha
        self.problems.extend(f"{label}: {p}" for p in failed)
        if source is None:
            os.unlink(path)
        self.spins.append(host.spin_ms())
        return wall_s, cpu_s, result, recorder


def _fastest(reps) -> float:
    return min(wall_s for wall_s, *_ in reps)


def _fleet_extras(run: _Pass, inline_cpu_s: float) -> dict:
    """The fleet's comparison runs: observer off, one shard, two workers.

    Each must publish the same bytes as the reference repetitions.  The
    three in-process configurations alternate, so they meet the same host
    weather, and are compared fastest against fastest.
    """
    observed, unobserved, one_shard = [], [], []
    for i in range(COMPARISON_REPS):
        observed.append(run.once(f"observed{i}"))
        unobserved.append(run.once(f"unobserved{i}", observed=False))
        one_shard.append(run.once(f"one-shard{i}", shards=1))
    supervised_s, supervised_cpu_s, _, _ = run.once("two-workers", workers=2)
    return {
        "obs.overhead_pct":
            100.0 * (_fastest(observed) / _fastest(unobserved) - 1.0),
        "fleet.shard_overhead_ratio":
            _fastest(observed) / _fastest(one_shard),
        "supervisor.wall_s": supervised_s,
        "supervisor.cpu_s": supervised_cpu_s,
        "supervisor.spawn_ipc_cpu_s": supervised_cpu_s - inline_cpu_s,
    }


def trace(workload: Workload, seed: int, scale: float, workdir: str,
          keep_spans: bool = False) -> dict:
    """Run the traced pass for one workload; returns the child's report."""
    inputs = regions.set_up(workload, seed, scale, workdir)
    run = _Pass(inputs, workdir)
    reference, passes = [], []
    for i in range(REFERENCE_REPS):  # traced ones in between, not after
        reference.append(run.once(f"reference{i}"))
        if i < TRACED_REPS:
            passes.append(run.once(f"traced{i}", Recorder(workload.name)))
    cpu_s = statistics.median(cpu for _, cpu, _, _ in reference)
    rows = reference[0][2].rows
    wall_s, _, result, recorder = min(passes, key=lambda rep: rep[0])
    if any(rep[3].counts != recorder.counts for rep in passes):
        run.problems.append("traced counts differ between two passes")

    measured = {
        "spec.build_s": inputs.spec_build_s,
        "cli.startup_s": _cli_startup_s(),
        "proc.cpu_s_per_mop": cpu_s / (rows / 1e6),
        "trace.overhead_pct": 100.0 * (wall_s / _fastest(reference) - 1.0),
        "stream.slice_user_ms_p50":
            statistics.median(result.slice_user_ms or [0.0]),
        "stream.slice_window_ms_p50":
            statistics.median(result.slice_window_ms or [0.0]),
        "obs.overhead_pct": 0.0, "fleet.shard_overhead_ratio": 0.0,
        "supervisor.wall_s": 0.0, "supervisor.cpu_s": 0.0,
        "supervisor.spawn_ipc_cpu_s": 0.0,
    }
    if workload.region == "fleet":
        measured.update(_fleet_extras(run, cpu_s))
    stamp = host.host_block(run.spins)
    spin = stamp["spin_ms"]
    measured.update({
        "host.spin_ms_median": spin["median"],
        "host.spin_ms_iqr": spin["q3"] - spin["q1"],
        "host.loadavg_1m": stamp["loadavg"][0],
    })
    _, start, end, _ = recorder.spans[0]  # the "rep" root span
    out = {
        "workload": workload.name, "seed": seed, "scale": scale,
        "rows": rows, "problems": run.problems, "sha256": run.sha,
        "host": stamp,
        "counts": dict(recorder.counts),
        "metrics": layer_metrics(
            recorder.totals(), recorder.counts, rows, end - start,
            result.slice_rows, measured),
    }
    if keep_spans:
        out["spans"] = recorder.span_rows()
    return out
