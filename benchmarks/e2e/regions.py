"""The timed regions, their inputs, and the correctness checks.

Each region is one call a user of the library would write: it takes the
generated spec, ends with the artifact closed on disk and ``verify_stream``
run on it, and builds everything it needs afresh, so no memo made by one
repetition is found by the next (a CLI user pays the manifest-layout build
on every run; so does the benchmark).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import WorkloadGenerator, streamfile
from repro.core.streamfile import (
    StreamFileSink,
    StreamFormatError,
    StreamReader,
    TeeSink,
)
from repro.core.synthesis import PhaseModel
from repro.fleet import runner as fleet_runner
from repro.fleet.merge import ShardAccumulator
from repro.scenarios import get_scenario

from benchmarks.e2e.workloads import (
    BACKEND,
    FLEET_SHARDS,
    STREAM_BUDGET_BYTES,
    TOTAL_FILES,
    USER_SLICES,
    WARMUP_SCALE,
    WINDOW_FRACTION,
    WINDOW_SLICES,
    Workload,
)

__all__ = [
    "Inputs", "ReadSource", "RegionResult", "REGIONS", "build_inputs",
    "set_up", "fleet_region", "check_repetition",
]


@dataclass(frozen=True)
class ReadSource:
    """What ``artifact-read`` consumes: the artifact and the expected answers."""

    path: str
    tally: object  # the generating run's WorkloadTally
    rows: int
    user_slices: tuple  # (user id, expected rows)
    window_slices: tuple  # ((lo, hi), expected rows)


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs; the regions receive nothing else."""

    workload: Workload
    seed: int
    scenario: object
    spec: object
    spec_build_s: float
    source: ReadSource | None = None


@dataclass
class RegionResult:
    """What a timed region hands back for checking."""

    rows: int  # op rows produced (artifact-read: delivered to the consumer)
    tally: object
    verified: bool
    problems: list = field(default_factory=list)
    slice_user_ms: list = field(default_factory=list)
    slice_window_ms: list = field(default_factory=list)
    slice_rows: int = 0


def build_inputs(workload: Workload, seed: int, scale: float = 1.0) -> Inputs:
    """Build the scenario spec for ``seed`` at ``scale`` times table size."""
    scenario = get_scenario(workload.scenario)
    users = max(FLEET_SHARDS, round(workload.users * scale))
    start = time.perf_counter()
    spec = scenario.build(users, seed, total_files=TOTAL_FILES)
    return Inputs(workload, seed, scenario, spec,
                  spec_build_s=time.perf_counter() - start)


def generate_region(inputs: Inputs, path: str) -> RegionResult:
    """``run_simulated`` into a tally and a spilling stream sink, then verify."""
    scenario = inputs.scenario
    generator = WorkloadGenerator(inputs.spec)
    tally = ShardAccumulator()
    sink = StreamFileSink(path, memory_budget_bytes=STREAM_BUDGET_BYTES)
    try:
        generator.run_simulated(
            sessions_per_user=inputs.workload.sessions,
            backend=BACKEND,
            access_pattern=scenario.access_pattern,
            phase_model_factory=(PhaseModel if scenario.use_phase_model
                                 else None),
            log=TeeSink(tally, sink),
        )
    finally:
        sink.close()
    report = streamfile.verify_stream(path)
    return RegionResult(tally.tally.operations, tally.tally, report.ok)


def fleet_region(inputs: Inputs, path: str, shards: int = FLEET_SHARDS,
                 workers: int = 1, observed: bool = True) -> RegionResult:
    """``run_fleet`` in the production configuration, then verify.

    ``workers=1`` takes the in-process shard loop, so the wall is the
    fleet's code and not the scheduler's.  The spec is copied because the
    fleet pools one generator per spec *object*: handing it the same object
    twice would carry the first repetition's manifest into the second.
    """
    scenario = inputs.scenario
    result = fleet_runner.run_fleet(fleet_runner.FleetConfig(
        spec=dataclasses.replace(inputs.spec),
        shards=shards,
        workers=workers,
        backend=BACKEND,
        sessions_per_user=inputs.workload.sessions,
        access_pattern=scenario.access_pattern,
        use_phase_model=scenario.use_phase_model,
        arrival_model=scenario.arrival_model,
        out_stream=path,
        stream_budget_bytes=STREAM_BUDGET_BYTES,
        metrics_out=path + ".manifest.json" if observed else None,
    ))
    report = streamfile.verify_stream(path)
    return RegionResult(result.tally.operations, result.tally, report.ok)


def read_region(inputs: Inputs, path: str) -> RegionResult:
    """The fixed consumer script: verify, full replay, user and time slices."""
    source = inputs.source
    report = streamfile.verify_stream(path)
    replayed = ShardAccumulator(window_us=source.tally.window_us)
    result = RegionResult(0, replayed.tally, report.ok)
    with StreamReader(path) as reader:
        result.rows, _ = reader.replay(replayed)
        for timings, slices, keyword in (
                (result.slice_user_ms, source.user_slices, "users"),
                (result.slice_window_ms, source.window_slices, "time_range")):
            for selector, expected in slices:
                start = time.perf_counter()
                got = sum(len(batch) for batch in
                          reader.iter_batches(**{keyword: selector}))
                timings.append((time.perf_counter() - start) * 1e3)
                result.slice_rows += got
                if got != expected:
                    result.problems.append(
                        f"{keyword}={selector}: {got} rows, the full scan "
                        f"has {expected}")
    result.rows += result.slice_rows
    return result


REGIONS = {"generate": generate_region, "fleet": fleet_region,
           "read": read_region}


def _read_source(inputs: Inputs, path: str) -> ReadSource:
    """Generate the artifact and derive the slice answers independently.

    The expected row counts come from plain numpy masks over one full scan
    of the user-id and start-time columns, not from the reader's index.
    """
    produced = fleet_region(inputs, path)
    if not produced.verified:
        raise RuntimeError(f"input artifact {path} failed verify_stream")
    columns = [(batch.user_ids, batch.start_us)
               for batch in streamfile.iter_batches(path)]
    user_col = np.concatenate([users for users, _ in columns])
    start_col = np.concatenate([starts for _, starts in columns])
    rng = np.random.default_rng(inputs.seed)
    n_users = inputs.spec.n_users
    users = rng.choice(n_users, size=min(USER_SLICES, n_users), replace=False)
    lo, hi = float(start_col.min()), float(start_col.max())
    width = (hi - lo) / WINDOW_FRACTION
    # Every other window, the seed choosing which half: a free draw of 8
    # from 16 would swing the rows delivered (and so the throughput) by a
    # tenth from seed to seed at identical decode cost, because the
    # arrival profile leaves the night windows nearly empty.
    windows = np.arange(inputs.seed % 2, WINDOW_FRACTION,
                        WINDOW_FRACTION // WINDOW_SLICES)
    return ReadSource(
        path=path,
        tally=produced.tally,
        rows=produced.rows,
        user_slices=tuple(
            (int(u), int((user_col == u).sum())) for u in users),
        window_slices=tuple(
            ((lo + k * width, lo + (k + 1) * width),
             int(((start_col >= lo + k * width)
                  & (start_col < lo + (k + 1) * width)).sum()))
            for k in windows.tolist()),
    )


def set_up(workload: Workload, seed: int, scale: float,
           workdir: str) -> Inputs:
    """Everything before the first timed repetition (``setup_s`` times it).

    Builds the spec, runs one one-tenth-size warm-up repetition, and for
    ``artifact-read`` generates the input artifact (its warm-up is the
    consumer script with a tenth of the slices).
    """
    inputs = build_inputs(workload, seed, scale)
    if workload.region == "read":
        source = _read_source(inputs, os.path.join(workdir, "input.opstream"))
        inputs = dataclasses.replace(inputs, source=source)
        tenth = dataclasses.replace(
            source,
            user_slices=source.user_slices[:max(1, USER_SLICES // 10)],
            window_slices=source.window_slices[:1])
        read_region(dataclasses.replace(inputs, source=tenth), source.path)
    else:
        warm_path = os.path.join(workdir, "warmup.opstream")
        REGIONS[workload.region](
            build_inputs(workload, seed, scale * WARMUP_SCALE), warm_path)
        os.unlink(warm_path)
    return inputs


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_repetition(inputs: Inputs, path: str, result: RegionResult,
                     first_sha: "str | None") -> "tuple[str, list]":
    """The repetition's artifact SHA-256 and every way it failed.

    A repetition fails if ``verify_stream`` was not ok, if replaying the
    artifact into a fresh ``ShardAccumulator`` does not reproduce the
    generating run's tally exactly, or if the artifact's bytes differ from
    the first repetition's.
    """
    problems = list(result.problems)
    if not result.verified:
        problems.append("verify_stream(path) is not ok")
    if inputs.source is not None:  # the region itself did the replay
        reproduced = result.tally == inputs.source.tally
    else:
        accumulator = ShardAccumulator(window_us=result.tally.window_us)
        try:
            with StreamReader(path) as reader:
                reader.replay(accumulator)
        except StreamFormatError as exc:
            problems.append(f"replay failed: {exc}")
        reproduced = accumulator.tally == result.tally
    if not reproduced:
        problems.append("replayed tally differs from the generating run's")
    sha = _sha256(path)
    if first_sha is not None and sha != first_sha:
        problems.append("artifact SHA-256 differs from the first "
                        "repetition's")
    return sha, problems
