"""Multi-process fleet execution.

``run_fleet`` shards a population across worker processes: each shard
rebuilds the workload (same root seed → same FSC layout, same per-user
streams), simulates only its slice of users on its own discrete-event
engine, and ships back an online :class:`~repro.fleet.merge.WorkloadTally`
plus timing.  The coordinator merges shard results in shard order.

Execution model
---------------

* ``shards`` is a **semantic** knob: how many independent simulated
  sites the population is split across.  Each shard has its own engine,
  server and network, so users only contend with users in their shard.
* ``workers`` is a **mechanical** knob: how many OS processes execute
  shards.  ``workers=1`` (with no process-killing fault and no
  ``shard_timeout_s``) runs every shard in this process — the
  supervisor is handed no multiprocessing context and executes each
  attempt itself; results are identical either way, which is the
  property the fleet tests pin down.

Workers are handed plain picklable data: the resolved
:class:`~repro.core.spec.WorkloadSpec` (frozen dataclasses of floats),
the execution options, and a :class:`~repro.fleet.sharding.ShardPlan`.
Scenario resolution happens **once, in the coordinator** — so custom
scenarios registered by the calling script work under any
multiprocessing start method, including spawn, where workers re-import
a fresh registry.

Fault tolerance
---------------

Shard execution is always supervised — in worker processes or in this
one, :class:`~repro.fleet.supervisor.ShardSupervisor` owns the one retry
policy (see :mod:`repro.fleet.supervisor`): a
worker that dies, hangs past ``shard_timeout_s``, raises, or hands back
a corrupt stream artifact fails only that shard's *attempt*.  The shard
is retried with exponential backoff up to ``max_retries`` times — and
because shard generation is a pure function of (spec, seed, shard
range), the retry reproduces the lost bytes exactly.  A shard that
exhausts its retries is quarantined: the rest of the fleet completes,
the manifest records the casualties, and ``run_fleet`` raises
:class:`FleetPartialError` (or returns the partial result when
``allow_partial`` is set).

Stream-writing runs keep every per-shard temp under a run-scoped
directory (``<out_stream>.run``) that is swept on *every* exit path;
the final artifact appears at ``out_stream`` only through an atomic
rename, never half-written.  On the engine-free backends the temps
flush every chunk frame as it is written, so a killed run can be
continued with ``resume_fleet_config`` / ``fleet run --resume``: the
chunk frames on disk are the checkpoint — those that pass their CRC and
decode are reused, and only the tail is regenerated — the resumed
artifact is bit-for-bit identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import time
from dataclasses import dataclass, field, replace

from ..core.arrivals import (
    DEFAULT_ARRIVALS,
    HOUR_US,
    ArrivalError,
    ArrivalModel,
    arrival_model_from_jsonable,
    arrival_model_to_jsonable,
    get_profile,
)
from ..core.generator import (
    FAST_BACKENDS,
    RUN_BACKENDS,
    WorkloadGenerator,
    artifact_backend,
)
from ..core.oplog import UsageLog
from ..core.spec import SpecError, WorkloadSpec
from ..core.specjson import spec_from_jsonable, spec_to_jsonable
from ..core.streamfile import (
    DEFAULT_MEMORY_BUDGET,
    StreamFileSink,
    TeeSink,
    merge_stream_files,
    resume_stream_sink,
    verify_stream,
)
from ..core.synthesis import PhaseModel
from ..faults import FaultSpec, build_injector
from ..obs import (
    ProgressMeter,
    QueueProgressSender,
    RunObserver,
    build_manifest,
    merge_snapshots,
    spec_fingerprint,
    write_manifest,
)
from ..sim import RunningStats
from .merge import ShardAccumulator, WorkloadTally
from .sharding import ShardPlan, plan_shards
from .supervisor import ShardFailure, ShardSupervisor

__all__ = [
    "FleetConfig",
    "FleetPartialError",
    "ShardOutcome",
    "FleetResult",
    "run_fleet",
    "resume_fleet_config",
]

_BACKENDS = RUN_BACKENDS

RUN_RECORD_NAME = "fleet-run.json"
"""Resume record inside a run directory: the resolved run, as data."""

RUN_RECORD_FORMAT = "repro.fleet-run"
RUN_RECORD_VERSION = 1


class FleetPartialError(RuntimeError):
    """The fleet finished, but one or more shards were quarantined.

    Carries the partial :class:`FleetResult` (completed shards merged,
    manifest written) so callers can inspect what *did* finish.
    """

    def __init__(self, result: "FleetResult"):
        self.result = result
        names = ", ".join(str(s) for s in result.quarantined)
        super().__init__(
            f"fleet run is partial: shard(s) {names} quarantined after "
            f"{result.config.max_retries} retries "
            "(pass allow_partial=True / --allow-partial to accept)"
        )


@dataclass(frozen=True)
class FleetConfig:
    """Everything a fleet run needs; plain data, safe to pickle.

    Exactly one of ``scenario`` (a name in :mod:`repro.scenarios`) or
    ``spec`` (an explicit :class:`~repro.core.spec.WorkloadSpec`) must be
    set.  With an explicit spec, the population size and seed come from
    the spec itself and ``users``/``seed``/``total_files`` are ignored.
    ``access_pattern`` and ``use_phase_model`` default to the scenario's
    settings (scenario configs) or to ``sequential``/off (explicit-spec
    configs); set them to override either way.

    Temporal load: ``use_arrivals=True`` enables the scenario's
    :class:`~repro.core.arrivals.ArrivalModel` (or the default one);
    ``arrival_model`` supplies an explicit model; ``profile`` names a
    registered load profile and overrides the model's (implying
    arrivals).  With arrivals on, ops are also bucketed into
    ``window_us``-wide time windows (one hour unless set explicitly)
    so the merged tally carries the offered-load curve.  Arrival schedules are per-user
    draws from the root seed, so the curve is shard-count-invariant on
    the engine-free backends.

    Observability: ``metrics_out`` writes a run-manifest JSON artifact
    (merged per-shard metric snapshots, per-stage spans, versions, peak
    RSS) after the run; ``progress`` paints a one-line live status to
    stderr aggregated across shards.  Both ride the
    :mod:`repro.obs` observer, which never touches RNG streams or
    recorded bytes — enabling them cannot change any artifact or tally.

    Robustness: failed shard attempts retry up to ``max_retries`` times
    with ``retry_backoff_s`` exponential backoff; ``shard_timeout_s``
    kills and retries a shard whose heartbeats go silent that long;
    shards still failing are quarantined and surface through
    :class:`FleetPartialError` unless ``allow_partial`` accepts partial
    results.  ``faults`` arms deterministic failures
    (:class:`~repro.faults.FaultSpec`) for tests and chaos runs;
    with faults armed and an ``out_stream``, the coordinator CRC-walks
    each shard artifact before accepting it.  ``resume_dir``
    continues a killed run from its run directory (``keep_run_dir``
    preserves that directory when a run fails so it *can* be resumed).

    Caveat: ``time_limit_us`` truncates each shard at its *own* simulated
    clock, and simulated time depends on per-site queueing — so with a
    time limit the merged aggregate is **not** shard-count-invariant.
    The bit-for-bit guarantee holds only for run-to-completion fleets
    (``time_limit_us=None``).
    """

    scenario: str | None = None
    spec: WorkloadSpec | None = None
    users: int = 100
    shards: int = 1
    workers: int | None = None
    sessions_per_user: int | None = None
    seed: int = 0
    backend: str = "nfs"
    total_files: int | None = None
    collect_ops: bool = False
    time_limit_us: float | None = None
    access_pattern: str | None = None
    use_phase_model: bool | None = None
    use_arrivals: bool = False
    arrival_model: ArrivalModel | None = None
    profile: str | None = None
    window_us: float | None = None
    out_stream: str | None = None
    stream_budget_bytes: int | None = None
    metrics_out: str | None = None
    progress: bool = False
    max_retries: int = 2
    retry_backoff_s: float = 0.25
    shard_timeout_s: float | None = None
    faults: tuple = ()
    resume_dir: str | None = None
    allow_partial: bool = False
    keep_run_dir: bool = False

    def __post_init__(self) -> None:
        if (self.scenario is None) == (self.spec is None):
            raise SpecError(
                "set exactly one of FleetConfig.scenario or FleetConfig.spec"
            )
        if self.access_pattern not in (None, "sequential", "random"):
            raise SpecError(
                "access_pattern must be sequential|random, got "
                f"{self.access_pattern!r}"
            )
        if self.backend not in _BACKENDS:
            raise SpecError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.shards < 1:
            raise SpecError(f"shards must be >= 1, got {self.shards}")
        if self.workers is not None and self.workers < 1:
            raise SpecError(f"workers must be >= 1, got {self.workers}")
        if self.sessions_per_user is not None and self.sessions_per_user < 1:
            raise SpecError("sessions_per_user must be >= 1")
        if self.profile is not None:
            try:  # resolve eagerly: fail before any worker starts
                get_profile(self.profile)
            except ArrivalError as exc:
                raise SpecError(str(exc)) from None
        if self.window_us is not None and not self.window_us > 0:
            raise SpecError(
                f"window_us must be > 0, got {self.window_us}"
            )
        if self.stream_budget_bytes is not None:
            if self.stream_budget_bytes < 1:
                raise SpecError(
                    "stream_budget_bytes must be >= 1, got "
                    f"{self.stream_budget_bytes}"
                )
            if self.out_stream is None:
                raise SpecError(
                    "stream_budget_bytes needs out_stream to be set"
                )
        if (self.out_stream is not None and self.shards > 1
                and self.backend not in FAST_BACKENDS):
            raise SpecError(
                "out_stream with shards > 1 needs an engine-free backend "
                f"({FAST_BACKENDS}): the streaming shard merge relies on "
                "user-contiguous artifacts, and the DES interleaves users "
                "on a shared clock"
            )
        if self.max_retries < 0:
            raise SpecError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff_s < 0:
            raise SpecError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.shard_timeout_s is not None and not self.shard_timeout_s > 0:
            raise SpecError(
                f"shard_timeout_s must be > 0, got {self.shard_timeout_s}"
            )
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise SpecError(
                    f"faults entries must be FaultSpec, got {fault!r}"
                )
            if fault.shard >= self.shards:
                raise SpecError(
                    f"fault {fault.describe()!r} targets shard "
                    f"{fault.shard}, but the run has {self.shards} shard(s)"
                )
            if fault.needs_stream and self.out_stream is None:
                raise SpecError(
                    f"fault {fault.describe()!r} needs out_stream: it "
                    "fires in the stream spill/artifact path"
                )
        if self.resume_dir is not None:
            if self.out_stream is None:
                raise SpecError("resume_dir needs out_stream to be set")
            if self.backend not in FAST_BACKENDS:
                raise SpecError(
                    "resume needs an engine-free backend "
                    f"({FAST_BACKENDS}): checkpointed chunks are only "
                    "reusable when users are generated contiguously"
                )

    @property
    def arrivals_enabled(self) -> bool:
        """Whether this config runs with a temporal load model."""
        return (self.use_arrivals or self.arrival_model is not None
                or self.profile is not None)

    @property
    def n_users(self) -> int:
        """Population size (from the spec when one is given)."""
        return self.spec.n_users if self.spec is not None else self.users

    @property
    def root_seed(self) -> int:
        """Root seed (from the spec when one is given)."""
        return self.spec.seed if self.spec is not None else self.seed

    @property
    def run_dir(self) -> str | None:
        """Run-scoped temp directory for stream runs (else None)."""
        if self.out_stream is None:
            return None
        return self.out_stream + ".run"

    def effective_workers(self) -> int:
        """Worker process count: ``workers`` capped by shards and cores."""
        if self.workers is not None:
            return min(self.workers, self.shards)
        return min(self.shards, os.cpu_count() or 1)


@dataclass
class ShardOutcome:
    """What one shard sends back to the coordinator."""

    shard_index: int
    shard_seed: int
    user_ids: tuple[int, ...]
    tally: WorkloadTally
    response_us: RunningStats
    simulated_us: float
    wall_s: float
    log: UsageLog | None = None
    metrics: dict | None = None
    attempt: int = 1
    reused_chunks: int = 0
    reused_rows: int = 0


@dataclass
class FleetResult:
    """Merged outcome of a fleet run."""

    config: FleetConfig
    outcomes: list[ShardOutcome]
    tally: WorkloadTally
    response_us: RunningStats
    wall_s: float
    log: UsageLog | None = None
    plans: tuple[ShardPlan, ...] = field(default=())
    out_stream: str | None = None
    metrics: dict | None = None
    metrics_out: str | None = None
    quarantined: tuple[int, ...] = ()
    failures: tuple[ShardFailure, ...] = ()
    retries: int = 0
    timeouts: int = 0
    reused_chunks: int = 0
    reused_rows: int = 0
    resumed: bool = False

    @property
    def partial(self) -> bool:
        """Whether any shard was quarantined (result covers the rest)."""
        return bool(self.quarantined)

    @property
    def simulated_us(self) -> float:
        """Fleet-level simulated duration: the slowest shard's clock."""
        return max((o.simulated_us for o in self.outcomes), default=0.0)

    def aggregate_kv(self) -> dict[str, int]:
        """The shard-invariant aggregate (bit-for-bit across shard counts)."""
        return self.tally.as_kv()

    def timing_kv(self) -> dict[str, float]:
        """Topology-dependent timing summary (NOT shard-invariant)."""
        summary = self.response_us.summary()
        return {
            "wall clock (s)": self.wall_s,
            "simulated duration (µs)": self.simulated_us,
            "mean response (µs)": summary["mean"],
            "response std (µs)": summary["std"],
            "ops per wall second": (
                self.tally.operations / self.wall_s if self.wall_s > 0 else 0.0
            ),
        }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ShardTask:
    """Fully resolved work order for one shard — no registry lookups left."""

    spec: WorkloadSpec
    plan: ShardPlan
    backend: str
    access_pattern: str
    use_phase_model: bool
    sessions_per_user: int
    collect_ops: bool
    time_limit_us: float | None
    arrival_model: ArrivalModel | None = None
    window_us: float | None = None
    stream_path: str | None = None
    stream_budget_bytes: int = DEFAULT_MEMORY_BUDGET
    stream_metadata: "dict | None" = None
    metrics: bool = False
    progress: bool = False
    attempt: int = 1
    resume: bool = False
    checkpoint: bool = False
    heartbeat: bool = False
    faults: tuple = ()


def _resolve_arrivals(config: FleetConfig,
                      scenario_model: "ArrivalModel | None"):
    """The run's ``(arrival model, window)``, resolved in the coordinator.

    Precedence: an explicit ``config.arrival_model`` wins; otherwise an
    enabled run takes the scenario's model, falling back to
    ``DEFAULT_ARRIVALS``.  A ``config.profile`` name then overrides the
    model's profile.  The window defaults to one hour when arrivals are
    on and no explicit ``window_us`` is given.
    """
    model = config.arrival_model
    if model is None and config.arrivals_enabled:
        model = scenario_model or DEFAULT_ARRIVALS
    if model is not None and config.profile is not None:
        model = model.with_profile(get_profile(config.profile))
    window_us = config.window_us
    if window_us is None and model is not None:
        window_us = HOUR_US
    return model, window_us


def _resolve_run_inputs(config: FleetConfig):
    """Spec + execution options, resolved once in the coordinator."""
    if config.spec is not None:
        spec = config.spec
        pattern = config.access_pattern or "sequential"
        phases = bool(config.use_phase_model)
        sessions = config.sessions_per_user or 1
        scenario_model = None
    else:
        from ..scenarios import get_scenario  # deferred: scenarios import core

        scenario = get_scenario(config.scenario)
        spec = scenario.build(
            config.users, config.seed, total_files=config.total_files
        )
        pattern = config.access_pattern or scenario.access_pattern
        phases = (scenario.use_phase_model if config.use_phase_model is None
                  else config.use_phase_model)
        sessions = config.sessions_per_user or 1
        scenario_model = scenario.arrival_model
    model, window_us = _resolve_arrivals(config, scenario_model)
    return spec, pattern, phases, sessions, model, window_us


_PROGRESS_QUEUE = None
"""Worker-side progress channel, installed by the pool initializer.

Module-level because pool *tasks* must stay plain picklable data; the
queue rides into each worker once, at fork/spawn time."""


def _init_worker_progress(queue) -> None:
    """Pool initializer: give this worker the coordinator's queue."""
    global _PROGRESS_QUEUE
    _PROGRESS_QUEUE = queue


class _SkipSink:
    """Drop the first N op rows / M session records, forward the rest.

    The resume path regenerates the boundary user from scratch but has
    that user's prefix already salvaged on disk — the regenerated
    stream's first ``skip_rows`` rows and ``skip_sessions`` session
    records are exactly that prefix (generation is deterministic), so
    dropping them makes the continued stream pick up at the crash point.
    """

    def __init__(self, inner, skip_rows: int, skip_sessions: int):
        self.inner = inner
        self._rows = int(skip_rows)
        self._sessions = int(skip_sessions)

    def record_batch(self, batch) -> None:
        if self._rows > 0:
            n = len(batch)
            if n <= self._rows:
                self._rows -= n
                return
            batch = batch.select(slice(self._rows, n))
            self._rows = 0
        self.inner.record_batch(batch)

    def record_session(self, record) -> None:
        if self._sessions > 0:
            self._sessions -= 1
            return
        self.inner.record_session(record)


_GENERATOR_CACHE: "list[tuple[WorkloadSpec, WorkloadGenerator]]" = []
"""Per-process generator reuse: at most one ``(spec, generator)`` pair.

Module-level (like ``_PROGRESS_QUEUE``) because pool tasks must stay
plain data; the cache lives for the worker process and is keyed on the
spec *object*, so it only ever hits when one process executes several
shards of the same resolved run."""


def _shard_generator(spec: WorkloadSpec, backend: str) -> WorkloadGenerator:
    """The shard's :class:`WorkloadGenerator`, pooled per process.

    A process that executes several shards of one fleet run receives the
    identical resolved spec in every task; rebuilding the generator per
    shard repeats the GDS tabulation and — on the engine-free backends —
    the whole-population manifest redraw that
    :meth:`~repro.core.generator.WorkloadGenerator.run_simulated`
    memoizes.  Reuse is byte-identical for the engine-free backends:
    they never advance generator-held stream state across runs (the
    manifest is a pure function of the seed, and every user draw comes
    from a fresh ``user-{id}`` fork).  The DES backends *do* consume the
    stateful ``fsc`` stream each time they materialise a store, so they
    always get a fresh generator.
    """
    if backend not in FAST_BACKENDS:
        return WorkloadGenerator(spec)
    if _GENERATOR_CACHE and _GENERATOR_CACHE[0][0] is spec:
        return _GENERATOR_CACHE[0][1]
    generator = WorkloadGenerator(spec)
    _GENERATOR_CACHE[:] = [(spec, generator)]
    return generator


def _run_shard(task: _ShardTask) -> ShardOutcome:
    """Execute one shard (runs inside a worker process or in-process)."""
    plan = task.plan
    started = time.perf_counter()
    injector = build_injector(task.faults, plan.shard_index, task.attempt)
    observer = None
    if task.metrics or task.progress or task.heartbeat:
        sender = None
        if ((task.progress or task.heartbeat)
                and _PROGRESS_QUEUE is not None):
            sender = QueueProgressSender(plan.shard_index, _PROGRESS_QUEUE)
        observer = RunObserver(progress=sender)
    sink = ShardAccumulator(collect_ops=task.collect_ops,
                            window_us=task.window_us)
    log_sink = sink
    stream_sink = None
    salvaged = None
    flush_hook = injector.spill_hook if injector is not None else None
    if task.stream_path is not None:
        # Spill this shard's op stream to its own artifact file; the
        # coordinator merges shard files into the run-level artifact.
        # Metadata is run-level (identical across shards) so the merged
        # header is bit-identical to a 1-shard run's.
        if task.resume:
            stream_sink, salvaged = resume_stream_sink(
                task.stream_path,
                memory_budget_bytes=task.stream_budget_bytes,
                metadata=task.stream_metadata,
                observer=observer,
                checkpoint=task.checkpoint,
                flush_hook=flush_hook,
            )
        else:
            stream_sink = StreamFileSink(
                task.stream_path,
                memory_budget_bytes=task.stream_budget_bytes,
                metadata=task.stream_metadata,
                observer=observer,
                checkpoint=task.checkpoint,
                flush_hook=flush_hook,
            )
        if stream_sink is not None:
            log_sink = TeeSink(sink, stream_sink)
    prefix = None
    if salvaged is not None:
        # The salvaged chunks are already on disk — replay them into the
        # accumulator only.  The tally is an order-invariant exact sum,
        # so feeding the prefix first and the regenerated tail second
        # reproduces the uninterrupted aggregate exactly.
        prefix = salvaged.replay(sink)
    simulated_us = prefix.max_end_us if prefix is not None else 0.0
    if task.stream_path is not None and task.resume and stream_sink is None:
        # The artifact was already complete: nothing to regenerate.
        pass
    else:
        remaining = plan.user_ids
        if prefix is not None and prefix.last_user is not None:
            # Everything the crash lost belongs to the last salvaged
            # user or later (user-contiguous artifact + flush rule), so
            # regenerate from that boundary user and skip its salvaged
            # prefix.
            remaining = tuple(u for u in plan.user_ids
                              if u >= prefix.last_user)
            log_sink = _SkipSink(log_sink, prefix.last_user_rows,
                                 prefix.last_user_sessions)
        if injector is not None:
            log_sink = injector.wrap_sink(log_sink)
        generator = _shard_generator(task.spec, task.backend)
        try:
            result = generator.run_simulated(
                sessions_per_user=task.sessions_per_user,
                backend=task.backend,
                access_pattern=task.access_pattern,
                phase_model_factory=(PhaseModel if task.use_phase_model
                                     else None),
                time_limit_us=task.time_limit_us,
                user_ids=remaining,
                log=log_sink,
                arrivals=task.arrival_model,
                observer=observer,
            )
            if stream_sink is not None:
                stream_sink.close()
        except BaseException:
            if stream_sink is not None:
                # Crash semantics: leave whatever chunks are durable for
                # salvage, but never write a footer over a partial run.
                stream_sink.abort()
            raise
        simulated_us = max(simulated_us, result.simulated_duration_us)
    if injector is not None and task.stream_path is not None:
        injector.corrupt_artifact(task.stream_path)
    metrics = None
    if observer is not None:
        observer.metrics.gauge("shard.wall_s").set(
            time.perf_counter() - started)
        if observer.progress is not None:
            observer.progress.finish(
                observer.metrics.counter("users").value,
                observer.metrics.counter("ops").value,
            )
        if task.metrics:
            metrics = observer.snapshot()
    return ShardOutcome(
        shard_index=plan.shard_index,
        shard_seed=plan.shard_seed,
        user_ids=plan.user_ids,
        tally=sink.tally,
        response_us=sink.response_us,
        simulated_us=simulated_us,
        wall_s=time.perf_counter() - started,
        log=sink.log,
        metrics=metrics,
        attempt=task.attempt,
        reused_chunks=len(salvaged.index) if salvaged is not None else 0,
        reused_rows=salvaged.rows if salvaged is not None else 0,
    )


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


def _pool_context():
    """Prefer fork (fast, inherits sys.path); fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _verify_outcome(task: _ShardTask) -> str | None:
    """Coordinator-side acceptance check: CRC-walk the shard artifact."""
    if task.stream_path is None or not os.path.exists(task.stream_path):
        return None
    report = verify_stream(task.stream_path)
    if report.ok:
        return None
    # A condemned artifact must not survive: it carries a footer, so a
    # resumed retry would salvage it as "complete" and re-serve the
    # corruption instead of regenerating.
    try:
        os.unlink(task.stream_path)
    except OSError:
        pass
    return "; ".join(report.errors[:3]) or "stream artifact corrupt"


# ---------------------------------------------------------------------------
# Run records (checkpoint/resume)
# ---------------------------------------------------------------------------


def _build_run_record(config: FleetConfig, spec, pattern, phases, sessions,
                      model, window_us, stream_budget,
                      stream_metadata) -> dict:
    """The resolved run as plain data — everything a resume must match."""
    return {
        "format": RUN_RECORD_FORMAT,
        "version": RUN_RECORD_VERSION,
        "spec": spec_to_jsonable(spec),
        "spec_sha256": spec_fingerprint(spec),
        "scenario": config.scenario,
        "seed": config.root_seed,
        "users": spec.n_users,
        "shards": config.shards,
        "backend": config.backend,
        "access_pattern": pattern,
        "use_phase_model": phases,
        "sessions_per_user": sessions,
        "arrival_model": (arrival_model_to_jsonable(model)
                          if model is not None else None),
        "window_us": window_us,
        "collect_ops": config.collect_ops,
        "time_limit_us": config.time_limit_us,
        "out_stream": os.path.abspath(config.out_stream),
        "stream_budget_bytes": stream_budget,
        "stream_metadata": stream_metadata,
    }


_RUN_RECORD_FIELDS = {
    (dict,): ("spec", "stream_metadata"),
    (int,): ("shards", "sessions_per_user", "stream_budget_bytes"),
    (str,): ("backend", "access_pattern", "out_stream"),
    (bool,): ("use_phase_model", "collect_ops"),
    (dict, type(None)): ("arrival_model",),
    (int, float, type(None)): ("window_us", "time_limit_us"),
}
"""Every run-record field a resume reads, by the JSON types it may hold
(exact types: ``True`` is not a shard count)."""


def _load_run_record(run_dir: str) -> dict:
    """The run record of ``run_dir``, shape-checked: a hand-edited or
    damaged record fails with :class:`SpecError`, never a raw error."""
    path = os.path.join(run_dir, RUN_RECORD_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SpecError(
            f"cannot resume from {run_dir!r}: no readable run record "
            f"({exc})"
        ) from None
    if not isinstance(record, dict) or (
            record.get("format") != RUN_RECORD_FORMAT):
        raise SpecError(f"{path!r} is not a fleet run record")
    version = record.get("version")
    if type(version) is not int or version < 1:
        raise SpecError(f"{path!r} has a bad version field ({version!r})")
    if version > RUN_RECORD_VERSION:
        raise SpecError(
            f"{path!r} was written by a newer version ({version})"
        )
    for kinds, keys in _RUN_RECORD_FIELDS.items():
        for key in keys:
            if key not in record or type(record[key]) not in kinds:
                raise SpecError(
                    f"{path!r} is damaged: field {key!r} is "
                    f"{record.get(key, 'missing')!r}"
                )
    return record


_RESUME_MUST_MATCH = (
    "spec_sha256", "seed", "shards", "backend", "access_pattern",
    "use_phase_model", "sessions_per_user", "arrival_model", "window_us",
    "time_limit_us", "stream_budget_bytes",
)
"""Run-record fields that shape the artifact's bytes."""


def _validate_resume(record: dict, expected: dict) -> None:
    """Resuming must describe byte-for-byte the run that was recorded.

    ``expected`` is the record :func:`_build_run_record` would write for
    the resuming config.
    """
    for key in _RESUME_MUST_MATCH:
        have, want = record.get(key), expected[key]
        if have != want:
            raise SpecError(
                f"cannot resume: recorded {key} {have!r} does not match "
                f"this config's {want!r} — a resumed run must regenerate "
                "the exact same bytes"
            )


def resume_fleet_config(run_dir: str, *, workers: int | None = None,
                        progress: bool = False,
                        metrics_out: str | None = None,
                        max_retries: int = 2,
                        retry_backoff_s: float = 0.25,
                        shard_timeout_s: float | None = None,
                        allow_partial: bool = False,
                        keep_run_dir: bool = True,
                        faults: tuple = ()) -> FleetConfig:
    """Rebuild the :class:`FleetConfig` for ``fleet run --resume <dir>``.

    Everything that shapes the artifact's bytes (spec, seed, shards,
    backend, budget, execution options) comes from the run record and
    cannot be overridden; only mechanical knobs (workers, progress,
    retry policy, output of the manifest) are parameters.
    ``keep_run_dir`` defaults to True so a resume that fails again can
    itself be resumed.
    """
    record = _load_run_record(run_dir)
    spec = spec_from_jsonable(record["spec"])
    model = None
    if record["arrival_model"] is not None:
        try:
            model = arrival_model_from_jsonable(record["arrival_model"])
        except ArrivalError as exc:
            raise SpecError(f"run record in {run_dir!r}: {exc}") from None
    return FleetConfig(
        spec=spec,
        shards=record["shards"],
        workers=workers,
        sessions_per_user=record["sessions_per_user"],
        backend=record["backend"],
        collect_ops=record["collect_ops"],
        time_limit_us=record["time_limit_us"],
        access_pattern=record["access_pattern"],
        use_phase_model=record["use_phase_model"],
        arrival_model=model,
        window_us=record["window_us"],
        out_stream=record["out_stream"],
        stream_budget_bytes=record["stream_budget_bytes"],
        metrics_out=metrics_out,
        progress=progress,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
        shard_timeout_s=shard_timeout_s,
        faults=tuple(faults),
        resume_dir=run_dir,
        allow_partial=allow_partial,
        keep_run_dir=keep_run_dir,
    )


# ---------------------------------------------------------------------------
# The fleet run
# ---------------------------------------------------------------------------


def run_fleet(config: FleetConfig) -> FleetResult:
    """Run a sharded fleet under supervision and merge per-shard results.

    Raises :class:`~repro.core.spec.SpecError` for inconsistent configs,
    :class:`~repro.scenarios.ScenarioError` for unknown scenario names
    (both resolved eagerly, before any worker starts), and
    :class:`FleetPartialError` when shards were quarantined and
    ``allow_partial`` is off — the partial result (with its manifest
    already written) rides on the exception.
    """
    # Resolve the scenario/spec once, before spawning anything: workers
    # receive the built spec, never a registry name.
    spec, pattern, phases, sessions, model, window_us = _resolve_run_inputs(
        config
    )
    if config.spec is None and spec.n_users != config.users:
        raise SpecError(
            f"scenario {config.scenario!r} built {spec.n_users} users, "
            f"expected {config.users}"
        )
    plans = plan_shards(spec.n_users, config.shards, config.root_seed)
    workers = config.effective_workers()
    stream_budget = config.stream_budget_bytes or DEFAULT_MEMORY_BUDGET
    resumable = (config.out_stream is not None
                 and config.backend in FAST_BACKENDS)
    run_dir = config.run_dir
    shard_paths: list[str] = []
    stream_metadata = None
    resuming = False
    if config.out_stream is not None:
        # Run-level metadata only — anything shard-specific here would
        # make the merged artifact's header differ from a 1-shard run's.
        stream_metadata = {
            "tool": "repro-fleet",
            "scenario": config.scenario or "custom-spec",
            "backend": artifact_backend(config.backend),
            "seed": config.root_seed,
            "users": spec.n_users,
            "sessions_per_user": sessions,
            "access_pattern": pattern,
            "phases": phases,
            "arrivals": model is not None,
        }
        record = _build_run_record(config, spec, pattern, phases, sessions,
                                   model, window_us, stream_budget,
                                   stream_metadata)
        if config.resume_dir is not None:
            if (os.path.abspath(config.resume_dir)
                    != os.path.abspath(run_dir)):
                raise SpecError(
                    f"resume_dir {config.resume_dir!r} does not belong to "
                    f"out_stream {config.out_stream!r} (expected "
                    f"{run_dir!r})"
                )
            recorded = _load_run_record(run_dir)
            _validate_resume(recorded, record)
            # The recorded metadata is authoritative: headers of resumed
            # shard temps must match it byte for byte.
            stream_metadata = recorded["stream_metadata"]
            resuming = True
        else:
            if os.path.isdir(run_dir):
                shutil.rmtree(run_dir)  # stale leftovers from a dead run
            os.makedirs(run_dir, exist_ok=True)
            with open(os.path.join(run_dir, RUN_RECORD_NAME), "w",
                      encoding="utf-8") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")
        shard_paths = [
            os.path.join(run_dir, f"shard{plan.shard_index:04d}.opstream")
            for plan in plans
        ]
    tasks = [
        _ShardTask(
            spec=spec,
            plan=plan,
            backend=config.backend,
            access_pattern=pattern,
            use_phase_model=phases,
            sessions_per_user=sessions,
            collect_ops=config.collect_ops,
            time_limit_us=config.time_limit_us,
            arrival_model=model,
            window_us=window_us,
            stream_path=(shard_paths[plan.shard_index]
                         if shard_paths else None),
            stream_budget_bytes=stream_budget,
            stream_metadata=stream_metadata,
            metrics=config.metrics_out is not None,
            progress=config.progress,
            resume=resuming,
            checkpoint=resumable,
            heartbeat=config.shard_timeout_s is not None,
            faults=config.faults,
        )
        for plan in plans
    ]
    meter = None
    if config.progress:
        meter = ProgressMeter(
            total_users=sum(len(p.user_ids) for p in plans),
            label=f"fleet[{config.backend}]",
        )

    def _retask(task: _ShardTask, attempt: int) -> _ShardTask:
        """Stamp the attempt; retries of resumable shards salvage."""
        return replace(
            task,
            attempt=attempt,
            resume=task.resume or (attempt > 1 and task.checkpoint),
        )

    verifier = (_verify_outcome
                if config.faults and config.out_stream is not None else None)
    needs_isolation = any(f.needs_isolation for f in config.faults)
    supervised = (workers > 1 or needs_isolation
                  or config.shard_timeout_s is not None)

    started = time.perf_counter()
    complete = False
    try:
        # One retry policy either way: without a context the supervisor
        # executes every attempt in this process.
        report = ShardSupervisor(
            tasks,
            ctx=_pool_context() if supervised else None,
            run_shard=_run_shard,
            workers=workers,
            max_retries=config.max_retries,
            backoff_s=config.retry_backoff_s,
            timeout_s=config.shard_timeout_s,
            meter=meter,
            verify=verifier,
            retask=_retask,
            initializer=_init_worker_progress,
        ).run()
        # Outcomes arrive in shard order, quarantined indexes sorted.
        outcomes, quarantined = report.outcomes, report.quarantined
        retries, timeouts = report.retries, report.timeouts
        if meter is not None:
            meter.finish()
        if config.out_stream is not None and (
                not quarantined or config.allow_partial):
            done_paths = [shard_paths[o.shard_index] for o in outcomes]
            if done_paths:
                publish_metadata = stream_metadata
                if quarantined:
                    # A partial artifact must say so in its own header.
                    publish_metadata = dict(stream_metadata)
                    publish_metadata["partial"] = True
                    publish_metadata["quarantined_shards"] = list(quarantined)
                if len(shard_paths) == 1 and not quarantined:
                    os.replace(done_paths[0], config.out_stream)
                else:
                    # Streaming k-way merge by user id: holds one user's
                    # events per shard plus one chunk buffer, never the
                    # run.  The result is bit-identical to the artifact
                    # a 1-shard run writes (same events, same
                    # deterministic chunk boundaries); publication is an
                    # atomic rename, so out_stream never holds a
                    # half-written file.
                    merged_tmp = os.path.join(run_dir, "merged.opstream")
                    merge_stream_files(merged_tmp, done_paths,
                                       metadata=publish_metadata)
                    os.replace(merged_tmp, config.out_stream)
        complete = not quarantined
    finally:
        # Satellite of the supervision work: per-shard temps live in the
        # run directory and are swept on *every* exit path — success,
        # worker crash, merge failure, KeyboardInterrupt — except when
        # the caller asked to keep a failed run around to resume it.
        if run_dir is not None and not (config.keep_run_dir
                                        and not complete):
            shutil.rmtree(run_dir, ignore_errors=True)
    wall_s = time.perf_counter() - started

    merged_log = None
    if config.collect_ops:
        merged_log = UsageLog.merged(o.log for o in outcomes)
    reused_chunks = sum(o.reused_chunks for o in outcomes)
    reused_rows = sum(o.reused_rows for o in outcomes)
    merged_metrics = None
    if config.metrics_out is not None:
        parts = [o.metrics for o in outcomes if o.metrics is not None]
        # The coordinator contributes the recovery telemetry as one more
        # snapshot part; merge_snapshots sums it like any shard's.
        parts.append({
            "counters": {
                "fleet.retries": retries,
                "fleet.timeouts": timeouts,
                "fleet.quarantined_shards": len(quarantined),
                "fleet.resume.chunks_reused": reused_chunks,
                "fleet.resume.rows_reused": reused_rows,
            },
            "stages": {
                "recovery": {
                    "wall_s": report.recovery_wall_s, "cpu_s": 0.0,
                    "calls": int(retries), "rows": 0, "bytes": 0,
                },
            },
        })
        merged_metrics = merge_snapshots(parts)
    result = FleetResult(
        config=config,
        outcomes=outcomes,
        tally=WorkloadTally.merge_all(o.tally for o in outcomes),
        response_us=RunningStats.merge_all(o.response_us for o in outcomes),
        wall_s=wall_s,
        log=merged_log,
        plans=plans,
        out_stream=(config.out_stream if not quarantined
                    or config.allow_partial else None),
        metrics=merged_metrics,
        metrics_out=config.metrics_out,
        quarantined=tuple(quarantined),
        failures=tuple(report.failures),
        retries=retries,
        timeouts=timeouts,
        reused_chunks=reused_chunks,
        reused_rows=reused_rows,
        resumed=resuming,
    )
    if config.metrics_out is not None:
        manifest = build_manifest(
            merged_metrics,
            seed=config.root_seed,
            backend=config.backend,
            scenario=config.scenario or "custom-spec",
            spec=spec,
            n_users=spec.n_users,
            wall_s=wall_s,
            simulated_us=result.simulated_us,
            extra={
                "shards": config.shards,
                "workers": workers,
                "sessions_per_user": sessions,
                "access_pattern": pattern,
                "phases": phases,
                "arrivals": model is not None,
                "time_limit_us": config.time_limit_us,
                "out_stream": config.out_stream,
                "status": "partial" if quarantined else "complete",
                "quarantined_shards": list(quarantined),
                "retries": retries,
                "timeouts": timeouts,
                "max_retries": config.max_retries,
                "shard_timeout_s": config.shard_timeout_s,
                "resumed": resuming,
                "resume_chunks_reused": reused_chunks,
            },
        )
        write_manifest(config.metrics_out, manifest)
    if quarantined and not config.allow_partial:
        raise FleetPartialError(result)
    return result
