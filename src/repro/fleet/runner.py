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

Workers are handed plain picklable data: the resolved run (the built
:class:`~repro.core.spec.WorkloadSpec` plus every option that shapes
the output) and a :class:`~repro.fleet.sharding.ShardPlan`.
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
rename, never half-written.  The temps flush every chunk frame as it
is written, so on the engine-free backends a killed run can be
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
from dataclasses import dataclass, field, fields, replace

from ..core.arrivals import (
    HOUR_US,
    ArrivalError,
    ArrivalModel,
    arrival_model_from_jsonable,
    arrival_model_to_jsonable,
    get_profile,
    resolve_arrivals,
)
from ..core.generator import (
    FAST_BACKENDS,
    RUN_BACKENDS,
    WorkloadGenerator,
    artifact_backend,
)
from ..core.opbatch import flush_sink
from ..core.oplog import UsageLog
from ..core.spec import SpecError, WorkloadSpec
from ..core.specjson import spec_from_jsonable, spec_to_jsonable
from ..core.streamfile import (
    DEFAULT_MEMORY_BUDGET,
    StreamFileSink,
    TeeSink,
    merge_stream_files,
    resume_stream_sink,
    rows_per_chunk_for,
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
from ..obs.manifest import canonical_sha256
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
RUN_RECORD_VERSION = 3
"""3: runs end when their sessions end, so the record has no time limit;
2: the record carries a digest.  A record of any other version is refused."""


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

    Memory: ``stream_budget_bytes`` (default 64 MiB) belongs to the run,
    not to each shard — the merged artifact is chunked at it and the k
    shard temps spill at ``budget // k`` each, so each worker holds 1/k
    of it and the merge about 1-3 budgets of decoded rows whatever k is.

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
        for name, least in (("shards", 1), ("workers", 1),
                            ("sessions_per_user", 1),
                            ("stream_budget_bytes", 1), ("max_retries", 0),
                            ("retry_backoff_s", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise SpecError(f"{name} must be >= {least}, got {value}")
        for name in ("window_us", "shard_timeout_s"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise SpecError(f"{name} must be > 0, got {value}")
        if self.profile is not None:
            try:  # resolve eagerly: fail before any worker starts
                get_profile(self.profile)
            except ArrivalError as exc:
                raise SpecError(str(exc)) from None
        if self.stream_budget_bytes is not None and self.out_stream is None:
            raise SpecError("stream_budget_bytes needs out_stream to be set")
        if (self.out_stream is not None and self.shards > 1
                and self.backend not in FAST_BACKENDS):
            raise SpecError(
                "out_stream with shards > 1 needs an engine-free backend "
                f"({FAST_BACKENDS}): the streaming shard merge relies on "
                "user-contiguous artifacts, and the DES interleaves users "
                "on a shared clock"
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
                    f"({FAST_BACKENDS}): salvaged chunks are only "
                    "reusable when users are generated contiguously"
                )

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
# The resolved run
# ---------------------------------------------------------------------------


_JSON_KINDS = {
    "WorkloadSpec": (dict,), "ArrivalModel": (dict,), "str": (str,),
    "int": (int,), "float": (int, float), "bool": (bool,),
    "None": (type(None),),
}
"""The JSON types a run-record field may hold, by the parts of its
annotation (exact types: ``True`` is not a shard count)."""


@dataclass(frozen=True)
class _ResolvedRun:
    """Everything that shapes a fleet run's output, resolved once.

    ``run_fleet`` builds it from the :class:`FleetConfig` on a fresh run
    and from ``fleet-run.json`` on a resume, and every shard task
    carries it as its run-level half.  The fields are the run record's
    keys, their annotations the JSON types the loader accepts; the
    record's other keys (the spec fingerprint, seed, user count, stream
    metadata, format, version and digest) follow from the fields.  Every
    field is also a :class:`FleetConfig` field of the same name.
    """

    spec: WorkloadSpec
    scenario: str | None
    shards: int
    backend: str
    access_pattern: str
    use_phase_model: bool
    sessions_per_user: int
    arrival_model: ArrivalModel | None
    window_us: float | None
    collect_ops: bool
    out_stream: str | None
    stream_budget_bytes: int

    @classmethod
    def from_config(cls, config: FleetConfig) -> "_ResolvedRun":
        """Resolve a fresh run: scenario → spec, arrivals, defaults.

        The caller's spec object is carried as is: shard generators are
        pooled per spec *object* (:func:`_shard_generator`).
        """
        spec, pattern, phases, scenario_model = (
            config.spec, "sequential", False, None)
        if spec is None:
            from ..scenarios import get_scenario  # deferred: scenarios import core

            scenario = get_scenario(config.scenario)
            spec = scenario.build(config.users, config.seed,
                                  total_files=config.total_files)
            if spec.n_users != config.users:
                raise SpecError(
                    f"scenario {config.scenario!r} built {spec.n_users} "
                    f"users, expected {config.users}"
                )
            pattern, phases = scenario.access_pattern, scenario.use_phase_model
            scenario_model = scenario.arrival_model
        model = resolve_arrivals(config.use_arrivals, config.profile,
                                 model=config.arrival_model,
                                 default=scenario_model)
        return cls(**{
            **{f.name: getattr(config, f.name) for f in fields(cls)},
            "spec": spec,
            "access_pattern": config.access_pattern or pattern,
            "use_phase_model": (phases if config.use_phase_model is None
                                else config.use_phase_model),
            "sessions_per_user": config.sessions_per_user or 1,
            "arrival_model": model,
            # Arrivals on: bucket ops into one-hour windows by default.
            "window_us": config.window_us or (HOUR_US if model is not None
                                              else None),
            "out_stream": (os.path.abspath(config.out_stream)
                           if config.out_stream is not None else None),
            "stream_budget_bytes": (config.stream_budget_bytes
                                    or DEFAULT_MEMORY_BUDGET),
        })

    @classmethod
    def load(cls, run_dir: str) -> "_ResolvedRun":
        """The run recorded in ``run_dir``: a damaged, edited or older
        record fails with :class:`SpecError`, never a raw error."""
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
        if type(version) is not int or version != RUN_RECORD_VERSION:
            raise SpecError(
                f"{path!r} has version {version!r}, not {RUN_RECORD_VERSION}"
                " (a record from an older build describes a different run); "
                "rerun without --resume"
            )
        for f in fields(cls):
            kinds = [kind for part in f.type.split(" | ")
                     for kind in _JSON_KINDS[part]]
            if f.name not in record or type(record[f.name]) not in kinds:
                raise SpecError(
                    f"{path!r} is damaged: field {f.name!r} is "
                    f"{record.get(f.name, 'missing')!r}"
                )
        digest = record.pop("digest", None)  # sealing every other key
        if digest != canonical_sha256(record):
            raise SpecError(
                f"{path!r} does not match its digest: the record was "
                "edited after it was written; rerun without --resume"
            )
        values = {f.name: record[f.name] for f in fields(cls)}
        values["spec"] = spec_from_jsonable(record["spec"])
        if record["arrival_model"] is not None:
            try:
                values["arrival_model"] = arrival_model_from_jsonable(
                    record["arrival_model"])
            except ArrivalError as exc:
                raise SpecError(f"run record in {run_dir!r}: {exc}") from None
        return cls(**values)

    @property
    def shape(self) -> dict:
        """The run's shape as the stream header and the manifest state it."""
        return {
            "sessions_per_user": self.sessions_per_user,
            "access_pattern": self.access_pattern,
            "phases": self.use_phase_model,
            "arrivals": self.arrival_model is not None,
        }

    @property
    def stream_metadata(self) -> dict:
        """Run-level header metadata — anything shard-specific here would
        make the merged artifact's header differ from a 1-shard run's."""
        return {
            "tool": "repro-fleet",
            "scenario": self.scenario or "custom-spec",
            "backend": artifact_backend(self.backend),
            "seed": self.spec.seed,
            "users": self.spec.n_users,
            "spec_sha256": spec_fingerprint(self.spec),
            **self.shape,
        }

    def record(self) -> dict:
        """The run as ``fleet-run.json`` data, sealed by a digest."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record.update(
            format=RUN_RECORD_FORMAT,
            version=RUN_RECORD_VERSION,
            spec=spec_to_jsonable(self.spec),
            spec_sha256=spec_fingerprint(self.spec),
            seed=self.spec.seed,
            users=self.spec.n_users,
            arrival_model=(arrival_model_to_jsonable(self.arrival_model)
                           if self.arrival_model is not None else None),
            stream_metadata=self.stream_metadata,
        )
        record["digest"] = canonical_sha256(record)
        return record


_RESUME_MUST_MATCH = (
    "spec_sha256", "seed", "shards", "backend", "access_pattern",
    "use_phase_model", "sessions_per_user", "arrival_model", "window_us",
    "stream_budget_bytes",
)
"""Run-record keys that shape the artifact's bytes."""


def _validate_resume(recorded: _ResolvedRun, resolved: _ResolvedRun) -> None:
    """Resuming must describe byte-for-byte the run that was recorded."""
    have_all, want_all = recorded.record(), resolved.record()
    for key in _RESUME_MUST_MATCH:
        have, want = have_all[key], want_all[key]
        if have != want:
            raise SpecError(
                f"cannot resume: recorded {key} {have!r} does not match "
                f"this config's {want!r} — a resumed run must regenerate "
                "the exact same bytes"
            )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ShardTask:
    """One shard's work order: the resolved run plus per-shard and
    per-attempt data — no registry lookups left."""

    run: _ResolvedRun
    plan: ShardPlan
    stream_path: str | None = None
    metrics: bool = False
    progress: bool = False
    attempt: int = 1
    resume: bool = False
    heartbeat: bool = False
    faults: tuple = ()


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

    def flush(self) -> None:
        flush_sink(self.inner)


class _ResumeBoundary:
    """Forward a salvaged prefix's replay, noting where it ends.

    ``last_user``, with its op rows and sessions inside the prefix, is
    the resume boundary: in a user-contiguous artifact every event the
    crash lost belongs to that user or later ones, because chunk *i* is
    only written once a row of chunk *i + 1* has arrived — the last
    salvaged user's first row postdates every earlier user's entire
    event stream.  ``max_end_us`` is the prefix's latest end clock.
    """

    def __init__(self, inner):
        self.inner = inner
        self.max_end_us = 0.0
        self.last_user: int | None = None
        self.last_user_rows = self.last_user_sessions = 0

    def _reach(self, user: int, end_us: float) -> None:
        self.max_end_us = max(self.max_end_us, end_us)
        if self.last_user is None or user > self.last_user:
            self.last_user = user
            self.last_user_rows = self.last_user_sessions = 0

    def record_batch(self, batch) -> None:
        self.inner.record_batch(batch)
        self._reach(int(batch.user_ids[-1]),
                    float((batch.start_us + batch.response_us).max()))
        self.last_user_rows += int((batch.user_ids == self.last_user).sum())

    def record_session(self, record) -> None:
        self.inner.record_session(record)
        self._reach(int(record.user_id), float(record.end_us))
        if record.user_id == self.last_user:
            self.last_user_sessions += 1

    def flush(self) -> None:
        flush_sink(self.inner)


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
    run, plan = task.run, task.plan
    started = time.perf_counter()
    injector = build_injector(task.faults, plan.shard_index, task.attempt)
    observer = None
    if task.metrics or task.progress or task.heartbeat:
        sender = None
        if ((task.progress or task.heartbeat)
                and _PROGRESS_QUEUE is not None):
            sender = QueueProgressSender(plan.shard_index, _PROGRESS_QUEUE)
        observer = RunObserver(progress=sender)
    sink = ShardAccumulator(collect_ops=run.collect_ops,
                            window_us=run.window_us)
    log_sink = sink
    stream_sink = None
    salvaged = None
    flush_hook = injector.spill_hook if injector is not None else None
    if task.stream_path is not None:
        # Spill this shard's op stream to its own artifact file, at 1/k
        # of the run's budget; the coordinator merges shard files into
        # the run-level artifact.  Metadata is run-level (identical
        # across shards) so the merged header is bit-identical to a
        # 1-shard run's.
        options = dict(
            memory_budget_bytes=max(1, run.stream_budget_bytes // run.shards),
            metadata=run.stream_metadata,
            observer=observer,
            flush_hook=flush_hook,
            # Only a 1-shard temp is published as it is; the merge
            # decodes and re-encodes the others.
            raw_floats=run.shards > 1,
        )
        if task.resume:
            stream_sink, salvaged = resume_stream_sink(task.stream_path,
                                                       **options)
        else:
            stream_sink = StreamFileSink(task.stream_path, **options)
        if stream_sink is not None:
            log_sink = TeeSink(sink, stream_sink)
    prefix = None
    if salvaged is not None:
        # The salvaged chunks are already on disk — replay them into the
        # accumulator only.  The tally is an order-invariant exact sum,
        # so feeding the prefix first and the regenerated tail second
        # reproduces the uninterrupted aggregate exactly.
        prefix = _ResumeBoundary(sink)
        with salvaged:
            salvaged.replay(prefix)
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
        generator = _shard_generator(run.spec, run.backend)
        try:
            result = generator.run_simulated(
                sessions_per_user=run.sessions_per_user,
                backend=run.backend,
                access_pattern=run.access_pattern,
                phase_model_factory=(PhaseModel if run.use_phase_model
                                     else None),
                user_ids=remaining,
                log=log_sink,
                arrivals=run.arrival_model,
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
        user_ids=plan.user_ids,
        tally=sink.tally,
        response_us=sink.response_us,
        simulated_us=simulated_us,
        wall_s=time.perf_counter() - started,
        log=sink.log,
        metrics=metrics,
        attempt=task.attempt,
        reused_chunks=len(salvaged.chunk_index) if salvaged is not None else 0,
        reused_rows=salvaged.total_rows if salvaged is not None else 0,
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
    knobs = dict(locals())  # the mechanical keywords above, by name
    run = _ResolvedRun.load(knobs.pop("run_dir"))
    # The spec form of the recorded run: it resolves back to ``run``.
    return FleetConfig(**{f.name: getattr(run, f.name) for f in fields(run)
                          if f.name != "scenario"},
                       resume_dir=run_dir, **knobs)


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
    run = _ResolvedRun.from_config(config)
    plans = plan_shards(run.spec.n_users, run.shards)
    workers = config.effective_workers()
    run_dir = config.run_dir
    shard_paths: list[str] = []
    resuming = config.resume_dir is not None  # resume_dir implies run_dir
    if run_dir is not None:
        if resuming:
            if (os.path.abspath(config.resume_dir)
                    != os.path.abspath(run_dir)):
                raise SpecError(
                    f"resume_dir {config.resume_dir!r} does not belong to "
                    f"out_stream {config.out_stream!r} (expected "
                    f"{run_dir!r})"
                )
            recorded = _ResolvedRun.load(run_dir)
            _validate_resume(recorded, run)
            # The recorded run is authoritative: headers of resumed shard
            # temps must match its metadata byte for byte.
            run = recorded
        else:
            if os.path.isdir(run_dir):
                shutil.rmtree(run_dir)  # stale leftovers from a dead run
            os.makedirs(run_dir, exist_ok=True)
            with open(os.path.join(run_dir, RUN_RECORD_NAME), "w",
                      encoding="utf-8") as fh:
                json.dump(run.record(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        shard_paths = [
            os.path.join(run_dir, f"shard{plan.shard_index:04d}.opstream")
            for plan in plans
        ]
    tasks = [
        _ShardTask(
            run=run,
            plan=plan,
            stream_path=shard_paths[plan.shard_index] if shard_paths else None,
            metrics=config.metrics_out is not None,
            progress=config.progress,
            resume=resuming,
            heartbeat=config.shard_timeout_s is not None,
            faults=config.faults,
        )
        for plan in plans
    ]
    meter = (ProgressMeter(total_users=run.spec.n_users,
                           label=f"fleet[{run.backend}]")
             if config.progress else None)

    # Engine-free shard temps are user-contiguous: a retry salvages them.
    resumable = run_dir is not None and run.backend in FAST_BACKENDS

    def _retask(task: _ShardTask, attempt: int) -> _ShardTask:
        """Stamp the attempt; retries of resumable shards salvage."""
        return replace(
            task,
            attempt=attempt,
            resume=task.resume or (attempt > 1 and resumable),
        )

    verifier = (_verify_outcome
                if config.faults and config.out_stream is not None else None)
    supervised = (workers > 1 or config.shard_timeout_s is not None
                  or any(f.needs_isolation for f in config.faults))

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
                publish_metadata = run.stream_metadata
                if quarantined:
                    # A partial artifact must say so in its own header.
                    publish_metadata["partial"] = True
                    publish_metadata["quarantined_shards"] = list(quarantined)
                if len(shard_paths) == 1 and not quarantined:
                    os.replace(done_paths[0], config.out_stream)
                else:
                    # Streaming k-way merge by user id, re-chunked at the
                    # run's own chunk size: one decoded temp chunk per
                    # shard (1/k of the budget each) plus the writer's
                    # buffer, whatever k is — 5.5-6.0 MiB at 2-16 shards
                    # for a 2 MiB budget.  The result is bit-identical to
                    # the artifact a 1-shard run writes; publication is
                    # an atomic rename, so out_stream is never partial.
                    merged_tmp = os.path.join(run_dir, "merged.opstream")
                    merge_stream_files(
                        merged_tmp, done_paths, metadata=publish_metadata,
                        rows_per_chunk=rows_per_chunk_for(
                            run.stream_budget_bytes))
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
    if run.collect_ops:
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
            seed=run.spec.seed,
            backend=run.backend,
            scenario=run.scenario or "custom-spec",
            spec=run.spec,
            n_users=run.spec.n_users,
            wall_s=wall_s,
            simulated_us=result.simulated_us,
            extra={
                "shards": run.shards,
                "workers": workers,
                **run.shape,
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
