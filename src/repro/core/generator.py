"""The workload generator facade — Figure 4.1 as one object.

``WorkloadGenerator`` wires the three components exactly the way the
thesis's block diagram does:

1. the GDS (:class:`~repro.core.gds.DistributionSpecifier`) registers every
   file and usage distribution and produces CDF tables;
2. the FSC (:class:`~repro.core.fsc.FileSystemCreator`) creates the initial
   file system from the file-distribution tables;
3. the USIM — staged as *synthesize* then *execute*: a pure
   :class:`~repro.core.synthesis.SessionGenerator` draws file I/O
   operations from the usage-distribution tables, and an
   :class:`~repro.core.execution.ExecutionBackend` replays them — inside
   the discrete-event simulation (simulated SUN NFS, local-disk or
   AFS-like backends), through the engine-free analytic ``fast`` replay,
   or against a real directory.

Sampling in both the FSC and the USIM goes through the GDS's CDF tables —
not the parametric forms — matching the thesis's pipeline (and its
section 4.2 warning about table memory, which :meth:`memory_report`
surfaces).  Point-mass distributions are kept exact rather than tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from ..distributions import CdfTable, Constant, Distribution, RandomStreams
from ..obs.observer import NULL_OBSERVER
from ..nfs import (
    AfsLikeFileSystem,
    FileServer,
    LocalDiskFileSystem,
    NetworkLink,
    NfsClient,
    NfsTiming,
    SUN_NFS_TIMING,
)
from ..sim import Engine
from ..vfs import FileSystemAPI, LocalFileSystem, MemoryFileSystem
from .analyzer import UsageAnalyzer
from .arrivals import ArrivalModel
from .execution import (
    ColumnarReplayBackend,
    DesBackend,
    ExecutionBackend,
    UserSessions,
)
from .fsc import FileSystemCreator, FileSystemLayout
from .gds import DistributionSpecifier
from .opbatch import flush_sink
from .oplog import OpSink, UsageLog
from .spec import UserTypeSpec, WorkloadSpec
from .synthesis import (
    _SEAT_BLOCK_USERS,
    SessionGenerator,
    derive_user_seats,
    user_stream_family,
)
from .usim import RealRunner

__all__ = [
    "WorkloadGenerator",
    "RunResult",
    "SimulationHandle",
    "TableSampler",
    "SIM_BACKENDS",
    "FAST_BACKENDS",
    "RUN_BACKENDS",
    "artifact_backend",
]

SIM_BACKENDS = ("nfs", "local", "afs")
"""Discrete-event simulation backends (full queueing fidelity)."""

FAST_BACKENDS = ("fast", "fast-columnar")
"""The engine-free analytic replay: one executor
(:class:`~repro.core.execution.FastReplayBackend`), two spellings."""

RUN_BACKENDS = SIM_BACKENDS + FAST_BACKENDS
"""Everything :meth:`WorkloadGenerator.run_simulated` accepts: the DES
backends plus the engine-free analytic replay."""


def artifact_backend(backend: str) -> str:
    """The backend name a stream artifact's header records: the two
    engine-free spellings are one executor, so both record one name
    (the one existing artifacts carry) and a run is the same bytes under
    either.  Manifests and run records keep the spelling as given."""
    return "fast-columnar" if backend in FAST_BACKENDS else backend


class TableSampler:
    """A CDF-table-backed sampler with a ``Distribution``-like surface.

    Wraps a :class:`~repro.distributions.CdfTable` so the USIM and FSC can
    draw variates from GDS output while code that only inspects the mean
    keeps working.
    """

    def __init__(self, table: CdfTable, source: Distribution):
        self.table = table
        self.source = source

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Inverse-transform draw from the table."""
        return self.table.sample(rng, size)

    def mean(self) -> float:
        """Mean of the tabulated distribution."""
        return self.table.mean()

    def describe(self) -> str:
        """Summary mentioning both the table and its source."""
        return f"table({self.table.n_points}) of {self.source.describe()}"


@dataclass
class SimulationHandle:
    """Everything a simulated run is built from."""

    engine: Engine
    client: object
    server: FileServer
    network: NetworkLink | None
    store: MemoryFileSystem
    backend: str


@dataclass
class RunResult:
    """Outcome of one workload run."""

    spec: WorkloadSpec
    layout: FileSystemLayout
    log: UsageLog
    backend: str
    simulated_duration_us: float = 0.0
    handle: SimulationHandle | None = None

    @property
    def analyzer(self) -> UsageAnalyzer:
        """A fresh analyzer over this run's log and layout."""
        if not isinstance(self.log, UsageLog):
            raise TypeError(
                f"this run recorded into a {type(self.log).__name__}, not a "
                "UsageLog; the analyzer needs the full operation record "
                "(run without a custom log sink, or with collect_ops=True)"
            )
        return UsageAnalyzer(self.log, self.layout)


class WorkloadGenerator:
    """GDS → FSC → USIM, wired per Figure 4.1."""

    def __init__(self, spec: WorkloadSpec, table_points: int = 257):
        self.spec = spec
        self.gds = DistributionSpecifier(table_points=table_points)
        self.streams = RandomStreams(spec.seed)
        self._register_distributions()
        self._tabulated_types: list[UserTypeSpec] | None = None
        self._tabulated_by_name: dict[str, UserTypeSpec] | None = None
        self._assignment: list[UserTypeSpec] | None = None
        self._manifest_layout: FileSystemLayout | None = None

    # -- GDS wiring -------------------------------------------------------------

    def _register_distributions(self) -> None:
        for cat_spec in self.spec.file_categories:
            self.gds.specify(
                f"file-size:{cat_spec.category.key}",
                cat_spec.size_distribution,
            )
        for user_type in self.spec.user_types:
            prefix = f"user:{user_type.name}"
            self.gds.specify(f"{prefix}:think-time", user_type.think_time)
            self.gds.specify(f"{prefix}:access-size", user_type.access_size)
            for usage in user_type.usage:
                key = usage.category.key
                self.gds.specify(f"{prefix}:apb:{key}", usage.access_per_byte)
                self.gds.specify(f"{prefix}:files:{key}", usage.file_count)
                self.gds.specify(f"{prefix}:size:{key}", usage.file_size)

    def _as_sampler(self, name: str):
        """Table-backed sampler; point masses stay exact."""
        dist = self.gds.get(name)
        if isinstance(dist, Constant):
            return dist
        return TableSampler(self.gds.table(name), dist)

    def _tabulate_user_types(self) -> list[UserTypeSpec]:
        """User types whose distributions sample from GDS CDF tables."""
        if self._tabulated_types is None:
            rebuilt = []
            for user_type in self.spec.user_types:
                prefix = f"user:{user_type.name}"
                usage = tuple(
                    replace(
                        u,
                        access_per_byte=self._as_sampler(
                            f"{prefix}:apb:{u.category.key}"),
                        file_count=self._as_sampler(
                            f"{prefix}:files:{u.category.key}"),
                        file_size=self._as_sampler(
                            f"{prefix}:size:{u.category.key}"),
                    )
                    for u in user_type.usage
                )
                rebuilt.append(
                    replace(
                        user_type,
                        usage=usage,
                        think_time=self._as_sampler(f"{prefix}:think-time"),
                        access_size=self._as_sampler(f"{prefix}:access-size"),
                    )
                )
            self._tabulated_types = rebuilt
        return self._tabulated_types

    def _tabulated_by_type_name(self) -> dict[str, UserTypeSpec]:
        """Memoized name → tabulated-type lookup (hot in fleet shards)."""
        if self._tabulated_by_name is None:
            self._tabulated_by_name = {
                t.name: t for t in self._tabulate_user_types()
            }
        return self._tabulated_by_name

    def _assigned_user_types(self) -> list[UserTypeSpec]:
        """Memoized :meth:`WorkloadSpec.assign_user_types`.

        The assignment is a deterministic largest-remainder apportionment
        — a pure function of the spec — so repeated
        ``run_simulated``/fleet-shard calls on one generator can reuse
        it instead of recomputing the whole population's types each
        time.
        """
        if self._assignment is None:
            self._assignment = self.spec.assign_user_types()
        return self._assignment

    def memory_report(self) -> dict[str, int]:
        """CDF-table footprint (the section 4.2 growth concern)."""
        return self.gds.memory_report()

    # -- FSC -----------------------------------------------------------------------

    def create_file_system(
        self, fs: FileSystemAPI,
        materialize_users: "set[int] | None" = None,
        materialize_shared: bool = True,
    ) -> FileSystemLayout:
        """Run the FSC against ``fs`` using GDS file-size tables.

        ``materialize_users`` / ``materialize_shared`` are forwarded to
        :meth:`~repro.core.fsc.FileSystemCreator.create`: the manifest
        always covers the whole population, but files are only
        physically created for the given users (and, for the engine-free
        backends, not at all).
        """
        samplers = {
            cat_spec.category.key: self._as_sampler(
                f"file-size:{cat_spec.category.key}")
            for cat_spec in self.spec.file_categories
        }
        creator = FileSystemCreator(
            self.spec, streams=self.streams, size_samplers=samplers
        )
        return creator.create(fs, materialize_users=materialize_users,
                              materialize_shared=materialize_shared)

    def manifest(self) -> FileSystemLayout:
        """The FSC manifest with no file created, which the engine-free
        backends run against: the same sizes as a materialised build.
        Memoized, as a pure function of the spec's seed."""
        if self._manifest_layout is None:
            self._manifest_layout = self.create_file_system(
                MemoryFileSystem(), materialize_users=set(),
                materialize_shared=False,
            )
        return self._manifest_layout

    # -- USIM, simulated ---------------------------------------------------------------

    def build_simulation(self, backend: str = "nfs",
                         timing: NfsTiming | None = None) -> SimulationHandle:
        """Construct engine + server + network + client for a DES backend."""
        if backend not in SIM_BACKENDS:
            raise ValueError(
                f"backend must be one of {SIM_BACKENDS}, got {backend!r}"
            )
        engine = Engine()
        timing = timing or SUN_NFS_TIMING
        if backend == "local":
            client = LocalDiskFileSystem(engine, timing=timing)
            return SimulationHandle(
                engine=engine, client=client, server=client.server,
                network=None, store=client.server.store, backend=backend,
            )
        server = FileServer(engine, timing)
        network = NetworkLink(engine, timing.network)
        if backend == "nfs":
            client: object = NfsClient(engine, server, network, timing)
        else:
            client = AfsLikeFileSystem(engine, server, network, timing)
        return SimulationHandle(
            engine=engine, client=client, server=server, network=network,
            store=server.store, backend=backend,
        )

    # -- the staged pipeline -----------------------------------------------------------

    def plan_users(
        self, user_ids: Iterable[int] | None = None
    ) -> tuple[list[UserTypeSpec], list[int]]:
        """Stage 1 (plan): the population's type assignment and selection.

        Returns ``(assignment, selected)`` where ``assignment[u]`` is
        user ``u``'s type for the *whole* population and ``selected`` is
        the sorted subset of user ids this run will execute (everyone
        when ``user_ids`` is None — the fleet layer passes shards).
        """
        assignment = self._assigned_user_types()
        if user_ids is None:
            selected = list(range(len(assignment)))
        else:
            selected = sorted(set(int(u) for u in user_ids))
            bad = [u for u in selected if not (0 <= u < len(assignment))]
            if bad:
                raise ValueError(
                    f"user_ids outside [0, {len(assignment)}): {bad}"
                )
        return assignment, selected

    def iter_synthesized_users(
        self,
        layout: FileSystemLayout,
        selected: Iterable[int],
        assignment: "list[UserTypeSpec] | None" = None,
        access_pattern: str = "sequential",
        phase_model_factory=None,
        reuse_kernels: bool = False,
    ) -> Iterator[SessionGenerator]:
        """Stage 2 (synthesize), lazily: generators yielded one at a time.

        Each user's :class:`~repro.core.synthesis.SessionGenerator`
        carries its own batched samplers and forked random streams, so a
        million-user population must not hold them all at once.  Because
        synthesis is a pure function of ``(root seed, user id)``, the
        order and content of every draw is identical whether generators
        are built eagerly or on demand — the engine-free executor
        consumes this iterator directly and stays flat in memory.

        ``reuse_kernels=True`` pools one kernel per user type and
        rebinds it to each successive user
        (:meth:`~repro.core.synthesis.SessionGenerator.rebind_user`):
        the precomputed per-category sampler tuples, chunk buffers and
        think/slot samplers are reset, not reconstructed, which removes
        most of the per-user setup cost.  A rebound kernel draws
        byte-identical streams (each user's randomness comes only from
        its own ``user-{id}`` fork), but the *same object* is yielded
        every time — callers must fully consume one user before
        advancing, which the engine-free executor does; the DES
        materialises all users at once and must leave this False.

        Either way the users' random-stream states are derived a block
        of users ahead, one vectorised call per user type in the block
        (:func:`~repro.core.synthesis.derive_user_seats`), and handed to
        the kernel to seat.
        """
        if assignment is None:
            assignment = self._assigned_user_types()
        tabulated = self._tabulated_by_type_name()
        families = {name: user_stream_family(user_type)
                    for name, user_type in tabulated.items()}
        kernels: dict[str, SessionGenerator] = {}
        upcoming = iter(selected)
        while block := list(islice(upcoming, _SEAT_BLOCK_USERS)):
            type_names = [assignment[user_id].name for user_id in block]
            by_type: dict[str, list[int]] = {}
            for user_id, type_name in zip(block, type_names):
                by_type.setdefault(type_name, []).append(user_id)
            seats = {}
            for type_name, user_ids in by_type.items():
                seats.update(zip(user_ids, derive_user_seats(
                    self.streams, families[type_name], user_ids)))
            for user_id, type_name in zip(block, type_names):
                phase = phase_model_factory() if phase_model_factory else None
                kernel = kernels.get(type_name) if reuse_kernels else None
                if kernel is None:
                    kernel = SessionGenerator(
                        tabulated[type_name],
                        layout,
                        self.streams,
                        user_id=user_id,
                        access_pattern=access_pattern,
                        phase_model=phase,
                        seats=seats[user_id],
                    )
                    if reuse_kernels:
                        kernels[type_name] = kernel
                else:
                    kernel.rebind_user(user_id, phase_model=phase,
                                       seats=seats[user_id])
                yield kernel

    def run_simulated(
        self,
        sessions_per_user: int = 1,
        backend: str = "nfs",
        timing: NfsTiming | None = None,
        access_pattern: str = "sequential",
        phase_model_factory=None,
        user_ids: Iterable[int] | None = None,
        log: OpSink | None = None,
        arrivals: ArrivalModel | None = None,
        observer=None,
    ) -> RunResult:
        """Full experiment: plan, synthesize, then execute on a backend.

        The file system is created on the backend's store *before* time
        starts (setup is not part of the measured workload, exactly as the
        thesis separates FSC from USIM).  Every virtual user runs
        ``sessions_per_user`` login sessions to completion.

        ``backend`` selects the execution stage: ``nfs``/``local``/``afs``
        run the discrete-event simulation (shared resources, queueing,
        full timing fidelity); ``fast`` replays the identical op stream
        through :class:`~repro.core.execution.FastReplayBackend`,
        charging analytic mean service times with no engine — tens of
        times the ops/s when only the workload *content* matters.
        ``fast-columnar`` is the same executor under its older name;
        :attr:`RunResult.backend` echoes the spelling given.

        ``user_ids`` restricts the run to a subset of the population (the
        fleet layer's shards).  Each selected user keeps the identity —
        type assignment, home directory, random streams — it would have
        in the full run, and only the selected users' files are
        materialised on the backend store.  ``log`` lets the caller
        supply the :class:`~repro.core.oplog.OpSink` records go to; note
        :attr:`RunResult.analyzer` needs a real ``UsageLog``.

        ``arrivals`` attaches a temporal load model: each user's
        first-login offset and inter-session gaps are resolved up front
        (one :class:`~repro.core.arrivals.SessionSchedule` per user,
        from the user's own named streams) and handed to the backend —
        the DES delays the user process, the engine-free executor seeds
        the user's clock.  The op stream is byte-identical with or without
        arrivals; only the timeline moves.

        ``observer`` attaches a :class:`~repro.obs.RunObserver`: stage
        spans around plan/synthesize/execute, an instrumented
        pass-through in front of ``log``, and live progress ticks.  The
        observer only *reads* the event stream — it consumes no
        randomness and alters no recorded byte, so an observed run's op
        stream is identical to an unobserved one.  When None (the
        default) the shared no-op singleton is used and the pipeline
        runs exactly the uninstrumented code paths.
        """
        if sessions_per_user < 1:
            raise ValueError("sessions_per_user must be >= 1")
        if backend not in RUN_BACKENDS:
            raise ValueError(
                f"backend must be one of {RUN_BACKENDS}, got {backend!r}"
            )
        obs = observer if observer is not None else NULL_OBSERVER
        handle = None
        executor: ExecutionBackend
        engine_free = backend in FAST_BACKENDS
        with obs.stage("plan"):
            assignment, selected = self.plan_users(user_ids)
            if engine_free:
                layout = self.manifest()
                executor = ColumnarReplayBackend(timing)
            else:
                handle = self.build_simulation(backend, timing)
                layout = self.create_file_system(
                    handle.store,
                    materialize_users=(None if user_ids is None
                                       else set(selected)),
                )
                executor = DesBackend(handle.engine, handle.client)
        if log is None:
            log = UsageLog()
        tasks = (
            UserSessions(
                g, sessions_per_user,
                schedule=(arrivals.schedule(self.streams, g.user_id,
                                            sessions_per_user)
                          if arrivals is not None else None),
            )
            # The "synthesize" span times generator *construction*; the
            # sessions themselves are drawn lazily while the executor
            # runs, so their sampling cost lands in "execute".
            for g in obs.timed_iter(
                "synthesize",
                self.iter_synthesized_users(
                    layout, selected, assignment,
                    access_pattern=access_pattern,
                    phase_model_factory=phase_model_factory,
                    # The engine-free executor drains one user fully
                    # before pulling the next, so a per-type kernel can
                    # be rebound instead of rebuilt, and it never holds
                    # more than a block of users (flat memory at a
                    # million users).  The DES spawns every user before
                    # its clock starts and needs distinct generators.
                    reuse_kernels=engine_free,
                ),
                tick_users=True,
            )
        )
        sink = obs.wrap_sink(log)
        with obs.stage("execute"):
            duration_us = executor.execute(tasks, sink)
        # The stream has ended: bulk-folding sinks (and the observer's
        # accounting) are complete the moment this run returns.
        flush_sink(sink)
        return RunResult(
            spec=self.spec,
            layout=layout,
            log=log,
            backend=backend,
            simulated_duration_us=duration_us,
            handle=handle,
        )

    # -- USIM, real --------------------------------------------------------------------

    def run_real(
        self,
        fs: FileSystemAPI | str,
        sessions_per_user: int = 1,
        sleep_thinks: bool = False,
        access_pattern: str = "sequential",
    ) -> RunResult:
        """Drive a real ``FileSystemAPI`` (or a directory path) directly.

        Users run one after another (a single workstation replaying
        sessions); response times are wall-clock microseconds.
        """
        if sessions_per_user < 1:
            raise ValueError("sessions_per_user must be >= 1")
        if isinstance(fs, str):
            fs = LocalFileSystem(fs)
        layout = self.create_file_system(fs)
        log = UsageLog()
        for generator in self.iter_synthesized_users(
                layout, range(self.spec.n_users),
                access_pattern=access_pattern):
            RealRunner(fs, generator, log,
                       sleep_thinks=sleep_thinks).run_sessions(
                sessions_per_user
            )
        return RunResult(
            spec=self.spec, layout=layout, log=log, backend="real"
        )
