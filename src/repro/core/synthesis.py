"""Pure operation synthesis — the *what* of the workload, with no timing.

Section 4.1.3's USIM repeatedly selects "a file access operation to be
performed, the file on which to perform the operation, the amount of this
file to access, and the time delay to the next operation".  This module
implements exactly that selection as a pure, deterministic function of
``(root seed, user id)`` — stage two of the generation pipeline:

1. **plan** — :meth:`~repro.core.generator.WorkloadGenerator` assigns
   user types and builds the FSC layout manifest;
2. **synthesize** (this module) — :class:`SessionGenerator` turns a user
   type's usage distributions into a stream of :class:`SessionOp`
   system-call operations for each login session;
3. **execute** — an :class:`~repro.core.execution.ExecutionBackend`
   replays the stream and attaches timing (discrete-event simulation,
   analytic fast replay, or a real file system).

Nothing here imports the simulator: the op stream exists independently of
how (or whether) it is timed, which is what lets the engine-free
executor skip the DES entirely while producing a byte-identical stream.

Sampling is *batched*: every per-quantity random stream is wrapped in a
:class:`~repro.distributions.batch.BatchSampler` that pre-draws blocks of
variates with one vectorized call instead of paying NumPy's scalar-call
overhead per operation.

There is one plan builder: :meth:`SessionGenerator.append_user` walks a
user's sessions in passes — the selection walk, one draw per stream per
entry, one chunk-cut loop (``bisect`` over each refill's prefix sums) —
and records the plans as lists in a :class:`BlockColumns`, whose
:meth:`~BlockColumns.assemble` lays out the block's rows once, as one
:class:`~repro.core.opbatch.OpBatch`.  The engine-free executor consumes
those batches whole; the DES user process and ``RealRunner`` issue one
call at a time and read the same batch op by op through
:meth:`SessionGenerator.generate_session`.  The scalar builder this
replaced is the test reference (``tests/core/reference_scalar.py``).

Extensions beyond the thesis's minimum (its section 6.2 future work):

* ``access_pattern="random"`` switches the per-file access from purely
  sequential to uniform random offsets (the database-style behaviour the
  thesis flags as unsupported);
* :class:`PhaseModel` gives a user time-varying behaviour via a two-state
  Markov chain (I/O-bound vs CPU-bound think-time multipliers).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from ..distributions import (
    BatchSampler,
    PooledStream,
    RandomStreams,
    StreamFamily,
    Uniform,
)
from ..vfs import OpenFlags
from .fsc import FileSystemLayout
from .opbatch import (
    KIND_CLOSE,
    KIND_CREAT,
    KIND_LISTDIR,
    KIND_LSEEK,
    KIND_OPEN,
    KIND_READ,
    KIND_STAT,
    KIND_UNLINK,
    KIND_WRITE,
    OpBatch,
    SessionOp,
    StringTable,
)
from .spec import UsageSpec, UserTypeSpec, UseType

__all__ = [
    "SessionOp",
    "PhaseModel",
    "SessionGenerator",
]

# int64 cannot hold every Python int a pathological (but finite) draw
# could produce; the size and think columns saturate instead of
# wrapping.  Real specs live many orders of magnitude below this.
_INT64_SATURATE = float(2**63 - 1024)

# Max chunk variates sanitised per cumsum pass (random mode's slabs).
_CHUNK_SLAB = 64

# Chunk variates one refill draws: the user's remaining demand in
# chunks, estimated from its bytes, segments and the mean chunk, so one
# refill usually covers the user.  The floor keeps a short estimate from
# costing a run of tiny refills; the cap bounds a refill's tape and
# prefix list whatever the demand.
_CHUNK_REFILL_MIN = 16
_CHUNK_REFILL_CAP = 4096

# Float prefix sums are exact below this; a refill summing past it cuts
# on Python ints instead.
_EXACT_FLOAT = float(2**53)

_INF = float("inf")

_CREAT_FLAGS = int(OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC)

# Users per block — whose stream states are derived per vectorised call
# and whose sessions the columnar executor assembles per array pass:
# enough that either fixed cost is ~1 us a user, few enough that the
# seats (users x ~34 streams x two 128-bit ints) stay under a MiB.
_SEAT_BLOCK_USERS = 128

_UNIT = Uniform(0.0, 1.0)


class PhaseModel:
    """Two-state Markov modulation of think time (section 6.2 extension).

    State ``io`` uses the base think-time distribution; state ``cpu``
    multiplies it by ``cpu_multiplier`` (the user is computing, not doing
    I/O).  Transition probabilities are per-operation.
    """

    def __init__(self, cpu_multiplier: float = 8.0,
                 p_enter_cpu: float = 0.05, p_exit_cpu: float = 0.3):
        if cpu_multiplier < 0:
            raise ValueError("cpu_multiplier must be >= 0")
        for name, p in (("p_enter_cpu", p_enter_cpu), ("p_exit_cpu", p_exit_cpu)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be a probability")
        self.cpu_multiplier = cpu_multiplier
        self.p_enter_cpu = p_enter_cpu
        self.p_exit_cpu = p_exit_cpu
        self.state = "io"

    def step(self, u: float) -> float:
        """Advance the chain one step on uniform draw ``u``; return the
        current think-time multiplier."""
        if self.state == "io":
            if u < self.p_enter_cpu:
                self.state = "cpu"
        else:
            if u < self.p_exit_cpu:
                self.state = "io"
        return self.cpu_multiplier if self.state == "cpu" else 1.0

    def multiplier(self, rng) -> float:
        """Advance the chain one step drawing from ``rng`` directly."""
        return self.step(float(rng.random()))

    def step_many(self, us: np.ndarray) -> np.ndarray:
        """Advance the chain once per element of ``us``; return the
        multiplier sequence.  Equivalent to ``[self.step(u) for u in us]``
        (the chain is a sequential recurrence, so this stays a loop — but
        one over a pre-drawn array, matching the columnar think path)."""
        out = np.empty(len(us), dtype=np.float64)
        cpu = self.state == "cpu"
        p_enter, p_exit = self.p_enter_cpu, self.p_exit_cpu
        multiplier = self.cpu_multiplier
        for i, u in enumerate(us.tolist()):
            if cpu:
                if u < p_exit:
                    cpu = False
            elif u < p_enter:
                cpu = True
            out[i] = multiplier if cpu else 1.0
        self.state = "cpu" if cpu else "io"
        return out


def user_stream_family(user_type: UserTypeSpec) -> StreamFamily:
    """Every stream a user of ``user_type`` can draw from its
    ``user-{id}`` fork: the kernel's fixed names plus a count/budget/size
    triple per usage entry.  ``seek`` and ``phase`` are always members —
    a stream nobody draws is seated and never installed, which costs
    less than a name list that varies with the run's options."""
    return StreamFamily([
        "select", "slot", "chunk", "think", "write-mix", "seek", "phase",
        *(name for usage in user_type.usage for name in (
            f"count:{usage.category.key}",
            f"apb:{usage.category.key}",
            f"size:{usage.category.key}",
        )),
    ])


def derive_user_seats(streams: RandomStreams, family: StreamFamily,
                      user_ids: Sequence[int],
                      ) -> list[list[tuple[int, int]]]:
    """Per user, the seat of every ``family`` stream in its
    ``user-{id}`` fork — what :meth:`SessionGenerator.rebind_user`
    installs.  One vectorised derivation for the whole of ``user_ids``."""
    return family.states(streams, [f"user-{user_id}" for user_id in user_ids])


@dataclass(frozen=True)
class _UsageSamplers:
    """The batched per-usage-entry samplers (one set per file category).

    Alongside the samplers, the per-entry *constants* the plan walk
    needs (category key, plan shape, head-row flags, write fraction,
    ...) are precomputed once per kernel instead of re-derived per
    plan.  The object is pooled: :meth:`SessionGenerator.rebind_user`
    rebinds the inner samplers to a new user's streams in place.
    """

    usage: UsageSpec
    file_count: BatchSampler
    access_per_byte: BatchSampler
    file_size: BatchSampler
    key: str
    fraction: float
    creates: bool
    shape: int
    flag: int
    prefix: str
    write_fraction: float


# Plan shapes.  Every plan of a fire (one usage entry firing in one
# session) shares its entry's shape, category and head-row flags.
_EXISTING, _NEW, _TEMP, _DIR = 0, 1, 2, 3
_HEAD_KIND = np.array([KIND_OPEN, KIND_CREAT, KIND_CREAT, KIND_STAT],
                      dtype=np.int8)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for each pair, concatenated."""
    ends = np.cumsum(counts)
    return (np.arange(int(ends[-1]) if len(ends) else 0)
            + np.repeat(starts - (ends - counts), counts))


class BlockColumns:
    """A block of users' plans, kept as lists and laid out once.

    :meth:`SessionGenerator.append_user` records each user's plans in
    plain lists, in plan order: per *fire* (one usage entry firing in
    one session) its plan count, shape, category, head-row flags and
    first plan id; per plan its first row, row count, head size and
    path; per chunk *piece* — a run of chunks cut from the block's
    chunk tape — its first row, first tape index, row count, last
    row's (possibly truncated) size and write fraction; per random
    slab its rows' seek offsets and sizes.  It also appends the
    interleave permutation and its write-mix and think draws.

    :meth:`assemble` then lays out every row of the block with array
    passes: head, close, unlink and listdir rows by index, piece rows
    as one gather from the tape, the write mix over the read rows, the
    rest (the lseek rows that separate passes over a file) as the
    default.  So a block costs O(plans + pieces) small Python appends
    plus O(rows) vectorised writes, and the per-call NumPy overhead is
    paid per block, not per user.
    """

    __slots__ = (
        "paths", "categories", "user_types", "total", "tape", "tape_len",
        "fire_plans", "fire_shape", "fire_cat", "fire_flag", "fire_id0",
        "lengths", "offsets", "head_sizes", "plan_paths",
        "piece_row", "piece_tape", "piece_take", "piece_last", "piece_wf",
        "slab_row", "slab_take", "slab_wf", "slab_seeks", "slab_sizes",
        "order", "bounds", "sess_user", "sess_id", "sess_type",
        "mix_draws", "think_raw",
    )

    def __init__(self):
        self.paths = StringTable()
        self.categories = StringTable()
        self.user_types = StringTable()
        self.total = 0
        self.tape: list[np.ndarray] = []  # sanitised chunk refills
        self.tape_len = 0
        self.fire_plans: list[int] = []
        self.fire_shape: list[int] = []
        self.fire_cat: list[int] = []
        self.fire_flag: list[int] = []
        self.fire_id0: list[int] = []   # plan counter before the fire
        self.lengths: list[int] = []
        self.offsets: list[int] = []    # first (pre-interleave) row per plan
        self.head_sizes: list = []
        # Paths are interned in one StringTable.intern_many call at
        # assembly time.
        self.plan_paths: list[str] = []
        self.piece_row: list[int] = []
        self.piece_tape: list[int] = []
        self.piece_take: list[int] = []
        self.piece_last: list = []
        self.piece_wf: list[float] = []  # -1.0: a write-out piece
        self.slab_row: list[int] = []
        self.slab_take: list[int] = []
        self.slab_wf: list[float] = []
        self.slab_seeks: list[np.ndarray] = []
        self.slab_sizes: list[np.ndarray] = []
        self.order: list[int] = []       # interleaved row → plan-order row
        # Session s occupies rows [bounds[s], bounds[s + 1]); sessions
        # (and so users) are contiguous and in append order.
        self.bounds: list[int] = [0]
        self.sess_user: list[int] = []
        self.sess_id: list[int] = []
        self.sess_type: list[int] = []
        # Per user, in append order: the write-mix and (phase-scaled)
        # think variates it drew, concatenated once at assembly.
        self.mix_draws: list[np.ndarray] = []
        self.think_raw: list[np.ndarray] = []

    def assemble(self) -> OpBatch:
        """Every appended user's sessions as one :class:`OpBatch`.

        Rows are in interleaved order, users and sessions contiguous
        (:attr:`bounds`); timing columns are zero.  Every array pass
        here runs once for the block, whatever its user count.
        """
        n = self.total
        kinds = np.full(n, KIND_LSEEK, dtype=np.int8)
        sizes = np.zeros(n, dtype=np.float64)
        write_fraction = np.full(n, -1.0)  # >= 0 on the write-mix rows
        fire_plans = np.asarray(self.fire_plans, dtype=np.int64)
        shapes = np.repeat(np.asarray(self.fire_shape, dtype=np.int8),
                           fire_plans)
        plan_ids = _ranges(np.asarray(self.fire_id0, dtype=np.int64) + 1,
                           fire_plans)
        heads = np.asarray(self.offsets, dtype=np.int64)
        lengths = np.asarray(self.lengths, dtype=np.int64)
        path_ids = self.paths.intern_many(self.plan_paths)
        kinds[heads] = _HEAD_KIND[shapes]
        sizes[heads] = self.head_sizes
        flags_col = np.zeros(n, dtype=np.int16)
        flags_col[heads] = np.repeat(
            np.asarray(self.fire_flag, dtype=np.int16), fire_plans)
        # Plans are laid out back to back, so every row is its plan's.
        path_col = np.repeat(path_ids, lengths)
        files = shapes != _DIR
        plan_col = np.repeat(np.where(files, plan_ids, -1), lengths)
        temp = shapes == _TEMP
        lasts = heads + lengths - 1
        closes = (lasts - temp)[files]
        kinds[closes] = KIND_CLOSE
        unlinks = lasts[temp]
        kinds[unlinks] = KIND_UNLINK
        plan_col[unlinks] = -1  # unlink carries no plan id
        if not files.all():
            # Directories: stat (the only row with the plan id), then
            # one listdir per pass, every row sized.
            dirs = ~files
            plan_col[heads[dirs]] = plan_ids[dirs]
            passes = lengths[dirs] - 1
            rows = _ranges(heads[dirs] + 1, passes)
            kinds[rows] = KIND_LISTDIR
            sizes[rows] = np.repeat(sizes[heads[dirs]], passes)
        if self.piece_row:
            starts = np.asarray(self.piece_row, dtype=np.int64)
            takes = np.asarray(self.piece_take, dtype=np.int64)
            rows = _ranges(starts, takes)
            shift = np.repeat(
                np.asarray(self.piece_tape, dtype=np.int64) - starts, takes)
            sizes[rows] = np.concatenate(self.tape)[rows + shift]
            sizes[starts + takes - 1] = self.piece_last
            kinds[rows] = KIND_WRITE
            write_fraction[rows] = np.repeat(np.asarray(self.piece_wf),
                                             takes)
        if self.slab_row:
            takes = np.asarray(self.slab_take, dtype=np.int64)
            rows = _ranges(np.asarray(self.slab_row, dtype=np.int64),
                           2 * takes)
            sizes[rows[0::2]] = np.concatenate(self.slab_seeks)
            reads = rows[1::2]
            sizes[reads] = np.concatenate(self.slab_sizes)
            write_fraction[reads] = np.repeat(np.asarray(self.slab_wf),
                                              takes)
        # Each user drew one write-mix uniform per read row, in row
        # order; users are contiguous, so the block's draws line up
        # with its read rows in row order.
        reads = np.flatnonzero(write_fraction >= 0.0)
        if len(reads):
            mix = np.concatenate(self.mix_draws)
            kinds[reads] = np.where(mix < write_fraction[reads],
                                    KIND_WRITE, KIND_READ)
        perm = np.asarray(self.order, dtype=np.int64)
        category = np.repeat(np.repeat(
            np.asarray(self.fire_cat, dtype=np.int32), fire_plans), lengths)
        # perm permutes within sessions only, so the per-session columns
        # need no gather.
        per_session = np.diff(np.asarray(self.bounds, dtype=np.int64))
        raw = np.concatenate(self.think_raw)
        # Non-finite and negative think draws become 0.
        ok = np.isfinite(raw) & (raw >= 0.0)
        think = np.zeros(n, dtype=np.float64)
        np.rint(raw, where=ok, out=think)
        return OpBatch(
            kinds=kinds[perm],
            plan_ids=plan_col[perm],
            sizes=sizes[perm].astype(np.int64),
            flags=flags_col[perm],
            path_idx=path_col[perm],
            category_idx=category[perm],
            user_ids=np.repeat(
                np.asarray(self.sess_user, dtype=np.int64), per_session),
            session_ids=np.repeat(
                np.asarray(self.sess_id, dtype=np.int64), per_session),
            user_type_idx=np.repeat(
                np.asarray(self.sess_type, dtype=np.int32), per_session),
            start_us=np.zeros(n, dtype=np.float64),
            response_us=np.zeros(n, dtype=np.float64),
            think_us=np.minimum(think, _INT64_SATURATE).astype(np.int64),
            paths=self.paths,
            categories=self.categories,
            user_types=self.user_types,
        )


class SessionGenerator:
    """Generates login-session operation streams for one virtual user.

    Determinism contract (load-bearing for :mod:`repro.fleet` and for
    cross-backend stream identity): all of a user's randomness comes from
    ``streams.fork(f"user-{user_id}")``, a family derived from the *root*
    seed and the user id alone, with one named sub-stream per sampled
    quantity (selection, plan-interleave slots, per-category
    counts/budgets/sizes, chunk sizes, write mix, seek offsets, think
    times, phase transitions).  A user's
    operation stream is therefore identical no matter which other users
    run alongside it, which worker process it runs in, or which execution
    backend replays it — this is what makes sharded fleet runs aggregate
    bit-for-bit to the single-process result and what lets the fast
    backend reproduce the DES op stream exactly.  The temporal load
    layer (:mod:`repro.core.arrivals`) draws from the *same* family
    under its own names (``first-login``, ``session-gap``), so enabling
    arrivals moves the timeline without touching any synthesis stream.

    The per-quantity streams also make block pre-drawing safe: a
    :class:`~repro.distributions.BatchSampler` refills from its own
    stream in bursts, which would reorder draws on a shared stream but is
    invisible on a dedicated one.
    """

    def __init__(
        self,
        user_type: UserTypeSpec,
        layout: FileSystemLayout,
        streams: RandomStreams,
        user_id: int,
        access_pattern: str = "sequential",
        phase_model: PhaseModel | None = None,
        seats: Sequence | None = None,
    ):
        if access_pattern not in ("sequential", "random"):
            raise ValueError(
                "access_pattern must be sequential|random, got "
                f"{access_pattern!r}"
            )
        self.user_type = user_type
        self.layout = layout
        self.access_pattern = access_pattern
        self._root = streams
        # One pooled generator per family name; a user's stream states
        # are seated into them by rebind_user.  Every sampler resolves
        # its stream at first draw, so a stream a user never draws — the
        # write mix of an all-read session, seek offsets outside random
        # mode, phase steps without a phase model, the count/budget/size
        # streams of entries whose fraction gate never fires — is never
        # installed.  That cannot change any stream: an uninstalled
        # state was never consumed.
        self._family = user_stream_family(user_type)
        self._streams = [PooledStream() for _ in self._family.names]
        stream = dict(zip(self._family.names, self._streams)).__getitem__
        self._select_stream = stream("select")
        # Plan interleaving draws from its own uniform stream ("slot",
        # distinct from "select") so the columnar path can pre-draw a
        # whole session's slot uniforms in one block: a uniform is
        # bound-independent (slot = floor(u * width)), unlike bounded
        # integer draws whose bit consumption depends on the bound.
        self._slot = BatchSampler(_UNIT, rng_factory=stream("slot"),
                                  block=512)
        self._chunk = BatchSampler(user_type.access_size,
                                   rng_factory=stream("chunk"), block=512)
        # What a chunk refill sizes its draw by: the mean chunk, floored
        # at the 1-byte floor every sanitised chunk keeps (NaN too).
        mean = float(user_type.access_size.mean())
        self._mean_chunk = mean if mean >= 1.0 else 1.0
        self._think = BatchSampler(user_type.think_time,
                                   rng_factory=stream("think"), block=512)
        self._write_mix = BatchSampler(
            _UNIT, rng_factory=stream("write-mix"), block=512)
        self._seek = BatchSampler(_UNIT, rng_factory=stream("seek"),
                                  block=256)
        self._phase = BatchSampler(_UNIT, rng_factory=stream("phase"),
                                   block=256)
        self._usage_samplers = tuple(
            _UsageSamplers(
                usage=usage,
                file_count=BatchSampler(
                    usage.file_count, block=32,
                    rng_factory=stream(f"count:{usage.category.key}"),
                ),
                access_per_byte=BatchSampler(
                    usage.access_per_byte, block=128,
                    rng_factory=stream(f"apb:{usage.category.key}"),
                ),
                file_size=BatchSampler(
                    usage.file_size, block=32,
                    rng_factory=stream(f"size:{usage.category.key}"),
                ),
                key=usage.category.key,
                fraction=usage.fraction_of_users,
                creates=usage.category.creates_files,
                shape=_plan_shape(usage),
                flag=(_CREAT_FLAGS if usage.category.creates_files
                      else 0 if usage.category.is_directory
                      else int(OpenFlags.RDWR if usage.category.writes
                               else OpenFlags.RDONLY)),
                prefix=("tmp" if usage.category.use is UseType.TEMP
                        else "new"),
                write_fraction=(0.5 if usage.category.use is UseType.RD_WRT
                                else 0.0),
            )
            for usage in user_type.usage
        )
        self._samplers = (
            self._slot, self._chunk, self._think, self._write_mix,
            self._seek, self._phase,
            *(sampler for entry in self._usage_samplers for sampler in (
                entry.file_count, entry.access_per_byte, entry.file_size)),
        )
        self.rebind_user(user_id, phase_model, seats)

    def rebind_user(self, user_id: int,
                    phase_model: PhaseModel | None = None,
                    seats: Sequence | None = None,
                    ) -> "SessionGenerator":
        """Target this kernel at a user of its type.

        The whole of per-user set-up, for a fresh kernel (``__init__``
        ends here) and a pooled one alike: every sampler object,
        chunk-block buffer, pooled generator and precomputed per-entry
        constant is *reused* — the user's stream states are seated and
        every sampler's block is dropped, so the first draw after a
        rebind installs the new user's state and refills from it.  The
        served sequences are therefore exactly those of a freshly
        constructed generator (``tests/core/test_pooled_state.py``).
        ``seats`` is this user's row of :func:`derive_user_seats` when
        the caller derived a block of users at once; without it the
        kernel derives a one-user block itself.  Callers must drain one
        user fully before rebinding (the engine-free executor does).
        """
        if seats is None:
            seats, = derive_user_seats(self._root, self._family, [user_id])
        self.user_id = user_id
        self.phase_model = phase_model
        for stream, seat in zip(self._streams, seats, strict=True):
            stream.seat(seat)
        self._rng_select = self._select_stream()
        for sampler in self._samplers:
            sampler.rebind()
        self._plan_counter = 0
        # Chunks a call drew but did not cut: the next call (another
        # session of this user) cuts them first.
        self._spare: np.ndarray | None = None
        return self

    # -- plan construction ---------------------------------------------------
    #
    # Fitted distributions can emit pathological variates (NaN from a
    # degenerate fit, negative values from a shifted family).  Every
    # quantity is clamped to its valid range where it is drawn — counts
    # and sizes to >= 1, ratios and thinks to >= 0, non-finite draws to
    # the floor — instead of letting the value reach an executor, where
    # it would surface much later as an ``int(nan)`` ValueError or a
    # negative Delay SimulationError.

    def _sample_count(self, samplers: _UsageSamplers) -> int:
        raw = samplers.file_count.draw()
        if not math.isfinite(raw):
            return 1
        return max(1, int(round(raw)))

    def _walk(self, session_ids, cols: BlockColumns):
        """Pass 1, the selection walk over every session and entry.

        Consumes ``select`` and the ``count:`` streams exactly as a
        per-plan walk would — one fraction gate per entry, one count
        draw per fired entry, one pool ``choice`` per non-creating
        fire — and records each fire: its plans' paths (new-file paths
        embed the running plan counter) and the per-fire columns.
        Returns the fires as ``(entry, plans)``, the fire count at each
        session's end, and per entry its chosen pool indices and pool.
        """
        select_random = self._rng_select.random
        choice = self._rng_select.choice
        entries = self._usage_samplers
        intern_cat = cols.categories.intern
        paths = cols.plan_paths
        picks: list[list] = [[] for _ in entries]
        pools: list = [None] * len(entries)
        fires: list[tuple[int, int]] = []
        marks: list[int] = []
        counter = self._plan_counter
        for session_id in session_ids:
            for e, entry in enumerate(entries):
                if select_random() >= entry.fraction:
                    continue
                count = self._sample_count(entry)
                if entry.creates:
                    stem = (f"{self.layout.user_home(self.user_id)}/"
                            f"{entry.prefix}-s{session_id:04d}-p")
                    paths += [f"{stem}{counter + k:05d}-{k}"
                              for k in range(count)]
                else:
                    pool = pools[e]
                    if pool is None:
                        pool = pools[e] = self.layout.pool_arrays(
                            entry.usage.category, self.user_id)
                    sizes, path_at = pool
                    if not len(sizes):
                        continue
                    chosen = choice(
                        len(sizes), size=min(count, len(sizes)),
                        replace=False,
                    ).tolist()
                    picks[e] += chosen
                    count = len(chosen)
                    paths += map(path_at, chosen)
                fires.append((e, count))
                cols.fire_plans.append(count)
                cols.fire_shape.append(entry.shape)
                cols.fire_cat.append(intern_cat(entry.key))
                cols.fire_flag.append(entry.flag)
                cols.fire_id0.append(counter)
                counter += count
            marks.append(len(fires))
        self._plan_counter = counter
        return fires, marks, picks, pools

    def _quantities(self, fires, picks, pools):
        """Pass 2: one ``apb:`` and one ``size:`` take per entry.

        Each entry's draws cover all of the user's plans on it, in plan
        order — the sequence a take per fire (or a draw per plan) would
        serve, since each stream belongs to one entry.  Returns per
        entry ``(head sizes, budgets)`` (directory entries: ``(sizes,
        passes)``), and the user's data bytes and a segment estimate
        for sizing chunk refills.
        """
        demand = [0] * len(self._usage_samplers)
        for e, count in fires:
            demand[e] += count
        quantities: list = [None] * len(demand)
        nbytes = segments = 0.0
        for e, count in enumerate(demand):
            if not count:
                continue
            entry = self._usage_samplers[e]
            # Non-finite and negative ratios become 0.0.
            ratios = [r if 0.0 <= r < _INF else 0.0
                      for r in entry.access_per_byte.take(count).tolist()]
            if entry.creates:
                # Non-finite sizes become 1, the rest round, floored at 1.
                heads = [max(round(x), 1) if -_INF < x < _INF else 1
                         for x in entry.file_size.take(count).tolist()]
            else:
                heads = pools[e][0][picks[e]].tolist()
                if entry.shape == _DIR:
                    quantities[e] = (heads, [max(round(r), 1)
                                             for r in ratios])
                    continue
            budgets = [round(r * size) for r, size in zip(ratios, heads)]
            nbytes += (sum(map(max, budgets, heads)) if entry.creates
                       else sum(budgets))
            segments += sum(ratios) + count
            quantities[e] = (heads, budgets)
        return quantities, nbytes, segments

    def _refill(self, cols: BlockColumns, need: float):
        """Draw about ``need`` chunk variates onto the block's tape.

        The refill is sanitised once (non-finite draws become 1, the
        rest are rounded and floored at 1, and saturate below int64's
        limit) and prefix-summed.  Returns ``(cum, n, tape0)``: ``cum``
        holds the ``n + 1`` prefix sums from 0 — floats while they are
        exact, Python ints past 2**53 — and ``tape0`` is the refill's
        first tape index.
        """
        raw = self._chunk.take(
            min(max(int(need), _CHUNK_REFILL_MIN), _CHUNK_REFILL_CAP))
        san = np.maximum(np.where(np.isfinite(raw), np.rint(raw), 1.0), 1.0)
        np.minimum(san, _INT64_SATURATE, out=san)
        return _onto_tape(cols, san)

    def _cut(self, fires, marks, quantities, nbytes: float,
             segments: float, cols: BlockColumns) -> tuple[list, int]:
        """Pass 3, one loop over the user's plans: rows and chunk cuts.

        Each file plan is a head row (open or creat), its data, a close
        row and, for TEMP, an unlink row.  Sequential data is a list of
        segments — for an existing file ``budget // size`` whole passes
        then the remainder; for a new one the write-out, then the
        re-read passes — with exactly one lseek row between consecutive
        segments.  A segment is cut from the ``chunk`` stream with
        ``bisect`` on the current refill's prefix sums: the crossing
        chunk is cut to land on the segment's end, and a segment that
        outruns the refill continues in the next one as a second piece
        (prefix sums restart per refill, so they stay exact).  Random
        mode reads through :meth:`_random_reads` instead.  Returns the
        plan count at each session's end and the write-mix rows.
        """
        entries = self._usage_samplers
        random = self.access_pattern == "random"
        mean = self._mean_chunk
        add_offset = cols.offsets.append
        add_length = cols.lengths.append
        head_sizes = cols.head_sizes
        add_row = cols.piece_row.append
        add_tape = cols.piece_tape.append
        add_take = cols.piece_take.append
        add_last = cols.piece_last.append
        add_wf = cols.piece_wf.append
        plan_marks = [len(cols.lengths)]
        cursor = [0] * len(entries)
        row = cols.total
        cum: Sequence = (0.0,)
        pos = end = tape0 = 0
        if self._spare is not None:  # the last call's unused chunks
            cum, end, tape0 = _onto_tape(cols, self._spare)
        mixed = 0
        fire = 0
        for stop in marks:
            for e, count in fires[fire:stop]:
                entry = entries[e]
                heads, seconds = quantities[e]
                i = cursor[e]
                cursor[e] = i + count
                head_sizes += heads[i:i + count]
                if entry.shape == _DIR:
                    for passes in seconds[i:i + count]:
                        add_offset(row)
                        add_length(1 + passes)
                        row += 1 + passes
                    continue
                creates = entry.creates
                wf = 0.0 if creates else entry.write_fraction
                tail = 2 if entry.shape == _TEMP else 1
                for k in range(i, i + count):
                    start = row
                    row += 1
                    size = heads[k]
                    budget = seconds[k]
                    if creates:  # write out, then re-read the rest
                        segs = [size]
                        budget -= size
                    else:
                        segs = []
                    reads = budget > 0 and size > 0
                    if reads and not random:
                        full, rest = divmod(budget, size)
                        segs += [size] * full
                        if rest:
                            segs.append(rest)
                    for q, left in enumerate(segs):
                        if q:
                            row += 1  # the lseek row between passes
                        w = wf if q or not creates else -1.0  # write-out
                        nbytes -= left
                        segments -= 1
                        while left > 0:
                            if pos == end:
                                need = segments + 1 + (nbytes + left) / mean
                                cum, end, tape0 = self._refill(cols, need)
                                pos = 0
                            base = cum[pos]
                            j = bisect_left(cum, base + left, pos + 1)
                            if j > end:  # the refill ends inside the segment
                                j = end
                                last = cum[end] - cum[end - 1]
                                left -= int(cum[end] - base)
                            else:
                                last = left - (cum[j - 1] - base)
                                left = 0
                            add_row(row)
                            add_tape(tape0 + pos)
                            add_take(j - pos)
                            add_last(last)
                            add_wf(w)
                            if w >= 0.0:
                                mixed += j - pos
                            row += j - pos
                            pos = j
                    if reads and random:
                        if creates:
                            row += 1  # lseek to 0 before the re-reads
                        nbytes -= budget
                        row, cum, pos, end, tape0, taken = self._random_reads(
                            cols, row, size, budget, wf, cum, pos, end, tape0,
                            segments + 1 + nbytes / mean)
                        mixed += taken
                    row += tail
                    add_offset(start)
                    add_length(row - start)
            fire = stop
            cols.bounds.append(row)
            plan_marks.append(len(cols.lengths))
        cols.total = row
        self._spare = cols.tape[-1][pos:] if pos < end else None
        return plan_marks, mixed

    def _random_reads(self, cols: BlockColumns, row: int, size: int,
                      budget: int, wf: float, cum, pos, end, tape0,
                      need: float):
        """Random-mode data: an lseek to a uniform offset before every
        chunk, ``budget`` bytes of a ``size``-byte file in all.

        Cuts slabs of up to ``_CHUNK_SLAB`` (offset, chunk) pairs from
        the current refill and the ``seek`` stream, each chunk clamped to
        the file's end and the last to the budget, and records them for
        the layout.  ``need`` is the user's chunk demand after this
        plan, for sizing refills.  Returns the updated row and tape
        state and the reads appended.
        """
        remaining = budget
        taken = 0
        while remaining > 0:
            if pos == end:
                cum, end, tape0 = self._refill(
                    cols, need + remaining / self._mean_chunk)
                pos = 0
            seeks = self._seek.peek_buffer()
            width = min(end - pos, len(seeks), _CHUNK_SLAB)
            offsets = np.minimum(
                (seeks[:width] * size).astype(np.int64), size - 1)
            candidates = np.minimum(cols.tape[-1][pos:pos + width],
                                    (size - offsets).astype(np.float64))
            np.minimum(candidates, float(remaining), out=candidates)
            total = np.cumsum(candidates)
            cut = int(total.searchsorted(float(remaining), side="left"))
            if cut >= width:
                take = width
                advanced = int(total[-1])
            else:
                take = cut + 1
                advanced = remaining
                candidates[cut] = remaining - (int(total[cut - 1])
                                               if cut else 0)
            pos += take
            self._seek.consume(take)
            cols.slab_row.append(row)
            cols.slab_take.append(take)
            cols.slab_wf.append(wf)
            cols.slab_seeks.append(offsets[:take])
            cols.slab_sizes.append(candidates[:take])
            row += 2 * take
            taken += take
            remaining -= advanced
        return row, cum, pos, end, tape0, taken

    def append_user(self, session_ids, cols: BlockColumns) -> None:
        """Append this user's ``session_ids`` to the block ``cols``.

        Everything that draws from the user's streams happens here, so a
        pooled kernel may be rebound the moment this returns: the
        selection walk over all sessions (:meth:`_walk`), one ``apb:``
        and ``size:`` take per entry (:meth:`_quantities`), the chunk
        cuts (:meth:`_cut`), then the user's whole ``slot`` block (every
        op consumes exactly one uniform) and the interleave it drives,
        its ``write-mix`` block and its think (and phase) block.  Each
        named stream serves the same sequence in the same order as a
        draw per plan would — only draw sizes differ — and a block only
        *regroups* draws across users, whose streams are disjoint, so a
        user's rows are the same whatever else the block holds.
        """
        type_idx = cols.user_types.intern(self.user_type.name)
        row0 = cols.total
        first = len(cols.bounds) - 1  # this user's first session
        fires, marks, picks, pools = self._walk(session_ids, cols)
        quantities, nbytes, segments = self._quantities(fires, picks, pools)
        plan_marks, mixed = self._cut(fires, marks, quantities, nbytes,
                                      segments, cols)
        for session_id in session_ids:
            cols.sess_user.append(self.user_id)
            cols.sess_id.append(session_id)
            cols.sess_type.append(type_idx)
        n = cols.total - row0
        # Interleave each session's plans: FIFO admission to the
        # open-file window, one slot uniform per op.
        uniforms = self._slot.take(n).tolist()
        order = [0] * n
        max_open = self.user_type.max_open_files
        for s in range(len(plan_marks) - 1):
            _interleave(cols.lengths, cols.offsets, plan_marks[s],
                        plan_marks[s + 1], uniforms, order,
                        cols.bounds[first + s] - row0, max_open)
        cols.order += order
        if mixed:
            cols.mix_draws.append(self._write_mix.take(mixed))
        think = self._think.take(n)
        if self.phase_model is not None:
            think = think * self.phase_model.step_many(self._phase.take(n))
        cols.think_raw.append(think)

    def generate_user_batch(
        self, session_ids,
    ) -> "tuple[OpBatch, list[int]]":
        """All of ``session_ids`` fused into one :class:`OpBatch`.

        The block-of-one form of :meth:`append_user` +
        :meth:`BlockColumns.assemble`.  Returns ``(batch, bounds)``
        where ``bounds[i]`` is the first row of the ``i``-th session
        (``len(bounds) == len(session_ids) + 1``); the interleave
        permutes within a session only, so rows of session ``i`` occupy
        exactly ``[bounds[i], bounds[i+1])``.
        """
        cols = BlockColumns()
        self.append_user(session_ids, cols)
        return cols.assemble(), cols.bounds

    def generate_session_batch(self, session_id: int) -> OpBatch:
        """One login session as an :class:`~repro.core.opbatch.OpBatch`.

        Row ``i`` is the ``i``-th file operation; the think pause that
        follows it lands in the batch's ``think_us`` column.  Timing
        columns are zero; an execution backend fills them.  (One-session
        form of :meth:`generate_user_batch`.)
        """
        batch, _ = self.generate_user_batch((session_id,))
        return batch

    def generate_session(self, session_id: int) -> Iterator[SessionOp]:
        """Yield the operation stream of one login session, op by op.

        File plans are interleaved by independent random selection among
        the currently open files (the thesis's independence assumption),
        with at most ``user_type.max_open_files`` concurrently open.
        A think-time operation follows every file operation.

        This is :meth:`generate_session_batch` read op by op, for the
        DES user process and ``RealRunner``.  Nothing is drawn until the
        first ``next()``; the whole session is drawn then.  Sizes and
        think times come out of int64 columns, so a pathological draw
        saturates at ``_INT64_SATURATE`` where a Python int would keep
        growing — unreachable for real specs (the scalar reference in
        ``tests/core/reference_scalar.py`` keeps Python ints).
        """
        yield from self.generate_session_batch(session_id).iter_session_ops()


def _onto_tape(cols: BlockColumns, san: np.ndarray):
    """Append sanitised chunks to the block's tape: see
    :meth:`SessionGenerator._refill`."""
    n = len(san)
    cum = np.empty(n + 1, dtype=np.float64)
    cum[0] = 0.0
    np.cumsum(san, out=cum[1:])
    if cum[n] < _EXACT_FLOAT:
        # An array, not a list: a list would box every sum as a float
        # object, and that churn alone measurably raised peak RSS.
        cum = array("d", cum.tobytes())
    else:
        cum = list(accumulate(map(int, san.tolist()), initial=0))
    tape0 = cols.tape_len
    cols.tape.append(san)
    cols.tape_len = tape0 + n
    return cum, n, tape0


def _plan_shape(usage: UsageSpec) -> int:
    """The shape of every plan a usage entry fires."""
    category = usage.category
    if category.creates_files:
        return _TEMP if category.use is UseType.TEMP else _NEW
    return _DIR if category.is_directory else _EXISTING


def _interleave(lengths: list, offsets: list, p0: int, p1: int,
                uniforms: list, order: list, i: int, max_open: int) -> None:
    """Fill ``order[i:]`` with one session's plan-interleave permutation.

    FIFO admission of plans ``p0..p1`` into the open-file window, one
    slot uniform per op, ``floor(u * width)`` — which can land on
    ``width`` itself only through float rounding of u ≈ 1, hence the
    clamp — over pre-drawn uniforms.  Structured so admission is only
    re-checked after an exhaustion event (the window can only open
    then), and the common single-plan tail is emitted as one slice
    assignment: with ``width == 1`` every remaining draw selects slot 0,
    so the rows are simply sequential (the uniforms were already drawn;
    skipping their *reads* consumes nothing).
    """
    cursor: list[int] = []     # per active slot: next global row
    remaining: list[int] = []  # per active slot: ops left
    admit_cursor = cursor.append
    admit_remaining = remaining.append
    width = 0
    nxt = p0
    while True:
        while nxt < p1 and width < max_open:
            admit_cursor(offsets[nxt])
            admit_remaining(lengths[nxt])
            nxt += 1
            width += 1
        if width == 0:
            return
        if width == 1 and nxt >= p1:
            row = cursor[0]
            left = remaining[0]
            order[i:i + left] = range(row, row + left)
            return
        while True:
            s = int(uniforms[i] * width)
            if s == width:  # float rounding of u ≈ 1
                s = width - 1
            row = cursor[s]
            order[i] = row
            i += 1
            left = remaining[s] - 1
            if left:
                cursor[s] = row + 1
                remaining[s] = left
            else:
                del cursor[s]
                del remaining[s]
                width -= 1
                break
