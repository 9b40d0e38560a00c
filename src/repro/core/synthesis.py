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

There is one plan builder: :meth:`SessionGenerator.append_user` writes a
user's sessions as columns into a :class:`BlockColumns` — per-chunk
loops are ``searchsorted`` cuts over pre-drawn blocks — and
:meth:`BlockColumns.assemble` turns the block into one
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
from dataclasses import dataclass
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

# Max chunk variates sanitised per cumsum pass (see _chunk_run).
_CHUNK_SLAB = 64

# Rows a plan builder reserves before a chunk run: one run never exceeds
# the chunk sampler's block cap (512 in SessionGenerator.__init__).
_CHUNK_RESERVE = 512

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

    Alongside the samplers, the per-entry *constants* the hot plan loop
    needs (category key, write fraction, open-mode flag, ...) are
    precomputed once per kernel instead of re-derived per plan.  The
    object is pooled: :meth:`SessionGenerator.rebind_user` rebinds the
    inner samplers to a new user's streams in place.
    """

    usage: UsageSpec
    file_count: BatchSampler
    access_per_byte: BatchSampler
    file_size: BatchSampler
    key: str
    creates: bool
    temporary: bool
    is_dir: bool
    prefix: str
    write_fraction: float
    mode_flag: int


class _ChunkBlock(BatchSampler):
    """Chunk-size sampler whose blocks carry a sanitised prefix-sum cache.

    Every refilled block is sanitised once (non-finite draws become 1,
    the rest are rounded and floored at 1) and prefix-summed, so cutting
    a segment of chunks to a byte boundary is a single ``searchsorted``
    over the cached sums instead of a fresh sanitise + cumsum per
    segment.  ``draw()`` still serves the *raw* variates.
    """

    __slots__ = ("san", "cum0")

    def __init__(self, dist, rng_factory, block: int = 512):
        super().__init__(dist, rng_factory=rng_factory, block=block)
        self.san: np.ndarray | None = None
        self.cum0: np.ndarray | None = None

    def _refill(self) -> np.ndarray:
        buffer = super()._refill()
        san = np.maximum(
            np.where(np.isfinite(buffer), np.rint(buffer), 1.0), 1.0
        )
        # int64 saturation: keeps the astype in run() defined even for
        # absurd finite draws (the byte boundary always cuts first).
        np.minimum(san, _INT64_SATURATE, out=san)
        self.san = san
        cum0 = np.empty(len(san) + 1, dtype=np.float64)
        cum0[0] = 0.0
        np.cumsum(san, out=cum0[1:])
        self.cum0 = cum0
        return buffer

    def rebind(self) -> "_ChunkBlock":
        """:meth:`BatchSampler.rebind` plus dropping the prefix-sum cache."""
        super().rebind()
        self.san = None
        self.cum0 = None
        return self

    def san_view(self) -> np.ndarray:
        """Sanitised not-yet-consumed variates (refills when spent)."""
        buffer = self._buffer
        if buffer is None or self._next >= len(buffer):
            self._refill()
        return self.san[self._next:]

    def run_into(self, out: np.ndarray, row: int,
                 boundary: int) -> tuple[int, int]:
        """Consume chunks up to ``boundary`` bytes into ``out[row:]``.

        Writes the consumed run straight into the caller's float64 row
        buffer (no per-segment allocation or cast — the whole size
        column is cast to int64 once per batch) and returns
        ``(take, advanced)``.  The crossing chunk is cut to land
        exactly on the boundary (each draw is clamped to what remains).
        May advance fewer bytes than ``boundary`` when the block runs
        out — the caller loops, and the next call refills.  The caller
        must have reserved ``row + block`` rows (a run never exceeds
        the block cap).
        """
        buffer = self._buffer
        if buffer is None or self._next >= len(buffer):
            self._refill()
        start = self._next
        cum0 = self.cum0
        base = cum0[start]
        # Element j's running total is cum0[j+1]; the crossing element is
        # the first whose total reaches base + boundary.
        cut = int(cum0.searchsorted(base + boundary, side="left")) - 1
        limit = len(self.san)
        if cut >= limit:
            take = limit - start
            out[row:row + take] = self.san[start:]
            self._next = limit
            return take, int(cum0[limit] - base)
        take = cut + 1 - start
        out[row:row + take] = self.san[start:cut + 1]
        out[row + take - 1] = boundary - (cum0[cut] - base)
        self._next = cut + 1
        return take, boundary


class BlockColumns:
    """Accumulates a block of users' plan columns without per-plan arrays.

    Plan builders write kind/size rows straight into two growable flat
    buffers (``kinds_buf``/``sizes_buf`` — int8 kinds, float64 sizes so
    a chunk sampler's sanitised block can land by slice without a
    per-segment cast) plus sparse fix-up lists.  Each user appends its
    sessions through :meth:`SessionGenerator.append_user` — plans, the
    interleave permutation, and its own write-mix/think draws — and
    :meth:`assemble` then materialises every column for the whole block
    at once: one ``np.repeat`` per constant-within-a-plan (or
    -session) column, one fancy assignment per sparse column, one
    permutation gather, one ``astype(int64)`` and one think sanitise.
    So a block costs O(plans) small Python appends plus O(ops)
    vectorized slice writes, and the per-call NumPy overhead is paid
    per block, not per user.
    """

    __slots__ = (
        "paths", "categories", "user_types", "kinds_buf", "sizes_buf",
        "cap", "lengths", "offsets", "plan_base", "cat_base",
        "plan_fix_pos", "plan_fix_val", "path_pos", "path_ord",
        "plan_paths", "flag_pos", "flag_val", "mix_start", "mix_count",
        "mix_step", "mix_wf", "total", "order", "bounds", "sess_user",
        "sess_id", "sess_type", "mix_draws", "think_raw",
    )

    def __init__(self, capacity: int = 4096):
        self.paths = StringTable()
        self.categories = StringTable()
        self.user_types = StringTable()
        self.cap = capacity
        self.kinds_buf = np.empty(capacity, dtype=np.int8)
        self.sizes_buf = np.empty(capacity, dtype=np.float64)
        self.lengths: list[int] = []
        self.offsets: list[int] = []     # first (pre-interleave) row per plan
        self.plan_base: list[int] = []   # np.repeat fill per plan
        self.cat_base: list[int] = []
        self.plan_fix_pos: list[int] = []  # sparse overrides (unlink/stat)
        self.plan_fix_val: list[int] = []
        # Paths are *deferred*: builders append the string to plan_paths
        # and record its ordinal, and the whole vocabulary is interned in
        # one StringTable.intern_many call at assembly time.
        self.path_pos: list[int] = []
        self.path_ord: list[int] = []
        self.plan_paths: list[str] = []
        self.flag_pos: list[int] = []
        self.flag_val: list[int] = []
        # Write-mix draw ranges: each chunk segment that consumes
        # write-mix uniforms records (first row, count, row stride,
        # write fraction); each user takes its draws in range order,
        # one per chunk.
        self.mix_start: list[int] = []
        self.mix_count: list[int] = []
        self.mix_step: list[int] = []
        self.mix_wf: list[float] = []
        self.total = 0
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

    def add_plan(self, n: int, plan_value: int, cat_idx: int) -> None:
        """Close one plan of ``n`` rows (rows already written)."""
        self.lengths.append(n)
        self.offsets.append(self.total)
        self.plan_base.append(plan_value)
        self.cat_base.append(cat_idx)
        self.total += n

    def reserve(self, need: int) -> None:
        """Grow the row buffers to hold at least ``need`` rows.

        Geometric doubling; existing rows (``[0, total)`` plus any rows
        the current plan has written past ``total``) are preserved, so
        builders re-fetch ``kinds_buf``/``sizes_buf`` after any call
        that may grow.
        """
        cap = self.cap
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        kinds = np.empty(cap, dtype=np.int8)
        kinds[: len(self.kinds_buf)] = self.kinds_buf
        sizes = np.empty(cap, dtype=np.float64)
        sizes[: len(self.sizes_buf)] = self.sizes_buf
        self.kinds_buf = kinds
        self.sizes_buf = sizes
        self.cap = cap

    def assemble(self) -> OpBatch:
        """Every appended user's sessions as one :class:`OpBatch`.

        Rows are in interleaved order, users and sessions contiguous
        (:attr:`bounds`); timing columns are zero.  Every array pass
        here runs once for the block, whatever its user count.
        """
        n = self.total
        kinds = self.kinds_buf[:n]
        if self.mix_draws:
            # The users' write-mix blocks line up with the ranges: both
            # were appended user by user, ranges in draw order.
            counts = np.asarray(self.mix_count)
            mix = np.concatenate(self.mix_draws)
            writes = mix < np.repeat(np.asarray(self.mix_wf), counts)
            if writes.any():
                head = np.empty(len(counts), dtype=np.int64)
                head[0] = 0
                np.cumsum(counts[:-1], out=head[1:])
                intra = np.arange(len(mix)) - np.repeat(head, counts)
                rows = (np.repeat(np.asarray(self.mix_start), counts)
                        + intra * np.repeat(np.asarray(self.mix_step),
                                            counts))
                kinds[rows[writes]] = KIND_WRITE
        perm = np.asarray(self.order, dtype=np.int64)
        reps = np.asarray(self.lengths, dtype=np.int64)
        plan_col = np.repeat(np.asarray(self.plan_base, dtype=np.int64), reps)
        if self.plan_fix_pos:
            plan_col[self.plan_fix_pos] = self.plan_fix_val
        path_col = np.full(n, -1, dtype=np.int32)
        if self.path_pos:
            path_ids = self.paths.intern_many(self.plan_paths)
            path_col[self.path_pos] = path_ids[self.path_ord]
        flags_col = np.zeros(n, dtype=np.int16)
        if self.flag_pos:
            flags_col[self.flag_pos] = self.flag_val
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
            sizes=self.sizes_buf[:n][perm].astype(np.int64),
            flags=flags_col[perm],
            path_idx=path_col[perm],
            category_idx=np.repeat(
                np.asarray(self.cat_base, dtype=np.int32), reps)[perm],
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
        self._chunk = _ChunkBlock(user_type.access_size, stream("chunk"),
                                  block=512)
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
                creates=usage.category.creates_files,
                temporary=usage.category.use is UseType.TEMP,
                is_dir=usage.category.is_directory,
                prefix=("tmp" if usage.category.use is UseType.TEMP
                        else "new"),
                write_fraction=(0.5 if usage.category.use is UseType.RD_WRT
                                else 0.0),
                mode_flag=int(OpenFlags.RDWR if usage.category.writes
                              else OpenFlags.RDONLY),
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

    def _append_data_cols(self, budget: int, file_size: int,
                          write_fraction: float, cols: BlockColumns,
                          row0: int) -> int:
        """Chunked read/write rows consuming ``budget`` bytes of a file,
        appended straight into ``cols``.

        Sequential mode walks the file, wrapping to offset 0 with an
        lseek row at EOF (the thesis models sequential access only);
        random mode seeks to a uniform offset before every chunk.  Each
        chunk segment registers its write-mix range (resolved once per
        block).  ``row0`` is the global row index of the first appended
        row; returns the number of rows appended.
        """
        if budget <= 0 or file_size <= 0:
            return 0
        row = row0
        if self.access_pattern == "random":
            remaining = budget
            while remaining > 0:
                san = self._chunk.san_view()
                seeks = self._seek.peek_buffer()
                width = min(len(san), len(seeks), _CHUNK_SLAB)
                offsets = np.minimum(
                    (seeks[:width] * file_size).astype(np.int64),
                    file_size - 1,
                )
                candidates = np.minimum(
                    san[:width], (file_size - offsets).astype(np.float64)
                )
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
                self._chunk.consume(take)
                self._seek.consume(take)
                end = row + 2 * take
                cols.reserve(end)
                kinds_buf = cols.kinds_buf
                sizes_buf = cols.sizes_buf
                kinds_buf[row:end:2] = KIND_LSEEK
                kinds_buf[row + 1:end:2] = KIND_READ
                sizes_buf[row:end:2] = offsets[:take]
                sizes_buf[row + 1:end:2] = candidates[:take]
                cols.mix_start.append(row + 1)
                cols.mix_count.append(take)
                cols.mix_step.append(2)
                cols.mix_wf.append(write_fraction)
                row = end
                remaining -= advanced
        else:
            position = 0
            remaining = budget
            chunk = self._chunk
            reserve = cols.reserve
            while remaining > 0:
                if position >= file_size:
                    reserve(row + 1)
                    cols.kinds_buf[row] = KIND_LSEEK
                    cols.sizes_buf[row] = 0.0
                    row += 1
                    position = 0
                reserve(row + _CHUNK_RESERVE)
                take, advanced = chunk.run_into(
                    cols.sizes_buf, row, min(remaining, file_size - position)
                )
                cols.kinds_buf[row:row + take] = KIND_READ
                cols.mix_start.append(row)
                cols.mix_count.append(take)
                cols.mix_step.append(1)
                cols.mix_wf.append(write_fraction)
                row += take
                position += advanced
                remaining -= advanced
        return row - row0

    def _append_write_out(self, target_size: int, cols: BlockColumns,
                          row0: int) -> int:
        """Sequential write rows creating ``target_size`` bytes of fresh
        file; returns rows appended."""
        row = row0
        remaining = target_size
        while remaining > 0:
            cols.reserve(row + _CHUNK_RESERVE)
            take, advanced = self._chunk.run_into(
                cols.sizes_buf, row, remaining)
            cols.kinds_buf[row:row + take] = KIND_WRITE
            row += take
            remaining -= advanced
        return row - row0

    def _append_existing_plan(self, path: str, file_size: int,
                                  budget: int, write_fraction: float,
                                  mode_flag: int, cat_idx: int,
                                  cols: BlockColumns) -> None:
        """RDONLY / RD-WRT plan over a file the FSC created: open → data
        ops → close.

        The budget, write fraction, open mode and category index arrive
        precomputed from the entry-grouped walk
        (:meth:`_append_session_plans`) — this method only appends rows.
        """
        self._plan_counter += 1
        start = cols.total
        cols.reserve(start + 1)
        cols.kinds_buf[start] = KIND_OPEN
        cols.sizes_buf[start] = file_size
        n = 1 + self._append_data_cols(budget, file_size, write_fraction,
                                       cols, start + 1)
        end = start + n
        cols.reserve(end + 1)
        cols.kinds_buf[end] = KIND_CLOSE
        cols.sizes_buf[end] = 0.0
        n += 1
        ordinal = len(cols.plan_paths)
        cols.plan_paths.append(path)
        cols.path_pos += (start, start + n - 1)
        cols.path_ord += (ordinal, ordinal)
        if mode_flag:
            cols.flag_pos.append(start)
            cols.flag_val.append(mode_flag)
        cols.add_plan(n, self._plan_counter, cat_idx)

    def _append_new_plan(self, path: str, target_size: int, budget: int,
                             temporary: bool, cat_idx: int,
                             cols: BlockColumns) -> None:
        """NEW / TEMP plan: creat, write out, re-read, close (+unlink
        for TEMP)."""
        self._plan_counter += 1
        plan_id = self._plan_counter
        start = cols.total
        cols.reserve(start + 1)
        cols.kinds_buf[start] = KIND_CREAT
        cols.sizes_buf[start] = target_size
        n = 1 + self._append_write_out(target_size, cols, start + 1)
        # Spend the rest of the access budget re-reading the fresh file
        # (NEW files average 2.36 accesses per byte, TEMP 2.00 — beyond
        # the single write-out pass).
        read_budget = budget - target_size
        if read_budget > 0:
            row = start + n
            cols.reserve(row + 1)
            cols.kinds_buf[row] = KIND_LSEEK
            cols.sizes_buf[row] = 0.0
            n += 1
            n += self._append_data_cols(read_budget, target_size, 0.0,
                                        cols, start + n)
        row = start + n
        cols.reserve(row + 2)  # close row, plus the TEMP unlink row
        cols.kinds_buf[row] = KIND_CLOSE
        cols.sizes_buf[row] = 0.0
        n += 1
        ordinal = len(cols.plan_paths)
        cols.plan_paths.append(path)
        cols.path_pos += (start, start + n - 1)  # creat and close rows
        cols.path_ord += (ordinal, ordinal)
        if temporary:
            row = start + n
            cols.kinds_buf[row] = KIND_UNLINK
            cols.sizes_buf[row] = 0.0
            n += 1
            cols.path_pos.append(row)
            cols.path_ord.append(ordinal)
            cols.plan_fix_pos.append(row)
            cols.plan_fix_val.append(-1)  # unlink carries no plan id
        cols.flag_pos.append(start)
        cols.flag_val.append(_CREAT_FLAGS)
        cols.add_plan(n, plan_id, cat_idx)

    def _append_directory_plan(self, path: str, dir_size: int,
                                   passes: int, cat_idx: int,
                                   cols: BlockColumns) -> None:
        """DIR plan: stat once, then one listdir per whole-directory
        pass."""
        self._plan_counter += 1
        n = 1 + passes
        start = cols.total
        end = start + n
        cols.reserve(end)
        cols.kinds_buf[start:end] = KIND_LISTDIR
        cols.kinds_buf[start] = KIND_STAT
        cols.sizes_buf[start:end] = dir_size
        ordinal = len(cols.plan_paths)
        cols.plan_paths.append(path)
        cols.path_pos.extend(range(start, start + n))
        cols.path_ord.extend([ordinal] * n)
        cols.plan_fix_pos.append(start)  # only stat carries the plan id
        cols.plan_fix_val.append(self._plan_counter)
        cols.add_plan(n, -1, cat_idx)

    def _append_session_plans(self, session_id: int,
                              cols: BlockColumns) -> None:
        """One session's selection walk — which categories fire, how
        many files, which pool members — and a plan per selected file.

        Consumes the ``select`` and per-category ``count:`` streams one
        entry at a time — one fraction gate per entry, one count draw
        per fired entry, one pool ``choice`` per non-creating entry —
        and takes each fired entry's per-plan budget/size draws as *one
        block per stream*.  Each quantity owns a named stream and plans
        consume it in plan order, so the block is the same sequence a
        draw per plan would serve.  New-file paths embed the live plan
        counter.
        """
        select_random = self._rng_select.random
        choice = self._rng_select.choice
        intern_cat = cols.categories.intern
        user_id = self.user_id
        for samplers in self._usage_samplers:
            usage = samplers.usage
            if select_random() >= usage.fraction_of_users:
                continue
            count = self._sample_count(samplers)
            if samplers.creates:
                home = self.layout.user_home(user_id)
                prefix = samplers.prefix
                temporary = samplers.temporary
                cat_idx = intern_cat(samplers.key)
                raw = samplers.file_size.take(count)
                targets = np.maximum(
                    np.where(np.isfinite(raw), np.rint(raw), 1.0), 1.0)
                ratios = _sane_ratios(samplers.access_per_byte.take(count))
                budgets = np.rint(ratios * targets).tolist()
                targets = targets.tolist()
                for k in range(count):
                    path = (
                        f"{home}/{prefix}-s{session_id:04d}-"
                        f"p{self._plan_counter:05d}-{k}"
                    )
                    self._append_new_plan(
                        path, int(targets[k]), int(budgets[k]), temporary,
                        cat_idx, cols,
                    )
                continue
            pool_paths, pool_sizes = self.layout.pool_arrays(
                usage.category, user_id)
            if not pool_paths:
                continue
            chosen = choice(
                len(pool_paths), size=min(count, len(pool_paths)),
                replace=False,
            ).reshape(-1)
            cat_idx = intern_cat(samplers.key)
            ratios = _sane_ratios(samplers.access_per_byte.take(len(chosen)))
            if samplers.is_dir:
                passes = np.maximum(np.rint(ratios), 1.0).tolist()
                for j, idx in enumerate(chosen.tolist()):
                    self._append_directory_plan(
                        pool_paths[idx], int(pool_sizes[idx]),
                        int(passes[j]), cat_idx, cols,
                    )
            else:
                sizes = pool_sizes[chosen]
                budgets = np.rint(ratios * sizes).tolist()
                sizes = sizes.tolist()
                write_fraction = samplers.write_fraction
                mode_flag = samplers.mode_flag
                for j, idx in enumerate(chosen.tolist()):
                    self._append_existing_plan(
                        pool_paths[idx], sizes[j], int(budgets[j]),
                        write_fraction, mode_flag, cat_idx, cols,
                    )

    def append_user(self, session_ids, cols: BlockColumns) -> None:
        """Append this user's ``session_ids`` to the block ``cols``.

        Everything that draws from the user's streams happens here, so a
        pooled kernel may be rebound the moment this returns: the plan
        walk per session, then the user's whole ``slot`` block (every op
        consumes exactly one uniform) and the interleave it drives, its
        ``write-mix`` block and its think (and phase) block.  Each named
        stream is still consumed session by session in draw order — a
        block only *regroups* draws across users, whose streams are
        disjoint — so a user's rows are the same whatever else the
        block holds.
        """
        type_idx = cols.user_types.intern(self.user_type.name)
        lengths, bounds = cols.lengths, cols.bounds
        row0 = cols.total
        first = len(bounds) - 1  # this user's first session
        mix0 = len(cols.mix_count)
        marks = [len(lengths)]
        for session_id in session_ids:
            self._append_session_plans(session_id, cols)
            bounds.append(cols.total)
            marks.append(len(lengths))
            cols.sess_user.append(self.user_id)
            cols.sess_id.append(session_id)
            cols.sess_type.append(type_idx)
        n = cols.total - row0
        # Interleave each session's plans: FIFO admission to the
        # open-file window, one slot uniform per op.
        uniforms = self._slot.take(n).tolist()
        order = [0] * n
        max_open = self.user_type.max_open_files
        for s in range(len(marks) - 1):
            _interleave(lengths, cols.offsets, marks[s], marks[s + 1],
                        uniforms, order, bounds[first + s] - row0, max_open)
        cols.order += order
        mix_n = sum(cols.mix_count[mix0:])
        if mix_n:
            cols.mix_draws.append(self._write_mix.take(mix_n))
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


def _sane_ratios(ratios: np.ndarray) -> np.ndarray:
    """Accesses-per-byte draws with non-finite or negative ones
    replaced by 0.0."""
    bad = ~(np.isfinite(ratios) & (ratios >= 0.0))
    if bad.any():
        ratios = np.where(bad, 0.0, ratios)
    return ratios


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
