"""The scalar synthesis/replay twin, kept as the reference.

Until PR 18 these functions were methods of ``SessionGenerator`` (the
per-op plan builders on ``_FilePlan``/``SessionOp`` objects) and of
``FastReplayBackend`` (the per-op replay loop).  Production now has one
columnar plan builder and one block executor; this module is what they
are compared against, and shares none of their array code: one Python
object per op, one scalar draw per variate, Python ints throughout.

The bodies are the parent commit's methods moved verbatim — ``self``
became the ``generator`` argument, a method call became a function
call, nothing else.  The only production code they lean on is the
generator's *state*: its per-quantity samplers and ``_sample_count``.

* :func:`session_ops` — one login session as scalar ``SessionOp``
  objects (was ``SessionGenerator.generate_session``);
* :func:`replay` — the engine-free replay of a task list into a sink
  (was ``FastReplayBackend.execute``);
* :func:`reference_run` — ``WorkloadGenerator.run_simulated``'s plan and
  task construction with :func:`replay` as the executor (new: what the
  golden tests call where they used to run ``backend="fast"``);
* :class:`SessionAccounting` and :func:`apply_op_effects` — the per-op
  session summary :func:`replay` folds each op into (were
  ``repro.core.oplog``'s, moved verbatim; every production executor now
  calls ``repro.core.execution.session_summaries``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from typing import Iterable, Iterator

from repro.core import (
    AnalyticServiceModel,
    OpRecord,
    OpSink,
    SessionOp,
    SessionRecord,
    UsageLog,
    UserSessions,
    WorkloadGenerator,
)
from repro.core.spec import UseType
from repro.core.synthesis import _UsageSamplers
from repro.nfs import NfsTiming
from repro.vfs import MemoryFileSystem, OpenFlags

__all__ = ["session_ops", "replay", "reference_run"]


class SessionAccounting:
    """Accumulates one session's measures into a :class:`SessionRecord`.

    Shared by every execution backend (DES, fast replay, real runner) so
    the session summaries they record are computed identically.
    """

    def __init__(self, user_id: int, user_type: str, session_id: int,
                 start_us: float):
        self.user_id = user_id
        self.user_type = user_type
        self.session_id = session_id
        self.start_us = start_us
        self.file_sizes: dict[str, int] = {}
        self.bytes_accessed = 0
        self.categories: set[str] = set()

    def saw_file(self, path: str, size: int, category_key: str | None) -> None:
        """Note a referenced file; a growing file keeps its maximum size."""
        self.file_sizes[path] = max(self.file_sizes.get(path, 0), size)
        if category_key:
            self.categories.add(category_key)

    def accessed(self, nbytes: int) -> None:
        """Count ``nbytes`` of data movement."""
        self.bytes_accessed += nbytes

    def finish(self, end_us: float) -> SessionRecord:
        """Close the session and produce its summary record."""
        return SessionRecord(
            user_id=self.user_id,
            user_type=self.user_type,
            session_id=self.session_id,
            start_us=self.start_us,
            end_us=end_us,
            files_referenced=len(self.file_sizes),
            bytes_accessed=self.bytes_accessed,
            file_bytes_referenced=sum(self.file_sizes.values()),
            categories=tuple(sorted(self.categories)),
        )


def apply_op_effects(op, accounting: SessionAccounting,
                     moved: "int | None" = None) -> int:
    """Fold one executed op into ``accounting``; return the size to record.

    This is the single source of truth for what each op kind contributes
    to session measures and to the :class:`OpRecord` ``size`` column:
    open/creat/stat reference a file (size 0 recorded), read/write move
    ``moved`` bytes (the executor's observed count, defaulting to the
    synthesized ``op.size``), listdir moves the directory size, and
    lseek/close/unlink move nothing.  Every execution backend (DES, fast
    replay, real runner) goes through here, which is what keeps their
    recorded streams byte-identical.
    """
    kind = op.kind
    if kind in ("open", "creat", "stat"):
        accounting.saw_file(op.path, op.size, op.category_key)
        return 0
    if kind in ("read", "write"):
        nbytes = op.size if moved is None else moved
        accounting.accessed(nbytes)
        return nbytes
    if kind == "listdir":
        accounting.accessed(op.size)
        return op.size
    if kind in ("lseek", "close", "unlink"):
        return 0
    raise ValueError(f"unknown op kind {kind!r}")


class _FilePlan:
    """A per-file script: open → data ops → close (+unlink for TEMP)."""

    def __init__(self, plan_id: int, ops: list[SessionOp]):
        self.plan_id = plan_id
        self._ops = ops
        self._next = 0

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._ops)

    def pop(self) -> SessionOp:
        op = self._ops[self._next]
        self._next += 1
        return op


def _sample_ratio(generator, samplers: _UsageSamplers) -> float:
    """A non-negative, finite accesses-per-byte draw."""
    ratio = samplers.access_per_byte.draw()
    if not math.isfinite(ratio) or ratio < 0.0:
        return 0.0
    return ratio


def _sample_access_budget(generator, samplers: _UsageSamplers,
                          file_size: int) -> int:
    return int(round(_sample_ratio(generator, samplers) * file_size))


def _sample_file_size(generator, samplers: _UsageSamplers) -> int:
    raw = samplers.file_size.draw()
    if not math.isfinite(raw):
        return 1
    return max(1, int(round(raw)))


def _sample_chunk(generator, remaining: int) -> int:
    raw = generator._chunk.draw()
    if not math.isfinite(raw):
        return 1
    return max(1, min(int(round(raw)), remaining))


def _sample_think_us(generator) -> int:
    raw = generator._think.draw()
    if generator.phase_model is not None:
        raw *= generator.phase_model.step(generator._phase.draw())
    if not math.isfinite(raw) or raw < 0.0:
        return 0
    return int(round(raw))


def _seek_offset(generator, file_size: int) -> int:
    """A uniform random offset in ``[0, file_size)`` (random mode)."""
    return min(int(generator._seek.draw() * file_size), file_size - 1)


def _data_ops(generator, plan_id: int, budget: int, file_size: int,
              write_fraction: float,
              category_key: str | None = None) -> list[SessionOp]:
    """Chunked read/write ops consuming ``budget`` bytes of a file.

    Sequential mode walks the file, wrapping to offset 0 at EOF (the
    thesis models sequential access only); random mode seeks to a
    uniform offset before every chunk.
    """
    ops: list[SessionOp] = []
    if budget <= 0 or file_size <= 0:
        return ops
    position = 0
    remaining = budget
    while remaining > 0:
        if generator.access_pattern == "random":
            position = _seek_offset(generator, file_size)
            ops.append(SessionOp("lseek", plan_id=plan_id, size=position,
                                 category_key=category_key))
        elif position >= file_size:
            position = 0
            ops.append(SessionOp("lseek", plan_id=plan_id, size=0,
                                 category_key=category_key))
        chunk = _sample_chunk(generator, min(
            remaining, file_size - position
            if generator.access_pattern == "sequential"
            else remaining))
        chunk = min(chunk, file_size - position)
        if chunk <= 0:
            position = 0
            continue
        is_write = generator._write_mix.draw() < write_fraction
        ops.append(
            SessionOp(
                "write" if is_write else "read",
                plan_id=plan_id,
                size=chunk,
                category_key=category_key,
            )
        )
        position += chunk
        remaining -= chunk
    return ops


def _pathed(path: str, ops: list[SessionOp]) -> list[SessionOp]:
    """``ops`` carrying their plan's path (the columnar layout puts it
    on every row of a plan)."""
    return [replace(op, path=path) for op in ops]


def _write_out_ops(generator, plan_id: int, target_size: int,
                   category_key: str | None = None) -> list[SessionOp]:
    """Sequential writes creating ``target_size`` bytes of fresh file."""
    ops: list[SessionOp] = []
    written = 0
    while written < target_size:
        chunk = _sample_chunk(generator, target_size - written)
        ops.append(SessionOp("write", plan_id=plan_id, size=chunk,
                             category_key=category_key))
        written += chunk
    return ops


def _plan_for_existing(generator, samplers: _UsageSamplers, path: str,
                       file_size: int) -> _FilePlan:
    """RDONLY / RD-WRT plan over a file the FSC created."""
    category = samplers.usage.category
    plan_id = _next_plan_id(generator)
    budget = _sample_access_budget(generator, samplers, file_size)
    write_fraction = 0.5 if category.use is UseType.RD_WRT else 0.0
    mode = OpenFlags.RDWR if category.writes else OpenFlags.RDONLY
    ops = [
        SessionOp("open", plan_id=plan_id, path=path,
                  category_key=category.key, size=file_size, flags=mode)
    ]
    ops.extend(_pathed(path, _data_ops(generator, plan_id, budget,
                                       file_size, write_fraction,
                                       category_key=category.key)))
    ops.append(SessionOp("close", plan_id=plan_id, path=path,
                         category_key=category.key))
    return _FilePlan(plan_id, ops)


def _plan_for_new(generator, samplers: _UsageSamplers, path: str,
                  temporary: bool) -> _FilePlan:
    """NEW / TEMP plan: create, write out, (re-read and unlink)."""
    category = samplers.usage.category
    plan_id = _next_plan_id(generator)
    target_size = _sample_file_size(generator, samplers)
    flags = OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC
    ops = [
        SessionOp("creat", plan_id=plan_id, path=path,
                  category_key=category.key, size=target_size,
                  flags=flags)
    ]
    ops.extend(_pathed(path, _write_out_ops(generator, plan_id, target_size,
                                            category_key=category.key)))
    # Spend the rest of the category's access budget re-reading the
    # fresh file: Table 5.2 gives NEW files 2.36 accesses per byte and
    # TEMP files 2.00, i.e. well beyond the single write-out pass.
    budget = _sample_access_budget(generator, samplers, target_size)
    read_budget = max(0, budget - target_size)
    if read_budget > 0:
        ops.append(SessionOp("lseek", plan_id=plan_id, path=path, size=0,
                             category_key=category.key))
        ops.extend(_pathed(path, _data_ops(
            generator, plan_id, read_budget, target_size, 0.0,
            category_key=category.key)))
    ops.append(SessionOp("close", plan_id=plan_id, path=path,
                         category_key=category.key))
    if temporary:
        ops.append(SessionOp("unlink", path=path,
                             category_key=category.key))
    return _FilePlan(plan_id, ops)


def _plan_for_directory(generator, samplers: _UsageSamplers, path: str,
                        dir_size: int) -> _FilePlan:
    """DIR plan: stat once, then one readdir per whole-directory pass."""
    category = samplers.usage.category
    plan_id = _next_plan_id(generator)
    passes = max(1, int(round(_sample_ratio(generator, samplers))))
    ops = [SessionOp("stat", path=path, category_key=category.key,
                     plan_id=plan_id, size=dir_size)]
    for _ in range(passes):
        ops.append(SessionOp("listdir", path=path,
                             category_key=category.key, size=dir_size))
    return _FilePlan(plan_id, ops)


def _next_plan_id(generator) -> int:
    generator._plan_counter += 1
    return generator._plan_counter


def _session_plan_specs(generator, session_id: int):
    """Yield one ``(shape, samplers, path, extra)`` spec per file plan.

    This is the session's *selection* walk — which categories fire,
    how many files, which pool members — shared verbatim by the
    scalar (:meth:`_build_plans`) and columnar
    (:meth:`generate_session_batch`) paths so both consume the
    ``select`` stream identically.  ``extra`` is the ``temporary``
    flag for ``"new"`` plans and the file/directory size otherwise.
    Specs are yielded lazily: new-file paths embed the live plan
    counter, which the consumer advances between specs exactly as
    the pre-refactor loop did.
    """
    for samplers in generator._usage_samplers:
        usage = samplers.usage
        if generator._rng_select.random() >= usage.fraction_of_users:
            continue
        category = usage.category
        count = generator._sample_count(samplers)
        if category.creates_files:
            temporary = category.use is UseType.TEMP
            home = generator.layout.user_home(generator.user_id)
            prefix = "tmp" if temporary else "new"
            for k in range(count):
                path = (
                    f"{home}/{prefix}-s{session_id:04d}-"
                    f"p{generator._plan_counter:05d}-{k}"
                )
                yield "new", samplers, path, temporary
            continue
        # The pool by definition: the manifest's files of this category
        # owned by this user (or shared), in creation order.
        owner = None if category.is_shared else generator.user_id
        pool = [record for record in generator.layout.files
                if record.category_key == category.key
                and record.owner_user == owner]
        if not pool:
            continue
        chosen_idx = generator._rng_select.choice(
            len(pool), size=min(count, len(pool)), replace=False
        )
        for idx in chosen_idx.reshape(-1):
            record = pool[int(idx)]
            shape = "dir" if category.is_directory else "existing"
            yield shape, samplers, record.path, record.size


def _build_plans(generator, session_id: int) -> list[_FilePlan]:
    plans: list[_FilePlan] = []
    for shape, samplers, path, extra in _session_plan_specs(
        generator, session_id
    ):
        if shape == "new":
            plans.append(_plan_for_new(generator, samplers, path, extra))
        elif shape == "dir":
            plans.append(
                _plan_for_directory(generator, samplers, path, extra))
        else:
            plans.append(
                _plan_for_existing(generator, samplers, path, extra))
    return plans


def session_ops(generator, session_id: int) -> Iterator[SessionOp]:
    """Yield the operation stream of one login session.

    File plans are interleaved by independent random selection among
    the currently open files (the thesis's independence assumption),
    with at most ``user_type.max_open_files`` concurrently open.
    A think-time operation follows every file operation.
    """
    # deque: popping the head of a list is O(n) per pop, O(n²) per
    # session; popleft keeps the identical FIFO order in O(1).
    pending = deque(_build_plans(generator, session_id))
    active: list[_FilePlan] = []
    max_open = generator.user_type.max_open_files
    while pending or active:
        while pending and len(active) < max_open:
            active.append(pending.popleft())
        if not active:
            break
        # One uniform per op; floor(u * width) can land on width
        # itself only through float rounding of u ≈ 1, hence the
        # clamp (same rule as _seek_offset).
        slot = int(generator._slot.draw() * len(active))
        if slot == len(active):
            slot -= 1
        plan = active[slot]
        op = plan.pop()
        yield op
        if plan.exhausted:
            active.pop(slot)
        think = _sample_think_us(generator)
        yield SessionOp("think", size=think)


def _run_user(model, task: UserSessions, log: OpSink) -> float:
    generator = task.generator
    user_id = generator.user_id
    type_name = generator.user_type.name
    response_us = model.response_us
    record_op = log.record_op
    clock = task.offset_us
    for session_id in range(task.sessions):
        accounting = SessionAccounting(user_id, type_name, session_id,
                                       clock)
        for op in session_ops(generator, session_id):
            kind = op.kind
            if kind == "think":
                clock += op.size
                continue
            # No I/O happens here, so the recorded size is the
            # synthesized one — the same rules as the other backends,
            # via the shared helper.
            moved = apply_op_effects(op, accounting)
            service = response_us(kind, op.size)
            record_op(
                OpRecord(
                    user_id=user_id,
                    user_type=type_name,
                    session_id=session_id,
                    op=kind,
                    path=op.path or "",
                    category_key=op.category_key or "",
                    size=moved,
                    start_us=clock,
                    response_us=service,
                )
            )
            clock += service
        log.record_session(accounting.finish(clock))
        gap = task.gap_after_us(session_id)
        if gap > 0:
            clock += gap
    return clock


def replay(tasks: Iterable[UserSessions], log: OpSink,
           timing: NfsTiming | None = None) -> float:
    """Run every task in order on its own clock; the slowest user's
    final clock is the duration."""
    model = AnalyticServiceModel(timing)
    duration = 0.0
    for task in tasks:
        duration = max(duration, _run_user(model, task, log))
    return duration


def reference_run(spec, sessions_per_user: int = 1, *,
                  access_pattern: str = "sequential",
                  phase_model_factory=None, arrivals=None,
                  log: OpSink | None = None, pooled: bool = False):
    """One engine-free run of ``spec`` through :func:`replay`.

    Plans, lays out and builds tasks exactly as ``run_simulated`` does
    for an engine-free backend (manifest-only layout, schedules resolved
    per user); ``pooled`` rebinds one kernel per user type instead of
    constructing a generator per user.  Returns ``(log, duration_us)``.
    """
    workload = WorkloadGenerator(spec)
    layout = workload.create_file_system(
        MemoryFileSystem(), materialize_users=set(),
        materialize_shared=False,
    )
    assignment, selected = workload.plan_users()
    tasks = (
        UserSessions(
            generator, sessions_per_user,
            schedule=(arrivals.schedule(workload.streams, generator.user_id,
                                        sessions_per_user)
                      if arrivals is not None else None),
        )
        for generator in workload.iter_synthesized_users(
            layout, selected, assignment,
            access_pattern=access_pattern,
            phase_model_factory=phase_model_factory,
            reuse_kernels=pooled,
        )
    )
    log = UsageLog() if log is None else log
    return log, replay(tasks, log)
