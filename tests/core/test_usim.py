"""Unit tests for the User Simulator's session op-stream generation."""

import numpy as np
import pytest

from repro.core import (
    FileSystemCreator,
    PhaseModel,
    SessionGenerator,
    paper_user_type,
    paper_workload_spec,
)
from repro.distributions import RandomStreams
from repro.vfs import MemoryFileSystem


@pytest.fixture(scope="module")
def layout():
    spec = paper_workload_spec(n_users=2, total_files=200, seed=3)
    return FileSystemCreator(spec).create(MemoryFileSystem())


def make_generator(layout, user_id=0, think=5000.0, pattern="sequential",
                   phase_model=None, seed=3):
    return SessionGenerator(
        paper_user_type("t", think_time_mean_us=think),
        layout,
        RandomStreams(seed),
        user_id=user_id,
        access_pattern=pattern,
        phase_model=phase_model,
    )


def collect_ops(layout, sessions=3, **kwargs):
    generator = make_generator(layout, **kwargs)
    ops = []
    for sid in range(sessions):
        ops.append(list(generator.generate_session(sid)))
    return ops


class TestStreamConstraints:
    """The thesis's logical constraints on the independent op stream."""

    def test_open_precedes_data_ops(self, layout):
        for session in collect_ops(layout):
            open_plans = set()
            for op in session:
                if op.kind in ("open", "creat"):
                    assert op.plan_id not in open_plans
                    open_plans.add(op.plan_id)
                elif op.kind in ("read", "write", "lseek"):
                    assert op.plan_id in open_plans, (
                        f"{op.kind} before open (plan {op.plan_id})"
                    )
                elif op.kind == "close":
                    assert op.plan_id in open_plans
                    open_plans.remove(op.plan_id)
            assert not open_plans, "session left files open"

    def test_unlink_only_after_close(self, layout):
        for session in collect_ops(layout):
            closed_paths = set()
            open_paths = set()
            for op in session:
                if op.kind in ("open", "creat"):
                    open_paths.add(op.path)
                elif op.kind == "close":
                    closed_paths.add(op.path)
                    open_paths.discard(op.path)
                elif op.kind == "unlink":
                    assert op.path not in open_paths
                    assert op.path in closed_paths

    def test_max_open_files_respected(self, layout):
        user_type = paper_user_type("t")
        for session in collect_ops(layout):
            open_now = 0
            peak = 0
            for op in session:
                if op.kind in ("open", "creat"):
                    open_now += 1
                    peak = max(peak, open_now)
                elif op.kind == "close":
                    open_now -= 1
            assert peak <= user_type.max_open_files

    def test_think_follows_every_file_op(self, layout):
        for session in collect_ops(layout):
            for i, op in enumerate(session):
                if op.kind != "think" and i + 1 < len(session):
                    assert session[i + 1].kind == "think"

    def test_sequential_reads_do_not_exceed_file_size(self, layout):
        """Within a plan, bytes between rewinds never exceed the file size."""
        for session in collect_ops(layout):
            file_size = {}
            consumed = {}
            for op in session:
                if op.kind == "open":
                    file_size[op.plan_id] = op.size
                    consumed[op.plan_id] = 0
                elif op.kind == "lseek" and op.plan_id in consumed:
                    consumed[op.plan_id] = op.size
                elif op.kind in ("read", "write") and op.plan_id in file_size:
                    consumed[op.plan_id] += op.size
                    assert consumed[op.plan_id] <= file_size[op.plan_id]


class TestStreamContent:
    def test_rdonly_plans_never_write(self, layout):
        for session in collect_ops(layout, sessions=5):
            rdonly_plans = {
                op.plan_id
                for op in session
                if op.kind == "open" and op.category_key
                and op.category_key.endswith(":RDONLY")
                and op.category_key.startswith("REG")
            }
            for op in session:
                if op.kind == "write":
                    assert op.plan_id not in rdonly_plans

    def test_new_files_created_in_user_home(self, layout):
        for session in collect_ops(layout, sessions=5, user_id=1):
            for op in session:
                if op.kind == "creat":
                    assert op.path.startswith("/user01/")

    def test_temp_files_are_unlinked(self, layout):
        for session in collect_ops(layout, sessions=5):
            created_tmp = {op.path for op in session
                           if op.kind == "creat" and "/tmp-" in op.path}
            unlinked = {op.path for op in session if op.kind == "unlink"}
            assert created_tmp == unlinked

    def test_directory_plans_use_stat_and_listdir(self, layout):
        saw_listdir = False
        for session in collect_ops(layout, sessions=10):
            for op in session:
                if op.kind == "listdir":
                    saw_listdir = True
                    assert op.category_key.startswith("DIR")
        assert saw_listdir

    def test_zero_think_time_user(self, layout):
        for session in collect_ops(layout, think=0.0):
            for op in session:
                if op.kind == "think":
                    assert op.size == 0

    def test_think_times_roughly_exponential(self, layout):
        thinks = []
        for session in collect_ops(layout, sessions=10, think=5000.0):
            thinks.extend(op.size for op in session if op.kind == "think")
        assert len(thinks) > 100
        assert np.mean(thinks) == pytest.approx(5000.0, rel=0.25)

    def test_random_access_pattern_seeks(self, layout):
        sequential_seeks = sum(
            1
            for session in collect_ops(layout, sessions=3)
            for op in session
            if op.kind == "lseek"
        )
        random_seeks = sum(
            1
            for session in collect_ops(layout, sessions=3, pattern="random")
            for op in session
            if op.kind == "lseek"
        )
        # Random mode seeks before every chunk; sequential only on wrap.
        assert random_seeks > sequential_seeks

    def test_bad_access_pattern_rejected(self, layout):
        with pytest.raises(ValueError):
            make_generator(layout, pattern="zigzag")

    def test_deterministic_given_seed(self, layout):
        a = collect_ops(layout, sessions=2, seed=9)
        b = collect_ops(layout, sessions=2, seed=9)
        assert a == b

    def test_different_users_differ(self, layout):
        a = collect_ops(layout, sessions=1, user_id=0)
        b = collect_ops(layout, sessions=1, user_id=1)
        assert a != b

    def test_generate_session_draws_nothing_before_first_next(self, layout):
        # Creating a session's iterator draws nothing: an unadvanced
        # iterator must leave every stream and the plan counter where
        # they were.
        touched, fresh = make_generator(layout), make_generator(layout)
        unadvanced = touched.generate_session(0)
        assert touched._plan_counter == 0
        assert (list(touched.generate_session(1))
                == list(fresh.generate_session(1)))
        # ...and the whole session is drawn at the first next().
        next(unadvanced)
        assert touched._plan_counter > fresh._plan_counter


class TestPhaseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseModel(cpu_multiplier=-1.0)
        with pytest.raises(ValueError):
            PhaseModel(p_enter_cpu=1.5)

    def test_cpu_phase_inflates_think_time(self):
        rng = np.random.default_rng(0)
        model = PhaseModel(cpu_multiplier=10.0, p_enter_cpu=1.0,
                           p_exit_cpu=0.0)
        assert model.multiplier(rng) == 10.0  # enters CPU immediately
        assert model.state == "cpu"

    def test_exit_returns_to_io(self):
        rng = np.random.default_rng(0)
        model = PhaseModel(cpu_multiplier=10.0, p_enter_cpu=1.0,
                           p_exit_cpu=1.0)
        model.multiplier(rng)          # io -> cpu
        assert model.multiplier(rng) == 1.0  # cpu -> io
        assert model.state == "io"

    def test_phase_model_raises_mean_think(self, layout):
        def mean_think(phase_model):
            generator = make_generator(layout, phase_model=phase_model)
            thinks = []
            for sid in range(10):
                thinks.extend(
                    op.size for op in generator.generate_session(sid)
                    if op.kind == "think"
                )
            return np.mean(thinks)

        plain = mean_think(None)
        phased = mean_think(PhaseModel(cpu_multiplier=20.0,
                                       p_enter_cpu=0.3, p_exit_cpu=0.3))
        assert phased > plain * 2
