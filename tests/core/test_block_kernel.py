"""A block of users ≡ blocks of one user, bit for bit.

The columnar executor assembles, times and summarises a whole *block* of
users per array pass (`FastReplayBackend._run_block`).  How many
users share a block is a cost decision only: forcing blocks of one user,
of two, and of everyone must give the same artifact bytes, the same sink
event sequence (batch boundaries included — sinks fold per batch) and
the same running response-time floats.  The second half pins the
segmented clock: per-user clocks restart by *scanning*, never by
subtracting a base from a block-wide cumsum.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhaseModel, WorkloadGenerator, paper_workload_spec
from repro.core import execution
from repro.core.execution import _block_clocks
from repro.core.streamfile import StreamFileSink, TeeSink
from repro.fleet.merge import ShardAccumulator
from repro.scenarios import get_scenario, scenario_names

from .reference_scalar import reference_run

USERS = 7
EVERYONE = 10**9
# (users per block, rows per block): one user, two users, everyone.
BLOCKINGS = {"one": (EVERYONE, 1), "two": (2, EVERYONE),
             "everyone": (EVERYONE, EVERYONE)}


class EventSink:
    """Records the sink event sequence exactly as the executor emits it."""

    def __init__(self):
        self.events = []

    def record_batch(self, batch):
        self.events.append(("batch", len(batch)))

    def record_session(self, record):
        self.events.append(("session", record))


def run_blocked(monkeypatch, generator, blocking, tmp_path, **kwargs):
    """One columnar run under a forced blocking; everything observable."""
    users, rows = BLOCKINGS[blocking]
    monkeypatch.setattr(execution, "_SEAT_BLOCK_USERS", users)
    monkeypatch.setattr(execution, "_BLOCK_ROW_CAP", rows)
    events = EventSink()
    tally = ShardAccumulator(collect_ops=True)
    path = tmp_path / f"{blocking}.opstream"
    with StreamFileSink(str(path), memory_budget_bytes=64 << 10) as stream:
        result = generator.run_simulated(
            backend="fast-columnar", log=TeeSink(events, tally, stream),
            **kwargs)
    stats = tally.response_us
    return {
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "events": events.events,
        "response_us": (stats.count, stats._mean, stats._m2,
                        stats.minimum, stats.maximum),
        "duration_us": result.simulated_duration_us,
        "operations": tally.log.operations,
        "sessions": tally.log.sessions,
    }


def assert_blockings_agree(monkeypatch, generator, tmp_path, **kwargs):
    reference = run_blocked(monkeypatch, generator, "one", tmp_path, **kwargs)
    for blocking in ("two", "everyone"):
        got = run_blocked(monkeypatch, generator, blocking, tmp_path,
                          **kwargs)
        for key, expected in reference.items():
            assert got[key] == expected, (blocking, key)
    return reference


@pytest.fixture(scope="module")
def generators():
    """One generator per scenario (engine-free runs leave it unchanged)."""
    return {name: WorkloadGenerator(
        get_scenario(name).build(USERS, 23, total_files=160))
        for name in scenario_names()}


class TestBlockEqualsOneUser:
    @pytest.mark.parametrize("sessions", [1, 4])
    @pytest.mark.parametrize("arrivals", [False, True])
    @pytest.mark.parametrize("phases", [False, True])
    @pytest.mark.parametrize("access_pattern", ["sequential", "random"])
    @pytest.mark.parametrize("name", scenario_names())
    def test_matrix(self, monkeypatch, tmp_path, generators, name,
                    access_pattern, phases, arrivals, sessions):
        reference = assert_blockings_agree(
            monkeypatch, generators[name], tmp_path,
            sessions_per_user=sessions,
            access_pattern=access_pattern,
            phase_model_factory=PhaseModel if phases else None,
            arrivals=get_scenario(name).arrival_model if arrivals else None,
        )
        assert len(reference["sessions"]) == USERS * sessions
        assert reference["operations"]

    def test_user_ids_subset_is_the_full_runs_rows(self, monkeypatch,
                                                   tmp_path, generators):
        generator = generators["mixed-campus"]
        kwargs = {"sessions_per_user": 2}
        full = run_blocked(monkeypatch, generator, "everyone", tmp_path,
                           **kwargs)
        subset = assert_blockings_agree(
            monkeypatch, generator, tmp_path, user_ids=[1, 4, 5], **kwargs)
        assert subset["operations"] == [
            op for op in full["operations"] if op.user_id in (1, 4, 5)]
        assert subset["sessions"] == [
            s for s in full["sessions"] if s.user_id in (1, 4, 5)]

    def test_mixed_user_types_share_a_block(self, monkeypatch, tmp_path,
                                            generators):
        reference = assert_blockings_agree(
            monkeypatch, generators["mixed-campus"], tmp_path,
            sessions_per_user=1)
        assert len({s.user_type for s in reference["sessions"]}) > 1


def idle_edges_spec():
    """Heavy users between two idle types whose every fraction gate
    fails: zero-row users open and close the block."""
    base = paper_workload_spec(n_users=6, total_files=150, seed=5)
    heavy, = base.user_types

    def idle(name):
        return dataclasses.replace(
            heavy, name=name, fraction=0.25,
            usage=tuple(dataclasses.replace(u, fraction_of_users=0.0)
                        for u in heavy.usage))

    return dataclasses.replace(base, user_types=(
        idle("idle-a"), dataclasses.replace(heavy, fraction=0.5),
        idle("idle-b")))


class TestZeroRowUsers:
    def test_summaries_still_emitted(self, monkeypatch, tmp_path):
        generator = WorkloadGenerator(idle_edges_spec())
        reference = assert_blockings_agree(
            monkeypatch, generator, tmp_path, sessions_per_user=2)
        idle = [s for s in reference["sessions"]
                if s.user_type.startswith("idle")]
        assert len(idle) >= 4 and len(reference["sessions"]) == 12
        assert all(s.files_referenced == s.bytes_accessed == 0
                   and s.categories == () and s.start_us == s.end_us
                   for s in idle)
        # An idle session is an empty batch, then its summary.
        first_idle = reference["events"].index(("session", idle[0]))
        assert reference["events"][first_idle - 1] == ("batch", 0)
        scalar, _ = reference_run(generator.spec, 2)
        assert scalar.sessions == reference["sessions"]
        assert scalar.operations == reference["operations"]


class TestTimeLimitInsideABlock:
    """Every cutoff position, each against the scalar reference too."""

    KWARGS = {"sessions_per_user": 2}

    @pytest.fixture(scope="class")
    def generator(self):
        return WorkloadGenerator(
            get_scenario("mixed-campus").build(USERS, 31, total_files=160))

    @pytest.fixture(scope="class")
    def full(self, generator):
        return generator.run_simulated(
            backend="fast", arrivals=self.arrivals(), **self.KWARGS).log

    @staticmethod
    def arrivals():
        return get_scenario("mixed-campus").arrival_model

    def check(self, monkeypatch, tmp_path, generator, limit):
        kwargs = dict(self.KWARGS, arrivals=self.arrivals(),
                      time_limit_us=limit)
        reference = assert_blockings_agree(
            monkeypatch, generator, tmp_path, **kwargs)
        scalar, duration = reference_run(generator.spec, **kwargs)
        assert scalar.operations == reference["operations"]
        assert scalar.sessions == reference["sessions"]
        assert duration == reference["duration_us"]
        return reference

    def test_limit_before_a_users_offset(self, monkeypatch, tmp_path,
                                         generator, full):
        logins = sorted(s.start_us for s in full.sessions
                        if s.session_id == 0)
        got = self.check(monkeypatch, tmp_path, generator,
                         (logins[2] + logins[3]) / 2)
        assert len({op.user_id for op in got["operations"]}) == 3

    def test_limit_exactly_on_an_op_start(self, monkeypatch, tmp_path,
                                          generator, full):
        ops = sorted(full.operations, key=lambda op: op.start_us)
        target = ops[len(ops) // 2]
        got = self.check(monkeypatch, tmp_path, generator, target.start_us)
        assert target not in got["operations"]
        assert all(op.start_us < target.start_us
                   for op in got["operations"])

    def test_limit_on_a_trailing_think(self, monkeypatch, tmp_path,
                                       generator, full):
        session = next(
            s for s in sorted(full.sessions, key=lambda s: s.end_us)
            if self.last_op(full, s).start_us
            + self.last_op(full, s).response_us < s.end_us)
        last = self.last_op(full, session)
        limit = (last.start_us + last.response_us + session.end_us) / 2
        got = self.check(monkeypatch, tmp_path, generator, limit)
        assert last in got["operations"]
        assert session not in got["sessions"]

    @staticmethod
    def last_op(log, session):
        return [op for op in log.operations
                if (op.user_id, op.session_id)
                == (session.user_id, session.session_id)][-1]

    def test_limit_mid_block(self, monkeypatch, tmp_path, generator, full):
        ends = sorted(s.end_us for s in full.sessions)
        got = self.check(monkeypatch, tmp_path, generator,
                         ends[len(ends) // 2] + 0.5)
        assert 0 < len(got["sessions"]) < len(full.sessions)
        assert 0 < len(got["operations"]) < len(full.operations)


# -- the segmented clock -------------------------------------------------------


def user_clock(offset, services, thinks, rows, gaps):
    """One user's clocks by the scalar rule: a running float sum from its
    own offset (``np.cumsum`` accumulates left to right)."""
    contrib = [offset]
    session_slots = []
    row = 0
    for n, gap in zip(rows, gaps):
        start = len(contrib) - 1
        for _ in range(n):
            contrib += [services[row], thinks[row]]
            row += 1
        session_slots.append((start, len(contrib) - 1))
        contrib.append(gap)
    clock = np.cumsum(np.asarray(contrib, dtype=np.float64))
    op_slots, slot = [], 0
    for n in rows:
        op_slots += range(slot, slot + 2 * n, 2)
        slot += 2 * n + 1
    return (clock[op_slots], clock[[a for a, _ in session_slots]],
            clock[[b for _, b in session_slots]], clock[-1])


@st.composite
def blocks(draw):
    """Users with adversarial magnitudes: offsets ~1e12 µs carrying
    fractions, sub-µs services, zero-row users and sessions anywhere."""
    users = []
    for _ in range(draw(st.integers(1, 5))):
        rows = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
        n = sum(rows)
        users.append({
            "offset": draw(st.floats(0.0, 4e12, allow_nan=False)),
            "rows": rows,
            "services": draw(st.lists(
                st.floats(1e-4, 5e3, allow_nan=False),
                min_size=n, max_size=n)),
            "thinks": draw(st.lists(st.integers(0, 10**7),
                                    min_size=n, max_size=n)),
            "gaps": draw(st.lists(st.floats(0.0, 1e9, allow_nan=False),
                                  min_size=len(rows), max_size=len(rows))),
        })
    return users


def block_arguments(users):
    rows = [n for user in users for n in user["rows"]]
    return dict(
        service=np.asarray([x for u in users for x in u["services"]],
                           dtype=np.float64),
        think_us=np.asarray([x for u in users for x in u["thinks"]],
                            dtype=np.int64),
        bounds=np.concatenate(([0], np.cumsum(rows))).astype(np.int64),
        user_sess=np.concatenate(
            ([0], np.cumsum([len(u["rows"]) for u in users]))
        ).astype(np.int64),
        offsets=[u["offset"] for u in users],
        gaps=[gap for u in users for gap in u["gaps"]],
    )


def expected_clocks(users):
    per_user = [user_clock(u["offset"], u["services"], u["thinks"],
                           u["rows"], u["gaps"]) for u in users]
    return (np.concatenate([c[0] for c in per_user]),
            np.concatenate([c[1] for c in per_user]),
            np.concatenate([c[2] for c in per_user]),
            np.asarray([c[3] for c in per_user]))


class TestSegmentedClock:
    @settings(max_examples=200, deadline=None)
    @given(blocks())
    def test_block_clocks_equal_per_user_cumsum(self, users):
        got = _block_clocks(**block_arguments(users))
        for mine, theirs in zip(got, expected_clocks(users)):
            # == on float64: the clock is pinned bit for bit, not approx.
            assert mine.dtype == np.float64
            assert np.array_equal(mine, theirs)

    def test_zero_row_users_at_block_edges(self):
        idle = {"offset": 3e12 + 0.3, "rows": [0, 0], "services": [],
                "thinks": [], "gaps": [7.25, 0.0]}
        busy = {"offset": 1e12 + 0.1, "rows": [2, 0, 1],
                "services": [0.1, 0.2, 0.3], "thinks": [3, 0, 5],
                "gaps": [1.5, 2.5, 0.0]}
        users = [idle, busy, idle]
        got = _block_clocks(**block_arguments(users))
        for mine, theirs in zip(got, expected_clocks(users)):
            assert np.array_equal(mine, theirs)
        assert got[1][:2].tolist() == [3e12 + 0.3, (3e12 + 0.3) + 7.25]

    def test_one_cumsum_minus_offsets_is_not_the_clock(self):
        """The trap, pinned: a block-wide running sum rebased per user
        is equal on paper and different in float64."""
        users = [{"offset": 1e12 + 0.25, "rows": [4],
                  "services": [0.1, 0.7, 0.3, 0.9], "thinks": [0, 1, 0, 2],
                  "gaps": [0.0]},
                 {"offset": 0.5, "rows": [4],
                  "services": [0.1, 0.7, 0.3, 0.9], "thinks": [0, 1, 0, 2],
                  "gaps": [0.0]}]
        args = block_arguments(users)
        steps = np.zeros(2 * len(args["service"]))
        steps[0::2] = args["service"]
        steps[1::2] = args["think_us"]
        running = np.concatenate(([0.0], np.cumsum(steps)))[:-1:2]
        rebased = np.concatenate([
            users[0]["offset"] + (running[:4] - running[0]),
            users[1]["offset"] + (running[4:] - running[4])])
        exact = expected_clocks(users)[0]
        assert np.allclose(rebased, exact, rtol=1e-12, atol=0.0)
        assert not np.array_equal(rebased, exact)
        assert np.array_equal(_block_clocks(**args)[0], exact)
