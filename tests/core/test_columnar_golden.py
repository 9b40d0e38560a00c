"""Golden reference-vs-production equivalence, across the scenario space.

Production has one plan builder (columns, pre-drawn blocks) and one
engine-free executor (a block of users per array pass).  What they must
reproduce is the scalar twin they replaced, kept verbatim in
``reference_scalar.py``: one object per op, one draw per variate, one
running float clock per user.

* **synthesis** — `session_ops` against
  `generate_session_batch(...).iter_session_ops()` (what
  `generate_session` yields): every scenario, and the paper spec ×
  access pattern × phase model;
* **replay** — `replay` against the executor behind `--backend fast` /
  `fast-columnar`: records (timing included), summaries, duration and
  fleet tallies — plain, with arrivals, over pooled kernels;
* **DES** — content identity with the same reference (it reads the
  builder's batch through the per-op bridge).
"""

import pytest

from repro.core import (
    DEFAULT_ARRIVALS,
    HOUR_US,
    PhaseModel,
    StreamFileSink,
    StreamReader,
    UsageLog,
    WorkloadGenerator,
    paper_workload_spec,
)
from repro.core.opbatch import RecordBatcher
from repro.fleet import FleetConfig, run_fleet
from repro.fleet.merge import ShardAccumulator
from repro.scenarios import get_scenario, scenario_names
from repro.vfs import MemoryFileSystem

from .reference_scalar import reference_run, session_ops

SPEC = paper_workload_spec(n_users=3, total_files=150, seed=11)


def synthesizers(spec, access_pattern="sequential", phases=False):
    """Two stream-aligned generator sets for one spec (reference and
    production consume the same per-user streams, so each side needs
    its own fresh ``WorkloadGenerator``)."""
    out = []
    for _ in range(2):
        generator = WorkloadGenerator(spec)
        layout = generator.create_file_system(
            MemoryFileSystem(), materialize_users=set(),
            materialize_shared=False,
        )
        assignment, selected = generator.plan_users()
        out.append(list(generator.iter_synthesized_users(
            layout, selected, assignment,
            access_pattern=access_pattern,
            phase_model_factory=PhaseModel if phases else None,
        )))
    return out


def assert_streams_identical(spec, access_pattern, phases, sessions=2):
    scalar_users, columnar_users = synthesizers(spec, access_pattern, phases)
    compared = 0
    for scalar_gen, columnar_gen in zip(scalar_users, columnar_users):
        for session_id in range(sessions):
            scalar = list(session_ops(scalar_gen, session_id))
            batch = columnar_gen.generate_session_batch(session_id)
            columnar = list(batch.iter_session_ops())
            assert scalar == columnar
            compared += len(scalar)
    assert compared > 0


class TestSessionStreamsAcrossScenarios:
    """Every registered scenario: reference and production synthesis
    agree."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_streams_identical(self, name):
        scenario = get_scenario(name)
        spec = scenario.build(4, 13)
        assert_streams_identical(
            spec, scenario.access_pattern, scenario.use_phase_model,
            sessions=1,
        )


class TestSessionStreamsMatrix:
    """Paper spec × access pattern × phase model."""

    @pytest.mark.parametrize("access_pattern", ["sequential", "random"])
    @pytest.mark.parametrize("phases", [False, True])
    def test_streams_identical(self, access_pattern, phases):
        assert_streams_identical(SPEC, access_pattern, phases)


def assert_replays_identical(spec, sessions, pooled=False, **kwargs):
    """Reference replay ≡ the executor: records (timing included),
    summaries, duration."""
    reference, duration = reference_run(spec, sessions, pooled=pooled,
                                        **kwargs)
    produced = WorkloadGenerator(spec).run_simulated(
        sessions_per_user=sessions, backend="fast-columnar", **kwargs)
    assert reference.operations == produced.log.operations
    assert reference.sessions == produced.log.sessions
    assert duration == produced.simulated_duration_us
    return reference


def scenario_kwargs(scenario, arrivals):
    return {
        "access_pattern": scenario.access_pattern,
        "phase_model_factory": (PhaseModel if scenario.use_phase_model
                                else None),
        "arrivals": ((scenario.arrival_model or DEFAULT_ARRIVALS)
                     if arrivals else None),
    }


class TestReplayMatrix:
    """Reference replay vs the one engine-free executor."""

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("kwargs", [
        {},
        {"access_pattern": "random"},
        {"phase_model_factory": PhaseModel},
        {"access_pattern": "random", "phase_model_factory": PhaseModel},
    ])
    def test_records_identical(self, kwargs, pooled):
        reference = assert_replays_identical(SPEC, 2, pooled=pooled, **kwargs)
        assert reference.operations and reference.sessions

    @pytest.mark.parametrize("arrivals", [False, True])
    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_records_identical(self, name, arrivals):
        scenario = get_scenario(name)
        reference = assert_replays_identical(
            scenario.build(4, 17), 2, pooled=True,
            **scenario_kwargs(scenario, arrivals))
        assert reference.operations
        if arrivals:  # the timeline did move: nobody starts at clock 0
            assert min(op.start_us for op in reference.operations) > 0.0

    @pytest.mark.parametrize("arrivals", [False, True])
    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_artifact_holds_whole_sessions(self, tmp_path, name,
                                                    arrivals):
        # Runs end when their sessions end, so the artifact alone holds
        # every session whole: read back, it is the reference run.
        scenario = get_scenario(name)
        spec = scenario.build(4, 17)
        kwargs = scenario_kwargs(scenario, arrivals)
        path = str(tmp_path / "run.opstream")
        with StreamFileSink(path, memory_budget_bytes=16 << 10) as sink:
            result = WorkloadGenerator(spec).run_simulated(
                sessions_per_user=2, backend="fast-columnar", log=sink,
                **kwargs)
        log = UsageLog()
        with StreamReader(path) as reader:
            reader.replay(log)
        assert_sessions_complete(log, spec.n_users, 2,
                                 result.simulated_duration_us)
        reference, duration = reference_run(spec, 2, **kwargs)
        assert log.sessions == reference.sessions
        assert duration == result.simulated_duration_us


def assert_sessions_complete(log, users, sessions, duration_us):
    """Every session in ``log`` ran to completion: one summary per
    (user, session), every op inside its session's span, and the run
    lasting at least until the last session ended."""
    spans = {(s.user_id, s.session_id): (s.start_us, s.end_us)
             for s in log.sessions}
    assert len(log.sessions) == len(spans) == users * sessions
    assert log.operations
    for op in log.operations:
        start, end = spans[(op.user_id, op.session_id)]
        assert start <= op.start_us
        assert op.start_us + op.response_us <= end
    assert duration_us >= max(end for _, end in spans.values())


def content_by_user(log):
    """Per-user, in-order, timing-free projection of an op log (the DES
    interleaves users on the engine clock)."""
    out = {}
    for op in log.operations:
        out.setdefault(op.user_id, []).append(
            (op.session_id, op.op, op.path, op.category_key, op.size)
        )
    return out


def content_sessions(log):
    return sorted(
        (s.user_id, s.user_type, s.session_id, s.files_referenced,
         s.bytes_accessed, s.file_bytes_referenced, s.categories)
        for s in log.sessions
    )


class TestDesContent:
    """The DES issues the reference's stream, read through the bridge."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario(self, name):
        scenario = get_scenario(name)
        spec = scenario.build(4, 13)
        kwargs = scenario_kwargs(scenario, arrivals=False)
        sim = WorkloadGenerator(spec).run_simulated(
            sessions_per_user=1, backend="nfs", **kwargs)
        reference, _ = reference_run(spec, 1, **kwargs)
        assert content_by_user(sim.log) == content_by_user(reference)
        assert content_sessions(sim.log) == content_sessions(reference)
        assert reference.operations


class TestFleetTallies:
    """The fleet aggregate is bit-for-bit the reference's, whatever the
    shard count."""

    @staticmethod
    def reference_tally(name, users, seed, arrivals=False):
        scenario = get_scenario(name)
        kwargs = scenario_kwargs(scenario, arrivals)
        sink = ShardAccumulator(window_us=HOUR_US if arrivals else None)
        records = RecordBatcher(sink)
        reference_run(scenario.build(users, seed), 1, log=records, **kwargs)
        records.flush()
        return sink.tally

    @pytest.mark.parametrize("arrivals", [False, True])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_fleet_tally_equals_reference(self, shards, arrivals):
        fleet = run_fleet(FleetConfig(
            scenario="mixed-campus", users=12, shards=shards, workers=1,
            seed=5, backend="fast-columnar", use_arrivals=arrivals,
        ))
        assert fleet.tally == self.reference_tally(
            "mixed-campus", 12, 5, arrivals)
        assert bool(fleet.tally.ops_by_window) == arrivals

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_tallies_match(self, name):
        fleet = run_fleet(FleetConfig(scenario=name, users=4, shards=1,
                                      workers=1, seed=3,
                                      backend="fast-columnar"))
        assert fleet.tally == self.reference_tally(name, 4, 3)
        assert fleet.tally.operations > 0


class TestStreamArtifactsAcrossScenarios:
    """Every scenario's on-disk op stream equals its in-RAM stream."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_artifact_replays_to_run_tally(self, name, tmp_path):
        path = tmp_path / "run.opstream"
        result = run_fleet(FleetConfig(
            scenario=name, users=4, shards=1, workers=1, seed=3,
            backend="fast-columnar", out_stream=str(path),
        ))
        replayed = ShardAccumulator()
        with StreamReader(str(path)) as reader:
            rows, sessions = reader.replay(replayed)
        assert replayed.tally == result.tally
        assert rows == result.tally.operations > 0
        assert sessions == result.tally.sessions

    @pytest.mark.parametrize("name", scenario_names())
    def test_merged_shards_bit_identical(self, name, tmp_path):
        blobs = []
        for shards in (1, 2):
            path = tmp_path / f"s{shards}.opstream"
            run_fleet(FleetConfig(
                scenario=name, users=4, shards=shards, workers=1, seed=3,
                backend="fast-columnar", out_stream=str(path),
            ))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
