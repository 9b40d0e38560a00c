"""Pooled-kernel state isolation.

The fused per-user kernel pools one :class:`SessionGenerator` per user
type and re-targets it with
:meth:`~repro.core.synthesis.SessionGenerator.rebind_user` instead of
constructing a fresh generator per user.  The contract is *no state
leakage*: a rebound kernel must serve draw-for-draw exactly what a
freshly constructed generator serves, no matter which users (or how
many sessions of them) it drained before.  The hypothesis tests here
pin that property over random populations, session counts and access
patterns.  (The plan builder's byte identity with the scalar reference,
pooled kernels included, lives in ``test_columnar_golden.py``.)

The sampler half of the contract — a :class:`BatchSampler` serves the
same values whatever sizes its refills take — is pinned against a
literal golden drawn with the fixed-block sampler this one replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhaseModel, WorkloadGenerator, paper_workload_spec
from repro.core.generator import TableSampler
from repro.distributions import (
    BatchSampler,
    CdfTable,
    RandomStreams,
    ShiftedExponential,
)
from repro.vfs import MemoryFileSystem


def _staged(spec, access_pattern="sequential"):
    """A generator plus its manifest layout and planned population."""
    generator = WorkloadGenerator(spec)
    layout = generator.create_file_system(
        MemoryFileSystem(), materialize_users=set(),
        materialize_shared=False,
    )
    assignment, selected = generator.plan_users()
    return generator, layout, assignment, selected


def _drain_users(generator, layout, assignment, selected, access_pattern,
                 sessions, reuse_kernels, phases=False, fused=False):
    """Op streams per user, drained through pooled or fresh kernels:
    session by session through the per-op iterator, or ``fused`` into
    one user batch."""
    streams = {}
    for kernel in generator.iter_synthesized_users(
        layout, selected, assignment,
        access_pattern=access_pattern,
        phase_model_factory=PhaseModel if phases else None,
        reuse_kernels=reuse_kernels,
    ):
        if fused:
            batch, _bounds = kernel.generate_user_batch(range(sessions))
            ops = list(batch.iter_session_ops())
        else:
            ops = [op for s in range(sessions)
                   for op in kernel.generate_session(s)]
        streams[kernel.user_id] = ops
    return streams


population = dict(
    seed=st.integers(min_value=0, max_value=2**20),
    n_users=st.integers(min_value=2, max_value=5),
    sessions=st.integers(min_value=1, max_value=2),
    access_pattern=st.sampled_from(["sequential", "random"]),
    heavy_fraction=st.sampled_from([0.5, 1.0]),
)


class TestPooledStateIsolation:
    """rebind_user ≡ fresh construction, for every drained stream."""

    @given(**population)
    @settings(max_examples=15, deadline=None)
    def test_scalar_streams_equal_fresh(self, seed, n_users, sessions,
                                        access_pattern, heavy_fraction):
        # heavy_fraction < 1 gives two user types, so the pooled path
        # exercises one kernel per type with interleaved rebinds.
        spec = paper_workload_spec(n_users=n_users, total_files=120,
                                   seed=seed,
                                   heavy_fraction=heavy_fraction)
        pooled = _drain_users(*_staged(spec), access_pattern, sessions,
                              reuse_kernels=True)
        fresh = _drain_users(*_staged(spec), access_pattern, sessions,
                             reuse_kernels=False)
        assert pooled == fresh

    @given(**population)
    @settings(max_examples=15, deadline=None)
    def test_fused_batches_equal_fresh(self, seed, n_users, sessions,
                                       access_pattern, heavy_fraction):
        spec = paper_workload_spec(n_users=n_users, total_files=120,
                                   seed=seed,
                                   heavy_fraction=heavy_fraction)
        pooled = _drain_users(*_staged(spec), access_pattern, sessions,
                              reuse_kernels=True, fused=True)
        fresh = _drain_users(*_staged(spec), access_pattern, sessions,
                             reuse_kernels=False, fused=True)
        assert pooled == fresh

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=10, deadline=None)
    def test_phase_models_rebind_per_user(self, seed):
        """Each rebind gets its own PhaseModel, never a drained chain."""
        spec = paper_workload_spec(n_users=3, total_files=120, seed=seed)
        pooled = _drain_users(*_staged(spec), "sequential", 2,
                              reuse_kernels=True, phases=True)
        fresh = _drain_users(*_staged(spec), "sequential", 2,
                             reuse_kernels=False, phases=True)
        assert pooled == fresh

    def test_rebind_resets_plan_counter_and_identity(self):
        spec = paper_workload_spec(n_users=2, total_files=120, seed=9)
        generator, layout, assignment, selected = _staged(spec)
        kernels = list(generator.iter_synthesized_users(
            layout, selected, assignment, reuse_kernels=False))
        pooled = kernels[0]
        list(pooled.generate_session(0))  # advance every pooled stream
        pooled.rebind_user(1)
        assert pooled.user_id == 1
        assert pooled._plan_counter == 0
        assert (list(pooled.generate_session(0))
                == list(kernels[1].generate_session(0)))

    def test_user_batch_bounds_slice_sessions(self):
        """bounds[i] rows of the fused batch are session i's batch."""
        spec = paper_workload_spec(n_users=1, total_files=120, seed=21)
        generator, layout, assignment, selected = _staged(spec)
        fused_kernel, per_session_kernel = (
            list(_staged(spec)[0].iter_synthesized_users(
                layout, selected))[0]
            for _ in range(2)
        )
        batch, bounds = fused_kernel.generate_user_batch(range(3))
        assert bounds[0] == 0 and bounds[-1] == len(batch)
        fused_ops = list(batch.iter_session_ops())
        split = 0
        for session_id in range(3):
            single = per_session_kernel.generate_session_batch(session_id)
            n = bounds[session_id + 1] - bounds[session_id]
            assert n == len(single)
            span = len(list(single.iter_session_ops()))
            assert fused_ops[split:split + span] == list(
                single.iter_session_ops())
            split += span


# First 48 variates served by ``BatchSampler(table, block=16)`` through
# ``_mixed_sequence`` at the last commit whose refills were fixed-size
# (PR 12): taken there, pasted here.
FIXED_BLOCK_GOLDEN = [
    5.598475517557758, 8.814917611542038, 20.482949850710042,
    44.57942148377049, 8.981767453523073, 33.905263486202195,
    67.22728164707082, 17.83935176072523, 36.51683580954493,
    12.80779189598801, 24.492324461583777, 33.896851961576495,
    16.549050909124613, 33.59258894370834, 57.29177184808865,
    10.745351642867302, 21.370327164017098, 17.099504902817845,
    14.164923523243147, 14.317538874494518, 12.278396817402566,
    42.79979242091448, 23.064024421982573, 7.344139116603618,
    15.020060585907114, 15.360618066982282, 35.572401685557885,
    28.84252333910611, 56.04505803371955, 20.143153914866428,
    29.121524084693558, 45.007959527301345, 13.339030953862135,
    9.556919408287229, 56.77063742998866, 74.20680627235885,
    10.63009395050876, 46.09925613560771, 99.88665906049454,
    4.0561204291466435, 5.886069843479504, 15.772158324558795,
    8.99586509838161, 9.303392530637948, 20.2074808645597,
    11.73251102510085, 6.243335199748379, 12.479722244298344,
]


def _mixed_sequence(sampler, n=48):
    """``n`` variates through every consumption method, interleaved."""
    out = []
    while len(out) < n:
        out += [sampler.draw() for _ in range(3)]
        out += sampler.take(5).tolist()
        view = sampler.peek_buffer()
        k = min(2, len(view))
        out += view[:k].tolist()
        sampler.consume(k)
        out += sampler.take(0).tolist()
        out += sampler.take(11).tolist()
        out.append(sampler.draw())
    return out[:n]


class TestBlockSizeIsNotPartOfTheStream:
    """draw/take/peek+consume serve the fixed-block sampler's values."""

    @pytest.mark.parametrize("block", [1, 5, 16, 512])
    def test_mixed_consumption_equals_fixed_block_golden(self, block):
        source = ShiftedExponential(scale=22.1, offset=4.0)
        dist = TableSampler(CdfTable.from_distribution(source), source)
        rng = RandomStreams(5).fork("user-3").get("chunk")
        sampler = BatchSampler(dist, rng, block=block)
        assert _mixed_sequence(sampler) == FIXED_BLOCK_GOLDEN
