"""Unit tests for reproducible named random streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributions import (
    PooledStream,
    RandomStreams,
    StreamFamily,
    derive_seed,
)
from repro.distributions.rng import pcg64_states


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        for name in ("x", "y", "a-long-stream-name"):
            seed = derive_seed(123, name)
            assert 0 <= seed < 2**64


class TestRandomStreams:
    def test_same_name_same_generator(self):
        streams = RandomStreams(5)
        assert streams.get("s") is streams.get("s")

    def test_streams_are_independent_of_draw_order(self):
        """Drawing from one stream never perturbs another."""
        a = RandomStreams(5)
        a.get("noise").random(1000)  # extra draws on an unrelated stream
        value_after_noise = a.get("target").random()

        b = RandomStreams(5)
        value_clean = b.get("target").random()
        assert value_after_noise == value_clean

    def test_fork_gives_distinct_family(self):
        root = RandomStreams(5)
        child_a = root.fork("user-0")
        child_b = root.fork("user-1")
        assert child_a.get("x").random() != child_b.get("x").random()

    def test_fork_is_deterministic(self):
        a = RandomStreams(5).fork("user-0").get("x").random(4)
        b = RandomStreams(5).fork("user-0").get("x").random(4)
        np.testing.assert_array_equal(a, b)

    def test_reset_restarts_streams(self):
        streams = RandomStreams(7)
        first = streams.get("s").random()
        streams.reset()
        assert streams.get("s").random() == first

    def test_spawn_seed_matches_derive(self):
        streams = RandomStreams(9)
        assert streams.spawn_seed("k") == derive_seed(9, "k")

    def test_seed_property(self):
        assert RandomStreams(42).seed == 42


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _numpy_seat(seed):
    state = np.random.PCG64(np.random.SeedSequence(seed)).state["state"]
    return state["state"], state["inc"]


class TestBatchedStateDerivation:
    """``pcg64_states`` is pinned to numpy's own seeding, seed for seed."""

    @given(seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                          min_size=1, max_size=40))
    @example(seeds=[0])
    @example(seeds=[2**64 - 1])
    @example(seeds=EDGE_SEEDS)
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_constructor(self, seeds):
        states, incs = pcg64_states(np.array(seeds, dtype=np.uint64))
        assert list(zip(states, incs)) == [_numpy_seat(s) for s in seeds]

    def test_family_states_equal_fork_get(self):
        names = ["select", "think", "count:REG-USER-RDONLY"]
        forks = ["user-0", "user-3", "user-999999"]
        rows = StreamFamily(names).states(RandomStreams(42), forks)
        assert len(rows) == len(forks)
        for fork, row in zip(forks, rows):
            assert len(row) == len(names)
            for name, seat in zip(names, row):
                ref = RandomStreams(42).fork(fork).get(name)
                state = ref.bit_generator.state["state"]
                assert seat == (state["state"], state["inc"])

    def test_no_forks_no_rows(self):
        assert StreamFamily(["select"]).states(RandomStreams(1), []) == []


def _draws(rng, kind):
    """1 000 outputs of one Generator method, as a comparable list."""
    if kind == "random":
        return rng.random(1000).tolist()
    if kind == "integers":
        # Small bounds go through the buffered 32-bit path
        # (``has_uint32``/``uinteger`` in the bit generator's state).
        return [int(rng.integers(0, 100)) for _ in range(1000)]
    return [rng.choice(60, size=7, replace=False).tolist()
            for _ in range(1000)]


class TestPooledStream:
    """A seated pooled generator draws what a constructed one draws."""

    @pytest.mark.parametrize("kind", ["random", "integers", "choice"])
    @pytest.mark.parametrize("name", ["select", "think"])
    def test_seated_equals_fresh(self, name, kind):
        seat, = StreamFamily([name]).states(RandomStreams(11), ["user-3"])[0]
        pooled = PooledStream()
        pooled.seat(seat)
        fresh = RandomStreams(11).fork("user-3").get(name)
        assert _draws(pooled(), kind) == _draws(fresh, kind)

    @pytest.mark.parametrize("kind", ["random", "integers", "choice"])
    def test_reseated_after_a_previous_user(self, kind):
        family = StreamFamily(["select"])
        (first,), (second,) = family.states(RandomStreams(11),
                                            ["user-2", "user-3"])
        pooled = PooledStream()
        pooled.seat(first)
        previous = pooled()
        # An odd number of 32-bit draws leaves a buffered half-word
        # (has_uint32 = 1) that the next user's seat must discard.
        previous.integers(0, 100, size=3, dtype=np.uint32)
        previous.random(17)
        assert previous.bit_generator.state["has_uint32"] == 1
        pooled.seat(second)
        generator = pooled()
        assert generator is previous  # re-seated, not rebuilt
        fresh = RandomStreams(11).fork("user-3").get("select")
        assert generator.bit_generator.state == fresh.bit_generator.state
        assert _draws(generator, kind) == _draws(fresh, kind)

    def test_unseated_call_keeps_the_stream_position(self):
        seat, = StreamFamily(["slot"]).states(RandomStreams(5), ["user-0"])[0]
        pooled = PooledStream()
        pooled.seat(seat)
        first = pooled().random(3).tolist()
        second = pooled().random(3).tolist()  # no re-seat in between
        fresh = RandomStreams(5).fork("user-0").get("slot").random(6)
        assert first + second == fresh.tolist()
