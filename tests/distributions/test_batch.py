"""Batched sampling: vectorized draws must equal scalar draws exactly.

Two properties are pinned for every distribution family:

* ``sample(rng, size=N)`` equals N successive scalar ``sample(rng)``
  calls from an identically seeded generator (NumPy fills vectorized
  output sequentially from the bit stream);
* :class:`~repro.distributions.BatchSampler` serves exactly that
  sequence regardless of its block size.

Together these make block pre-drawing in the synthesis stage a pure
optimisation: it can never change a generated workload.

A third property frees the block *sizes*: ``sample(rng, a)`` then
``sample(rng, b)`` equals ``sample(rng, a + b)`` (split invariance), so
:class:`BatchSampler` may size each refill to demand.  It is pinned for
every family and for the samplers production wraps (``TableSampler``,
``CdfTable``, ``Uniform``).  No family fails it; one that did would have
to keep fixed-size refills and be excluded here by name.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import TableSampler
from repro.distributions import (
    BatchSampler,
    CdfTable,
    Constant,
    DistributionError,
    EmpiricalDistribution,
    MultiStageGamma,
    PhaseTypeExponential,
    ShiftedExponential,
    ShiftedGamma,
    TabulatedCdf,
    TabulatedPdf,
    Uniform,
)

FAMILIES = {
    "constant": Constant(42.5),
    "uniform": Uniform(3.0, 9.0),
    "shifted-exponential": ShiftedExponential(scale=22.1, offset=4.0),
    "phase-type-exponential": PhaseTypeExponential(
        weights=[0.4, 0.3, 0.3],
        scales=[12.7, 18.2, 24.5],
        offsets=[0.0, 18.0, 41.0],
    ),
    "shifted-gamma": ShiftedGamma(shape=1.3, scale=12.3, offset=2.0),
    "multi-stage-gamma": MultiStageGamma(
        weights=[0.7, 0.2, 0.1],
        shapes=[1.3, 1.5, 1.3],
        scales=[12.3, 12.4, 12.3],
        offsets=[0.0, 23.0, 41.0],
    ),
    "tabulated-pdf": TabulatedPdf([0.0, 1.0, 2.0, 3.0], [0.1, 0.5, 0.3, 0.1]),
    "tabulated-cdf": TabulatedCdf([0.0, 1.0, 2.0, 3.0], [0.0, 0.4, 0.9, 1.0]),
    "empirical": EmpiricalDistribution([1.0, 2.0, 2.5, 7.0, 11.0, 13.0]),
}

_TABLE = CdfTable.from_distribution(ShiftedExponential(10.0))

SAMPLERS = dict(
    FAMILIES,
    **{
        "cdf-table": _TABLE,
        "table-sampler": TableSampler(_TABLE, ShiftedExponential(10.0)),
    },
)

N = 257  # deliberately not a multiple of any block size


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_vectorized_equals_scalar_sequence(name):
    dist = SAMPLERS[name]
    batched = np.asarray(dist.sample(np.random.default_rng(7), size=N))
    rng = np.random.default_rng(7)
    scalars = np.array([float(dist.sample(rng)) for _ in range(N)])
    np.testing.assert_array_equal(batched, scalars)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("block", [1, 7, 64, 1024])
def test_batch_sampler_equals_scalar_sequence(name, block):
    dist = SAMPLERS[name]
    rng = np.random.default_rng(13)
    sampler = BatchSampler(dist, np.random.default_rng(13), block=block)
    scalars = [float(dist.sample(rng)) for _ in range(N)]
    drawn = [sampler.draw() for _ in range(N)]
    assert drawn == scalars


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@given(a=st.integers(min_value=0, max_value=70),
       b=st.integers(min_value=0, max_value=70),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_sampling_is_split_invariant(name, a, b, seed):
    dist = SAMPLERS[name]
    rng = np.random.default_rng(seed)
    split = np.concatenate([np.asarray(dist.sample(rng, size=a), dtype=float),
                            np.asarray(dist.sample(rng, size=b), dtype=float)])
    whole = np.asarray(
        dist.sample(np.random.default_rng(seed), size=a + b), dtype=float)
    np.testing.assert_array_equal(split, whole)


class _CountingSampler:
    """Uniform draws, recording the size of every ``sample`` call."""

    def __init__(self):
        self.sizes = []

    def sample(self, rng, size=None):
        self.sizes.append(size)
        return rng.random(size)


def test_refills_grow_geometrically_up_to_block():
    dist = _CountingSampler()
    sampler = BatchSampler(dist, np.random.default_rng(0), block=100)
    for _ in range(8 + 32 + 100 + 100):
        sampler.draw()
    assert dist.sizes == [8, 32, 100, 100]


def test_block_below_first_refill_is_still_the_cap():
    dist = _CountingSampler()
    sampler = BatchSampler(dist, np.random.default_rng(0), block=3)
    for _ in range(7):
        sampler.draw()
    assert dist.sizes == [3, 3, 3]


def test_take_draws_exactly_the_unbuffered_remainder():
    dist = _CountingSampler()
    sampler = BatchSampler(dist, np.random.default_rng(0), block=512)
    sampler.take(0)
    assert dist.sizes == []  # nothing asked, nothing drawn
    sampler.take(37)
    assert dist.sizes == [37]
    sampler.draw()  # first refill: 8 drawn, 1 served, 7 buffered
    sampler.take(5)  # served from the buffer
    assert dist.sizes == [37, 8]
    sampler.take(10)  # 2 buffered + exactly 8 fresh
    assert dist.sizes == [37, 8, 8]
    expected = np.random.default_rng(0).random(37 + 8 + 8)
    again = BatchSampler(_CountingSampler(), np.random.default_rng(0))
    np.testing.assert_array_equal(again.take(53), expected)


def test_rebind_resolves_the_factory_again_and_restarts_growth():
    dist = _CountingSampler()
    seeds = iter([1, 2])
    sampler = BatchSampler(
        dist, rng_factory=lambda: np.random.default_rng(next(seeds)))
    first = [sampler.draw() for _ in range(9)]
    sampler.rebind()
    second = [sampler.draw() for _ in range(9)]
    assert dist.sizes == [8, 32, 8, 32]
    assert first == np.random.default_rng(1).random(9).tolist()
    assert second == np.random.default_rng(2).random(9).tolist()
    with pytest.raises(DistributionError):
        BatchSampler(dist, np.random.default_rng(0)).rebind()


def test_batch_sampler_block_size_is_invisible():
    dist = FAMILIES["multi-stage-gamma"]
    a = BatchSampler(dist, np.random.default_rng(3), block=4)
    b = BatchSampler(dist, np.random.default_rng(3), block=999)
    assert [a.draw() for _ in range(50)] == [b.draw() for _ in range(50)]


def test_constant_short_circuits_the_stream():
    rng = np.random.default_rng(0)
    sampler = BatchSampler(Constant(5.0), rng, block=8)
    before = rng.bit_generator.state
    assert [sampler.draw() for _ in range(20)] == [5.0] * 20
    assert rng.bit_generator.state == before  # no randomness consumed


def test_bad_block_rejected():
    with pytest.raises(DistributionError):
        BatchSampler(Uniform(0, 1), np.random.default_rng(0), block=0)


def test_draws_are_python_floats():
    sampler = BatchSampler(Uniform(0, 1), np.random.default_rng(0))
    assert type(sampler.draw()) is float
