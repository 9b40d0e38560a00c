"""Batched scalar sampling: vectorized blocks behind a scalar interface.

The synthesis stage (:mod:`repro.core.synthesis`) consumes millions of
scalar variates — chunk sizes, think times, per-category file counts.
Calling ``Distribution.sample(rng)`` once per variate pays NumPy's
per-call overhead once per variate; drawing blocks of N amortises that
overhead N-fold.  :class:`BatchSampler` wraps any sampler exposing
``sample(rng, size)`` (a :class:`~repro.distributions.base.Distribution`,
a :class:`~repro.distributions.cdf_table.CdfTable`, or the GDS's
``TableSampler``) and serves scalars out of a pre-drawn block, refilling
with one vectorized call whenever the block runs dry.

Every NumPy ``Generator`` method used by the distribution families fills
its output *sequentially* from the underlying bit stream, so element
``i`` of a ``sample(rng, size=N)`` draw equals the ``i``-th scalar
``sample(rng)`` from an identically seeded generator — and
``sample(rng, a)`` followed by ``sample(rng, b)`` equals
``sample(rng, a + b)``.  Batching therefore changes the cost of a sampled
sequence, never its values, *whatever the block sizes*:
``tests/distributions/test_batch.py`` pins both equivalences for every
family.  That freedom is what lets block sizes follow demand — a user
who consumes a handful of variates draws a handful, not a fixed 512.
"""

from __future__ import annotations

import numpy as np

from .base import DistributionError
from .basic import Constant

__all__ = ["BatchSampler"]

# Refills start at _FIRST_BLOCK variates and grow by _GROWTH up to the
# sampler's ``block``: a stream drawn once per session wastes at most a
# few variates, a hot one reaches full blocks within three refills.
_FIRST_BLOCK = 8
_GROWTH = 4


class BatchSampler:
    """Serve scalar draws from pre-drawn vectorized blocks.

    Parameters
    ----------
    dist:
        Anything with ``sample(rng, size) -> ndarray`` semantics.
        Point masses (:class:`~repro.distributions.basic.Constant`) are
        short-circuited: they consume no random numbers either way, so
        the sampler just returns the value without buffering.
    rng:
        The ``numpy.random.Generator`` this sampler owns.  Give every
        batched quantity its *own* named stream (see
        :class:`~repro.distributions.rng.RandomStreams`): block refills
        consume the stream in bursts, so sharing one stream between a
        batched and an unbatched consumer would interleave differently
        than scalar draws.
    block:
        Most variates a refill draws (refills grow geometrically up to
        it).  Size does not affect the drawn sequence, only the
        amortisation; hot quantities (think times, chunk sizes) want
        hundreds, once-per-session quantities are fine with tens.
    """

    __slots__ = ("_dist", "_rng", "_rng_factory", "_block", "_refill_size",
                 "_buffer", "_next", "_constant")

    def __init__(self, dist, rng=None, block: int = 256, rng_factory=None):
        if block < 1:
            raise DistributionError(f"block must be >= 1, got {block}")
        if rng is None and rng_factory is None:
            raise DistributionError("BatchSampler needs rng or rng_factory")
        self._dist = dist
        # ``rng_factory`` defers resolving the generator to the first
        # draw: a sampler whose stream is never drawn (a usage entry
        # whose fraction gate never fires, the seek stream in sequential
        # mode) then never pays the stream's set-up at all.  Laziness
        # cannot change any stream — an unresolved generator was never
        # consumed.
        self._rng = rng
        self._rng_factory = rng_factory
        self._block = int(block)
        self._refill_size = min(_FIRST_BLOCK, self._block)
        self._buffer: np.ndarray | None = None
        self._next = 0
        self._constant = float(dist.value) if isinstance(dist, Constant) else None

    def rebind(self) -> "BatchSampler":
        """Forget the current block and stream; the next draw calls
        ``rng_factory`` again.

        The object-pooling hook: a pooled sampler is *reset, not
        reconstructed* between users, and its factory (a
        :class:`~repro.distributions.rng.PooledStream`) hands back the
        next user's stream.  After ``rebind`` the very next draw refills
        from that stream, so the served sequence is exactly what a
        freshly constructed sampler would serve — the no-state-leak
        property ``tests/core/test_pooled_state.py`` pins.
        """
        if self._rng_factory is None:
            raise DistributionError("rebind needs an rng_factory")
        self._rng = None
        self._refill_size = min(_FIRST_BLOCK, self._block)
        self._buffer = None
        self._next = 0
        return self

    def draw(self) -> float:
        """Return the next scalar variate, refilling the block if needed."""
        if self._constant is not None:
            return self._constant
        buffer = self._buffer
        if buffer is None or self._next >= len(buffer):
            buffer = self._refill()
        value = float(buffer[self._next])
        self._next += 1
        return value

    def _sample(self, n: int) -> np.ndarray:
        rng = self._rng
        if rng is None:
            rng = self._rng = self._rng_factory()
        return np.asarray(self._dist.sample(rng, size=n), dtype=float)

    def _refill(self) -> np.ndarray:
        size = self._refill_size
        self._refill_size = min(size * _GROWTH, self._block)
        buffer = self._sample(size)
        self._buffer = buffer
        self._next = 0
        return buffer

    # -- vectorized consumption ----------------------------------------------
    #
    # The columnar synthesis path consumes the *same* variate sequence as
    # scalar ``draw()`` calls, just whole arrays at a time.  All three
    # methods preserve the sequence exactly: every draw comes from this
    # sampler's own stream and variates are served strictly in draw
    # order, so mixing ``draw``/``take``/``peek_buffer``+``consume`` on
    # one sampler can never reorder or skip a value.

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` variates as one array (consumes them).

        Serves what is buffered and draws exactly the remainder in one
        ``sample`` call, so a consumer that knows its demand (one think
        time per op) never draws a variate it will not use.
        """
        if n < 0:
            raise DistributionError(f"take() needs n >= 0, got {n}")
        if self._constant is not None:
            return np.full(n, self._constant)
        buffer = self._buffer
        start = self._next
        buffered = 0 if buffer is None else len(buffer) - start
        if n <= buffered:
            self._next = start + n
            return (np.empty(0, dtype=float) if buffer is None
                    else buffer[start:start + n].copy())
        fresh = self._sample(n - buffered)
        if not buffered:
            return fresh
        self._next = len(buffer)
        return np.concatenate((buffer[start:], fresh))

    def peek_buffer(self) -> np.ndarray:
        """The not-yet-consumed remainder of the current block (a view).

        Refills first when the block is spent, so the result always has
        at least one element.  Callers must not mutate the view; pair
        with :meth:`consume` to advance past the variates actually used.
        """
        if self._constant is not None:
            return np.full(self._block, self._constant)
        buffer = self._buffer
        if buffer is None or self._next >= len(buffer):
            buffer = self._refill()
        return buffer[self._next:]

    def consume(self, n: int) -> None:
        """Advance past ``n`` variates previously seen via peek_buffer."""
        if self._constant is not None:
            return
        buffer = self._buffer
        if n < 0 or buffer is None or self._next + n > len(buffer):
            raise DistributionError(
                f"cannot consume {n} variates; "
                f"{0 if buffer is None else len(buffer) - self._next} buffered"
            )
        self._next += n

    @property
    def block(self) -> int:
        """Most variates a refill draws."""
        return self._block

    def __repr__(self) -> str:
        return f"BatchSampler({self._dist!r}, block={self._block})"
