"""Reproducible random-number streams.

The workload generator draws from many logically distinct random sources
(file sizes per category, access sizes, think times, operation selection,
user-type assignment, ...).  Seeding a single generator and sharing it makes
experiments fragile: adding one extra draw anywhere perturbs every stream
downstream.  ``RandomStreams`` hands out *named* sub-streams derived from a
root seed, so each consumer owns an independent, reproducible generator.

This mirrors the thesis requirement that experiments be repeatable enough to
support "statistical tests of similarity to the real workload" (section 2.2):
two runs with the same root seed produce identical operation streams.

A simulated user owns a whole *family* of streams (~34 names), and
constructing a ``PCG64(SeedSequence(seed))`` per name was a fifth of a
short-session run.  :class:`StreamFamily` derives the generator states of
many streams at once — numpy's seeding algorithm, vectorised over the
seeds — and :class:`PooledStream` *seats* a derived state into a reused
generator instead of building a new one.  The states are bit-for-bit
numpy's (``tests/distributions/test_rng.py`` pins that), so which route
built a stream can never be told from its draws.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RandomStreams",
    "StreamFamily",
    "PooledStream",
    "derive_seed",
    "pcg64_states",
]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for ``name`` from ``root_seed``.

    Uses SHA-256 so that the mapping is independent of Python's per-process
    string-hash randomisation and stable across platforms and versions.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named, independent ``numpy.random.Generator`` streams.

    Example
    -------
    >>> streams = RandomStreams(seed=42)
    >>> sizes = streams.get("file-size")
    >>> think = streams.get("think-time")
    >>> float(sizes.random()) != float(think.random())
    True

    Repeated calls with the same name return the *same* generator object, so
    a consumer may fetch its stream lazily without resetting it.
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was created with."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            # Identical stream to np.random.default_rng(seed) — spelling
            # out the PCG64/SeedSequence construction skips default_rng's
            # argument dispatch, roughly halving per-stream setup cost
            # (synthesis builds ~10 named streams per virtual user).
            stream = np.random.Generator(
                np.random.PCG64(
                    np.random.SeedSequence(derive_seed(self._seed, name))
                )
            )
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RandomStreams":
        """Return a child factory whose root seed is derived from ``name``.

        Used to give each simulated user an independent family of streams:
        ``streams.fork(f"user-{i}")``.
        """
        return RandomStreams(derive_seed(self._seed, name))

    def spawn_seed(self, name: str) -> int:
        """Return a derived integer seed without creating a generator."""
        return derive_seed(self._seed, name)

    def reset(self) -> None:
        """Drop all handed-out streams; subsequent ``get`` calls start fresh."""
        self._streams.clear()


# -- batched stream-state derivation -------------------------------------------
#
# numpy documents SeedSequence's algorithm as stable across versions: a
# 4-word uint32 pool is filled by ``hashmix`` and stirred by ``mix``, the
# bit generator's seed words are hashed out of it, and PCG64 runs its
# two-step ``srandom`` over them.  Every hash constant is independent of
# the seed, so the whole derivation is element-wise uint32/uint64 array
# arithmetic over as many seeds as the caller has.

_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
# PCG_DEFAULT_MULTIPLIER_128, as 64-bit halves.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)


def _hash_schedule(init: int, mult: int, steps: int) -> list:
    """``(xor, multiply)`` uint32 constants of ``steps`` successive hashes."""
    out = []
    for _ in range(steps):
        nxt = (init * mult) & 0xFFFFFFFF
        out.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return out


# mix_entropy() runs 4 pool-filling hashmixes then 12 stirring ones;
# generate_state() hashes 8 uint32 words (4 uint64) out of the pool.
_POOL_HASHES = _hash_schedule(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_schedule(0x8B51F9DD, 0x58F38DED, 8)


def pcg64_states(seeds) -> tuple[list[int], list[int]]:
    """``(states, incs)`` of ``PCG64(SeedSequence(seed))`` for each seed.

    ``seeds`` is an array of 64-bit unsigned seeds (``derive_seed``
    values); the result holds, per seed, the 128-bit ``state`` and
    ``inc`` numpy's own constructor would produce, as Python ints ready
    for ``bit_generator.state``.  Costs ~0.4 us per seed at a thousand
    seeds against ~10 us for the constructor.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    # SeedSequence splits an int into little-endian uint32 words and
    # hashes zeros for the words it lacks, so (lo, hi, 0, 0) is the
    # entropy of every seed below 2**64, the single-word ones included.
    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = ((seeds & _M32).astype(np.uint32),
               (seeds >> _S32).astype(np.uint32), zero, zero)
    hashes = iter(_POOL_HASHES)

    def hashmix(value):
        xor, multiply = next(hashes)
        value = (value ^ xor) * multiply
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    words = []
    for i, (xor, multiply) in enumerate(_STATE_HASHES):
        value = (pool[i % 4] ^ xor) * multiply
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (
        words[i] | (words[i + 1] << _S32) for i in (0, 2, 4, 6))

    # pcg_setseq_128_srandom_r: inc = (initseq << 1) | 1, then from
    # state 0 — step, add initstate, step — which collapses to
    # state = (inc + initstate) * MULT + inc  (mod 2**128).
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    sum_lo = inc_lo + init_lo
    sum_hi = inc_hi + init_hi + (sum_lo < inc_lo)
    # 128x128 -> low 128 bits, the 64x64 -> 128 partial product by
    # 32-bit halves (uint64 arithmetic wraps, which is the mod).
    a0, a1 = sum_lo & _M32, sum_lo >> _S32
    b0, b1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> _S32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _S32) + (p01 & _M32) + (p10 & _M32)
    prod_lo = (p00 & _M32) | (mid << _S32)
    prod_hi = (a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
               + sum_lo * _PCG_MULT_HI + sum_hi * _PCG_MULT_LO)
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < prod_lo)
    return _join128(state_hi, state_lo), _join128(inc_hi, inc_lo)


def _join128(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    return [(h << 64) | low for h, low in zip(hi.tolist(), lo.tolist())]


class StreamFamily:
    """A fixed, ordered list of stream names that are derived together.

    ``StreamFamily(names).states(streams, forks)`` is the batched form
    of ``streams.fork(fork).get(name)`` over every ``(fork, name)``
    pair: same ``derive_seed`` chain, same generator state, one
    vectorised derivation instead of ``len(forks) * len(names)``
    generator constructions.  (detlint checks the literals in the
    ``names`` list against the stream-name registry, as it does for
    ``get``.)
    """

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        self._suffixes = [f":{name}".encode("utf-8") for name in self.names]

    def states(self, streams: RandomStreams,
               forks: Sequence[str]) -> list[list[tuple[int, int]]]:
        """Per fork, the ``(state, inc)`` seat of each name, in order."""
        # derive_seed(derive_seed(root, fork), name) with the inner
        # call's string formatting hoisted out of the per-name loop.
        sha256 = hashlib.sha256
        digests = bytearray()
        for fork in forks:
            prefix = str(derive_seed(streams.seed, fork)).encode("utf-8")
            for suffix in self._suffixes:
                digests += sha256(prefix + suffix).digest()[:8]
        seats = list(zip(*pcg64_states(np.frombuffer(digests, dtype=">u8"))))
        width = len(self.names)
        return [seats[i:i + width] for i in range(0, len(seats), width)]


class PooledStream:
    """One named stream whose generator is re-seated, never rebuilt.

    :meth:`seat` stashes a derived ``(state, inc)`` pair; calling the
    object installs it in the pooled generator and returns that
    generator (the ``rng_factory`` shape
    :class:`~repro.distributions.batch.BatchSampler` takes).  A stream
    that is seated but never called costs one attribute store — the
    laziness unbuilt generators gave — and a seated generator's draws
    equal a freshly constructed one's: PCG64's whole state is
    ``state``, ``inc`` and the buffered 32-bit half, all overwritten.
    """

    __slots__ = ("_generator", "_seat")

    def __init__(self) -> None:
        self._generator: np.random.Generator | None = None
        self._seat: tuple[int, int] | None = None

    def seat(self, seat: tuple[int, int]) -> None:
        """Make ``seat`` the state the next call installs."""
        self._seat = seat

    def __call__(self) -> np.random.Generator:
        generator = self._generator
        if generator is None:
            generator = self._generator = np.random.Generator(
                np.random.PCG64(0))
        seat = self._seat
        if seat is not None:
            generator.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": seat[0], "inc": seat[1]},
                "has_uint32": 0,
                "uinteger": 0,
            }
            self._seat = None
        return generator
