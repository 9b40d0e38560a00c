"""Readers hold one decoded chunk at a time.

Decoding chunk *i + 1* needs its payload and its decoded columns alive
together (two chunks' worth); a reader that still holds chunk *i* then
— through a loop variable, a generator local or a last row view — holds
three.  Every whole-artifact reader here must stay under 2.5 chunks of
column data above where it started, however many chunks it walks.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    OpBatch,
    SessionRecord,
    StreamFileSink,
    StreamReader,
    merge_stream_files,
    salvage_stream,
    verify_stream,
)
from repro.core.streamfile import ROW_BYTES

ROWS_PER_CHUNK = 8192
CHUNKS = 6
USER_ROWS = 500
CHUNK_BYTES = ROWS_PER_CHUNK * ROW_BYTES  # one chunk's column data
BOUND = 2.5 * CHUNK_BYTES


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """``CHUNKS`` chunks of user-contiguous rows, a session per user."""
    path = str(tmp_path_factory.mktemp("memory") / "a.opstream")
    n = CHUNKS * ROWS_PER_CHUNK - 100
    rng = np.random.default_rng(3)
    batch = OpBatch.empty(n)
    batch.kinds[:] = rng.integers(0, 9, n)
    batch.plan_ids[:] = rng.integers(0, 2**40, n)
    batch.sizes[:] = rng.integers(0, 2**20, n)
    batch.flags[:] = 0
    batch.user_ids[:] = np.arange(n) // USER_ROWS
    batch.session_ids[:] = 0
    batch.start_us[:] = np.arange(n, dtype=np.float64)
    batch.response_us[:] = 1.0
    batch.think_us = rng.integers(0, 10**6, n)
    batch.path_idx[:] = batch.paths.intern_many(
        [f"/home/u{i % 400}/file{i % 400}" for i in range(n)])
    batch.category_idx[:] = batch.categories.intern("REG:USER:RDONLY")
    batch.user_type_idx[:] = batch.user_types.intern("heavy")
    with StreamFileSink(path, CHUNK_BYTES) as sink:
        for lo in range(0, n, USER_ROWS):
            user = batch.select(slice(lo, lo + USER_ROWS))
            sink.record_batch(user)
            sink.record_session(SessionRecord(
                int(user.user_ids[0]), "heavy", 0, float(lo),
                float(lo + len(user)), 1, 8, 8, ("REG:USER:RDONLY",)))
    with StreamReader(path) as reader:
        assert len(reader.chunk_index) == CHUNKS
    return path


def peak_of(work):
    """``(peak, result)`` of ``work()``: its traced peak above the traced
    level it started at, after one untraced warm-up run (lazy imports,
    memoised headers)."""
    work()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = work()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


class CountingSink:
    """Keeps nothing it is fed."""

    rows = sessions = 0

    def record_batch(self, batch):
        self.rows += len(batch)

    def record_session(self, record):
        self.sessions += 1


def replay_counts(replay):
    sink = CountingSink()
    replay(sink)
    return sink.rows, sink.sessions


class TestOneChunkAlive:
    def test_verify_stream(self, artifact):
        peak, report = peak_of(lambda: verify_stream(artifact))
        assert report.ok and report.chunks == CHUNKS
        assert peak <= BOUND, peak / CHUNK_BYTES

    def test_stream_reader_replay(self, artifact):
        with StreamReader(artifact) as reader:
            peak, (rows, sessions) = peak_of(
                lambda: replay_counts(reader.replay))
            assert (rows, sessions) == (reader.total_rows,
                                        reader.total_sessions)
        assert peak <= BOUND, peak / CHUNK_BYTES

    def test_salvaged_stream_replay(self, artifact, tmp_path):
        # The footer cut off: the scan decodes every chunk once to index
        # it, then the replay decodes each again, one at a time.
        with StreamReader(artifact) as reader:
            footer = reader.data_end
        path = str(tmp_path / "footerless.opstream")
        with open(artifact, "rb") as src, open(path, "wb") as out:
            out.write(src.read(footer))

        def salvage_and_replay():
            with salvage_stream(path) as salvaged:
                assert not salvaged.complete
                return (replay_counts(salvaged.replay),
                        (salvaged.total_rows, salvaged.total_sessions))

        peak, (counted, indexed) = peak_of(salvage_and_replay)
        assert counted == indexed
        assert peak <= BOUND, peak / CHUNK_BYTES

    def test_merge_of_one_input(self, artifact, tmp_path):
        # Reads through the per-user cut, writes through the sink: one
        # decoded input chunk plus the writer's one-chunk buffer.
        out = str(tmp_path / "merged.opstream")
        peak, rows = peak_of(lambda: merge_stream_files(out, [artifact]))
        assert rows == CHUNKS * ROWS_PER_CHUNK - 100
        assert open(out, "rb").read() == open(artifact, "rb").read()
        assert peak <= 3.5 * CHUNK_BYTES, peak / CHUNK_BYTES

    def test_iter_batches_by_user(self, artifact):
        # One user per chunk: every chunk is decoded, a sliver yielded.
        users = [c * ROWS_PER_CHUNK // USER_ROWS for c in range(CHUNKS)]

        def consume():
            rows = 0
            with StreamReader(artifact) as reader:
                for batch in reader.iter_batches(users=users):
                    rows += len(batch)
            return rows

        peak, rows = peak_of(consume)
        assert rows == USER_ROWS * CHUNKS
        assert peak <= BOUND, peak / CHUNK_BYTES

    def test_iter_batches_with_the_documented_del(self, artifact):
        # Unfiltered, each yielded batch is a whole chunk: the caller's
        # loop variable is the one reference the reader cannot drop.
        def consume():
            rows = 0
            with StreamReader(artifact) as reader:
                for batch in reader.iter_batches():
                    rows += len(batch)
                    del batch
            return rows

        peak, rows = peak_of(consume)
        assert rows == CHUNKS * ROWS_PER_CHUNK - 100
        assert peak <= BOUND, peak / CHUNK_BYTES
