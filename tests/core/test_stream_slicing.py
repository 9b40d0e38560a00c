"""Slice reads: the rows of full decode plus a mask, paid per returned row.

``iter_batches(users=..., time_range=...)`` checks every chunk it reads
exactly as ``read_chunk`` does, then widens only the selected rows, and a
reader keeps each sliced chunk's parsed string tables for its next slice
while the table bytes stay the same.  The witness for every slice here is
the whole-chunk decode (``read_chunk``) with a plain numpy mask.
"""

import math
import struct
import sys
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import (
    StreamFileSink,
    StreamReader,
    WorkloadGenerator,
    iter_batches,
    merge_stream_files,
    verify_stream,
)
from repro.core.streamfile import _COLUMNS, _STRING_COLUMNS, _THINK_COLUMN, ROW_BYTES
from repro.fleet.merge import ShardAccumulator
from repro.harness import format_kv
from repro.scenarios import build_scenario_spec
from tests.core.test_chunk_payload import payload_fields, reframe_chunk
from tests.core.test_streamfile import as_version_1

SCHEMA = {name: np.dtype(dtype) for name, dtype in (*_COLUMNS, _THINK_COLUMN)}
TABLES = tuple(table for _, table in _STRING_COLUMNS)


def write_artifact(path, rows_per_chunk, users=5, seed=11):
    spec = build_scenario_spec("mixed-campus", users, seed, total_files=120)
    with StreamFileSink(path, ROW_BYTES * rows_per_chunk) as sink:
        WorkloadGenerator(spec).run_simulated(
            sessions_per_user=2, backend="fast-columnar", log=sink)
    return path


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Two budgets (many small chunks, a few large ones) and a format-1
    copy of the small-chunk file."""
    root = tmp_path_factory.mktemp("slicing")
    small = write_artifact(str(root / "small.opstream"), 97)
    large = write_artifact(str(root / "large.opstream"), 1500)
    v1 = as_version_1(small, str(root / "v1.opstream"))
    with StreamReader(small) as reader:
        assert len(reader.chunk_index) > 10
    return {"small": small, "large": large, "v1": v1}


def full_decode(path):
    """Every chunk of ``path``, decoded whole by ``read_chunk``."""
    with StreamReader(path) as reader:
        return [reader.read_chunk(info.index).batch
                for info in reader.chunk_index]


def masked(path, users=None, time_range=None):
    """Full decode plus a mask: the non-empty selection of each chunk."""
    out = []
    for batch in full_decode(path):
        mask = np.ones(len(batch), dtype=bool)
        if users is not None:
            mask &= np.isin(batch.user_ids, np.asarray(users, dtype=np.int64))
        if time_range is not None:
            mask &= ((batch.start_us >= time_range[0])
                     & (batch.start_us < time_range[1]))
        if mask.any():
            out.append(batch.select(mask))
    return out


def assert_same_batches(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.think_us is None) == (b.think_us is None)
        for name, dtype in SCHEMA.items():
            x, y = getattr(a, name), getattr(b, name)
            if y is None:
                continue
            assert x.dtype == y.dtype == dtype, name
            assert np.array_equal(x, y), name
            # A fresh array that owns its memory: no view of a payload.
            assert x.flags.owndata, name
        for table in TABLES:
            assert getattr(a, table).values() == getattr(b, table).values()


def boundary_users(path):
    """Users whose rows span a chunk boundary."""
    with StreamReader(path) as reader:
        infos = [c for c in reader.chunk_index if c.rows]
    return sorted({a.user_hi for a, b in zip(infos, infos[1:])
                   if a.user_hi == b.user_lo})


def starts(path):
    return np.unique(np.concatenate([b.start_us for b in full_decode(path)]))


class TestSliceEquivalence:
    @pytest.mark.parametrize("which", ["small", "large", "v1"])
    def test_boundary_and_absent_users(self, artifacts, which):
        path = artifacts[which]
        spanning = boundary_users(artifacts["small"])
        assert spanning
        for users in (spanning, spanning[:1], [-1, 99, 2**40],
                      [*spanning, 4, 1000], []):
            assert_same_batches(list(iter_batches(path, users=users)),
                                masked(path, users=users))

    @pytest.mark.parametrize("which", ["small", "large", "v1"])
    def test_windows_on_row_starts_and_infinities(self, artifacts, which):
        path = artifacts[which]
        edges = starts(path)
        mid = float(edges[len(edges) // 2])
        for window in ((-math.inf, math.inf), (-math.inf, mid),
                       (mid, math.inf), (float(edges[0]), float(edges[-1])),
                       (mid, float(edges[len(edges) // 2 + 1]))):
            assert_same_batches(list(iter_batches(path, time_range=window)),
                                masked(path, time_range=window))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_user_set_and_window(self, artifacts, data):
        which = data.draw(st.sampled_from(sorted(artifacts)))
        path = artifacts[which]
        edges = starts(path).tolist()
        users = data.draw(st.none() | st.lists(
            st.sampled_from([*range(-1, 8), *boundary_users(path)]),
            max_size=4))
        bound = st.sampled_from([-math.inf, math.inf, *edges]) | st.floats(
            min_value=edges[0] - 1, max_value=edges[-1] + 1)
        window = data.draw(st.none() | st.tuples(bound, bound).filter(
            lambda w: w[0] < w[1]))
        assert_same_batches(
            list(iter_batches(path, users=users, time_range=window)),
            masked(path, users=users, time_range=window))

    @pytest.mark.parametrize("flags, users, time_range", [
        (["--users", "1,3"], [1, 3], None),
        (["--window-us", "0:4e6"], None, (0.0, 4e6)),
        (["--users", "2", "--window-us=-inf:inf"], [2],
         (-math.inf, math.inf)),
    ])
    def test_cli_replay_prints_the_masked_tally(self, artifacts, capsys,
                                                flags, users, time_range):
        path = artifacts["small"]
        sink = ShardAccumulator()
        rows = 0
        for batch in masked(path, users, time_range):
            sink.record_batch(batch)
            rows += len(batch)
        summary = dict(sink.tally.as_kv(), **{"sessions replayed": 0})
        want = format_kv(summary, title=f"Replayed {rows} op rows from "
                                        f"{path} (sliced)")
        capsys.readouterr()
        assert main(["stream", "replay", path, *flags]) == 0
        assert capsys.readouterr().out == want + "\n"


class TestSelectorsAreChecked:
    """A malformed selector is refused before any chunk is read."""

    @pytest.fixture()
    def reader(self, artifacts):
        with StreamReader(artifacts["small"]) as reader:
            reads = []
            read_frame = reader._read_frame
            reader._read_frame = lambda *a: (reads.append(a),
                                             read_frame(*a))[1]
            yield reader
            assert reads == []

    @pytest.mark.parametrize("users", ["12", b"12"], ids=["str", "bytes"])
    def test_string_users_are_a_type_error(self, reader, users):
        with pytest.raises(TypeError):
            list(reader.iter_batches(users=users))

    def test_a_float_user_is_a_type_error(self, reader):
        with pytest.raises(TypeError):
            list(reader.iter_batches(users=[2.7]))

    def test_a_bool_user_is_a_type_error(self, reader):
        with pytest.raises(TypeError):
            list(reader.iter_batches(users=True))

    def test_a_user_outside_int64_is_a_value_error(self, reader):
        with pytest.raises(ValueError, match="int64"):
            list(reader.iter_batches(users=2**70))

    @pytest.mark.parametrize("window", [(math.nan, 5e6), (0.0, math.nan)])
    def test_a_nan_bound_is_a_value_error(self, reader, window):
        with pytest.raises(ValueError, match="lo < hi"):
            list(reader.iter_batches(time_range=window))

    @pytest.mark.parametrize("window", [(5e6, 1e6), (3e6, 3e6)])
    def test_an_inverted_or_empty_window_is_a_value_error(self, reader,
                                                          window):
        with pytest.raises(ValueError, match="lo < hi"):
            list(reader.iter_batches(time_range=window))


class TestValidSelectorsStillRead:
    def test_numpy_integers_and_infinite_windows(self, artifacts):
        path = artifacts["small"]
        for users in (np.int32(1), np.array([1, 3], dtype=np.uint16)):
            assert_same_batches(list(iter_batches(path, users=users)),
                                masked(path, users=np.atleast_1d(users)))
        everything = list(iter_batches(path,
                                       time_range=(-math.inf, math.inf)))
        assert sum(map(len, everything)) == sum(map(len, full_decode(path)))


def memo_bytes(reader):
    """What the memo holds: table bytes, parsed strings and their lists."""
    return sum(len(region) + sum(map(sys.getsizeof, [*tables, *chain(*tables)]))
               for region, tables, _ in reader._memo.values())


def rewrite_first_path(path, index):
    """Flip one character of chunk ``index``'s first path string: the
    table keeps its length, the frame is re-CRC'd."""
    def mutate(payload):
        offset, _ = payload_fields(payload)[("length", "paths", "first")]
        (nbytes,) = struct.unpack_from("<L", payload, offset)
        at = offset + 4 + nbytes - 1
        flipped = b"Y" if payload[at:at + 1] != b"Y" else b"Z"
        return payload[:at] + flipped + payload[at + 1:]
    reframe_chunk(path, index, mutate)


class TestTableMemo:
    @pytest.fixture()
    def artifact(self, artifacts, tmp_path):
        """A copy of the large-chunk file: the memo holds every table."""
        path = str(tmp_path / "a.opstream")
        with open(artifacts["large"], "rb") as src, open(path, "wb") as out:
            out.write(src.read())
        return path

    def test_changed_table_bytes_are_parsed_again(self, artifact):
        with StreamReader(artifact) as reader:
            window = (-math.inf, math.inf)
            first = list(reader.iter_batches(time_range=window))
            assert 1 in reader._memo
            old = first[1].paths.values()
            rewrite_first_path(artifact, 1)
            second = list(reader.iter_batches(time_range=window))
        new = second[1].paths.values()
        assert len(new) == len(old) and new != old
        assert new == full_decode(artifact)[1].paths.values()
        assert_same_batches(second, masked(artifact, time_range=window))

    def test_interning_into_a_batch_leaves_the_next_read_alone(self,
                                                               artifact):
        with StreamReader(artifact) as reader:
            batch = next(reader.iter_batches(users=[0]))
            before = list(batch.paths.values())
            batch.paths.intern("/not/in/the/file")
            again = next(iter(reader.iter_batches(users=[0])))
            assert again.paths.values() == before

    def test_sequential_walks_never_fill_it(self, artifact, tmp_path,
                                            monkeypatch):
        with StreamReader(artifact) as reader:
            reader.replay(ShardAccumulator())
            list(reader.iter_batches())
            assert reader._memo == {}
        closed = []
        close = StreamReader.close
        monkeypatch.setattr(StreamReader, "close", lambda self: (
            closed.append(dict(self._memo)), close(self))[1])
        assert verify_stream(artifact).ok
        merge_stream_files(str(tmp_path / "merged.opstream"), [artifact])
        assert len(closed) == 2 and closed == [{}, {}]

    def test_it_stays_inside_one_chunk_budget_and_keep_drops_it(self,
                                                                artifacts):
        with StreamReader(artifacts["small"]) as reader:
            budget = reader.rows_per_chunk * ROW_BYTES
            tables = 0
            for info in reader.chunk_index:
                payload = reader._read_frame(info.offset, "chunk")[1]
                tables += payload_fields(payload)[("npy-length", "kinds")][0]
            assert tables > 2 * budget  # the bound has to drop entries
            for info in reader.chunk_index[:-1]:  # the last may be empty
                list(reader.iter_batches(users=[info.user_lo]))
                assert memo_bytes(reader) == reader._memo_bytes <= budget
                assert reader._memo
            reader._keep(len(reader.chunk_index))  # forgets no chunk
            assert reader._memo == {} and reader._memo_bytes == 0
