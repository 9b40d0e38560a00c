"""Hostile chunk payloads behind a valid CRC: typed errors or valid data.

A chunk's CRC only proves the bytes are the ones the frame claims; a
payload written by something else is still outside input.  Every field
of one real payload is mutated here and the frame re-CRC'd, and either
``verify_stream`` reports the artifact not ok, or replaying it into a
``UsageLog`` and a ``ShardAccumulator`` succeeds.  Replay never raises
anything but ``StreamFormatError``, and a filtered read that touches the
mutated chunk raises exactly when ``read_chunk`` does.

The field map comes from :func:`payload_fields`, a parser of the chunk
layout that shares no code with the decoder under test.
"""

import json
import struct
import zlib

import numpy as np
import pytest

from repro.core import (
    OP_KIND_NAMES,
    StreamFileSink,
    StreamFormatError,
    StreamReader,
    UsageLog,
    WorkloadGenerator,
    verify_stream,
)
from repro.core.streamfile import (
    _COLUMNS,
    _FRAME_FMT,
    _TAIL_FMT,
    _THINK_COLUMN,
    MAGIC,
    ROW_BYTES,
)
from repro.fleet.merge import ShardAccumulator
from repro.scenarios import build_scenario_spec

TABLES = ("paths", "categories", "user_types")
COLUMNS = tuple(name for name, _ in (*_COLUMNS, _THINK_COLUMN))
# A float column is an encoding tag, then its blocks by encoding.
FLOAT_BLOCKS = {0: ("",), 1: (".table", ".keys"), 2: (".positions", ".pairs")}
# The blocks of the source artifact's chunk 1: start_us clock-coded,
# response_us dictionary-coded.
BLOCKS = tuple(block for name in COLUMNS for block in (
    {"start_us": ("start_us.positions", "start_us.pairs"),
     "response_us": ("response_us.table", "response_us.keys")}.get(
         name, (name,))))


def reframe_chunk(path, index, mutate):
    """Rewrite chunk ``index``'s payload as ``mutate(payload)`` returns
    it, re-CRC'd.  The payload may change length: later frames, the
    footer's chunk offsets and the tail's footer offset move to match,
    so only the mutated field is wrong."""
    with StreamReader(path) as reader:
        offset = reader.chunk_index[index].offset
        footer_offset = reader.data_end
        _, payload = reader._read_frame(offset, "chunk")
        _, raw_footer = reader._read_frame(footer_offset, "footer")
    with open(path, "rb") as stream:
        data = stream.read()
    mutated = mutate(payload)
    shift = len(mutated) - len(payload)
    footer = json.loads(raw_footer)
    for entry in footer["chunks"][index + 1:]:
        entry["offset"] += shift
    raw_footer = json.dumps(footer, sort_keys=True,
                            separators=(",", ":")).encode()
    stop = offset + struct.calcsize(_FRAME_FMT) + len(payload)
    with open(path, "wb") as stream:
        stream.write(data[:offset])
        stream.write(struct.pack(_FRAME_FMT, b"C", len(mutated),
                                 zlib.crc32(mutated)))
        stream.write(mutated)
        stream.write(data[stop:footer_offset])
        stream.write(struct.pack(_FRAME_FMT, b"F", len(raw_footer),
                                 zlib.crc32(raw_footer)))
        stream.write(raw_footer)
        stream.write(struct.pack(_TAIL_FMT, footer_offset + shift) + MAGIC)


def payload_fields(payload):
    """``{field: (offset, struct format)}`` for one chunk payload, plus
    ``("npy-header", block)`` entries as ``(offset, length)`` of the npy
    header text and ``("data", block)`` ones as ``(offset, rows)``.  A
    float column's tag is ``("tag", column)``; its blocks are named
    ``column`` (raw) or ``column.part`` (see :data:`FLOAT_BLOCKS`)."""
    fields = {"rows": (0, "<Q"), "think": (8, "<B")}
    n, has_think = struct.unpack_from("<QB", payload, 0)
    pos = 9
    for table in TABLES:
        (count,) = struct.unpack_from("<L", payload, pos)
        fields[("count", table)] = (pos, "<L")
        pos += 4
        for i in range(count):
            (nbytes,) = struct.unpack_from("<L", payload, pos)
            for which, at in (("first", 0), ("last", count - 1)):
                if i == at:
                    fields[("length", table, which)] = (pos, "<L")
            pos += 4 + nbytes
    for name in COLUMNS[:len(_COLUMNS) + has_think]:
        blocks = (name,)
        if name in ("start_us", "response_us"):
            fields[("tag", name)] = (pos, "<B")
            blocks = [name + part for part in FLOAT_BLOCKS[payload[pos]]]
            pos += 1
        for block in blocks:
            (nbytes,) = struct.unpack_from("<Q", payload, pos)
            fields[("npy-length", block)] = (pos, "<Q")
            (header_len,) = struct.unpack_from("<H", payload, pos + 16)
            fields[("npy-header-length", block)] = (pos + 16, "<H")
            fields[("npy-header", block)] = (pos + 18, header_len)
            data = pos + 18 + header_len
            header = payload[pos + 18:data].decode("latin-1")
            rows = int(header.split("'shape': (")[1].split(",")[0])
            fields[("data", block)] = (data, rows)
            pos += 8 + nbytes
    (sessions,) = struct.unpack_from("<L", payload, pos)
    fields["sessions"] = (pos, "<L")
    pos += 4
    for i in range(sessions):
        position, nbytes = struct.unpack_from("<QL", payload, pos)
        for which, at in (("first", 0), ("last", sessions - 1)):
            if i == at:
                fields[("position", which)] = (pos, "<Q")
                fields[("line-length", which)] = (pos + 8, "<L")
        pos += 12 + nbytes
    assert pos == len(payload)
    return fields


def set_kind(path, chunk, kind):
    """Set the first op kind of chunk ``chunk`` to ``kind``, re-CRC'd."""
    def mutate(payload):
        at = payload_fields(payload)[("data", "kinds")][0]
        return payload[:at] + struct.pack("<b", kind) + payload[at + 1:]
    reframe_chunk(path, chunk, mutate)


def set_exception(path, chunk, index, position):
    """Set exception ``index`` of chunk ``chunk``'s clock-coded start
    times to row ``position``, re-CRC'd."""
    def change(values, fields, rows):
        values[index] = position
    reframe_chunk(path, chunk, _edit("start_us.positions", change))


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    """A multi-chunk mixed-campus artifact: think column, three string
    tables and several sessions in every chunk."""
    path = str(tmp_path_factory.mktemp("payload") / "source.opstream")
    spec = build_scenario_spec("mixed-campus", 6, 7, total_files=120)
    with StreamFileSink(path, ROW_BYTES * 1000) as sink:
        WorkloadGenerator(spec).run_simulated(
            sessions_per_user=4, backend="fast-columnar", log=sink)
    with StreamReader(path) as reader:
        assert len(reader.chunk_index) >= 3
        chunk = reader.read_chunk(1)
        assert chunk.batch.think_us is not None and len(chunk.sessions) >= 2
        fields = payload_fields(reader._payload(1)[1])
        assert all(("data", block) in fields for block in BLOCKS)
        assert fields[("data", "start_us.positions")][1] >= 2
    assert verify_stream(path).ok
    return path


@pytest.fixture()
def artifact(source, tmp_path):
    path = str(tmp_path / "a.opstream")
    with open(source, "rb") as src, open(path, "wb") as out:
        out.write(src.read())
    return path


def replay_outcome(path):
    """Replay into both consumers: True if both succeed, False if both
    raise StreamFormatError.  Any other exception fails the test."""
    outcomes = set()
    for sink in (UsageLog(), ShardAccumulator()):
        try:
            with StreamReader(path) as reader:
                reader.replay(sink)
        except StreamFormatError:
            outcomes.add(False)
        else:
            outcomes.add(True)
    assert len(outcomes) == 1, "the two consumers disagree"
    return outcomes.pop()


def assert_rejected_or_valid(path):
    report = verify_stream(path)
    replayed = replay_outcome(path)
    assert not report.ok or replayed, report.errors
    return report


class TestOpKindRange:
    """Kinds outside the stream's kind table are corrupt, not records."""

    @pytest.mark.parametrize("kind", [len(OP_KIND_NAMES),
                                      len(OP_KIND_NAMES) + 2, -1])
    def test_out_of_table_kind_is_a_typed_error(self, tmp_path, kind):
        path = str(tmp_path / "batch.opstream")
        spec = build_scenario_spec("batch-heavy", 6, 7, total_files=120)
        with StreamFileSink(path, ROW_BYTES * 400) as sink:
            WorkloadGenerator(spec).run_simulated(
                sessions_per_user=1, backend="fast-columnar", log=sink)
        set_kind(path, 0, kind)
        report = verify_stream(path)
        assert not report.ok and report.complete
        assert report.chunks_ok == report.chunks - 1
        assert [e.split(":")[0] for e in report.errors] == ["chunk 0"]
        assert any("kind" in e for e in report.errors)
        for sink in (UsageLog(), ShardAccumulator()):
            with StreamReader(path) as reader:
                with pytest.raises(StreamFormatError, match="kind"):
                    reader.replay(sink)

    def test_the_last_kind_in_the_table_is_data(self, artifact):
        set_kind(artifact, 0, len(OP_KIND_NAMES) - 1)
        assert verify_stream(artifact).ok
        assert replay_outcome(artifact)


def _numeric(field, rule):
    def mutate(payload):
        offset, fmt = payload_fields(payload)[field]
        (value,) = struct.unpack_from(fmt, payload, offset)
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        new = {"+1": value + 1, "-1": value - 1, "0": 0, "max": top}[rule]
        new = min(max(new, 0), top)
        if new == value:
            new = value ^ 1
        return (payload[:offset] + struct.pack(fmt, new)
                + payload[offset + struct.calcsize(fmt):])
    return mutate


def _header(column, rewrite):
    def mutate(payload):
        offset, length = payload_fields(payload)[("npy-header", column)]
        text = payload[offset:offset + length].decode("latin-1")
        new = rewrite(text).encode("latin-1")
        new = new[:length].ljust(length)  # the header length stands
        return payload[:offset] + new + payload[offset + length:]
    return mutate


def _descr(text):
    """Same item size, other type: int <-> float, '<i4' -> '<f4'."""
    for old, new in (("<i8", "<f8"), ("<f8", "<i8"), ("<i4", "<f4"),
                     ("<i2", "<u2"), ("|i1", "|u1")):
        if old in text:
            return text.replace(old, new)
    raise AssertionError(text)


def _shape(delta):
    def rewrite(text):
        head, rest = text.split("'shape': (", 1)
        rows, tail = rest.split(",", 1)
        return f"{head}'shape': ({int(rows) + delta},{tail}"
    return rewrite


HEADER_REWRITES = {
    "descr": _descr,
    "object descr": lambda text: text.replace(
        text.split("'descr': '")[1].split("'")[0], "|O"),
    "fortran": lambda text: text.replace("False", "True "),
    "shape +1": _shape(1),
    "shape -1": _shape(-1),
    "shape 2-d": lambda text: text.replace(",), }", ",1), }"),
    "not a literal": lambda text: "x" + text[1:],
}

RULES = ("+1", "-1", "0", "max")


def _mutations():
    out = {}
    scalar = ["rows", "think", "sessions",
              *(("count", table) for table in TABLES),
              *(("length", table, which) for table in TABLES
                for which in ("first", "last")),
              *(("position", which) for which in ("first", "last")),
              *(("line-length", which) for which in ("first", "last")),
              ("tag", "start_us"), ("tag", "response_us")]
    for block in BLOCKS:
        scalar += [("npy-length", block), ("npy-header-length", block)]
    for field in scalar:
        label = field if isinstance(field, str) else " ".join(field)
        for rule in RULES:
            out[f"{label} {rule}"] = _numeric(field, rule)
    for block in BLOCKS:
        for why, rewrite in HEADER_REWRITES.items():
            out[f"npy-header {block} {why}"] = _header(block, rewrite)
    out["trailing byte"] = lambda payload: payload + b"\0"
    out["trailing session head"] = lambda payload: payload + b"\0" * 12
    out["last byte cut"] = lambda payload: payload[:-1]
    return out


MUTATIONS = _mutations()


def _edit(block, change):
    """Rewrite the values of ``block`` (an integer block) in place:
    ``change(values, fields, rows)`` edits a writable copy."""
    def mutate(payload):
        fields = payload_fields(payload)
        at, count = fields[("data", block)]
        offset, length = fields[("npy-header", block)]
        header = payload[offset:offset + length].decode("latin-1")
        descr = header.split("'descr': '")[1].split("'")[0]
        values = np.frombuffer(payload, descr, count, at).copy()
        change(values, fields, struct.unpack_from("<Q", payload, 0)[0])
        return payload[:at] + values.tobytes() + payload[at + values.nbytes:]
    return mutate


def _swap_last_two(values, fields, rows):
    values[-2:] = values[-2:][::-1].copy()


def _repeat_last(values, fields, rows):
    values[-1] = values[-2]


def _last_past_the_chunk(values, fields, rows):
    values[-1] = rows


def _first_not_zero(values, fields, rows):
    values[0] = 1


def _key_past_the_table(values, fields, rows):
    values[-1] = fields[("data", "response_us.table")][1]


def _swap_first_two(values, fields, rows):
    values[:2] = values[1::-1].copy()


def _tag(column, tag):
    def mutate(payload):
        at = payload_fields(payload)[("tag", column)][0]
        return payload[:at] + bytes([tag]) + payload[at + 1:]
    return mutate


# Format 3's encodings, each broken one way: every one is corrupt.
ENCODING_MUTATIONS = {
    "exception positions reversed": _edit("start_us.positions",
                                          _swap_last_two),
    "exception positions repeated": _edit("start_us.positions",
                                          _repeat_last),
    "exception position past the chunk": _edit("start_us.positions",
                                               _last_past_the_chunk),
    "first exception not row 0": _edit("start_us.positions",
                                       _first_not_zero),
    "dictionary index past its table": _edit("response_us.keys",
                                             _key_past_the_table),
    "dictionary table unsorted": _edit("response_us.table",
                                       _swap_first_two),
    "start_us tagged dict": _tag("start_us", 1),
    "response_us tagged clock": _tag("response_us", 2),
    "unknown encoding tag": _tag("start_us", 3),
}


class TestPayloadSweep:
    @pytest.mark.parametrize("why", sorted(MUTATIONS))
    def test_mutated_field_is_rejected_or_replays(self, artifact, why):
        reframe_chunk(artifact, 1, MUTATIONS[why])
        assert_rejected_or_valid(artifact)

    def test_reframing_alone_changes_nothing(self, artifact, source):
        reframe_chunk(artifact, 1, lambda payload: payload)
        assert open(artifact, "rb").read() == open(source, "rb").read()

    def test_the_sweep_breaks_most_payloads(self, source, tmp_path):
        # A sweep whose mutations all slipped through as valid data would
        # prove nothing: nearly every field change must be caught.
        path = str(tmp_path / "a.opstream")
        caught = 0
        for why in sorted(MUTATIONS):
            with open(source, "rb") as src, open(path, "wb") as out:
                out.write(src.read())
            reframe_chunk(path, 1, MUTATIONS[why])
            caught += not assert_rejected_or_valid(path).ok
        assert caught >= 0.9 * len(MUTATIONS), (caught, len(MUTATIONS))

    def test_info_gives_each_float_columns_encoding_and_share(self, source):
        spent = {"start_us": 0, "response_us": 0}
        used = {"start_us": {}, "response_us": {}}
        with StreamReader(source) as reader:
            info = reader.info_kv()
            for chunk in reader.chunk_index:
                payload = reader._payload(chunk.index)[1]
                fields = payload_fields(payload)
                for column in spent:
                    tag_at = fields[("tag", column)][0]
                    block = [b for b in BLOCKS if b.split(".")[0] == column]
                    blocks = [name for name in (column, *block)
                              if ("npy-length", name) in fields]
                    last = fields[("npy-length", blocks[-1])][0]
                    (nbytes,) = struct.unpack_from("<Q", payload, last)
                    spent[column] += last + 8 + nbytes - tag_at
                    encoding = ("raw", "dict", "clock")[payload[tag_at]]
                    used[column][encoding] = used[column].get(encoding, 0) + 1
        size = info["file bytes"]
        for column in spent:
            counts = ", ".join(f"{encoding} x{count}" for encoding, count
                               in sorted(used[column].items(),
                                         key=lambda item: ("raw", "dict",
                                                           "clock").index(
                                                               item[0])))
            assert info[f"{column} encoding"] == (
                f"{counts} ({100 * spent[column] / size:.1f}% of file bytes)")

    def test_info_counts_a_chunk_it_cannot_read(self, artifact):
        reframe_chunk(artifact, 1, ENCODING_MUTATIONS["unknown encoding tag"])
        with StreamReader(artifact) as reader:
            assert reader.info_kv()["unreadable chunks"] == 1

    @pytest.mark.parametrize("why", sorted(ENCODING_MUTATIONS))
    def test_a_broken_encoding_is_rejected(self, artifact, why):
        reframe_chunk(artifact, 1, ENCODING_MUTATIONS[why])
        report = verify_stream(artifact)
        assert not report.ok
        assert [e.split(":")[0] for e in report.errors] == ["chunk 1"]
        assert replay_outcome(artifact) is False

    @pytest.mark.parametrize("position", ["before the chunk", "past its rows",
                                          "out of order"])
    def test_session_positions_stay_inside_their_chunk(self, artifact,
                                                       position):
        def mutate(payload):
            fields = payload_fields(payload)
            first = fields[("position", "first")][0]
            last = fields[("position", "last")][0]
            (lo,) = struct.unpack_from("<Q", payload, first)
            (hi,) = struct.unpack_from("<Q", payload, last)
            (n,) = struct.unpack_from("<Q", payload, 0)
            at, value = {"before the chunk": (first, 0),
                         "past its rows": (last, hi + n),
                         "out of order": (first, hi + 1)}[position]
            return payload[:at] + struct.pack("<Q", value) + payload[at + 8:]

        reframe_chunk(artifact, 1, mutate)
        report = verify_stream(artifact)
        assert not report.ok
        assert any("session positions" in e for e in report.errors)
        assert replay_outcome(artifact) is False



def outcome(read):
    """None if ``read()`` succeeds, else its StreamFormatError's text."""
    try:
        read()
    except StreamFormatError as exc:
        return str(exc)
    return None


@pytest.fixture(scope="module")
def selectors(source):
    """Filters the index sends to chunk 1: its first user, a window over
    its rows, and a window between two of its start times, which selects
    none of its rows."""
    with StreamReader(source) as reader:
        info = reader.chunk_index[1]
        starts = np.unique(reader.read_chunk(1).batch.start_us)
        gap = (float(starts[0]) + float(starts[1])) / 2
        found = [dict(users=[info.user_lo]),
                 dict(time_range=(info.start_lo, info.start_hi)),
                 dict(time_range=(gap, float(starts[1])))]
        visited = []
        sliced = reader._slice
        reader._slice = lambda i, *a: (visited.append(i), sliced(i, *a))[1]
        for selector in found:
            visited.clear()
            list(reader.iter_batches(**selector))
            assert 1 in visited, selector
    return found


def _first_row(column, value):
    """Set row 0 of ``column`` to ``value`` at the column's stored width."""
    def mutate(payload):
        fields = payload_fields(payload)
        at, n = fields[("data", column)]
        (nbytes,) = struct.unpack_from("<Q", payload, fields[("npy-length",
                                                              column)][0])
        width = (nbytes - 10 - fields[("npy-header", column)][1]) // n
        raw = value.to_bytes(width, "little", signed=True)
        return payload[:at] + raw + payload[at + width:]
    return mutate


# Out-of-table values in row 0, which the empty-selection filter skips.
ROW_MUTATIONS = {"row kind past the table": _first_row("kinds", 12),
                 **{f"row {column} below -1": _first_row(column, -2)
                    for column in ("path_idx", "category_idx",
                                   "user_type_idx")}}


class TestFilteredReadsCheckWholeChunks:
    @pytest.mark.parametrize("why", sorted(MUTATIONS) + sorted(ROW_MUTATIONS)
                             + sorted(ENCODING_MUTATIONS))
    def test_a_slice_fails_exactly_when_read_chunk_does(self, artifact,
                                                        selectors, why):
        reframe_chunk(artifact, 1, {**MUTATIONS, **ROW_MUTATIONS,
                                    **ENCODING_MUTATIONS}[why])
        with StreamReader(artifact) as reader:
            want = outcome(lambda: reader.read_chunk(1))
            assert want is not None or why not in {**ROW_MUTATIONS,
                                                   **ENCODING_MUTATIONS}
            for selector in selectors:
                got = outcome(lambda: list(reader.iter_batches(**selector)))
                assert got == want, selector
