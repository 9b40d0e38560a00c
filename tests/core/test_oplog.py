"""Unit tests for the usage log and its text round-trip."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import OpRecord, SessionRecord, UsageLog
from repro.core.oplog import _split_categories, _unescape


def op(kind="read", size=100, user=0, session=0, response=12.5):
    return OpRecord(
        user_id=user,
        user_type="heavy",
        session_id=session,
        op=kind,
        path="/user00/f",
        category_key="REG:USER:RDONLY",
        size=size,
        start_us=1.0,
        response_us=response,
    )


def session(user=0, session_id=0, files=3, accessed=1000, referenced=500):
    return SessionRecord(
        user_id=user,
        user_type="heavy",
        session_id=session_id,
        start_us=0.0,
        end_us=100.0,
        files_referenced=files,
        bytes_accessed=accessed,
        file_bytes_referenced=referenced,
        categories=("REG:USER:RDONLY", "DIR:USER:RDONLY"),
    )


class TestRecords:
    def test_op_roundtrip(self):
        record = op()
        assert OpRecord.from_line(record.to_line()) == record

    def test_session_roundtrip(self):
        record = session()
        assert SessionRecord.from_line(record.to_line()) == record

    def test_session_derived_measures(self):
        record = session(files=4, accessed=2000, referenced=1000)
        assert record.access_per_byte == pytest.approx(2.0)
        assert record.mean_file_size == pytest.approx(250.0)
        assert record.duration_us == 100.0

    def test_session_zero_guards(self):
        record = session(files=0, accessed=0, referenced=0)
        assert record.access_per_byte == 0.0
        assert record.mean_file_size == 0.0

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError):
            OpRecord.from_line("SESSION\tnot-an-op")
        with pytest.raises(ValueError):
            SessionRecord.from_line("OP\tnot-a-session")

    @pytest.mark.parametrize("name", ["fsync", "rename", "", "READ"])
    def test_unknown_op_rejected(self, name):
        line = dataclasses.replace(op(), op=name).to_line()
        with pytest.raises(ValueError, match="unknown op"):
            OpRecord.from_line(line)
        with pytest.raises(ValueError, match="unknown op"):
            UsageLog.loads(op().to_line() + "\n" + line + "\n")

    def test_every_record_kind_parses(self):
        from repro.core.opbatch import RECORD_KIND_NAMES

        for name in RECORD_KIND_NAMES:
            record = dataclasses.replace(op(), op=name)
            assert OpRecord.from_line(record.to_line()) == record

    def test_empty_categories_roundtrip(self):
        record = SessionRecord(
            user_id=0, user_type="t", session_id=0, start_us=0.0,
            end_us=1.0, files_referenced=0, bytes_accessed=0,
            file_bytes_referenced=0, categories=(),
        )
        assert SessionRecord.from_line(record.to_line()).categories == ()


class TestUsageLog:
    def make_log(self):
        log = UsageLog()
        log.record_op(op("open", size=0))
        log.record_op(op("read", size=100))
        log.record_op(op("write", size=50))
        log.record_op(op("close", size=0))
        log.record_session(session())
        return log

    def test_data_ops_filter(self):
        log = self.make_log()
        assert [o.op for o in log.data_ops()] == ["read", "write"]

    def test_ops_of(self):
        log = self.make_log()
        assert len(list(log.ops_of("open", "close"))) == 2

    def test_total_bytes(self):
        assert self.make_log().total_bytes == 150

    def test_total_response(self):
        assert self.make_log().total_response_us == pytest.approx(50.0)

    def test_sessions_of_user(self):
        log = self.make_log()
        log.record_session(session(user=5))
        assert len(log.sessions_of_user(0)) == 1
        assert len(log.sessions_of_user(5)) == 1

    def test_dump_load_roundtrip(self):
        log = self.make_log()
        restored = UsageLog.loads(log.dumps())
        assert restored.operations == log.operations
        assert restored.sessions == log.sessions

    def test_load_skips_blank_lines(self):
        log = UsageLog.loads("\n" + self.make_log().dumps() + "\n\n")
        assert len(log.operations) == 4

    def test_load_rejects_garbage(self):
        with pytest.raises(ValueError):
            UsageLog.loads("GARBAGE\tline\n")

    def test_extend(self):
        a = self.make_log()
        b = self.make_log()
        a.extend(b)
        assert len(a.operations) == 8
        assert len(a.sessions) == 2


class TestRobustRoundTrip:
    """Paths with separators/whitespace and empty logs must survive."""

    @pytest.mark.parametrize("path", [
        "/user00/with\ttab",
        "/user00/with\nnewline",
        "/user00/with\rcarriage",
        "/user00/back\\slash",
        "/user00/tab\tand\\mix\n",
        "/user00/trailing space ",
    ])
    def test_op_path_round_trip(self, path):
        record = OpRecord(
            user_id=1, user_type="heavy", session_id=0, op="read",
            path=path, category_key="REG:USER:RDONLY", size=10,
            start_us=0.0, response_us=1.0,
        )
        line = record.to_line()
        assert "\n" not in line and "\r" not in line
        assert OpRecord.from_line(line) == record

    def test_category_and_user_type_round_trip(self):
        record = OpRecord(
            user_id=1, user_type="type\twith tab", session_id=0, op="read",
            path="/f", category_key="weird\tkey", size=10,
            start_us=0.0, response_us=1.0,
        )
        assert OpRecord.from_line(record.to_line()) == record

    def test_session_categories_with_commas_round_trip(self):
        record = SessionRecord(
            user_id=0, user_type="h\tt", session_id=1, start_us=0.0,
            end_us=5.0, files_referenced=1, bytes_accessed=2,
            file_bytes_referenced=3,
            categories=("plain", "with,comma", "with\ttab"),
        )
        assert SessionRecord.from_line(record.to_line()) == record

    @pytest.mark.parametrize("path", [
        "/cr\ronly",
        "/crlf\r\npair",
        "/lone\\back",
        "/double\\\\back",
        "/back\\r-literal",      # backslash followed by the letter r
        "/back\\t-literal",      # backslash followed by the letter t
        "/back\\,comma",
        "/mix\r\\\t\n,end\\",
    ])
    def test_carriage_return_and_backslash_survive_a_text_file(
            self, tmp_path, path):
        # The real failure mode for raw \r is a text-mode file: universal
        # newline translation would mangle an unescaped carriage return
        # on read, and an unescaped backslash would collide with the
        # escape prefix.  Round-trip through an actual file, not just a
        # string, to pin both.
        log = UsageLog()
        log.record_op(OpRecord(
            user_id=0, user_type="heavy", session_id=0, op="open",
            path=path, category_key="REG:USER:RDONLY", size=0,
            start_us=0.0, response_us=1.0,
        ))
        log.record_session(SessionRecord(
            user_id=0, user_type="heavy", session_id=0, start_us=0.0,
            end_us=1.0, files_referenced=1, bytes_accessed=0,
            file_bytes_referenced=0, categories=(path,),
        ))
        target = tmp_path / "hostile.log"
        with open(target, "w", encoding="utf-8") as stream:
            log.dump(stream)
        with open(target, "r", encoding="utf-8") as stream:
            restored = UsageLog.load(stream)
        assert restored.operations == log.operations
        assert restored.sessions == log.sessions
        # exactly two physical lines: nothing unescaped split them
        assert len(target.read_text(encoding="utf-8").splitlines()) == 2

    def test_full_log_round_trip_with_hostile_paths(self):
        log = UsageLog()
        log.record_session(session())
        for path in ("/a\tb", "/c\nd", "/e\\f", "/g,h"):
            log.record_op(OpRecord(
                user_id=0, user_type="heavy", session_id=0, op="write",
                path=path, category_key="REG:USER:NEW", size=1,
                start_us=0.0, response_us=0.5,
            ))
        restored = UsageLog.loads(log.dumps())
        assert restored.operations == log.operations
        assert restored.sessions == log.sessions

    def test_empty_log_round_trip(self):
        restored = UsageLog.loads(UsageLog().dumps())
        assert restored.operations == []
        assert restored.sessions == []

    def test_unknown_escape_rejected(self):
        line = op().to_line().replace("/user00/f", "/user00\\qf")
        with pytest.raises(ValueError, match="unknown escape"):
            OpRecord.from_line(line)

    def test_dangling_escape_rejected(self):
        line = op().to_line().replace("/user00/f", "/user00/f\\")
        with pytest.raises(ValueError, match="dangling escape"):
            OpRecord.from_line(line)


def _split_categories_walk(field_text):
    """The escape-aware character walk, kept here as the reference."""
    parts, current, i = [], [], 0
    while i < len(field_text):
        ch = field_text[i]
        if ch == "\\" and i + 1 < len(field_text):
            current += [ch, field_text[i + 1]]
            i += 2
        elif ch == ",":
            parts.append("".join(current))
            current = []
            i += 1
        else:
            current.append(ch)
            i += 1
    parts.append("".join(current))
    return tuple(_unescape(p) for p in parts if p)


class TestSplitCategories:
    """``str.split`` on escape-free fields must equal the escape walk."""

    @pytest.mark.parametrize("field_text, expected", [
        ("", ()),
        (",", ()),
        (",a,,b,", ("a", "b")),
        ("REG:USER:RDONLY,DIR:USER:RDONLY",
         ("REG:USER:RDONLY", "DIR:USER:RDONLY")),
        ("a\\,b,c", ("a,b", "c")),
        ("a\\\\,b", ("a\\", "b")),
        ("\\t,\\n", ("\t", "\n")),
    ])
    def test_known_fields(self, field_text, expected):
        assert _split_categories(field_text) == expected
        assert _split_categories_walk(field_text) == expected

    @given(st.text(alphabet=list("ab:,\\tnq "), max_size=16))
    def test_matches_escape_walk(self, field_text):
        try:
            expected = _split_categories_walk(field_text)
        except ValueError:
            with pytest.raises(ValueError):
                _split_categories(field_text)
        else:
            assert _split_categories(field_text) == expected

    @given(st.lists(st.text(alphabet=list("ab,\\\t\n:é"), min_size=1,
                            max_size=6), max_size=4))
    def test_session_line_round_trip(self, categories):
        record = dataclasses.replace(session(), categories=tuple(categories))
        assert SessionRecord.from_line(record.to_line()) == record
