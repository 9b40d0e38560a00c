"""Adapter tests: happy paths, schema sniffing, and error reporting."""

import pytest

from repro.traces import (
    IssueCollector,
    TraceParseError,
    adapter_names,
    detect_format,
    get_adapter,
)

CSV_LINES = [
    "timestamp_us,user,session,op,path,size,duration_us,file_size,category\n",
    "1000.0,alice,0,open,/home/alice/a.txt,0,12.5,2048,REG:USER:RDONLY\n",
    "2000.0,alice,0,read,/home/alice/a.txt,512,40.0,2048,REG:USER:RDONLY\n",
    "3000.0,bob,7,write,/tmp/b.out,256,20.0,,\n",
]

JSONL_LINES = [
    '{"timestamp_us": 1000.0, "op": "open", "path": "/x", "user": "u1"}\n',
    '{"timestamp_us": 2000.0, "op": "read", "path": "/x", "size": 128}\n',
]

STRACE_LINES = [
    '7 1699999990.100000 openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = 3 <0.000040>\n',
    '7 1699999990.200000 read(3</etc/hosts>, "x", 4096) = 4096 <0.000100>\n',
    "7 1699999990.300000 close(3</etc/hosts>) = 0 <0.000003>\n",
]

NFS_LINES = [
    "999316802.796180 31.03f2 30.0801 U C3 184fd3ba 3 read fh 20e2f6 off 0 count 2000\n",
    "999316802.796700 30.0801 31.03f2 U R3 184fd3ba 3 read OK size 81920 count 2000\n",
    "999316802.801000 31.03f2 30.0801 U C3 184fd3bb 3 write fh 99aabb off 0 count 4096\n",
]


class TestSniffing:
    def test_detects_each_format(self):
        assert detect_format(CSV_LINES) == "csv"
        assert detect_format(JSONL_LINES) == "jsonl"
        assert detect_format(STRACE_LINES) == "strace"
        assert detect_format(NFS_LINES) == "nfsdump"
        assert detect_format(["OP\t1\ttrace\t0\tread\t/x\tK\t8\t0.0\t1.0\n"]) == "usagelog"

    def test_unknown_schema_raises(self):
        with pytest.raises(ValueError, match="could not detect"):
            detect_format(["complete nonsense with no structure\n"])

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="empty"):
            detect_format(["", "   \n"])

    def test_unknown_adapter_name(self):
        with pytest.raises(ValueError, match="unknown trace format"):
            get_adapter("tcpdump")

    def test_registry_lists_all(self):
        assert adapter_names() == ("csv", "jsonl", "nfsdump", "strace", "usagelog")


class TestCsvAdapter:
    def test_parses_rows(self):
        events = list(get_adapter("csv").iter_events(CSV_LINES))
        assert len(events) == 3
        assert events[0].op == "open"
        assert events[0].file_size == 2048
        assert events[0].category == "REG:USER:RDONLY"
        assert events[0].session == "0"
        assert events[2].user == "bob"
        assert events[2].file_size is None and events[2].category is None

    def test_second_timestamp_form_is_seconds(self):
        lines = ["time,op,path\n", "2.5,read,/x\n"]
        (event,) = get_adapter("csv").iter_events(lines)
        assert event.timestamp_us == pytest.approx(2.5e6)

    def test_malformed_lines_reported_not_fatal(self):
        lines = CSV_LINES + [
            "not-a-number,alice,0,read,/x,1,,,\n",
            "5000.0,alice,0,frobnicate,/x,1,,,\n",
            "6000.0,alice,0,read,,1,,,\n",
        ]
        issues = IssueCollector()
        events = list(get_adapter("csv").iter_events(lines, issues))
        assert len(events) == 3
        assert issues.total == 3
        reasons = " | ".join(i.reason for i in issues.issues)
        assert "could not convert" in reasons
        assert "unknown operation" in reasons
        assert "lacks 'path'" in reasons

    def test_strict_mode_raises_with_line_number(self):
        lines = CSV_LINES + ["broken,row\n"]
        issues = IssueCollector(strict=True)
        with pytest.raises(TraceParseError) as info:
            list(get_adapter("csv").iter_events(lines, issues))
        assert info.value.issue.line_no == 5

    def test_truncated_file_header_only(self):
        events = list(get_adapter("csv").iter_events(CSV_LINES[:1]))
        assert events == []


class TestStraceAdapter:
    def test_parses_and_maps_syscalls(self):
        events = list(get_adapter("strace").iter_events(STRACE_LINES))
        assert [e.op for e in events] == ["open", "read", "close"]
        assert events[1].size == 4096
        assert events[1].duration_us == pytest.approx(100.0)
        assert events[1].path == "/etc/hosts"

    def test_o_creat_becomes_creat(self):
        line = '1 1699999990.0 openat(AT_FDCWD, "/x", O_WRONLY|O_CREAT) = 4\n'
        (event,) = get_adapter("strace").iter_events([line])
        assert event.op == "creat"

    def test_failed_and_noise_lines_skipped_silently(self):
        lines = [
            '1 1699999990.0 openat(AT_FDCWD, "/x", O_RDONLY) = -1 ENOENT (No such file)\n',
            "--- SIGCHLD {...} ---\n",
            "+++ exited with 0 +++\n",
            '1 1699999990.0 read(3</y>,  <unfinished ...>\n',
            '1 1699999990.0 epoll_wait(9, [], 16, 0) = 0\n',
        ]
        issues = IssueCollector()
        assert list(get_adapter("strace").iter_events(lines, issues)) == []
        assert issues.total == 0

    def test_fd_call_without_annotation_is_an_issue(self):
        issues = IssueCollector()
        lines = ["1 1699999990.0 read(3, \"x\", 16) = 16\n"]
        assert list(get_adapter("strace").iter_events(lines, issues)) == []
        assert issues.total == 1
        assert "strace -y" in issues.issues[0].reason


class TestNfsDumpAdapter:
    def test_calls_parse_and_replies_carry_sizes(self):
        events = list(get_adapter("nfsdump").iter_events(NFS_LINES))
        assert [e.op for e in events] == ["read", "write"]
        assert events[0].path == "nfs:20e2f6"
        assert events[0].size == 2000
        # The reply's size attribute applies to later events on the handle.
        more = NFS_LINES + [
            "999316802.9 31.03f2 30.0801 U C3 184fd3bc 3 getattr fh 20e2f6\n"
        ]
        events = list(get_adapter("nfsdump").iter_events(more))
        assert events[-1].op == "stat"
        assert events[-1].file_size == 81920

    def test_malformed_lines_are_issues(self):
        issues = IssueCollector()
        lines = NFS_LINES + [
            "999316803.0 31.03f2 30.0801 U C3 184fd3bd 3 read off 0 count 20\n",
            "totally bogus\n",
        ]
        events = list(get_adapter("nfsdump").iter_events(lines, issues))
        assert len(events) == 2
        assert issues.total == 2
        assert "without an fh" in issues.issues[0].reason


class TestCsvExport:
    def test_hostile_paths_stay_one_record_per_line(self):
        import io

        from repro.core import OpRecord, UsageLog
        from repro.traces import export_csv

        log = UsageLog()
        for path in ("/a\nb", "/c\rd", "/e,f", '/g"h', "/i\\j"):
            log.record_op(
                OpRecord(
                    user_id=0,
                    user_type="t",
                    session_id=0,
                    op="read",
                    path=path,
                    category_key="REG:USER:RDONLY",
                    size=1,
                    start_us=0.0,
                    response_us=0.0,
                )
            )
        buffer = io.StringIO()
        assert export_csv(log, buffer) == 5
        issues = IssueCollector()
        events = list(
            get_adapter("csv").iter_events(buffer.getvalue().splitlines(True), issues)
        )
        assert issues.total == 0
        assert len(events) == 5
        # Escaped paths remain distinct, self-consistent identities.
        assert len({e.path for e in events}) == 5


class TestUsageLogAdapter:
    def test_round_trips_ops(self):
        from repro.core import OpRecord

        record = OpRecord(
            user_id=3,
            user_type="heavy",
            session_id=1,
            op="write",
            path="/user03/f",
            category_key="REG:USER:NEW",
            size=100,
            start_us=5.0,
            response_us=2.0,
        )
        (event,) = get_adapter("usagelog").iter_events([record.to_line() + "\n"])
        assert event.op == "write"
        assert event.session == "1"
        assert event.category == "REG:USER:NEW"
        assert event.duration_us == 2.0

    def test_corrupt_line_is_an_issue(self):
        issues = IssueCollector()
        assert list(get_adapter("usagelog").iter_events(["OP\tnope\n"], issues)) == []
        assert issues.total == 1

    def test_unknown_op_is_an_issue(self):
        line = "OP\t1\ttrace\t0\tfsync\t/x\tREG:USER:RDONLY\t8\t0.0\t1.0\n"
        issues = IssueCollector()
        assert list(get_adapter("usagelog").iter_events([line], issues)) == []
        assert issues.total == 1
