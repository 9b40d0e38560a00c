"""Command-line interface: ``python -m repro`` / ``repro-workload``.

Subcommands mirror the workload generator's pipeline and the paper's
experiments:

* ``simulate`` — run a simulated experiment and print the measurements;
* ``real`` — drive a real directory with the generated workload;
* ``figures`` — regenerate a paper table/figure by identifier;
* ``compare`` — the section 5.3 file-system comparison;
* ``mkfs`` — create the initial file system in a directory (FSC only);
* ``fleet run`` — sharded multi-process generation from a named scenario,
  with supervised retry, ``--resume``, and ``--inject-fault`` chaos runs;
* ``fleet scenarios`` — list the scenario library;
* ``stream verify`` — CRC-walk an op-stream artifact, non-zero on damage;
* ``characterize`` — re-derive the Table 5.2 characterization from a log;
* ``trace import`` — parse an external trace into the usage-log format;
* ``trace calibrate`` — fit a workload spec (JSON artefact) to a trace;
* ``trace validate`` — closed-loop fidelity check of a calibrated spec;
* ``trace formats`` — list the trace adapters.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .core import (
    RUN_BACKENDS,
    SpecError,
    UsageAnalyzer,
    WorkloadGenerator,
    paper_workload_spec,
)
from .faults import FaultError, parse_fault
from .fleet import (
    FleetConfig,
    FleetPartialError,
    resume_fleet_config,
    run_fleet,
)
from .harness import (
    PAPER_EXPERIMENTS,
    compare_file_systems,
    fleet_report,
    format_kv,
)

__all__ = ["main", "build_parser"]

_ALIAS_HELP = ("`fast-columnar` is the same executor as `fast`, kept for "
               "scripts and recorded runs")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-workload",
        description="User-oriented synthetic workload generator "
                    "(Kao 1991 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--users", type=int, default=2)
        p.add_argument("--sessions", type=int, default=5,
                       help="login sessions per user")
        p.add_argument("--files", type=int, default=300,
                       help="files the FSC creates")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--heavy-fraction", type=float, default=1.0)
        p.add_argument("--think-us", type=float, default=5000.0,
                       help="heavy users' mean think time (µs)")

    def arrival_args(p: argparse.ArgumentParser) -> None:
        from .core import profile_names

        p.add_argument("--arrivals", action="store_true",
                       help="enable the temporal load model: users log "
                            "in at drawn offsets and pause between "
                            "sessions instead of starting together at "
                            "clock 0 (same op stream, shifted timeline)")
        p.add_argument("--profile", choices=profile_names(), default=None,
                       help="diurnal intensity profile shaping the login "
                            "offsets (implies --arrivals)")

    def stream_out_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out-stream", metavar="PATH", default=None,
                       help="also spill the op stream to a columnar "
                            "stream-file artifact (re-readable with "
                            "`stream info/replay`)")
        p.add_argument("--stream-budget-bytes", type=int, default=None,
                       metavar="N",
                       help="stream-file buffer budget of the whole run: "
                            "at most N bytes of column data held between "
                            "chunk flushes; a fleet's k shards spill at "
                            "N/k each (default 64 MiB)")

    def obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write a run-manifest JSON artifact (seed, "
                            "spec hash, versions, per-stage timings, peak "
                            "RSS, all counters) after the run")
        p.add_argument("--progress", action="store_true",
                       help="paint a live one-line progress display "
                            "(users done, ops/s, ETA) to stderr")

    sim = sub.add_parser("simulate", help="run a simulated experiment")
    common(sim)
    sim.add_argument("--backend", choices=RUN_BACKENDS,
                     default="nfs",
                     help="execution backend: nfs/local/afs run the DES "
                          "(full queueing fidelity); fast replays the "
                          "identical op stream with analytic service "
                          "times, no engine; " + _ALIAS_HELP)
    arrival_args(sim)
    stream_out_args(sim)
    obs_args(sim)

    real = sub.add_parser("real", help="drive a real directory")
    common(real)
    real.add_argument("directory", help="sandbox directory to create/use")
    real.add_argument("--sleep-thinks", action="store_true",
                      help="actually sleep think times (paced live load)")

    mkfs = sub.add_parser("mkfs", help="create the initial file system only")
    common(mkfs)
    mkfs.add_argument("directory")

    fig = sub.add_parser("figures", help="regenerate a paper table/figure")
    fig.add_argument("ident", choices=sorted(PAPER_EXPERIMENTS),
                     help="e.g. table5.3 or fig5.6")

    cmp_p = sub.add_parser("compare", help="section 5.3 comparison")
    common(cmp_p)

    fleet = sub.add_parser(
        "fleet", help="sharded multi-process workload generation"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser(
        "run", help="run a scenario sharded across worker processes"
    )
    fleet_run.add_argument("--scenario", default="paper-campus",
                           help="a name from `fleet scenarios`")
    fleet_run.add_argument("--users", type=int, default=100,
                           help="population size across all shards")
    fleet_run.add_argument("--shards", type=int, default=1,
                           help="independent simulated sites to split into")
    fleet_run.add_argument("--workers", type=int, default=None,
                           help="worker processes (default: min(shards, cores))")
    fleet_run.add_argument("--sessions", type=int, default=None,
                           help="login sessions per user "
                                "(default: the scenario's)")
    fleet_run.add_argument("--seed", type=int, default=0)
    fleet_run.add_argument("--files", type=int, default=None,
                           help="FSC file count (default: scenario-scaled)")
    fleet_run.add_argument("--backend",
                           choices=RUN_BACKENDS,
                           default="nfs",
                           help="DES backend, or `fast` for engine-free "
                                "analytic replay (same op stream, many "
                                "times the ops/s); " + _ALIAS_HELP)
    fleet_run.add_argument("--oplog", metavar="PATH", default=None,
                           help="also collect and write the merged usage log")
    arrival_args(fleet_run)
    fleet_run.add_argument("--window-us", type=float, default=None,
                           help="offered-load window width (µs; default: "
                                "1 hour when arrivals are enabled)")
    stream_out_args(fleet_run)
    obs_args(fleet_run)
    fleet_run.add_argument("--resume", metavar="RUN_DIR", default=None,
                           help="continue a killed stream run from its "
                                "<out-stream>.run directory; verified "
                                "chunks are reused, only the tail is "
                                "regenerated (bit-for-bit identical)")
    fleet_run.add_argument("--max-retries", type=int, default=2,
                           help="retries per shard before quarantine "
                                "(default: 2)")
    fleet_run.add_argument("--shard-timeout-s", type=float, default=None,
                           help="kill and retry a shard with no progress "
                                "heartbeat for this long")
    fleet_run.add_argument("--allow-partial", action="store_true",
                           help="accept a run with quarantined shards "
                                "instead of exiting with status 3")
    fleet_run.add_argument("--keep-run-dir", action="store_true",
                           help="keep <out-stream>.run after a failed run "
                                "so it can be resumed")
    fleet_run.add_argument("--inject-fault", metavar="SPEC", default=[],
                           action="append", dest="inject_faults",
                           help="arm a deterministic fault (repeatable), "
                                "e.g. kill:shard=0,row=120 or "
                                "enospc:shard=1,chunk=2 — see repro.faults")

    fleet_sub.add_parser("scenarios", help="list the scenario library")

    stream = sub.add_parser(
        "stream", help="inspect, merge and replay op-stream artifacts"
    )
    stream_sub = stream.add_subparsers(dest="stream_command", required=True)

    s_info = stream_sub.add_parser(
        "info", help="print an artifact's header, totals and metadata"
    )
    s_info.add_argument("streamfile")

    s_verify = stream_sub.add_parser(
        "verify",
        help="CRC-walk every chunk of an artifact; non-zero exit and a "
             "per-chunk error report on corruption or truncation",
    )
    s_verify.add_argument("streamfile")

    s_merge = stream_sub.add_parser(
        "merge",
        help="k-way merge per-shard artifacts into one canonical file",
    )
    s_merge.add_argument("inputs", nargs="+", metavar="SHARD")
    s_merge.add_argument("-o", "--output", required=True,
                         help="merged artifact path")

    s_replay = stream_sub.add_parser(
        "replay",
        help="re-execute an artifact from disk through the columnar "
             "sink path (no regeneration) and print the aggregate",
    )
    s_replay.add_argument("streamfile")
    s_replay.add_argument("--oplog", metavar="PATH", default=None,
                          help="also write the replayed usage log")
    s_replay.add_argument("--users", metavar="IDS", default=None,
                          help="only replay these user ids "
                               "(comma-separated)")
    s_replay.add_argument("--window-us", metavar="LO:HI", default=None,
                          help="only replay ops starting in [LO, HI) µs")

    char = sub.add_parser(
        "characterize",
        help="re-derive the Table 5.2 characterization from a usage log",
    )
    char.add_argument("logfile", help="a usage log (e.g. fleet run --oplog)")
    char.add_argument("--json", action="store_true",
                      help="emit JSON instead of the table")

    trace = sub.add_parser(
        "trace", help="trace ingestion, calibration and validation"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def trace_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", dest="fmt", default=None,
                       help="trace format (default: sniff); "
                            "see `trace formats`")
        p.add_argument("--gap-us", type=float, default=None,
                       help="idle gap (µs) that splits sessions when the "
                            "trace has no session records (default 30 min)")
        p.add_argument("--strict", action="store_true",
                       help="fail on the first malformed line")

    trace_sub.add_parser("formats", help="list the trace adapters")

    t_import = trace_sub.add_parser(
        "import", help="parse an external trace into the usage-log format"
    )
    t_import.add_argument("tracefile")
    trace_common(t_import)
    t_import.add_argument("-o", "--output", default=None,
                          help="output usage-log path (default: stdout)")

    t_cal = trace_sub.add_parser(
        "calibrate", help="fit a WorkloadSpec to a trace; write spec JSON"
    )
    t_cal.add_argument("tracefile")
    trace_common(t_cal)
    t_cal.add_argument("-o", "--output", default=None,
                       help="spec JSON path (default: <trace>.spec.json)")
    t_cal.add_argument("--method", choices=("fit", "empirical", "exponential"),
                       default="fit",
                       help="how measure samples become distributions")
    t_cal.add_argument("--seed", type=int, default=0)
    t_cal.add_argument("--users", type=int, default=None,
                       help="spec population (default: users seen in trace)")
    t_cal.add_argument("--total-files", type=int, default=None,
                       help="spec FSC size (default: paths seen in trace)")
    t_cal.add_argument("--name", default="calibrated",
                       help="user-type name in the spec")

    t_val = trace_sub.add_parser(
        "validate",
        help="closed loop: regenerate from a calibrated spec and compare",
    )
    t_val.add_argument("specfile", help="spec JSON from `trace calibrate`")
    t_val.add_argument("--against", required=True, metavar="TRACE",
                       help="the source trace to compare the synthetic "
                            "workload with")
    trace_common(t_val)
    t_val.add_argument("--sessions", type=int, default=None,
                       help="synthetic sessions per user "
                            "(default: match the source)")
    t_val.add_argument("--shards", type=int, default=1,
                       help="regenerate via the fleet layer when > 1")
    t_val.add_argument("--backend", choices=RUN_BACKENDS,
                       default="nfs",
                       help="regeneration backend; `fast` skips the DES "
                            "(content-identical, so fidelity measures "
                            "other than think time are unaffected); "
                            + _ALIAS_HELP)
    t_val.add_argument("--threshold", type=float, default=None,
                       help="KS pass/fail threshold (default 0.35)")
    t_val.add_argument("--seed", type=int, default=None,
                       help="override the spec's seed for regeneration")
    t_val.add_argument("--json", metavar="PATH", default=None,
                       help="also write the report as JSON")
    return parser


def _spec_from(args: argparse.Namespace):
    return paper_workload_spec(
        n_users=args.users,
        total_files=args.files,
        seed=args.seed,
        heavy_fraction=args.heavy_fraction,
        heavy_think_us=args.think_us,
    )


def _print_summary(backend: str, analyzer) -> None:
    resp = analyzer.response_time_stats().summary()
    print(format_kv(
        {
            "backend": backend,
            "sessions": len(analyzer.log.sessions),
            "system calls": len(analyzer.log.operations),
            "mean response (µs)": resp["mean"],
            "response std (µs)": resp["std"],
            "response per byte (µs/B)": analyzer.response_per_byte(),
        },
        title="Run summary",
    ))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    A reader that stops early (``| head``) is not an error: the output
    ends quietly, with the command's own exit code if it had finished,
    else 0.
    """
    code = 0
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # No traceback, and no second EPIPE when the interpreter
        # flushes stdout on the way out.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _dispatch(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)

    if args.command in ("simulate", "real", "mkfs", "compare"):
        try:
            return _main_spec(args)
        except SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.command == "fleet":
        return _main_fleet(args)
    elif args.command == "stream":
        return _main_stream(args)
    elif args.command == "characterize":
        return _main_characterize(args)
    elif args.command == "trace":
        return _main_trace(args)
    elif args.command == "figures":
        print(PAPER_EXPERIMENTS[args.ident]().formatted())
    return 0


def _main_spec(args: argparse.Namespace) -> int:
    """The verbs that build the paper spec from ``common`` flags."""
    if args.command == "simulate":
        # A one-shard fleet run: the same publication, header and
        # manifest as `fleet run`.
        result = run_fleet(FleetConfig(
            spec=_spec_from(args), sessions_per_user=args.sessions,
            backend=args.backend, use_arrivals=args.arrivals,
            profile=args.profile, collect_ops=True,
            out_stream=args.out_stream,
            stream_budget_bytes=args.stream_budget_bytes,
            metrics_out=args.metrics_out, progress=args.progress,
        ))
        _print_summary(args.backend, UsageAnalyzer(result.log))
        if result.out_stream is not None:
            print(f"\nop stream ({result.tally.operations} ops) "
                  f"written to {result.out_stream}")
        if args.metrics_out is not None:
            print(f"\nrun manifest written to {args.metrics_out}")
    elif args.command == "real":
        result = WorkloadGenerator(_spec_from(args)).run_real(
            args.directory,
            sessions_per_user=args.sessions,
            sleep_thinks=args.sleep_thinks,
        )
        _print_summary(result.backend, result.analyzer)
    elif args.command == "mkfs":
        from .vfs import LocalFileSystem

        generator = WorkloadGenerator(_spec_from(args))
        layout = generator.create_file_system(LocalFileSystem(args.directory))
        print(format_kv(
            {
                "directory": args.directory,
                "files created": layout.total_files,
                "per-category": ", ".join(
                    f"{k}={v}" for k, v in
                    sorted(layout.count_by_category().items())
                ),
            },
            title="File system created",
        ))
    else:
        if args.users < 1:  # before sessions are divided among them
            raise SpecError(f"--users must be >= 1, got {args.users}")
        comparison = compare_file_systems(
            n_users=args.users,
            sessions_total=args.sessions * args.users,
            total_files=args.files,
            seed=args.seed,
            heavy_fraction=args.heavy_fraction,
        )
        print(comparison.formatted())
    return 0


def _main_fleet(args: argparse.Namespace) -> int:
    from .scenarios import get_scenario, scenario_names

    if args.fleet_command == "scenarios":
        from .harness import format_table

        rows = []
        for name in scenario_names():
            scenario = get_scenario(name)
            rows.append((name, scenario.access_pattern,
                         scenario.description))
        print(format_table(["name", "access", "description"], rows,
                           title="Scenario library"))
        return 0

    from .scenarios import ScenarioError

    probe_created = False
    if args.oplog is not None:
        # Fail fast on an unwritable target, but do not truncate an
        # existing file until the run has actually produced a log.
        probe_created = not os.path.exists(args.oplog)
        try:
            with open(args.oplog, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write --oplog: {exc}", file=sys.stderr)
            return 2
    try:
        faults = tuple(parse_fault(text) for text in args.inject_faults)
    except FaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    partial = None
    try:
        if args.resume is not None:
            config = resume_fleet_config(
                args.resume,
                workers=args.workers,
                progress=args.progress,
                metrics_out=args.metrics_out,
                max_retries=args.max_retries,
                retry_backoff_s=0.25,
                shard_timeout_s=args.shard_timeout_s,
                allow_partial=args.allow_partial,
                keep_run_dir=args.keep_run_dir or not args.allow_partial,
                faults=faults,
            )
            if args.oplog is not None and not config.collect_ops:
                raise SpecError(
                    f"{args.resume!r} was recorded without --oplog; resume "
                    "without it, then run `stream replay --oplog PATH` on "
                    "the finished artifact")
        else:
            config = FleetConfig(
                scenario=args.scenario,
                users=args.users,
                shards=args.shards,
                workers=args.workers,
                sessions_per_user=args.sessions,
                seed=args.seed,
                backend=args.backend,
                total_files=args.files,
                collect_ops=args.oplog is not None,
                use_arrivals=args.arrivals,
                profile=args.profile,
                window_us=args.window_us,
                out_stream=args.out_stream,
                stream_budget_bytes=args.stream_budget_bytes,
                metrics_out=args.metrics_out,
                progress=args.progress,
                max_retries=args.max_retries,
                shard_timeout_s=args.shard_timeout_s,
                faults=faults,
                allow_partial=args.allow_partial,
                # Keep the checkpoint dir when a run fails outright so
                # `fleet run --resume` has something to pick up; a run
                # accepted via --allow-partial published its artifact
                # and sweeps unless the user asked otherwise.
                keep_run_dir=args.keep_run_dir or not args.allow_partial,
            )
        result = run_fleet(config)
    except FleetPartialError as exc:
        result = exc.result
        partial = str(exc)
    except (ScenarioError, SpecError) as exc:
        # KeyError reprs its message with quotes; unwrap for a clean line.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        if probe_created:
            try:
                os.unlink(args.oplog)
            except OSError:
                pass
        return 2
    print(fleet_report(result))
    if partial is not None:
        if result.metrics_out is not None:
            print(f"\npartial-run manifest written to {result.metrics_out}")
        if config.keep_run_dir and config.run_dir is not None:
            print(f"\ncheckpoints kept in {config.run_dir}; rerun with "
                  f"`fleet run --resume {config.run_dir}` to finish")
        print(f"error: {partial}", file=sys.stderr)
        return 3
    if args.oplog is not None and result.log is not None:
        with open(args.oplog, "w", encoding="utf-8") as stream:
            result.log.dump(stream)
        print(f"\nmerged usage log ({len(result.log.operations)} ops) "
              f"written to {args.oplog}")
    if result.out_stream is not None:
        print(f"\nmerged op-stream artifact ({result.tally.operations} ops) "
              f"written to {result.out_stream}")
    if args.metrics_out is not None:
        print(f"\nrun manifest written to {args.metrics_out}")
    return 0


def _main_stream(args: argparse.Namespace) -> int:
    from .core import StreamFormatError, StreamReader, merge_stream_files

    if args.stream_command == "info":
        try:
            with StreamReader(args.streamfile) as reader:
                print(format_kv(reader.info_kv(),
                                title="Op-stream artifact"))
        except StreamFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.stream_command == "verify":
        from .core import verify_stream

        if not os.path.exists(args.streamfile):
            print(f"error: no such file: {args.streamfile}", file=sys.stderr)
            return 2
        report = verify_stream(args.streamfile)
        print(format_kv(report.as_kv(),
                        title="Op-stream verification"))
        for error in report.errors:
            print(f"  - {error}")
        return 0 if report.ok else 1

    if args.stream_command == "merge":
        try:
            rows = merge_stream_files(args.output, args.inputs)
        except (StreamFormatError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"merged {len(args.inputs)} shard artifact(s), {rows} op "
              f"rows, into {args.output}")
        return 0

    if args.stream_command == "replay":
        from .core.streamfile import _normalize_users, _normalize_window
        from .fleet.merge import ShardAccumulator

        users = None
        if args.users is not None:
            try:
                users = _normalize_users(
                    [int(u) for u in args.users.split(",") if u])
            except ValueError:
                print(f"error: bad --users list {args.users!r}",
                      file=sys.stderr)
                return 2
        time_range = None
        if args.window_us is not None:
            try:
                time_range = _normalize_window(
                    tuple(map(float, args.window_us.split(":"))))
            except ValueError:
                print("error: --window-us wants LO:HI with LO < HI, got "
                      f"{args.window_us!r}", file=sys.stderr)
                return 2
        sink = ShardAccumulator(collect_ops=args.oplog is not None)
        filtered = users is not None or time_range is not None
        try:
            with StreamReader(args.streamfile) as reader:
                if filtered:
                    # A slice has no complete session boundaries; replay
                    # the matching op rows only.
                    rows = sessions = 0
                    for batch in reader.iter_batches(users=users,
                                                     time_range=time_range):
                        sink.record_batch(batch)
                        rows += len(batch)
                else:
                    rows, sessions = reader.replay(sink)
        except StreamFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        summary = dict(sink.tally.as_kv())
        summary["sessions replayed"] = sessions
        print(format_kv(
            summary,
            title=f"Replayed {rows} op rows from {args.streamfile}"
                  + (" (sliced)" if filtered else ""),
        ))
        if args.oplog is not None:
            with open(args.oplog, "w", encoding="utf-8") as stream:
                sink.log.dump(stream)
            print(f"\nreplayed usage log written to {args.oplog}")
        return 0
    raise AssertionError(f"unhandled stream command {args.stream_command!r}")


def _main_characterize(args: argparse.Namespace) -> int:
    from .core import UsageLog
    from .harness import format_table

    try:
        with open(args.logfile, "r", encoding="utf-8") as stream:
            log = UsageLog.load(stream)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read usage log: {exc}", file=sys.stderr)
        return 2
    rows = UsageAnalyzer(log).characterization()
    if args.json:
        import json

        print(json.dumps(
            [
                {
                    "category": row.category_key,
                    "mean_accesses_per_byte": row.mean_accesses_per_byte,
                    "mean_file_size": row.mean_file_size,
                    "mean_files": row.mean_files,
                    "percent_of_users": row.percent_of_users,
                    "sessions_accessing": row.sessions_accessing,
                }
                for row in rows
            ],
            indent=2,
        ))
        return 0
    print(format_table(
        ["category", "accesses/byte", "file size", "# files",
         "% of users", "sessions"],
        [
            (row.category_key, row.mean_accesses_per_byte,
             row.mean_file_size, row.mean_files,
             row.percent_of_users, row.sessions_accessing)
            for row in rows
        ],
        title=f"Characterization of {args.logfile} "
              f"({len(log.sessions)} sessions, "
              f"{len(log.operations)} operations)",
    ))
    return 0


def _main_trace(args: argparse.Namespace) -> int:
    from .harness import format_kv, format_table
    from .traces import (
        DEFAULT_GAP_US,
        TraceError,
        adapter_names,
        calibrate_trace_file,
        get_adapter,
        ingest_trace_file,
        validate_spec,
    )

    if args.trace_command == "formats":
        rows = []
        for name in adapter_names():
            rows.append((name, get_adapter(name).description))
        print(format_table(["format", "description"], rows,
                           title="Trace adapters"))
        return 0

    gap_us = args.gap_us if args.gap_us is not None else DEFAULT_GAP_US

    if args.trace_command == "import":
        from .core import UsageLog

        log = UsageLog()
        try:
            stats, _sizes = ingest_trace_file(
                args.tracefile, log, fmt=args.fmt, gap_us=gap_us,
                strict=args.strict,
            )
        except (OSError, TraceError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_kv(stats.as_kv(), title="Trace import"), file=sys.stderr)
        if stats.issues_total:
            for issue in stats.issue_sample:
                print(f"  {issue}", file=sys.stderr)
        if args.output is None:
            log.dump(sys.stdout)
        else:
            with open(args.output, "w", encoding="utf-8") as stream:
                log.dump(stream)
            print(f"usage log written to {args.output}", file=sys.stderr)
        return 0

    if args.trace_command == "calibrate":
        from .core import dump_spec

        try:
            result = calibrate_trace_file(
                args.tracefile, fmt=args.fmt, gap_us=gap_us,
                method=args.method, seed=args.seed, n_users=args.users,
                total_files=args.total_files, user_type_name=args.name,
                strict=args.strict,
            )
        except (OSError, TraceError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out = args.output or args.tracefile + ".spec.json"
        try:
            with open(out, "w", encoding="utf-8") as stream:
                dump_spec(result.spec, stream,
                          meta=result.meta(args.tracefile))
        except OSError as exc:
            print(f"error: cannot write spec: {exc}", file=sys.stderr)
            return 2
        print(format_kv(result.stats.as_kv(), title="Trace calibration"))
        if result.stats.issues_total:
            for issue in result.stats.issue_sample:
                print(f"  {issue}")
        spec = result.spec
        print(format_kv(
            {
                "user types": ", ".join(t.name for t in spec.user_types),
                "categories": len(spec.file_categories),
                "population (n_users)": spec.n_users,
                "total files": spec.total_files,
                "think time": spec.user_types[0].think_time.describe(),
                "access size": spec.user_types[0].access_size.describe(),
            },
            title="Calibrated spec",
        ))
        print(f"\nspec written to {out}")
        return 0

    if args.trace_command == "validate":
        from .core import UsageLog, loads_spec

        try:
            with open(args.specfile, "r", encoding="utf-8") as stream:
                spec, meta = loads_spec(stream.read())
        except (OSError, SpecError) as exc:
            print(f"error: cannot load spec: {exc}", file=sys.stderr)
            return 2
        # The calibration's idle gap is the right default for re-ingesting
        # the same source trace.
        if args.gap_us is None and isinstance(meta.get("gap_us"), (int, float)):
            gap_us = float(meta["gap_us"])
        source_log = UsageLog()
        try:
            _stats, sizes = ingest_trace_file(
                args.against, source_log, fmt=args.fmt, gap_us=gap_us,
                strict=args.strict,
            )
        except (OSError, TraceError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        from .traces import DEFAULT_KS_THRESHOLD

        report = validate_spec(
            spec, source_log, sizes,
            sessions_per_user=args.sessions,
            shards=args.shards,
            backend=args.backend,
            threshold=(args.threshold if args.threshold is not None
                       else DEFAULT_KS_THRESHOLD),
            seed=args.seed,
        )
        print(report.formatted())
        if args.json is not None:
            try:
                with open(args.json, "w", encoding="utf-8") as stream:
                    stream.write(report.to_json() + "\n")
            except OSError as exc:
                print(f"error: cannot write report: {exc}", file=sys.stderr)
                return 2
            print(f"\nreport written to {args.json}")
        return 0 if report.passed else 1
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
