"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestStartup:
    """Start-up pays for what the run uses: no module under ``src/``
    imports SciPy at module level.  ``scipy.stats`` (~1 s, ~40 MiB)
    loads where a fit's p-value is computed and ``scipy.special``
    (~0.2 s, ~20 MiB) where a gamma density, CDF or quantile is
    evaluated; ``import repro`` is ~0.3 s and ~36 MiB without them."""

    def probe(self, body: str) -> str:
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = body + (
            "\nimport sys"
            "\nprint(any(m == 'scipy' or m.startswith('scipy.')"
            " for m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def run_cli(self, *commands) -> str:
        return self.probe(
            "from repro.cli import main\n" + "\n".join(
                f"assert main({list(argv)!r}) == 0" for argv in commands))

    @pytest.mark.parametrize("module", ["repro", "repro.cli"])
    def test_import_does_not_load_scipy(self, module):
        assert self.probe(f"import {module}").split() == ["False"]

    def test_version_command_does_not_load_scipy(self):
        out = self.probe(
            "import runpy, sys\n"
            "sys.argv = ['repro', '--version']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as stop:\n"
            "    assert not stop.code, stop.code")
        assert out.split()[-1] == "False" and "repro-workload" in out

    def test_engine_free_simulate_and_verify_do_not_load_scipy(self, tmp_path):
        artifact = str(tmp_path / "a.opstream")
        out = self.run_cli(
            ["simulate", "--users", "2", "--sessions", "1", "--files", "60",
             "--backend", "fast", "--out-stream", artifact],
            ["stream", "verify", artifact])
        assert out.split()[-1] == "False"

    def test_in_process_fleet_run_does_not_load_scipy(self, tmp_path):
        out = self.run_cli(
            ["fleet", "run", "--scenario", "batch-heavy", "--users", "4",
             "--files", "60", "--backend", "fast", "--workers", "1",
             "--out-stream", str(tmp_path / "f.opstream")])
        assert out.split()[-1] == "False"

    def test_des_simulate_does_not_load_scipy(self):
        out = self.run_cli(["simulate", "--users", "1", "--sessions", "1",
                            "--files", "60", "--backend", "nfs"])
        assert out.split()[-1] == "False"

    def test_ks_test_still_loads_it_on_demand(self):
        out = self.probe(
            "from repro.distributions import ShiftedExponential\n"
            "from repro.distributions.fitting import ks_test\n"
            "d, p = ks_test([1.0, 2.0, 3.0, 4.0], ShiftedExponential(2.5))\n"
            "assert 0.0 <= p <= 1.0")
        assert out.split() == ["True"]

    # Expected values are what the commit before the deferral computed.
    def test_gamma_cdf_and_pdf_load_it_on_demand(self):
        out = self.probe(
            "from repro.distributions import ShiftedGamma\n"
            "gamma = ShiftedGamma(2.0, 3.0)\n"
            "print(repr(gamma.cdf(1.0)), repr(gamma.pdf(1.0)))")
        assert out.split() == [
            "0.04462491923494765", "0.07961459006375433", "True"]

    def test_multi_stage_gamma_sample_loads_it_on_demand(self):
        out = self.probe(
            "import numpy as np\n"
            "from repro.distributions import MultiStageGamma\n"
            "gamma = MultiStageGamma([0.7, 0.2, 0.1], [1.3, 1.5, 1.3],\n"
            "                        [12.3, 12.4, 12.3], [0.0, 23.0, 41.0])\n"
            "print(repr(gamma.sample(np.random.default_rng(7))))")
        assert out.split() == ["34.14117909022235", "True"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.backend == "nfs"
        assert args.users == 2

    def test_figures_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig9.9"])

    def test_fleet_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])

    def test_fleet_run_defaults(self):
        args = build_parser().parse_args(["fleet", "run"])
        assert args.scenario == "paper-campus"
        assert args.shards == 1
        assert args.workers is None
        assert args.arrivals is False
        assert args.profile is None
        assert args.window_us is None

    def test_profile_choices_are_the_registry(self):
        from repro.core import profile_names

        args = build_parser().parse_args(
            ["fleet", "run", "--profile", "nightly"])
        assert args.profile == "nightly"
        assert "nightly" in profile_names()
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "run", "--profile", "no-such"])


class TestCommands:
    def test_simulate(self, capsys):
        code = main(["simulate", "--users", "1", "--sessions", "1",
                     "--files", "80", "--backend", "local"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Run summary" in out
        assert "mean response" in out

    def test_simulate_fast_backend(self, capsys):
        code = main(["simulate", "--users", "1", "--sessions", "1",
                     "--files", "80", "--backend", "fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Run summary" in out
        assert "fast" in out

    def test_real_and_mkfs(self, tmp_path, capsys):
        code = main(["mkfs", str(tmp_path / "fsroot"), "--files", "60",
                     "--users", "1"])
        assert code == 0
        assert "files created" in capsys.readouterr().out

        code = main(["real", str(tmp_path / "sandbox"), "--users", "1",
                     "--sessions", "1", "--files", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend" in out

    def test_figures_table_5_4(self, capsys):
        code = main(["figures", "table5.4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 5.4" in out

    def test_figures_fig_5_1(self, capsys):
        code = main(["figures", "fig5.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 5.1" in out

    def test_compare(self, capsys):
        code = main(["compare", "--users", "2", "--sessions", "2",
                     "--files", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "comparison" in out
        assert "nfs" in out

    def test_fleet_scenarios(self, capsys):
        code = main(["fleet", "scenarios"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mixed-campus" in out
        assert "database-random" in out

    def test_fleet_run(self, capsys):
        code = main(["fleet", "run", "--scenario", "mixed-campus",
                     "--users", "4", "--shards", "2", "--workers", "1",
                     "--seed", "7", "--files", "80"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Aggregate workload statistics (shard-invariant)" in out
        assert "Timing (topology-dependent)" in out

    def test_fleet_run_fast_backend_matches_des_aggregate(self, capsys):
        des = main(["fleet", "run", "--scenario", "mixed-campus",
                    "--users", "4", "--shards", "2", "--workers", "1",
                    "--seed", "7", "--files", "80"])
        des_out = capsys.readouterr().out
        fast = main(["fleet", "run", "--scenario", "mixed-campus",
                     "--users", "4", "--shards", "2", "--workers", "1",
                     "--seed", "7", "--files", "80", "--backend", "fast"])
        fast_out = capsys.readouterr().out
        assert des == fast == 0

        def aggregate_block(text):
            lines = text.splitlines()
            start = next(i for i, line in enumerate(lines)
                         if "Aggregate workload statistics" in line)
            end = next(i for i, line in enumerate(lines)
                       if "Per-shard" in line)
            return lines[start:end]

        assert aggregate_block(des_out) == aggregate_block(fast_out)

    def test_simulate_with_arrivals(self, capsys):
        code = main(["simulate", "--users", "1", "--sessions", "1",
                     "--files", "80", "--backend", "fast-columnar",
                     "--arrivals"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Run summary" in out

    def test_fleet_run_profile_reports_offered_load(self, capsys):
        code = main(["fleet", "run", "--scenario", "batch-heavy",
                     "--users", "4", "--shards", "2", "--workers", "1",
                     "--seed", "7", "--files", "80",
                     "--backend", "fast-columnar", "--profile", "nightly"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Offered load" in out
        assert "window start (h)" in out

    def test_fleet_run_arrivals_shard_invariant_output(self, capsys):
        argv = ["fleet", "run", "--scenario", "mixed-campus", "--users", "4",
                "--workers", "1", "--seed", "7", "--files", "80",
                "--backend", "fast", "--arrivals"]
        assert main(argv + ["--shards", "1"]) == 0
        one = capsys.readouterr().out
        assert main(argv + ["--shards", "4"]) == 0
        four = capsys.readouterr().out

        def block(text, title, stop):
            lines = text.splitlines()
            start = next(i for i, line in enumerate(lines) if title in line)
            end = next(i for i, line in enumerate(lines) if stop in line)
            return lines[start:end]

        for title, stop in (("Aggregate workload statistics", "Offered load"),
                            ("Offered load", "Per-shard")):
            assert block(one, title, stop) == block(four, title, stop)

    def test_fleet_run_writes_oplog(self, tmp_path, capsys):
        target = tmp_path / "fleet.log"
        code = main(["fleet", "run", "--scenario", "dev-team",
                     "--users", "2", "--shards", "2", "--workers", "1",
                     "--files", "60", "--oplog", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "written to" in out
        from repro.core import UsageLog

        log = UsageLog.load(target.read_text().splitlines())
        assert len(log.sessions) == 2
        assert len(log.operations) > 0


class TestTraceCommands:
    @pytest.fixture(scope="class")
    def trace_path(self):
        import pathlib

        path = (pathlib.Path(__file__).resolve().parents[1]
                / "examples" / "example_trace.csv")
        assert path.exists()
        return str(path)

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_formats(self, capsys):
        assert main(["trace", "formats"]) == 0
        out = capsys.readouterr().out
        assert "strace" in out and "nfsdump" in out and "csv" in out

    def test_trace_import(self, tmp_path, capsys, trace_path):
        target = tmp_path / "imported.ulog"
        code = main(["trace", "import", trace_path, "-o", str(target)])
        err = capsys.readouterr().err
        assert code == 0
        assert "Trace import" in err
        from repro.core import UsageLog

        log = UsageLog.load(target.read_text().splitlines())
        assert len(log.sessions) == 8
        assert len(log.operations) > 1000

    def test_trace_import_missing_file(self, capsys):
        assert main(["trace", "import", "/no/such/trace.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_characterize(self, tmp_path, capsys, trace_path):
        target = tmp_path / "imported.ulog"
        main(["trace", "import", trace_path, "-o", str(target)])
        capsys.readouterr()
        code = main(["characterize", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Characterization" in out
        assert "REG:USER:RD-WRT" in out

    def test_characterize_json(self, tmp_path, capsys, trace_path):
        target = tmp_path / "imported.ulog"
        main(["trace", "import", trace_path, "-o", str(target)])
        capsys.readouterr()
        code = main(["characterize", str(target), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        import json

        rows = json.loads(out)
        assert any(r["category"] == "REG:USER:TEMP" for r in rows)

    def test_characterize_missing_file(self, capsys):
        assert main(["characterize", "/no/such.ulog"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_calibrate_then_validate_closed_loop(self, tmp_path, capsys,
                                                 trace_path):
        spec_path = tmp_path / "cal.spec.json"
        code = main(["trace", "calibrate", trace_path,
                     "-o", str(spec_path), "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Calibrated spec" in out
        assert spec_path.exists()

        report_path = tmp_path / "report.json"
        code = main(["trace", "validate", str(spec_path),
                     "--against", trace_path, "--json", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        import json

        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert set(report["measures"]) == {
            "access_size", "file_size", "files_referenced",
            "access_per_byte", "think_time",
        }

    def test_validate_fails_loudly_on_bad_spec(self, tmp_path, capsys,
                                               trace_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["trace", "validate", str(bad),
                     "--against", trace_path]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_validate_mismatch_exits_nonzero(self, tmp_path, capsys,
                                             trace_path):
        from repro.core import dump_spec
        from repro.scenarios import build_scenario_spec

        spec_path = tmp_path / "wrong.spec.json"
        with open(spec_path, "w") as stream:
            dump_spec(build_scenario_spec("batch-heavy", 4, 5,
                                          total_files=70), stream)
        code = main(["trace", "validate", str(spec_path),
                     "--against", trace_path])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestStreamCommands:
    """`simulate --out-stream` and the `stream` verb family."""

    def simulate_artifact(self, tmp_path, **extra):
        path = tmp_path / "run.opstream"
        code = main(["simulate", "--users", "2", "--sessions", "1",
                     "--files", "80", "--backend", "fast-columnar",
                     "--seed", "9", "--out-stream", str(path)])
        assert code == 0
        return path

    def test_stream_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream"])

    def test_parser_accepts_stream_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--out-stream", "a.opstream",
             "--stream-budget-bytes", "4096"])
        assert args.out_stream == "a.opstream"
        assert args.stream_budget_bytes == 4096
        args = build_parser().parse_args(
            ["fleet", "run", "--out-stream", "b.opstream"])
        assert args.out_stream == "b.opstream"
        args = build_parser().parse_args(
            ["stream", "replay", "x.opstream", "--users", "1,2",
             "--window-us", "0:100"])
        assert args.streamfile == "x.opstream"

    def test_simulate_then_info(self, tmp_path, capsys):
        path = self.simulate_artifact(tmp_path)
        out = capsys.readouterr().out
        assert "op stream" in out and str(path) in out
        code = main(["stream", "info", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Op-stream artifact" in out
        assert "op rows" in out
        assert "meta.tool" in out

    @pytest.mark.parametrize("command", [
        ["simulate", "--users", "2", "--sessions", "1"],
        ["fleet", "run", "--scenario", "dev-team", "--users", "2",
         "--shards", "2", "--workers", "1"],
    ], ids=["simulate", "fleet"])
    def test_both_engine_free_spellings_write_the_same_bytes(
            self, tmp_path, command):
        # One executor, and the header names it, not the spelling typed.
        blobs = []
        for backend in ("fast", "fast-columnar"):
            path = tmp_path / f"{backend}.opstream"
            assert main(command + ["--files", "80", "--seed", "9",
                                   "--backend", backend,
                                   "--out-stream", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_replay_round_trip(self, tmp_path, capsys):
        path = self.simulate_artifact(tmp_path)
        capsys.readouterr()
        oplog = tmp_path / "replay.log"
        code = main(["stream", "replay", str(path),
                     "--oplog", str(oplog)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Replayed" in out
        assert "sessions replayed" in out
        from repro.core import UsageLog

        log = UsageLog.load(oplog.read_text().splitlines())
        assert len(log.sessions) == 2
        assert len(log.operations) > 0

    def test_replay_sliced_by_user(self, tmp_path, capsys):
        path = self.simulate_artifact(tmp_path)
        capsys.readouterr()
        code = main(["stream", "replay", str(path), "--users", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(sliced)" in out

    def test_merge_single_input_is_identity(self, tmp_path, capsys):
        path = self.simulate_artifact(tmp_path)
        merged = tmp_path / "merged.opstream"
        code = main(["stream", "merge", str(path), "-o", str(merged)])
        out = capsys.readouterr().out
        assert code == 0
        assert "merged" in out
        assert merged.read_bytes() == path.read_bytes()

    def test_info_missing_file_fails_loudly(self, tmp_path, capsys):
        code = main(["stream", "info", str(tmp_path / "nope.opstream")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_fleet_out_stream_shard_invariant(self, tmp_path, capsys):
        blobs = []
        for shards in ("1", "2"):
            path = tmp_path / f"s{shards}.opstream"
            code = main(["fleet", "run", "--scenario", "dev-team",
                         "--users", "2", "--shards", shards,
                         "--workers", "1", "--files", "60",
                         "--backend", "fast-columnar",
                         "--out-stream", str(path)])
            assert code == 0
            blobs.append(path.read_bytes())
        out = capsys.readouterr().out
        assert "op-stream artifact" in out
        assert blobs[0] == blobs[1]

    def test_fleet_out_stream_rejects_sharded_des(self, capsys):
        code = main(["fleet", "run", "--scenario", "dev-team",
                     "--users", "2", "--shards", "2", "--files", "60",
                     "--out-stream", "never-written.opstream"])
        assert code != 0


class TestObservabilityCli:
    """`--version`, `--metrics-out`, and `--progress`."""

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_parser_accepts_obs_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--metrics-out", "m.json", "--progress"])
        assert args.metrics_out == "m.json"
        assert args.progress is True
        args = build_parser().parse_args(["fleet", "run"])
        assert args.metrics_out is None
        assert args.progress is False
        args = build_parser().parse_args(
            ["fleet", "run", "--metrics-out", "f.json", "--progress"])
        assert args.metrics_out == "f.json"
        assert args.progress is True

    def test_simulate_writes_manifest(self, tmp_path, capsys):
        import json

        manifest_path = tmp_path / "run.manifest.json"
        code = main(["simulate", "--users", "2", "--sessions", "1",
                     "--files", "80", "--backend", "fast-columnar",
                     "--seed", "9", "--metrics-out", str(manifest_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "run manifest written to" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == "repro.run-manifest"
        assert manifest["run"]["seed"] == 9
        assert manifest["run"]["backend"] == "fast-columnar"
        assert manifest["run"]["n_users"] == 2
        assert manifest["metrics"]["counters"]["users"] == 2
        assert manifest["metrics"]["counters"]["ops"] > 0
        assert "execute" in manifest["metrics"]["stages"]

    def test_simulate_progress_renders_to_stderr(self, capsys):
        code = main(["simulate", "--users", "2", "--sessions", "1",
                     "--files", "80", "--backend", "fast-columnar",
                     "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert "users" in captured.err
        assert captured.err.endswith("\n")

    def test_fleet_run_writes_manifest(self, tmp_path, capsys):
        import json

        manifest_path = tmp_path / "fleet.manifest.json"
        code = main(["fleet", "run", "--scenario", "dev-team",
                     "--users", "2", "--shards", "2", "--workers", "1",
                     "--files", "60", "--backend", "fast-columnar",
                     "--metrics-out", str(manifest_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "run manifest written to" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == "repro.run-manifest"
        assert manifest["run"]["scenario"] == "dev-team"
        assert manifest["run"]["shards"] == 2
        assert manifest["metrics"]["counters"]["users"] == 2

    def test_metrics_do_not_change_simulate_output(self, tmp_path, capsys):
        argv = ["simulate", "--users", "2", "--sessions", "1",
                "--files", "80", "--backend", "fast-columnar", "--seed", "9"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        manifest_path = tmp_path / "m.json"
        assert main(argv + ["--metrics-out", str(manifest_path)]) == 0
        observed = capsys.readouterr().out
        assert observed == (
            bare + f"\nrun manifest written to {manifest_path}\n")


class TestFaultToleranceCli:
    """`fleet run` chaos flags, `--resume`, and `stream verify`."""

    FLEET = ["fleet", "run", "--scenario", "dev-team", "--users", "2",
             "--shards", "2", "--workers", "2", "--files", "60",
             "--backend", "fast-columnar", "--stream-budget-bytes", "4096"]

    def test_parser_accepts_fault_flags(self):
        args = build_parser().parse_args(
            ["fleet", "run", "--inject-fault", "kill:shard=0,row=9",
             "--inject-fault", "bitflip:shard=1", "--max-retries", "5",
             "--shard-timeout-s", "1.5", "--allow-partial",
             "--keep-run-dir", "--resume", "some.run"])
        assert args.inject_faults == ["kill:shard=0,row=9",
                                      "bitflip:shard=1"]
        assert args.max_retries == 5
        assert args.shard_timeout_s == 1.5
        assert args.allow_partial and args.keep_run_dir
        assert args.resume == "some.run"

    def test_bad_fault_spec_exits_2(self, capsys):
        code = main(self.FLEET + ["--inject-fault", "explode:shard=0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_kill_fault_recovers_byte_identical(self, tmp_path, capsys):
        clean = tmp_path / "clean.opstream"
        assert main(self.FLEET + ["--out-stream", str(clean)]) == 0
        chaos = tmp_path / "chaos.opstream"
        code = main(self.FLEET + ["--out-stream", str(chaos),
                                  "--inject-fault", "kill:shard=0,row=9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Recovery" in out and "retries" in out
        assert chaos.read_bytes() == clean.read_bytes()

    def test_quarantine_exits_3_then_resume_completes(self, tmp_path,
                                                      capsys):
        clean = tmp_path / "clean.opstream"
        assert main(self.FLEET + ["--out-stream", str(clean)]) == 0
        victim = tmp_path / "victim.opstream"
        # No --keep-run-dir: a failed run keeps its checkpoints by
        # default so --resume has something to pick up.
        code = main(self.FLEET + [
            "--out-stream", str(victim), "--max-retries", "0",
            "--inject-fault", "kill:shard=0,row=9"])
        captured = capsys.readouterr()
        assert code == 3
        assert "quarantined" in captured.err
        assert "PARTIAL" in captured.out
        assert "--resume" in captured.out
        run_dir = str(victim) + ".run"
        code = main(["fleet", "run", "--resume", run_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "chunks reused" in out
        assert victim.read_bytes() == clean.read_bytes()

    def test_resume_missing_dir_exits_2(self, tmp_path, capsys):
        code = main(["fleet", "run", "--resume",
                     str(tmp_path / "never.run")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_stream_verify_ok_and_corrupt(self, tmp_path, capsys):
        path = tmp_path / "a.opstream"
        assert main(self.FLEET + ["--out-stream", str(path)]) == 0
        capsys.readouterr()
        assert main(["stream", "verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "ok" in out
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert main(["stream", "verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out

    def test_stream_verify_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["stream", "verify", str(tmp_path / "no.opstream")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
