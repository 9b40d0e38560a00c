"""Fault-tolerant fleet execution: retry, quarantine, chaos injection.

Every test leans on the determinism dividend: a retried shard is a pure
function of (spec, seed, shard range), so recovery is asserted as
**bit-for-bit identity** with the fault-free run — not merely "it
finished".
"""

import filecmp
import json
import multiprocessing
import os

import pytest

from repro.core import SpecError
from repro.faults import (
    KILL_EXIT_CODE,
    FaultError,
    FaultSpec,
    parse_fault,
    random_faults,
)
from repro.fleet import FleetConfig, FleetPartialError, run_fleet
from repro.fleet import runner as fleet_runner

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")

BUDGET = 4096  # 57-row chunks: many flushes even at test scale


def _config(tmp_path, name="out.opstream", **overrides):
    base = dict(scenario="mixed-campus", users=8, shards=2, workers=2,
                seed=7, total_files=120, backend="fast-columnar",
                out_stream=str(tmp_path / name), stream_budget_bytes=BUDGET,
                retry_backoff_s=0.0)
    base.update(overrides)
    return FleetConfig(**base)


@pytest.fixture()
def clean(tmp_path):
    """The fault-free reference artifact + result."""
    result = run_fleet(_config(tmp_path, name="clean.opstream"))
    return result


class TestFaultSpecs:
    def test_parse_round_trip(self):
        spec = parse_fault("kill:shard=0,row=120")
        assert spec == FaultSpec(kind="kill", shard=0, row=120)
        assert parse_fault(spec.describe()) == spec

    def test_parse_all_kinds(self):
        assert parse_fault("stall:shard=1,row=5,seconds=2.5").seconds == 2.5
        assert parse_fault("enospc:shard=0,chunk=3").chunk == 3
        assert parse_fault("bitflip:shard=2").kind == "bitflip"
        assert parse_fault("error:shard=0,row=9,attempt=2").attempt == 2

    @pytest.mark.parametrize("text", [
        "explode:shard=0",          # unknown kind
        "kill:shard=0",             # kill needs a row
        "kill:row=5",               # every fault needs a shard
        "enospc:shard=0",           # enospc needs a chunk
        "kill:shard=0,row=0",       # row must be >= 1
        "kill:shard=0,bogus=1",     # unknown field
        "kill:shard=zero,row=1",    # non-integer value
        "stall:shard=0,row=1,seconds=0",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(FaultError):
            parse_fault(text)

    def test_random_faults_are_deterministic(self):
        a = random_faults(5, n_shards=3, max_row=100, count=4,
                          kinds=("kill", "error"))
        b = random_faults(5, n_shards=3, max_row=100, count=4,
                          kinds=("kill", "error"))
        assert a == b
        assert all(f.shard < 3 for f in a)

    def test_config_rejects_out_of_range_shard(self, tmp_path):
        with pytest.raises(SpecError, match="targets shard"):
            _config(tmp_path, faults=(parse_fault("kill:shard=5,row=1"),))

    def test_config_rejects_stream_fault_without_stream(self):
        with pytest.raises(SpecError, match="needs out_stream"):
            FleetConfig(scenario="mixed-campus", users=8, shards=2,
                        faults=(parse_fault("bitflip:shard=0"),))


class TestRetryRecovery:
    """Each fault kind recovers to a byte-identical artifact."""

    def test_killed_worker_retries_byte_identical(self, tmp_path, clean):
        result = run_fleet(_config(
            tmp_path, faults=(parse_fault("kill:shard=0,row=40"),)))
        assert result.retries == 1
        assert not result.quarantined
        died = [f for f in result.failures if f.reason == "died"]
        assert died and str(KILL_EXIT_CODE) in died[0].detail
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)
        assert result.tally == clean.tally

    def test_enospc_inline_retry_byte_identical(self, tmp_path, clean):
        # workers=1 with a catchable fault: the supervisor's loop runs
        # every attempt in this process (no worker processes at all).
        result = run_fleet(_config(
            tmp_path, workers=1,
            faults=(parse_fault("enospc:shard=1,chunk=1"),)))
        assert result.retries == 1
        errors = [f for f in result.failures if f.reason == "error"]
        assert errors and "ENOSPC" in errors[0].detail
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_injected_error_supervised_retry(self, tmp_path, clean):
        result = run_fleet(_config(
            tmp_path, faults=(parse_fault("error:shard=1,row=25"),)))
        assert result.retries == 1
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_bitflip_caught_by_verify_and_retried(self, tmp_path, clean):
        # Silent corruption: the shard "succeeds", the coordinator's CRC
        # walk rejects it, and the retry runs clean.
        result = run_fleet(_config(
            tmp_path, workers=1,
            faults=(parse_fault("bitflip:shard=0"),)))
        assert result.retries == 1
        corrupt = [f for f in result.failures if f.reason == "corrupt"]
        assert corrupt
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_stalled_shard_times_out_and_retries(self, tmp_path, clean):
        result = run_fleet(_config(
            tmp_path, shard_timeout_s=1.0,
            faults=(parse_fault("stall:shard=0,row=10,seconds=600"),)))
        assert result.timeouts == 1
        assert result.retries == 1
        timeout = [f for f in result.failures if f.reason == "timeout"]
        assert timeout
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_second_attempt_fault_still_recovers(self, tmp_path, clean):
        faults = (parse_fault("kill:shard=0,row=40"),
                  parse_fault("kill:shard=0,row=80,attempt=2"))
        result = run_fleet(_config(tmp_path, faults=faults))
        assert result.retries == 2
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_fault_free_run_has_no_recovery(self, clean):
        assert clean.retries == 0
        assert clean.timeouts == 0
        assert not clean.quarantined
        assert not clean.failures


def _errors_every_attempt(shard, attempts):
    return tuple(FaultSpec(kind="error", shard=shard, row=25, attempt=a)
                 for a in range(1, attempts + 1))


# name -> (faults, config overrides, expected retries,
#          expected failed (shard, attempt, reason) set, expected quarantine)
CATCHABLE_CASES = {
    "error": ((parse_fault("error:shard=1,row=25"),), {},
              1, {(1, 1, "error")}, ()),
    "enospc": ((parse_fault("enospc:shard=1,chunk=1"),), {},
               1, {(1, 1, "error")}, ()),
    "bitflip": ((parse_fault("bitflip:shard=0"),), {},
                1, {(0, 1, "corrupt")}, ()),
    "second attempt faults too": (
        (parse_fault("error:shard=0,row=40"),
         parse_fault("enospc:shard=0,chunk=2,attempt=2")), {},
        2, {(0, 1, "error"), (0, 2, "error")}, ()),
    "two shards fail": (
        (parse_fault("enospc:shard=1,chunk=1"),
         parse_fault("error:shard=0,row=25")), {},
        2, {(0, 1, "error"), (1, 1, "error")}, ()),
    "retries exhausted": (
        _errors_every_attempt(0, 2), {"max_retries": 1},
        1, {(0, 1, "error"), (0, 2, "error")}, (0,)),
    "allow_partial": (
        _errors_every_attempt(0, 1),
        {"max_retries": 0, "allow_partial": True},
        0, {(0, 1, "error")}, (0,)),
}


class TestOneLoopTwoExecutors:
    """The catchable faults, in this process and in worker processes.

    ``workers=1`` makes the supervisor execute attempts itself,
    ``workers=2`` hands them to owned processes; the retry policy is
    the same code either way, so everything observable must agree.
    """

    def _observe(self, tmp_path, workers, faults, overrides):
        home = tmp_path / f"w{workers}"
        home.mkdir()
        manifest = str(home / "manifest.json")
        config = _config(home, workers=workers, faults=faults,
                         metrics_out=manifest, **overrides)
        try:
            result = run_fleet(config)
            raised = False
        except FleetPartialError as exc:
            result, raised = exc.result, True
        counters = json.loads(
            open(manifest, encoding="utf-8").read())["metrics"]["counters"]
        artifact = None
        if os.path.exists(config.out_stream):
            artifact = open(config.out_stream, "rb").read()
        return {
            "raised": raised,
            "retries": result.retries,
            "failures": {(f.shard_index, f.attempt, f.reason)
                         for f in result.failures},
            "quarantined": result.quarantined,
            "counters": {k: v for k, v in counters.items()
                         if k.startswith("fleet.")},
            "tally": result.tally.as_kv(),
            "artifact": artifact,
            "run_dir_left": os.path.exists(config.run_dir),
        }

    @pytest.mark.parametrize("case", sorted(CATCHABLE_CASES))
    def test_both_executors_agree(self, tmp_path, clean, case):
        faults, overrides, retries, failures, quarantined = \
            CATCHABLE_CASES[case]
        seen = {workers: self._observe(tmp_path, workers, faults, overrides)
                for workers in (1, 2)}
        assert seen[1] == seen[2]
        one = seen[1]
        assert one["retries"] == retries
        assert one["failures"] == failures
        assert one["quarantined"] == quarantined
        assert one["counters"]["fleet.retries"] == retries
        assert one["counters"]["fleet.quarantined_shards"] == len(quarantined)
        assert not one["run_dir_left"]
        partial_ok = overrides.get("allow_partial", False)
        assert one["raised"] == (bool(quarantined) and not partial_ok)
        if not quarantined:
            assert one["artifact"] == open(clean.out_stream, "rb").read()
        else:
            assert (one["artifact"] is not None) == partial_ok

    def test_keep_run_dir_on_quarantine_either_way(self, tmp_path):
        for workers in (1, 2):
            config = _config(tmp_path, name=f"k{workers}.opstream",
                             workers=workers, max_retries=0,
                             keep_run_dir=True,
                             faults=_errors_every_attempt(0, 1))
            with pytest.raises(FleetPartialError):
                run_fleet(config)
            assert "fleet-run.json" in os.listdir(config.run_dir)
            assert not os.path.exists(config.out_stream)

    def test_in_process_mode_starts_no_process_and_no_mp_queue(
            self, tmp_path, clean, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the in-process executor reached "
                                 "multiprocessing")

        monkeypatch.setattr(fleet_runner, "_pool_context", forbidden)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            forbidden)
        monkeypatch.setattr(multiprocessing.queues.Queue, "__init__",
                            forbidden)
        monkeypatch.setattr(multiprocessing.queues.SimpleQueue, "__init__",
                            forbidden)
        result = run_fleet(_config(
            tmp_path, workers=1,
            faults=(parse_fault("error:shard=1,row=25"),
                    parse_fault("bitflip:shard=0"))))
        assert result.retries == 2
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_backoff_is_waited_out_in_process(self, tmp_path, clean):
        result = run_fleet(_config(
            tmp_path, workers=1, retry_backoff_s=0.05,
            metrics_out=str(tmp_path / "m.json"),
            faults=(parse_fault("error:shard=0,row=25"),)))
        assert result.retries == 1
        recovery = result.metrics["stages"]["recovery"]
        assert recovery["wall_s"] == pytest.approx(0.05)
        assert result.wall_s >= 0.05
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_keyboard_interrupt_in_a_shard_unwinds_and_sweeps(
            self, tmp_path, monkeypatch):
        real = fleet_runner._run_shard

        def interrupted(task):
            if task.plan.shard_index == 1:
                raise KeyboardInterrupt
            return real(task)

        monkeypatch.setattr(fleet_runner, "_run_shard", interrupted)
        config = _config(tmp_path, workers=1)
        with pytest.raises(KeyboardInterrupt):
            run_fleet(config)
        # Shard 0's finished temp went with the run directory.
        assert not os.path.exists(config.run_dir)
        assert not os.path.exists(config.out_stream)
        assert fleet_runner._PROGRESS_QUEUE is None


class TestQuarantine:
    def _always_dies(self, max_retries):
        # One kill per attempt: the shard can never succeed.
        return tuple(
            FaultSpec(kind="kill", shard=0, row=40, attempt=attempt)
            for attempt in range(1, max_retries + 2)
        )

    def test_exhausted_retries_raise_partial(self, tmp_path):
        config = _config(tmp_path, max_retries=1,
                         faults=self._always_dies(1))
        with pytest.raises(FleetPartialError) as excinfo:
            run_fleet(config)
        result = excinfo.value.result
        assert result.quarantined == (0,)
        assert result.partial
        assert result.retries == 1
        # Shard 1 still completed: the fleet did not lose the run.
        assert [o.shard_index for o in result.outcomes] == [1]
        assert result.out_stream is None

    def test_allow_partial_returns_result(self, tmp_path, clean):
        config = _config(tmp_path, max_retries=0, allow_partial=True,
                         faults=self._always_dies(0))
        result = run_fleet(config)
        assert result.quarantined == (0,)
        # The partial artifact exists and says so in its metadata.
        from repro.core import StreamReader

        assert os.path.exists(result.out_stream)
        with StreamReader(result.out_stream) as reader:
            assert reader.metadata["partial"] is True
            assert reader.metadata["quarantined_shards"] == [0]
        # Its content is exactly the surviving shard's.
        survivor = result.outcomes[0]
        assert survivor.shard_index == 1
        assert result.tally == survivor.tally

    def test_partial_manifest_records_casualties(self, tmp_path):
        metrics_out = str(tmp_path / "manifest.json")
        config = _config(tmp_path, max_retries=0, allow_partial=True,
                         metrics_out=metrics_out,
                         faults=self._always_dies(0))
        result = run_fleet(config)
        import json

        manifest = json.loads(open(metrics_out, encoding="utf-8").read())
        assert manifest["run"]["status"] == "partial"
        assert manifest["run"]["quarantined_shards"] == [0]
        counters = manifest["metrics"]["counters"]
        assert counters["fleet.quarantined_shards"] == 1
        assert counters["fleet.retries"] == result.retries == 0


class TestRecoveryTelemetry:
    def test_manifest_counts_retries_and_reuse(self, tmp_path):
        metrics_out = str(tmp_path / "manifest.json")
        result = run_fleet(_config(
            tmp_path, metrics_out=metrics_out,
            faults=(parse_fault("kill:shard=0,row=40"),)))
        import json

        manifest = json.loads(open(metrics_out, encoding="utf-8").read())
        counters = manifest["metrics"]["counters"]
        assert counters["fleet.retries"] == 1
        assert counters["fleet.timeouts"] == 0
        assert counters["fleet.quarantined_shards"] == 0
        assert "recovery" in manifest["metrics"]["stages"]
        assert manifest["run"]["status"] == "complete"
        assert result.retries == 1

    def test_metrics_do_not_perturb_artifact(self, tmp_path, clean):
        result = run_fleet(_config(
            tmp_path, metrics_out=str(tmp_path / "m.json"),
            faults=(parse_fault("kill:shard=0,row=40"),)))
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)


class TestRunDirHygiene:
    def test_run_dir_swept_on_success(self, tmp_path):
        result = run_fleet(_config(tmp_path))
        assert os.path.exists(result.out_stream)
        assert not os.path.exists(result.out_stream + ".run")

    def test_run_dir_swept_on_quarantine_by_default(self, tmp_path):
        config = _config(tmp_path, max_retries=0,
                         faults=(FaultSpec(kind="kill", shard=0, row=40),))
        with pytest.raises(FleetPartialError):
            run_fleet(config)
        assert not os.path.exists(config.out_stream + ".run")
        # And the unfinished artifact never appeared at out_stream.
        assert not os.path.exists(config.out_stream)

    def test_keep_run_dir_preserves_failed_run(self, tmp_path):
        config = _config(tmp_path, max_retries=0, keep_run_dir=True,
                         faults=(FaultSpec(kind="kill", shard=0, row=40),))
        with pytest.raises(FleetPartialError):
            run_fleet(config)
        run_dir = config.out_stream + ".run"
        assert os.path.isdir(run_dir)
        assert "fleet-run.json" in os.listdir(run_dir)

    def test_keep_run_dir_still_swept_on_success(self, tmp_path):
        result = run_fleet(_config(tmp_path, keep_run_dir=True))
        assert not os.path.exists(result.out_stream + ".run")

    def test_no_stream_run_has_no_run_dir(self, tmp_path):
        config = FleetConfig(scenario="mixed-campus", users=8, shards=2,
                             workers=1, seed=7, total_files=120)
        assert config.run_dir is None
        result = run_fleet(config)
        assert result.out_stream is None
