"""``fleet-run.json``: the resolved run as data, pinned and tamper-proof.

The run record is what ``fleet run --resume`` rebuilds a killed run
from.  Its keys and values are pinned here for one fixed run; a resume
through it lands on the clean run's bytes; and any well-typed edit of a
field that shapes those bytes is refused instead of resuming into an
artifact that matches neither the recorded run nor the edited one.
"""

import filecmp
import hashlib
import json
import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.core import SpecError
from repro.faults import FaultSpec
from repro.fleet import (
    FleetConfig,
    FleetPartialError,
    resume_fleet_config,
    run_fleet,
)
from repro.fleet import runner as fleet_runner

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")


def _config(tmp_path, name, **overrides):
    """Three shards, arrivals with a named profile, a small budget."""
    base = dict(scenario="mixed-campus", users=6, shards=3, workers=1,
                seed=11, total_files=80, backend="fast-columnar",
                use_arrivals=True, profile="office-hours",
                out_stream=str(tmp_path / name), stream_budget_bytes=6144,
                retry_backoff_s=0.0)
    base.update(overrides)
    return FleetConfig(**base)


def _failed_run(tmp_path, name="victim.opstream"):
    """Shard 1 fails at row 100 with retries off; the run dir is kept."""
    config = _config(tmp_path, name, max_retries=0, keep_run_dir=True,
                     faults=(FaultSpec(kind="error", shard=1, row=100),))
    with pytest.raises(FleetPartialError):
        run_fleet(config)
    return config


def _canonical_sha256(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read(run_dir):
    with open(os.path.join(run_dir, "fleet-run.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _write(run_dir, record):
    with open(os.path.join(run_dir, "fleet-run.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)


SPEC_SHA256 = "6e916193ac109af0943cd090fc060a1b564aa5ddae35777f07804c52a56a5817"

GOLDEN = {
    "format": "repro.fleet-run",
    "scenario": "mixed-campus",
    "seed": 11,
    "users": 6,
    "shards": 3,
    "backend": "fast-columnar",
    "access_pattern": "sequential",
    "use_phase_model": False,
    "sessions_per_user": 1,
    "window_us": 3600000000.0,
    "collect_ops": False,
    "stream_budget_bytes": 6144,
    "spec_sha256": SPEC_SHA256,
    "stream_metadata": {
        "tool": "repro-fleet",
        "scenario": "mixed-campus",
        "backend": "fast-columnar",
        "seed": 11,
        "users": 6,
        "spec_sha256": SPEC_SHA256,
        "sessions_per_user": 1,
        "access_pattern": "sequential",
        "phases": False,
        "arrivals": True,
    },
}

OFFICE_HOURS = [0.2, 0.1, 0.1, 0.1, 0.1, 0.2, 0.4, 1.0, 2.4, 3.4, 3.2, 2.6,
                1.8, 2.4, 3.2, 3.0, 2.4, 1.4, 0.9, 0.8, 0.7, 0.6, 0.4, 0.3]


class TestRunRecordGolden:
    def test_every_key_and_value_is_pinned(self, tmp_path):
        config = _failed_run(tmp_path)
        record = _read(config.run_dir)
        # Only the record's version and its digest may move between
        # builds; every other key keeps its value.
        pinned = {key: value for key, value in record.items()
                  if key not in ("version", "digest", "spec",
                                 "arrival_model", "out_stream")}
        assert pinned == GOLDEN
        assert _canonical_sha256(record["spec"]) == SPEC_SHA256
        assert record["out_stream"] == os.path.abspath(config.out_stream)
        model = record["arrival_model"]
        assert sorted(model) == ["first_login", "profile", "session_gap"]
        assert model["first_login"] == {"kind": "uniform", "lo": 0.0,
                                        "hi": 86400000000.0}
        assert model["session_gap"] == {"kind": "shifted-exponential",
                                        "offset": 0.0, "scale": 1800000000.0}
        assert model["profile"]["name"] == "office-hours"
        assert model["profile"]["weights"] == OFFICE_HOURS
        assert model["profile"]["edges_us"] == [
            hour * 3600000000.0 for hour in range(25)]

    def test_resume_round_trip_is_bit_for_bit(self, tmp_path):
        clean = run_fleet(_config(tmp_path, "clean.opstream"))
        config = _failed_run(tmp_path)
        resumed = run_fleet(resume_fleet_config(config.run_dir, workers=1))
        assert resumed.resumed and resumed.reused_chunks >= 1
        assert filecmp.cmp(resumed.out_stream, clean.out_stream,
                           shallow=False)
        assert resumed.tally == clean.tally
        assert not os.path.exists(config.run_dir)


# Well-typed edits of every recorded field that shapes the artifact's
# bytes (the spec fingerprint and seed are refused on their own).
TAMPERS = {
    "shards": 2,
    "backend": "fast",
    "access_pattern": "random",
    "use_phase_model": True,
    "sessions_per_user": 2,
    "arrival_model": None,
    "window_us": 1800000000.0,
    "stream_budget_bytes": 8192,
}


class TestTamperedRecord:
    @pytest.fixture(scope="class")
    def killed(self, tmp_path_factory):
        config = _failed_run(tmp_path_factory.mktemp("killed"))
        return config.run_dir, _read(config.run_dir)

    def test_the_digest_covers_the_rest_of_the_record(self, killed):
        _, record = killed
        assert record["version"] == 3
        rest = {key: value for key, value in record.items()
                if key != "digest"}
        assert record["digest"] == _canonical_sha256(rest)

    @pytest.mark.parametrize("key", sorted(TAMPERS))
    def test_a_well_typed_edit_is_refused(self, killed, key, tmp_path):
        run_dir, record = killed
        assert record[key] != TAMPERS[key]
        copy = tmp_path / "copy.run"
        copy.mkdir()
        _write(str(copy), {**record, key: TAMPERS[key]})
        with pytest.raises(SpecError, match="digest"):
            resume_fleet_config(str(copy))

    def test_cli_resume_of_an_edited_record_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        config = _failed_run(tmp_path)
        record = _read(config.run_dir)
        _write(config.run_dir, {**record, "sessions_per_user": 2})
        assert main(["fleet", "run", "--resume", config.run_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not os.path.exists(config.out_stream)
        # Put the record back: the run resumes to the clean bytes.
        _write(config.run_dir, record)
        assert main(["fleet", "run", "--resume", config.run_dir]) == 0
        clean = run_fleet(_config(tmp_path, "clean.opstream"))
        assert filecmp.cmp(config.out_stream, clean.out_stream,
                           shallow=False)

    def test_a_version_1_record_is_refused(self, killed, tmp_path):
        _, record = killed
        old = {key: value for key, value in record.items()
               if key != "digest"}
        old["version"] = 1
        copy = tmp_path / "old.run"
        copy.mkdir()
        _write(str(copy), old)
        with pytest.raises(SpecError, match="older build"):
            resume_fleet_config(str(copy))

    def test_a_version_2_record_is_refused(self, killed, tmp_path):
        # What the previous build wrote: a sealed record that still
        # carried a time limit.  It is refused by its version, before
        # any field or the digest is read.
        _, record = killed
        old = {key: value for key, value in record.items()
               if key != "digest"}
        old.update(version=2, time_limit_us=None)
        old["digest"] = _canonical_sha256(old)
        copy = tmp_path / "v2.run"
        copy.mkdir()
        _write(str(copy), old)
        with pytest.raises(SpecError, match="has version 2, not 3"):
            resume_fleet_config(str(copy))

    @pytest.mark.parametrize("key", ["sessions_per_user", "window_us",
                                     "access_pattern"])
    def test_a_resume_config_that_disagrees_is_refused(self, tmp_path, key):
        config = _failed_run(tmp_path)
        resume = replace(config, faults=(), resume_dir=config.run_dir,
                         **{key: TAMPERS[key]})
        with pytest.raises(SpecError, match=f"recorded {key}"):
            run_fleet(resume)


def test_spawned_workers_write_the_same_bytes(tmp_path, monkeypatch):
    # Shard tasks cross the process boundary by pickle; under spawn the
    # workers re-import everything, so the task must be plain data.
    forked = run_fleet(_config(tmp_path, "fork.opstream", workers=2,
                               shards=2))
    monkeypatch.setattr(fleet_runner, "_pool_context",
                        lambda: multiprocessing.get_context("spawn"))
    spawned = run_fleet(_config(tmp_path, "spawn.opstream", workers=2,
                                shards=2))
    assert filecmp.cmp(forked.out_stream, spawned.out_stream, shallow=False)
