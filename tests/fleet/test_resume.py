"""Checkpoint/resume of killed fleet runs, pinned to bit-for-bit golden.

A run killed mid-shard leaves CRC-framed chunks in its run directory;
``resume_fleet_config`` rebuilds the run from the recorded spec and
regenerates only the tail.  The acceptance property (ISSUE 9): the
resumed artifact is **byte-identical** to an uninterrupted run's, having
reused at least one verified chunk.  Salvage trusts the chunk frames
alone — a ``.progress`` file beside a shard temp (older builds wrote
one) is never opened, whatever it says.
"""

import filecmp
import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SpecError, salvage_stream
from repro.faults import FaultSpec
from repro.fleet import (
    FleetConfig,
    FleetPartialError,
    resume_fleet_config,
    run_fleet,
)
from tests.core.test_streamfile import as_version

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")

BUDGET = 4096


def _config(tmp_path, name="out.opstream", **overrides):
    base = dict(scenario="mixed-campus", users=8, shards=2, workers=2,
                seed=7, total_files=120, backend="fast-columnar",
                out_stream=str(tmp_path / name), stream_budget_bytes=BUDGET,
                retry_backoff_s=0.0)
    base.update(overrides)
    return FleetConfig(**base)


def _killed_run(tmp_path, row=2000, name="victim.opstream", shards=2,
                **overrides):
    """Run until shard 0 dies at ``row`` with retries off; keep the dir."""
    config = _config(tmp_path, name=name, shards=shards, max_retries=0,
                     keep_run_dir=True,
                     faults=(FaultSpec(kind="kill", shard=0, row=row),),
                     **overrides)
    with pytest.raises(FleetPartialError):
        run_fleet(config)
    return config


class TestResumeGolden:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_only_a_published_shard_temp_encodes_its_floats(self, tmp_path,
                                                            shards):
        # A temp the merge re-encodes stays raw; a 1-shard temp is the
        # artifact, so it takes the smallest encodings.
        config = _killed_run(tmp_path, row=1500, shards=shards)
        temp = os.path.join(config.out_stream + ".run", "shard0001.opstream"
                            if shards > 1 else "shard0000.opstream")
        with salvage_stream(temp) as reader:
            assert reader.chunk_index
            info = reader.info_kv()
        want = "raw" if shards > 1 else "clock"
        assert info["start_us encoding"].startswith(want), info

    def test_resume_is_bit_for_bit_and_reuses_chunks(self, tmp_path):
        clean = run_fleet(_config(tmp_path, name="clean.opstream"))
        config = _killed_run(tmp_path, row=2000)
        run_dir = config.out_stream + ".run"
        assert os.path.isdir(run_dir)

        resumed = run_fleet(resume_fleet_config(run_dir, workers=2))
        assert resumed.resumed
        assert resumed.reused_chunks >= 1
        assert resumed.reused_rows >= 1
        assert filecmp.cmp(resumed.out_stream, clean.out_stream,
                           shallow=False)
        assert resumed.tally == clean.tally
        assert resumed.response_us.count == clean.response_us.count
        # The run directory is swept once the run completes.
        assert not os.path.exists(run_dir)

    def test_resume_single_worker_matches(self, tmp_path):
        clean = run_fleet(_config(tmp_path, name="clean.opstream"))
        config = _killed_run(tmp_path, row=1500)
        resumed = run_fleet(
            resume_fleet_config(config.out_stream + ".run", workers=1))
        assert filecmp.cmp(resumed.out_stream, clean.out_stream,
                           shallow=False)

    def test_a_run_recorded_as_fast_resumes_to_the_same_bytes(self,
                                                              tmp_path):
        # Both engine-free spellings are one executor: a directory
        # recorded under the other name resumes, keeps its name, and
        # lands on the bytes a clean `fast-columnar` run writes.
        clean = run_fleet(_config(tmp_path, name="clean.opstream"))
        config = _killed_run(tmp_path, row=1500, backend="fast")
        resumed_config = resume_fleet_config(config.out_stream + ".run",
                                             workers=1)
        assert resumed_config.backend == "fast"
        resumed = run_fleet(resumed_config)
        assert resumed.resumed and resumed.reused_chunks >= 1
        assert filecmp.cmp(resumed.out_stream, clean.out_stream,
                           shallow=False)

    def test_double_kill_then_resume(self, tmp_path):
        # The resume itself dies too (fresh fault), then a second resume
        # finishes the job.
        clean = run_fleet(_config(tmp_path, name="clean.opstream"))
        config = _killed_run(tmp_path, row=2500)
        run_dir = config.out_stream + ".run"
        # Fault rows count the rows *this execution* forwards, so the
        # resume's kill must land inside the regenerated tail.
        again = resume_fleet_config(
            run_dir, workers=2, max_retries=0,
            faults=(FaultSpec(kind="kill", shard=0, row=500),))
        with pytest.raises(FleetPartialError):
            run_fleet(again)
        assert os.path.isdir(run_dir)  # keep_run_dir defaults on
        final = run_fleet(resume_fleet_config(run_dir, workers=2))
        assert filecmp.cmp(final.out_stream, clean.out_stream,
                           shallow=False)

    def test_completed_shard_temps_are_replayed_not_regenerated(
            self, tmp_path):
        # Kill shard 1 while shard 0 finishes cleanly: on resume, shard
        # 0's temp is a complete artifact and is reused wholesale (its
        # entire chunk index), not regenerated.
        clean = run_fleet(_config(tmp_path, name="clean.opstream"))
        config = _config(tmp_path, name="late.opstream", max_retries=0,
                         keep_run_dir=True,
                         faults=(FaultSpec(kind="kill", shard=1, row=1300),))
        with pytest.raises(FleetPartialError):
            run_fleet(config)
        run_dir = config.out_stream + ".run"
        resumed = run_fleet(resume_fleet_config(run_dir, workers=2))
        survivor = next(o for o in resumed.outcomes if o.shard_index == 0)
        assert survivor.reused_rows == survivor.tally.operations
        assert resumed.reused_chunks >= 1
        assert filecmp.cmp(resumed.out_stream, clean.out_stream,
                           shallow=False)


class TestFormatOneShardTemp:
    """A shard temp an older build wrote (stream format 1 or 2) is no
    usable prefix: the shard is regenerated, never continued or
    published."""

    @pytest.mark.parametrize("complete", [False, True],
                             ids=["crashed", "complete"])
    def test_resume_regenerates_it(self, tmp_path, complete, version=1):
        # One shard: the temp is published by rename, so a reused
        # format-1 prefix would reach the artifact itself.
        clean = run_fleet(_config(tmp_path, name="clean.opstream", shards=1))
        config = _killed_run(tmp_path, row=1500, shards=1)
        temp = os.path.join(config.out_stream + ".run", "shard0000.opstream")
        as_version(clean.out_stream if complete else temp, temp, version)
        with salvage_stream(temp) as old:
            assert old.version == version and old.complete is complete
            assert old.chunk_index
        resumed = run_fleet(resume_fleet_config(config.out_stream + ".run",
                                                workers=1))
        assert resumed.reused_chunks == 0
        assert resumed.tally == clean.tally
        assert filecmp.cmp(resumed.out_stream, clean.out_stream,
                           shallow=False)

    @pytest.mark.parametrize("complete", [False, True],
                             ids=["crashed", "complete"])
    def test_resume_regenerates_a_format_2_temp(self, tmp_path, complete):
        self.test_resume_regenerates_it(tmp_path, complete, version=2)


def _plant_progress(run_dir, mutate):
    """Leave the ``.progress`` file older builds kept beside shard 0.

    Offsets, counts and ``data_end`` are the truth (re-derived from the
    frames on disk); ``mutate(state)`` then makes it lie, and may return
    replacement text to write instead of the JSON.
    """
    shard = os.path.join(run_dir, "shard0000.opstream")
    with salvage_stream(shard) as salvaged:
        assert salvaged.chunk_index and not salvaged.complete
        state = {
            "format": "repro.opstream-progress", "version": 1,
            "rows_per_chunk": salvaged.rows_per_chunk,
            "chunks": len(salvaged.chunk_index),
            "rows": salvaged.total_rows,
            "sessions": salvaged.total_sessions,
            "data_end": salvaged.data_end,
            "index": [info.entry() for info in salvaged.chunk_index],
        }
    text = mutate(state) or json.dumps(state)
    with open(shard + ".progress", "w", encoding="utf-8") as fh:
        fh.write(text)


def _first_entry_claims_50_rows(state):
    state["index"][0]["rows"] = 50


def _last_entry_lacks_rows(state):
    del state["index"][-1]["rows"]


STALE_PROGRESS_FILES = {
    "first entry says rows: 50": _first_entry_claims_50_rows,
    "last entry has no rows key": _last_entry_lacks_rows,
    "not JSON": lambda state: "\x00garbage{",
}


class TestStaleProgressFile:
    """Every chunk on disk is intact; only the bystander file is wrong."""

    @pytest.mark.parametrize("why", sorted(STALE_PROGRESS_FILES))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_never_reads_it(self, tmp_path, why, workers):
        clean = run_fleet(_config(tmp_path, name="clean.opstream"))
        config = _killed_run(tmp_path, row=2000)
        run_dir = config.out_stream + ".run"
        _plant_progress(run_dir, STALE_PROGRESS_FILES[why])
        resumed = run_fleet(resume_fleet_config(run_dir, workers=workers))
        assert resumed.retries == 0 and not resumed.failures
        assert resumed.reused_chunks >= 1
        assert filecmp.cmp(resumed.out_stream, clean.out_stream,
                           shallow=False)
        assert resumed.tally == clean.tally


class TestResumeValidation:
    def test_missing_record_fails_loudly(self, tmp_path):
        bogus = tmp_path / "nothing.run"
        bogus.mkdir()
        with pytest.raises(SpecError, match="no readable run record"):
            resume_fleet_config(str(bogus))

    def test_tampered_seed_is_rejected(self, tmp_path):
        config = _killed_run(tmp_path)
        run_dir = config.out_stream + ".run"
        record_path = os.path.join(run_dir, "fleet-run.json")
        record = json.loads(open(record_path, encoding="utf-8").read())
        record["seed"] += 1  # now disagrees with the recorded spec
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        with pytest.raises(SpecError, match="does not match"):
            run_fleet(resume_fleet_config(run_dir))

    def test_moved_run_dir_is_rejected(self, tmp_path):
        config = _killed_run(tmp_path)
        run_dir = config.out_stream + ".run"
        moved = str(tmp_path / "elsewhere.run")
        shutil.move(run_dir, moved)
        with pytest.raises(SpecError, match="does not belong"):
            run_fleet(resume_fleet_config(moved))

    def test_wrong_format_is_rejected(self, tmp_path):
        bogus = tmp_path / "x.run"
        bogus.mkdir()
        (bogus / "fleet-run.json").write_text('{"format": "other"}')
        with pytest.raises(SpecError, match="not a fleet run record"):
            resume_fleet_config(str(bogus))

    def test_resume_config_requires_stream(self):
        with pytest.raises(SpecError, match="needs out_stream"):
            FleetConfig(scenario="mixed-campus", users=8,
                        resume_dir="/nonexistent")

    def test_resume_rejects_des_backend(self, tmp_path):
        with pytest.raises(SpecError, match="engine-free"):
            FleetConfig(scenario="mixed-campus", users=8, backend="nfs",
                        out_stream=str(tmp_path / "x.opstream"),
                        resume_dir=str(tmp_path / "x.opstream.run"))


def _drop(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


def _retype(key, value):
    return lambda record: {**record, key: value}


_RECORD_FIELDS = ("spec", "shards", "backend", "access_pattern",
                  "use_phase_model", "sessions_per_user", "arrival_model",
                  "window_us", "collect_ops", "out_stream",
                  "stream_budget_bytes", "stream_metadata")

RECORD_MUTATIONS = {
    **{f"not-an-object-{i}": (lambda record, doc=doc: doc)
       for i, doc in enumerate(([], "record", None, 7))},
    "only-format-and-version": lambda record: {
        "format": record["format"], "version": 1},
    **{f"version-{value!r}": _retype("version", value)
       for value in ("x", None, 1.5, True, 0, [1])},
    "no-version": _drop("version"),
    # the key an older build wrote: adding it back breaks the seal
    "stale-time_limit_us": _retype("time_limit_us", None),
    **{f"no-{key}": _drop(key) for key in _RECORD_FIELDS},
    **{f"{key}-{value!r}": _retype(key, value) for key, value in (
        ("spec", []), ("spec", {}), ("shards", "2"), ("shards", True),
        ("shards", 2.0), ("backend", 5), ("access_pattern", None),
        ("use_phase_model", 0), ("sessions_per_user", "1"),
        ("arrival_model", "office-hours"), ("arrival_model", {}),
        ("window_us", "1"), ("collect_ops", "no"),
        ("out_stream", None), ("stream_budget_bytes", 4096.0),
        ("stream_metadata", None))},
}


class TestHostileRunRecord:
    """``fleet-run.json`` is outside input: any damaged record is a
    ``SpecError`` (``error: …`` / exit 2 from the CLI), never a raw
    ``AttributeError`` / ``KeyError`` / ``ValueError``."""

    @pytest.fixture(scope="class")
    def record(self, tmp_path_factory):
        config = _killed_run(tmp_path_factory.mktemp("record"))
        path = os.path.join(config.run_dir, "fleet-run.json")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def run_dir_with(tmp_path, document):
        run_dir = tmp_path / "x.opstream.run"
        run_dir.mkdir()
        (run_dir / "fleet-run.json").write_text(json.dumps(document))
        return str(run_dir)

    def test_the_unmutated_record_loads(self, tmp_path, record):
        config = resume_fleet_config(self.run_dir_with(tmp_path, record))
        assert (config.shards, config.backend) == (2, "fast-columnar")

    @pytest.mark.parametrize("name", sorted(RECORD_MUTATIONS))
    def test_mutated_record_fails_typed(self, tmp_path, record, name,
                                        capsys):
        from repro.cli import main

        run_dir = self.run_dir_with(
            tmp_path, RECORD_MUTATIONS[name](dict(record)))
        with pytest.raises(SpecError):
            resume_fleet_config(run_dir)
        assert main(["fleet", "run", "--resume", run_dir]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCrashMatrix:
    """Satellite: hypothesis sweep over kill row × shard count."""

    _golden: dict = {}

    def _reference(self, tmp_path, shards):
        cached = self._golden.get(shards)
        if cached is None:
            result = run_fleet(_config(
                tmp_path, name=f"ref{shards}.opstream", shards=shards,
                users=6, workers=1))
            cached = (open(result.out_stream, "rb").read(), result.tally)
            self._golden[shards] = cached
        return cached

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(row=st.integers(min_value=1, max_value=800),
           shards=st.integers(min_value=1, max_value=3),
           data=st.data())
    def test_any_kill_recovers_bit_for_bit(self, tmp_path, row, shards,
                                           data):
        ref_bytes, ref_tally = self._reference(tmp_path, shards)
        shard = data.draw(st.integers(min_value=0, max_value=shards - 1))
        result = run_fleet(_config(
            tmp_path, name=f"m{shards}-{shard}-{row}.opstream",
            shards=shards, users=6, workers=2,
            faults=(FaultSpec(kind="kill", shard=shard, row=row),)))
        assert result.tally == ref_tally
        assert open(result.out_stream, "rb").read() == ref_bytes

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(row=st.integers(min_value=1, max_value=800),
           shards=st.integers(min_value=1, max_value=3))
    def test_any_kill_resumes_beside_a_planted_progress_file(
            self, tmp_path, row, shards):
        ref_bytes, ref_tally = self._reference(tmp_path, shards)
        config = _killed_run(tmp_path, row=row, shards=shards, users=6,
                             name=f"p{shards}-{row}.opstream")
        run_dir = config.out_stream + ".run"
        with open(os.path.join(run_dir, "shard0000.opstream.progress"),
                  "w", encoding="utf-8") as fh:
            fh.write('{"format": "repro.opstream-progress", "index": [{}]}')
        resumed = run_fleet(resume_fleet_config(run_dir, workers=1))
        assert resumed.retries == 0
        assert resumed.tally == ref_tally
        assert open(resumed.out_stream, "rb").read() == ref_bytes
