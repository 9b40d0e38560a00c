"""Tests of the benchmark itself, at 1/50 size.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Outside tier-1's ``testpaths``: they spawn the measuring subprocesses.
"""

import json
import re

import pytest

from benchmarks.e2e import regions, run, runner, tracing
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import RUN_SECONDS, WORKLOADS

SCALE = 0.02
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def reports():
    """Each workload once untraced and twice traced (cached per module)."""
    cache = {}

    def get(name, kind):
        if (name, kind) not in cache:
            cache[name, kind] = run.run_workload(
                name, seed=7, seconds=0, scale=SCALE, trace=kind != "e2e",
                spans=True)
        return cache[name, kind]

    return get


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_are_emitted_and_correct(reports, name):
    report = reports(name, "e2e")
    assert report["problems"] == []
    assert report["ops_attempted"] > 0 and report["ops_failed"] == 0
    assert list(report["metrics"]) == [m.name for m in END_TO_END]
    for declared in END_TO_END:
        emitted = report["metrics"][declared.name]
        assert emitted["unit"] == declared.unit
        assert emitted["value"] > 0
    assert len(report["repetitions"]) == WORKLOADS[name].reps
    line = json.loads(run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert run.exit_status([report]) == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_pass_emits_every_layer_metric_and_repeats(reports, name):
    first, second = reports(name, "trace"), reports(name, "trace-again")
    assert first["problems"] == []
    assert list(first["metrics"]) == [m.name for m in PER_LAYER]
    for declared in PER_LAYER:
        assert first["metrics"][declared.name]["unit"] == declared.unit
    # Counts repeat exactly between two traced passes with the same seed.
    assert first["counts"] == second["counts"]
    assert first["sha256"] == second["sha256"]
    for declared in PER_LAYER:
        if declared.unit in ("count", "B"):
            assert (first["metrics"][declared.name]
                    == second["metrics"][declared.name]), declared.name
    # Every span but the root has a parent, and carries the workload id.
    spans = first["spans"]
    assert spans[0][0] == "rep" and spans[0][3] == -1
    assert all(0 <= parent < i for i, (*_, parent, _) in enumerate(spans)
               if i)
    assert {workload for *_, workload in spans} == {name}


def test_traced_and_untraced_runs_publish_the_same_bytes(reports):
    for name in WORKLOADS:
        assert reports(name, "e2e")["sha256"] == reports(name, "trace")["sha256"]
    # The fleet's artifact is the read workload's input.
    assert (reports("sharded-fleet", "e2e")["sha256"]
            == reports("artifact-read", "e2e")["sha256"])


def test_declarations_are_well_formed_and_match_benchmark_json():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m.unit) for m in END_TO_END + PER_LAYER)
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in WORKLOADS.values())
    setup = END_TO_END[0]
    assert setup.name == "setup_s"
    assert setup.bound == max(m.bound for m in END_TO_END) <= 0.25

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["run_seconds"] == RUN_SECONDS
    assert declared["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


def test_bit_flipped_artifact_fails_the_run(tmp_path, monkeypatch):
    def flipping(inputs, path):
        result = regions.generate_region(inputs, path)
        with open(path, "r+b") as stream:
            stream.seek(200)
            byte = stream.read(1)[0]
            stream.seek(200)
            stream.write(bytes([byte ^ 0x01]))
        return result

    monkeypatch.setitem(regions.REGIONS, "generate", flipping)
    child = runner.measure(WORKLOADS["short-session"], seed=7, seconds=0,
                           scale=SCALE, workdir=str(tmp_path))
    report = run.end_to_end_report("short-session", 7, [child["setup_s"]],
                                   child)
    assert report["ops_failed"] == report["ops_attempted"] > 0
    assert any("replay" in problem for problem in report["problems"])
    assert json.loads(run.result_line(report))["correct"] is False
    assert run.exit_status([report]) != 0


def test_a_workload_that_did_not_run_fails_the_command(reports):
    assert run.exit_status([reports("long-session", "e2e"), None]) != 0


def _patched_attributes():
    return [vars(owner).get(attr, "absent")
            for owner, attr in (tracing._resolve(module, dotted)
                                for module, dotted, _, _ in tracing.PATCHES)]


def test_traced_restores_every_patched_attribute():
    before = _patched_attributes()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Recorder("test")):
            during = _patched_attributes()
            raise RuntimeError("restored on the error path too")
    assert all(a is not b for a, b in zip(before, during))
    after = _patched_attributes()
    assert all(a is b for a, b in zip(before, after))
    assert "absent" in before  # execute is inherited: patched, then deleted
