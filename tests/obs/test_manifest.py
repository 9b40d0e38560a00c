"""Unit tests for the run manifest."""

import json
import re

import repro
from repro.core import paper_workload_spec
from repro.obs import (
    RunObserver,
    build_manifest,
    write_manifest,
)
from repro.obs.manifest import peak_rss_kib, spec_fingerprint


def sample_snapshot():
    obs = RunObserver()
    obs.metrics.counter("ops").inc(10)
    obs.metrics.gauge("shard.wall_s").set(1.5)
    obs.metrics.stat("response_us").add_many([10.0, 20.0, 30.0])
    hist = obs.metrics.histogram("response_us", 0.0, 100.0, 4)
    hist.add_many([10.0, 30.0, -1.0, 250.0])
    with obs.stage("execute"):
        pass
    return obs.snapshot()


class TestSpecFingerprint:
    def test_stable_across_equal_specs(self):
        a = paper_workload_spec(n_users=3, total_files=100, seed=1)
        b = paper_workload_spec(n_users=3, total_files=100, seed=1)
        assert spec_fingerprint(a) == spec_fingerprint(b)
        assert re.fullmatch(r"[0-9a-f]{64}", spec_fingerprint(a))

    def test_differs_across_specs(self):
        a = paper_workload_spec(n_users=3, total_files=100, seed=1)
        b = paper_workload_spec(n_users=4, total_files=100, seed=1)
        assert spec_fingerprint(a) != spec_fingerprint(b)


class TestBuildManifest:
    def test_fields(self):
        spec = paper_workload_spec(n_users=3, total_files=100, seed=7)
        manifest = build_manifest(
            sample_snapshot(), seed=7, backend="fast-columnar",
            scenario="paper", spec=spec, n_users=3, wall_s=1.25,
            simulated_us=1000, extra={"shards": 4},
        )
        assert manifest["format"] == "repro.run-manifest"
        assert manifest["version"] == 1
        assert manifest["repro_version"] == repro.__version__
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z",
                            manifest["created_utc"])
        run = manifest["run"]
        assert run["seed"] == 7
        assert run["backend"] == "fast-columnar"
        assert run["spec_sha256"] == spec_fingerprint(spec)
        assert run["n_users"] == 3
        assert run["wall_s"] == 1.25
        assert run["simulated_us"] == 1000
        assert run["shards"] == 4
        assert manifest["metrics"]["counters"]["ops"] == 10
        assert isinstance(manifest["cpu_count"], int)

    def test_peak_rss_positive_on_posix(self):
        peak = peak_rss_kib()
        assert peak is None or peak > 0

    def test_minimal_call(self):
        manifest = build_manifest({})
        assert manifest["run"]["seed"] is None
        assert manifest["run"]["spec_sha256"] is None

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = build_manifest(sample_snapshot(), seed=1)
        write_manifest(path, manifest)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == manifest
