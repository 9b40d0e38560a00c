"""Run-manifest artifacts: what a run was, what it cost, what it produced.

A manifest is a single JSON document written next to a run's outputs
(op-stream artifact, tally report) that makes the run reproducible and
auditable after the fact: the exact seed and spec fingerprint, the
backend and scenario, the package/python/numpy versions that produced
it, per-stage wall/CPU timings, peak RSS, and every metric the observer
collected.  Layout::

    {
      "format": "repro.run-manifest", "version": 1,
      "created_utc": "2026-08-08T12:34:56Z",
      "repro_version": "...", "python": "...", "numpy": "...",
      "platform": "...", "hostname": "...", "cpu_count": 8,
      "run": {"seed": ..., "backend": ..., "scenario": ...,
              "spec_sha256": ..., "n_users": ..., "wall_s": ...,
              "simulated_us": ..., ...},
      "peak_rss_kib": 123456,
      "metrics": {"counters": ..., "gauges": ..., "stats": ...,
                  "histograms": ..., "stages": ...}
    }

The spec fingerprint hashes the spec's canonical JSON interchange form
(:func:`~repro.core.specjson.spec_to_jsonable`, sorted keys), so two
runs with the same fingerprint drew from byte-identical workload
parameters regardless of how the spec object was constructed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import sys
import time

__all__ = ["MANIFEST_FORMAT", "MANIFEST_VERSION", "spec_fingerprint",
           "peak_rss_kib", "build_manifest", "write_manifest"]

MANIFEST_FORMAT = "repro.run-manifest"
MANIFEST_VERSION = 1


def canonical_sha256(document) -> str:
    """sha256 over a JSON document's canonical (sorted-key, compact) form."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_fingerprint(spec) -> str:
    """:func:`canonical_sha256` of the spec's JSON form."""
    from ..core.specjson import spec_to_jsonable

    return canonical_sha256(spec_to_jsonable(spec))


def peak_rss_kib() -> int | None:
    """Peak RSS of the run in KiB: the largest high-water mark of any
    one process of the run (``RUSAGE_SELF`` or ``RUSAGE_CHILDREN``, which
    covers reaped fleet workers).  Not their sum: a forked child starts
    at its parent's size.  Linux reports ``ru_maxrss`` in KiB; macOS
    reports bytes and is normalised.  None without ``resource``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        peak //= 1024
    return int(peak)


def build_manifest(snapshot: dict, *, seed=None, backend: str | None = None,
                   scenario: str | None = None, spec=None,
                   n_users: int | None = None, wall_s: float | None = None,
                   simulated_us: int | None = None,
                   extra: dict | None = None) -> dict:
    """Assemble the manifest dict from a metrics snapshot plus run facts.

    ``extra`` entries land inside the ``run`` block verbatim — fleet
    adds shard counts and artifact paths through it.
    """
    from .. import __version__

    import numpy

    run: dict = {
        "seed": seed,
        "backend": backend,
        "scenario": scenario,
        "spec_sha256": spec_fingerprint(spec) if spec is not None else None,
        "n_users": n_users,
        "wall_s": wall_s,
        "simulated_us": simulated_us,
    }
    if extra:
        run.update(extra)
    return {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repro_version": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "run": run,
        "peak_rss_kib": peak_rss_kib(),
        "metrics": snapshot,
    }


def write_manifest(path, manifest: dict) -> None:
    """Write the manifest as indented JSON (trailing newline included)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")
