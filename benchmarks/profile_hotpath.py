"""cProfile harness for the columnar hot path, attributed by stage.

Profiles one warm ``fast-columnar`` fleet run (the same population
``bench_backends.py`` times) and buckets every profiled function into a
pipeline stage by its module — plan (GDS/FSC/spec), synthesize
(synthesis + distributions), execute, sink (tally/log/stream-file), or
driver/other — then reports the top-N functions by cumulative time
inside each stage.  This is the attribution tool the stage spans in
``BENCH_backends.json`` point at: spans say *which stage* regressed,
this harness says *which function*.  The block kernel's entry points
(``ENTRY_POINTS``: per-user ``append_user`` and its plan walk, per-block
``assemble`` and ``_run_block``) get their own rows with their share of
the profiled wall.

Interpretation caveat: cProfile's tracing hook roughly doubles the cost
of hot Python loops while leaving vectorized NumPy calls almost
untouched, so the profile orders costs reliably but overstates
loop-heavy functions relative to array math.  Wall-clock truth lives in
``BENCH_backends.json``; this file is for ranking, not for totals.

Machine-readable results go to ``BENCH_profile_hotpath.json`` (override
with ``PROFILE_HOTPATH_JSON``) so CI archives them alongside the other
``BENCH_*.json`` artifacts.  ``PROFILE_HOTPATH_USERS`` /
``PROFILE_HOTPATH_SESSIONS`` shrink the population for smoke runs;
``PROFILE_HOTPATH_TOPN`` widens the per-stage table.

Run either way::

    PYTHONPATH=src python -m pytest benchmarks/profile_hotpath.py -q
    PYTHONPATH=src python benchmarks/profile_hotpath.py
"""

import cProfile
import os
import pstats

from repro.fleet import FleetConfig, run_fleet
from repro.harness import format_table

try:
    from ._env import write_results_json as _write_env_json
except ImportError:  # script mode: benchmarks/ is sys.path[0]
    from _env import write_results_json as _write_env_json

DEFAULT_USERS = 240
DEFAULT_SESSIONS = 4
SEED = 7
SCENARIO = "mixed-campus"
DEFAULT_TOPN = 10
DEFAULT_JSON_PATH = "BENCH_profile_hotpath.json"

USERS = int(os.environ.get("PROFILE_HOTPATH_USERS", DEFAULT_USERS))
SESSIONS = int(os.environ.get("PROFILE_HOTPATH_SESSIONS", DEFAULT_SESSIONS))
TOPN = int(os.environ.get("PROFILE_HOTPATH_TOPN", DEFAULT_TOPN))
JSON_PATH = os.environ.get("PROFILE_HOTPATH_JSON", DEFAULT_JSON_PATH)

# Module-path fragments → pipeline stage, first match wins.  The order
# resolves the overlaps: synthesis owns its samplers even though they
# live under distributions/, and the runner/arrival plumbing around the
# stages is "driver" rather than any of them.
_STAGE_RULES = (
    ("repro/core/synthesis", "synthesize"),
    ("repro/distributions/", "synthesize"),
    ("repro/core/execution", "execute"),
    ("repro/fleet/merge", "sink"),
    ("repro/core/oplog", "sink"),
    ("repro/core/streamfile", "sink"),
    ("repro/core/fsc", "plan"),
    ("repro/core/gds", "plan"),
    ("repro/core/spec", "plan"),
    ("repro/core/generator", "plan"),
    ("repro/core/arrivals", "driver"),
    ("repro/fleet/", "driver"),
)

STAGES = ("plan", "synthesize", "execute", "sink", "driver", "other")

# The block kernel's entry points, (file, function): the per-user plan
# walk and draws, the per-block assembly and the per-block execution.
# Their cumulative shares are the ledger the next hot-path step is
# decided on (is what remains the plan walk's Python, or array math?).
ENTRY_POINTS = (
    ("synthesis.py", "append_user"),
    ("synthesis.py", "_append_session_plans"),
    ("synthesis.py", "assemble"),
    ("execution.py", "_run_block"),
)


def _stage_of(filename: str) -> str:
    normalized = filename.replace(os.sep, "/")
    for fragment, stage in _STAGE_RULES:
        if fragment in normalized:
            return stage
    return "other"


def profile_hotpath_results(users: int = None, seed: int = SEED) -> dict:
    """Profile one warm columnar fleet run; returns the result dict."""
    users = USERS if users is None else users
    config = FleetConfig(
        scenario=SCENARIO, users=users, shards=1, workers=1, seed=seed,
        backend="fast-columnar", sessions_per_user=SESSIONS,
    )
    run_fleet(config)  # warm run: keep import and first-touch costs out
    profile = cProfile.Profile()
    profile.enable()
    run_fleet(config)
    profile.disable()

    stats = pstats.Stats(profile)
    buckets: dict[str, list[dict]] = {stage: [] for stage in STAGES}
    stage_tottime = {stage: 0.0 for stage in STAGES}
    for (filename, line, name), (_cc, ncalls, tottime, cumtime,
                                 _callers) in stats.stats.items():
        stage = _stage_of(filename)
        stage_tottime[stage] += tottime
        buckets[stage].append({
            "function": name,
            "file": os.path.basename(filename),
            "line": line,
            "ncalls": ncalls,
            "tottime_s": tottime,
            "cumtime_s": cumtime,
        })
    entry_points = [
        row for rows in buckets.values() for row in rows
        if (row["file"], row["function"]) in ENTRY_POINTS
    ]
    stages = {}
    for stage in STAGES:
        rows = sorted(buckets[stage], key=lambda r: -r["cumtime_s"])
        stages[stage] = {
            "tottime_s": stage_tottime[stage],
            "top": rows[:TOPN],
        }
    return {
        "benchmark": "profile_hotpath",
        "scenario": SCENARIO,
        "backend": "fast-columnar",
        "users": users,
        "sessions_per_user": SESSIONS,
        "seed": seed,
        "top_n": TOPN,
        "profiled_wall_s": stats.total_tt,
        "stages": stages,
        "entry_points": sorted(entry_points, key=lambda r: -r["cumtime_s"]),
    }


def write_results_json(results: dict, path: str = None) -> str:
    """Write the result dict (env-stamped) as JSON; returns the path."""
    return _write_env_json(results, JSON_PATH if path is None else path)


def results_table(results: dict) -> str:
    """Render the per-stage top functions as one human-readable table."""
    rows = []
    for stage in STAGES:
        info = results["stages"][stage]
        for entry in info["top"][:3]:
            rows.append((
                stage,
                f"{entry['file']}:{entry['line']}({entry['function']})",
                entry["ncalls"], entry["tottime_s"], entry["cumtime_s"],
            ))
    for entry in results["entry_points"]:
        share = 100.0 * entry["cumtime_s"] / results["profiled_wall_s"]
        rows.append((
            f"block ({share:.0f}% of wall)",
            f"{entry['file']}:{entry['line']}({entry['function']})",
            entry["ncalls"], entry["tottime_s"], entry["cumtime_s"],
        ))
    return format_table(
        ["stage", "function", "ncalls", "tottime s", "cumtime s"],
        rows,
        title=(
            f"Columnar hot-path profile — {results['scenario']}, "
            f"{results['users']} users x {results['sessions_per_user']} "
            f"sessions; {results['profiled_wall_s']:.2f}s profiled "
            "(cProfile inflates Python loops ~2x; see BENCH_backends.json "
            "for wall-clock truth)"
        ),
    )


def test_profile_hotpath(benchmark):
    from .conftest import emit, once

    results = once(benchmark, profile_hotpath_results)
    emit("profile_hotpath", results_table(results))
    path = write_results_json(results)
    print(f"\nmachine-readable results written to {path}")
    # The synthesize/execute stages must dominate a healthy columnar
    # run; a profile dominated by "driver"/"other" means the harness is
    # measuring scaffolding, not the hot path.
    hot = (results["stages"]["synthesize"]["tottime_s"]
           + results["stages"]["execute"]["tottime_s"]
           + results["stages"]["sink"]["tottime_s"]
           + results["stages"]["plan"]["tottime_s"])
    assert hot > 0.0
    # The block entry points must all have run: a rename that orphans
    # one would silently drop its row from the ledger.
    assert ({(e["file"], e["function"]) for e in results["entry_points"]}
            == set(ENTRY_POINTS))


if __name__ == "__main__":
    results = profile_hotpath_results()
    print(results_table(results))
    path = write_results_json(results)
    print(f"\nmachine-readable results written to {path}")
