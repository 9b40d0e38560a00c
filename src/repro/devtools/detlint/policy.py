"""Path and name policies for the detlint rules.

Policies match against a file's *package-relative* path — the part after
the last ``repro`` component (``core/usim.py``, ``fleet/supervisor.py``).
Files outside a ``repro`` package (test fixtures, scripts) match against
their path relative to the scanned root, so fixture trees can stage files
at ``repro/core/...`` to exercise path-scoped rules.
"""

from __future__ import annotations

# -- no-wall-clock -------------------------------------------------------------
#
# Generation must be a pure function of (spec, seed): a wall-clock read in
# the plan/synthesize/execute path would leak host timing into artifacts.
# Observability, benchmarks and the fleet supervisor *are* about wall time.
WALL_CLOCK_BANNED_DIRS = ("core/", "sim/", "distributions/", "nfs/")
WALL_CLOCK_ALLOWED = ("obs/", "benchmarks/", "fleet/supervisor.py")

# Clock-reading calls, as dotted-name suffixes (matched against the full
# attribute chain of a call).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.localtime",
        "time.gmtime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

# -- no-global-rng -------------------------------------------------------------
#
# The only module allowed to touch numpy's (or the stdlib's) RNG machinery
# directly: everything else must draw from a named RandomStreams stream.
GLOBAL_RNG_ALLOWED = ("distributions/rng.py",)

# -- stream-name-registry ------------------------------------------------------
#
# Receiver names treated as RandomStreams holders when a string literal is
# passed to their .get()/.fork()/.spawn_seed().  `streams`-suffixed names
# (self.streams, self._streams, shard_streams, ...) match implicitly.
STREAM_HOLDER_NAMES = frozenset({"streams", "base", "fork", "_root"})
STREAM_METHODS = frozenset({"get", "fork", "spawn_seed"})
# The batched derivation takes names a collection at a time:
# StreamFamily([...names...]) and <family>.states(streams, [...forks...]).
# Every literal inside the collection is checked like a .get() argument.
STREAM_FAMILY_CLASS = "StreamFamily"
STREAM_FAMILY_METHOD = "states"
REGISTRY_RELPATH = "distributions/streamnames.py"

# -- unordered-iteration -------------------------------------------------------
#
# Modules whose whole job is producing ordered artifacts (serializers,
# sinks, merges): iterating a set there is order-nondeterminism feeding an
# artifact.  Elsewhere the rule applies only inside functions whose name
# says they emit/merge/serialize.
SINK_MODULES = (
    "core/streamfile.py",
    "core/specjson.py",
    "core/oplog.py",
    "distributions/serialize.py",
    "fleet/merge.py",
    "obs/export.py",
    "obs/manifest.py",
    "obs/metrics.py",
)
SINK_FUNC_MARKERS = (
    "merge",
    "dump",
    "write",
    "serial",
    "save",
    "emit",
    "snapshot",
    "export",
    "encode",
    "flush",
    "to_json",
    "to_records",
)

# -- mp-hygiene ----------------------------------------------------------------
#
# Methods whose callable argument crosses a process boundary and must be
# picklable (module-level): Pool/Executor task submission.
POOL_SUBMIT_METHODS = frozenset(
    {
        "apply",
        "apply_async",
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "submit",
    }
)

# -- float-accum ---------------------------------------------------------------
#
# Inside merge* functions, += accumulation whose value is explicitly
# integer-typed is exempt: these calls keep a value int regardless of input.
INT_EXEMPT_CALLS = frozenset({"int", "len"})
