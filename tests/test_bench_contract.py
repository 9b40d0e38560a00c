"""The frozen end-to-end tracer's contract with ``src/``.

``benchmarks/e2e/tracing.py`` measures the program from outside by
swapping the callables named in its ``PATCHES`` table for timing shims.
The table names them by ``(module, dotted attribute)``, so a rename in
``src/`` would only surface as a broken (or silently blind) benchmark
run several PRs later.  These tests import the table read-only and fail
tier-1 instead.
"""

import importlib

import pytest

from benchmarks.e2e.tracing import PATCHES, Recorder, traced

_ABSENT = object()


def _owner(module, dotted):
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.parametrize("module, dotted",
                         sorted({(m, d) for m, d, _, _ in PATCHES}))
def test_every_patch_target_resolves_to_a_callable(module, dotted):
    owner, attr = _owner(module, dotted)
    assert callable(getattr(owner, attr)), f"{module}:{dotted}"


def test_traced_patches_and_restores_every_target():
    targets = [_owner(module, dotted) for module, dotted, _, _ in PATCHES]
    found = [vars(owner).get(attr, _ABSENT) for owner, attr in targets]
    with traced(Recorder("x")):
        for (owner, attr), original in zip(targets, found):
            assert vars(owner).get(attr, _ABSENT) is not original
    for (owner, attr), original in zip(targets, found):
        assert vars(owner).get(attr, _ABSENT) is original


def test_run_fleet_merges_through_its_own_module_global():
    # The tracer times the shard merge by patching the name
    # ``repro.fleet.runner.merge_stream_files``; that only works while
    # ``run_fleet`` looks the function up there at call time.
    from repro.fleet import runner

    assert runner.run_fleet.__globals__ is vars(runner)
    assert "merge_stream_files" in runner.run_fleet.__code__.co_names
