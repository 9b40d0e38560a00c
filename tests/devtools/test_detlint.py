"""Tests for repro.devtools.detlint — the determinism/concurrency linter.

Each rule gets a bad/good fixture pair under ``tests/devtools/fixtures``.
Path-scoped rules (no-wall-clock, no-global-rng's allowlist, sink-module
scoping) are exercised by *staging* the fixture into a ``repro/<dir>/``
tree under tmp_path, because policies match on the part of the path after
the last ``repro`` directory.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.devtools.detlint import (
    collect_pragmas,
    lint_paths,
    load_registry,
    main,
    module_relpath,
)
from repro.devtools.detlint.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def stage(tmp_path: Path, mapping: dict[str, str]) -> Path:
    """Copy fixtures into a fake tree: {fixture_name: staged_relpath}."""
    root = tmp_path / "tree"
    for fixture, rel in mapping.items():
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(FIXTURES / fixture, dest)
    return root


def run_rule(paths, rule: str, registry_path=None):
    findings, _n = lint_paths(
        [str(p) for p in paths], rule_ids=[rule], registry_path=registry_path
    )
    return findings


# -- no-global-rng -------------------------------------------------------------


def test_no_global_rng_flags_module_level_draws():
    findings = run_rule([FIXTURES / "bad_no_global_rng.py"], "no-global-rng")
    assert len(findings) == 3
    assert {f.rule for f in findings} == {"no-global-rng"}
    messages = " | ".join(f.message for f in findings)
    assert "np.random.default_rng" in messages
    assert "random.random" in messages
    assert "numpy.random" in messages  # the `from numpy.random import` form


def test_no_global_rng_clean_on_streams_code():
    assert run_rule([FIXTURES / "good_no_global_rng.py"], "no-global-rng") == []


def test_no_global_rng_exempts_rng_module(tmp_path):
    root = stage(tmp_path, {"bad_no_global_rng.py": "repro/distributions/rng.py"})
    assert run_rule([root], "no-global-rng") == []


# -- no-wall-clock -------------------------------------------------------------


def test_no_wall_clock_flags_clocks_in_core(tmp_path):
    root = stage(tmp_path, {"bad_no_wall_clock.py": "repro/core/stamp.py"})
    findings = run_rule([root], "no-wall-clock")
    assert len(findings) == 4
    messages = " | ".join(f.message for f in findings)
    for call in ("time.monotonic", "time.time", "datetime.now",
                 "time.perf_counter"):
        assert call in messages


def test_no_wall_clock_allows_clocks_in_obs(tmp_path):
    root = stage(tmp_path, {"bad_no_wall_clock.py": "repro/obs/stamp.py"})
    assert run_rule([root], "no-wall-clock") == []


def test_no_wall_clock_ignores_files_outside_banned_dirs():
    # Unstaged fixture: relpath is the bare filename, no banned dir matches.
    assert run_rule([FIXTURES / "bad_no_wall_clock.py"], "no-wall-clock") == []


def test_no_wall_clock_clean_on_sim_clock_code(tmp_path):
    root = stage(tmp_path, {"good_no_wall_clock.py": "repro/core/stamp.py"})
    assert run_rule([root], "no-wall-clock") == []


# -- stream-name-registry ------------------------------------------------------


def _staged_with_registry(tmp_path, fixture):
    return stage(tmp_path, {
        fixture: "repro/core/build.py",
        "registry_min.py": "repro/distributions/streamnames.py",
    })


def test_registry_catches_misnamed_stream(tmp_path):
    """The tentpole guarantee: a typo'd stream name is caught statically."""
    root = _staged_with_registry(tmp_path, "bad_stream_names.py")
    findings = run_rule([root], "stream-name-registry")
    assert len(findings) == 3
    messages = " | ".join(f.message for f in findings)
    assert "'writemix'" in messages            # misspelling of write-mix
    assert "'worker-'" in messages             # unregistered family prefix
    assert "no static prefix" in messages      # f-string starting dynamic


def test_registry_clean_on_registered_names(tmp_path):
    root = _staged_with_registry(tmp_path, "good_stream_names.py")
    assert run_rule([root], "stream-name-registry") == []


def test_registry_catches_misnamed_stream_inside_a_family_list(tmp_path):
    """The batched derivation takes names by the list; each is checked."""
    root = _staged_with_registry(tmp_path, "bad_stream_family.py")
    findings = run_rule([root], "stream-name-registry")
    assert len(findings) == 3
    messages = " | ".join(f.message for f in findings)
    assert "'thnik'" in messages    # misspelling of think, mid-list
    assert "'cnt:'" in messages     # unregistered prefix in a generator
    assert "'usr-'" in messages     # unregistered fork prefix
    assert sorted(f.line for f in findings) == [6, 7, 9]


def test_registry_clean_on_registered_family_list(tmp_path):
    root = _staged_with_registry(tmp_path, "good_stream_family.py")
    assert run_rule([root], "stream-name-registry") == []


def test_registry_explicit_path_flag(tmp_path):
    root = stage(tmp_path, {"bad_stream_names.py": "repro/core/build.py"})
    findings = run_rule([root], "stream-name-registry",
                        registry_path=str(FIXTURES / "registry_min.py"))
    assert len(findings) == 3


def test_registry_missing_is_itself_a_finding(tmp_path):
    root = stage(tmp_path, {"bad_stream_names.py": "repro/core/build.py"})
    findings = run_rule([root], "stream-name-registry")
    assert findings
    assert all("no registry found" in f.message for f in findings)


def test_load_registry_parses_fixture_and_real_module():
    names, prefixes = load_registry(str(FIXTURES / "registry_min.py"))
    assert names == frozenset({"write-mix", "think"})
    assert prefixes == ("user-", "shard-", "count:")
    real_names, real_prefixes = load_registry(
        str(REPO_SRC / "repro" / "distributions" / "streamnames.py")
    )
    assert {"select", "think", "write-mix", "fsc"} <= real_names
    assert "user-" in real_prefixes and "shard-" in real_prefixes


def test_load_registry_rejects_incomplete_module(tmp_path):
    stub = tmp_path / "reg.py"
    stub.write_text("STREAM_NAMES = frozenset({'a'})\n")
    with pytest.raises(ValueError):
        load_registry(str(stub))


# -- unordered-iteration -------------------------------------------------------


def test_unordered_iteration_flags_sets_feeding_sinks():
    findings = run_rule([FIXTURES / "bad_unordered_iteration.py"],
                        "unordered-iteration")
    assert len(findings) == 2
    assert {"'dump_users'", "'merge_keys'"} == {
        f.message.split(" in ")[1].split(" feeds")[0] for f in findings
    }


def test_unordered_iteration_clean_when_sorted():
    assert run_rule([FIXTURES / "good_unordered_iteration.py"],
                    "unordered-iteration") == []


def test_unordered_iteration_scopes_whole_sink_modules(tmp_path):
    # In a sink module every function is in scope, marker name or not.
    source = (
        "def helper(xs, out):\n"
        "    for x in set(xs):\n"
        "        out.append(x)\n"
    )
    root = tmp_path / "tree"
    dest = root / "repro" / "fleet" / "merge.py"
    dest.parent.mkdir(parents=True)
    dest.write_text(source)
    findings = run_rule([root], "unordered-iteration")
    assert len(findings) == 1


# -- mp-hygiene ----------------------------------------------------------------


def test_mp_hygiene_flags_unpicklable_targets():
    findings = run_rule([FIXTURES / "bad_mp_hygiene.py"], "mp-hygiene")
    assert len(findings) == 2
    messages = " | ".join(f.message for f in findings)
    assert "nested function 'run_shard'" in messages
    assert "a lambda" in messages


def test_mp_hygiene_clean_on_module_level_targets():
    assert run_rule([FIXTURES / "good_mp_hygiene.py"], "mp-hygiene") == []


# -- float-accum ---------------------------------------------------------------


def test_float_accum_flags_naive_merge_sums():
    findings = run_rule([FIXTURES / "bad_float_accum.py"], "float-accum")
    assert len(findings) == 2
    messages = " | ".join(f.message for f in findings)
    assert "sum()" in messages
    assert "'+='" in messages


def test_float_accum_exempts_integral_accumulation():
    assert run_rule([FIXTURES / "good_float_accum.py"], "float-accum") == []


# -- swallowed-exceptions ------------------------------------------------------


def test_swallowed_exceptions_flags_silent_handlers():
    findings = run_rule([FIXTURES / "bad_swallowed_exceptions.py"],
                        "swallowed-exceptions")
    assert len(findings) == 2
    messages = " | ".join(f.message for f in findings)
    assert "bare 'except:'" in messages
    assert "'except Exception'" in messages


def test_swallowed_exceptions_clean_on_narrow_handlers():
    assert run_rule([FIXTURES / "good_swallowed_exceptions.py"],
                    "swallowed-exceptions") == []


# -- pragmas -------------------------------------------------------------------


def _lint_source(tmp_path, source, rule=None):
    path = tmp_path / "mod.py"
    path.write_text(source)
    findings, _n = lint_paths(
        [str(path)], rule_ids=[rule] if rule else None
    )
    return findings


def test_inline_pragma_with_reason_suppresses(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import random\n"
        "x = random.random()  "
        "# detlint: ignore[no-global-rng] — fixture wants raw draws\n",
        rule="no-global-rng",
    )
    assert findings == []


def test_standalone_pragma_governs_next_code_line(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import random\n"
        "# detlint: ignore[no-global-rng] — wrapped justification that\n"
        "# continues on a second comment line before the code\n"
        "x = random.random()\n",
        rule="no-global-rng",
    )
    assert findings == []


def test_pragma_without_reason_is_rejected_and_does_not_suppress(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import random\n"
        "x = random.random()  # detlint: ignore[no-global-rng]\n",
    )
    rules = sorted(f.rule for f in findings)
    assert "bad-pragma" in rules
    assert "no-global-rng" in rules  # original finding survives


def test_pragma_with_unknown_rule_is_rejected(tmp_path):
    findings = _lint_source(
        tmp_path, "x = 1  # detlint: ignore[no-such-rule] — whatever\n"
    )
    assert [f.rule for f in findings] == ["bad-pragma"]
    assert "unknown rule" in findings[0].message


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import random\n"
        "x = random.random()  # detlint: ignore[mp-hygiene] — wrong rule\n",
        rule="no-global-rng",
    )
    assert [f.rule for f in findings] == ["no-global-rng"]


def test_collect_pragmas_parses_rules_and_reason():
    pragmas, bad = collect_pragmas(
        "a = 1  # detlint: ignore[no-global-rng, no-wall-clock] — why not\n"
    )
    assert bad == []
    assert pragmas[0].rules == ("no-global-rng", "no-wall-clock")
    assert pragmas[0].reason == "why not"
    assert pragmas[0].line == 1


# -- CLI, report format, exit codes --------------------------------------------


def test_main_clean_tree_exits_zero(tmp_path, capsys):
    path = tmp_path / "ok.py"
    path.write_text("x = 1\n")
    assert main([str(path)]) == 0
    assert "1 file(s) checked, clean" in capsys.readouterr().out


def test_main_findings_exit_one_human_format(tmp_path, capsys):
    rc = main([str(FIXTURES / "bad_mp_hygiene.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[mp-hygiene]" in out
    # path:line:col renders 1-based columns
    assert "bad_mp_hygiene.py:" in out


def test_main_json_report_schema(tmp_path, capsys):
    rc = main(["--json", str(FIXTURES / "bad_float_accum.py")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["format"] == "repro.detlint-report"
    assert payload["version"] == 1
    assert payload["rules"] == list(ALL_RULES)
    assert payload["checked_files"] == 1
    assert payload["ok"] is False
    assert payload["counts"]["float-accum"] == 2
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "rule", "message"}


def test_main_json_ok_on_clean_input(tmp_path, capsys):
    path = tmp_path / "ok.py"
    path.write_text("x = 1\n")
    assert main(["--json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["findings"] == []


def test_main_missing_path_exits_two(capsys):
    assert main([str(FIXTURES / "does_not_exist.py")]) == 2
    assert "error" in capsys.readouterr().err


def test_main_unknown_rule_exits_two(tmp_path, capsys):
    path = tmp_path / "ok.py"
    path.write_text("x = 1\n")
    assert main(["--rules", "bogus", str(path)]) == 2


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULES:
        assert rule_id in out


def test_parse_error_is_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    findings, n_files = lint_paths([str(path)])
    assert n_files == 1
    assert [f.rule for f in findings] == ["parse-error"]


def test_module_relpath_strips_to_last_repro_component():
    assert module_relpath("/x/src/repro/core/usim.py") == "core/usim.py"
    assert module_relpath("/x/repro/y/repro/obs/metrics.py") == "obs/metrics.py"
    assert module_relpath("/tmp/tree/repro/fleet/merge.py") == "fleet/merge.py"
    assert module_relpath("/tmp/loose.py", root="/tmp") == "loose.py"


# -- the meta-test: the shipped tree is clean ----------------------------------


def test_shipped_tree_is_detlint_clean():
    """`python -m repro.devtools.detlint src` must exit 0 on this repo."""
    findings, n_files = lint_paths([str(REPO_SRC)])
    assert n_files > 50
    assert findings == [], "\n".join(f.render() for f in findings)
