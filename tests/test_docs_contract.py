"""The prose's contract with the tree (ROADMAP item 7a).

``README.md`` and ``docs/architecture.md`` name code in backticks.  A
rename in ``src/`` used to surface as stale prose several PRs later;
these tests resolve every backticked ``repro.*`` dotted name, every
bare CamelCase class name (``Name`` or ``Name.attr``) against the
classes defined under ``src/repro`` (or Python's builtins), every
repo-relative ``*.py|*.md|*.json|*.yml`` path (one with a ``/``: bare
names like ``fleet-run.json`` are run-time files) and every ``--flag``
of a span that speaks of this CLI (it starts with the flag, a
subcommand or ``python -m repro``; ``ruff format --check`` names
another program) against the tree and the argparse parser, and fail
tier-1 instead.
``benchmarks/e2e/README.md`` is out of scope: it sits under the frozen
benchmark path and is known stale.  ``docs/architecture.md`` also has a
line budget, so the prose stays cut to what code cannot say.
"""

import argparse
import ast
import builtins
import importlib
import os
import re

import pytest

from repro.cli import build_parser

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", os.path.join("docs", "architecture.md"))
ARCHITECTURE_MAX_LINES = 600

_SPAN = re.compile(r"`([^`\n]+)`")
# Not `"repro.run-manifest"`: format strings are data, not names.
_DOTTED = re.compile(r"(?<![\w\"./-])repro(?:\.[A-Za-z_]\w*)+(?![\w-])")
_PATH = re.compile(r"[\w.-]*/[\w./-]+\.(?:py|md|json|yml)")
# `OpBatch`, `StreamReader.replay`: a class by its bare name.
_CAMEL = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+(?:\.[A-Za-z_]\w*)?")
_FLAG = re.compile(r"--[a-z][a-z0-9-]*")

# Where a backticked relative path may be rooted.
_ROOTS = ("", "src", os.path.join("src", "repro"), "docs")


def _spans(doc):
    with open(os.path.join(REPO, doc), encoding="utf-8") as fh:
        text = fh.read()
    # Fenced blocks are shell transcripts and diagrams, not references.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return sorted(set(_SPAN.findall(text)))


def _mentions(pattern, whole=False, spans=lambda span: True):
    found = set()
    for doc in DOCS:
        for span in filter(spans, _spans(doc)):
            if whole:
                if pattern.fullmatch(span):
                    found.add((doc, span))
            else:
                found.update((doc, m) for m in pattern.findall(span))
    return sorted(found)


def _resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                owner = getattr(owner, attr)
        except AttributeError:
            return False
        return True
    return False


def _class_attributes():
    """``{class name: (attribute names, base names)}`` for every class
    defined under ``src/repro``: methods, class-level names and the
    ``self.<name>`` its methods assign."""
    classes = {}
    for root, _, files in os.walk(os.path.join(REPO, "src", "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                attrs, bases = classes.setdefault(node.name, (set(), set()))
                bases.update(b.id for b in node.bases
                             if isinstance(b, ast.Name))
                for item in ast.walk(node):
                    if isinstance(item, (ast.FunctionDef, ast.ClassDef,
                                         ast.AsyncFunctionDef)):
                        attrs.add(item.name)
                    elif isinstance(item, ast.Name) and isinstance(
                            item.ctx, ast.Store):
                        attrs.add(item.id)
                    elif (isinstance(item, ast.Attribute)
                          and isinstance(item.ctx, ast.Store)
                          and isinstance(item.value, ast.Name)
                          and item.value.id == "self"):
                        attrs.add(item.attr)
    return classes


_CLASSES = _class_attributes()


def _class_resolves(span):
    name, _, attr = span.partition(".")
    if name not in _CLASSES:
        return hasattr(builtins, name) and (
            not attr or hasattr(getattr(builtins, name), attr))
    pending, seen = [name], set()
    while attr and pending:
        owner = pending.pop()
        if owner in seen or owner not in _CLASSES:
            continue
        seen.add(owner)
        attrs, bases = _CLASSES[owner]
        if attr in attrs:
            return True
        pending += bases
    return not attr


def _subparsers(parser):
    return next((action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)), {})


def _known_flags(parser):
    flags = {flag for action in parser._actions
             for flag in action.option_strings}
    for sub in _subparsers(parser).values():
        flags |= _known_flags(sub)
    return flags


_CLI = build_parser()
_CLI_FLAGS = _known_flags(_CLI)


def _speaks_of_this_cli(span):
    first = span.split()[0]
    return (first.startswith("--") or first in _subparsers(_CLI)
            or first in ("repro", "repro-workload") or "-m repro" in span)


@pytest.mark.parametrize("doc, dotted", _mentions(_DOTTED))
def test_dotted_names_resolve(doc, dotted):
    assert _resolves(dotted), f"{doc}: `{dotted}` does not import/getattr"


@pytest.mark.parametrize("doc, name", _mentions(_CAMEL, whole=True))
def test_class_names_resolve(doc, name):
    assert _class_resolves(name), (
        f"{doc}: `{name}` names no class (or attribute) under src/repro")


def test_the_class_check_refuses_a_deleted_name():
    assert _class_resolves("StreamReader.read_chunk")
    assert _class_resolves("KeyboardInterrupt")
    assert not _class_resolves("StreamWriter.abort")
    assert not _class_resolves("StreamReader.no_such_method")


@pytest.mark.parametrize("doc, path", _mentions(_PATH, whole=True))
def test_repo_relative_paths_exist(doc, path):
    roots = _ROOTS + (os.path.dirname(doc),)
    assert any(os.path.exists(os.path.join(REPO, root, path))
               for root in roots), f"{doc}: `{path}` is not in the tree"


@pytest.mark.parametrize("doc, flag",
                         _mentions(_FLAG, spans=_speaks_of_this_cli))
def test_flags_are_known_to_the_parser(doc, flag):
    assert flag in _CLI_FLAGS, f"{doc}: `{flag}` is not a CLI flag"


def test_the_scan_finds_references():
    # A regex that silently matches nothing would pass everything.
    assert len(_mentions(_DOTTED)) > 20
    assert len(_mentions(_CAMEL, whole=True)) > 20
    assert len(_mentions(_PATH, whole=True)) > 20
    assert len(_mentions(_FLAG, spans=_speaks_of_this_cli)) > 10


def test_architecture_stays_within_its_line_budget():
    with open(os.path.join(REPO, DOCS[1]), encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    assert lines <= ARCHITECTURE_MAX_LINES, (
        f"{DOCS[1]} is {lines} lines; the budget is {ARCHITECTURE_MAX_LINES}")
