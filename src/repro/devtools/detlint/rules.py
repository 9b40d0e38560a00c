"""The detlint rule implementations.

Each rule is a generator ``rule(ctx)`` yielding ``(lineno, col, message)``
tuples; the driver in :mod:`repro.devtools.detlint` attaches the rule id,
applies ``detlint: ignore`` pragmas and formats the report.  Rules
are deliberately AST-only (no imports of the code under analysis), so
detlint keeps working even when the tree it is checking cannot import.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import policy

Hit = tuple[int, int, str]


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute/name chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _matches_path(relpath: str, patterns) -> bool:
    """True when ``relpath`` is under any dir (``x/``) or equals a file."""
    for pattern in patterns:
        if pattern.endswith("/"):
            if relpath.startswith(pattern):
                return True
        elif relpath == pattern:
            return True
    return False


def _functions(tree: ast.AST):
    """Yield every (def node, nesting depth) in the module."""
    def walk(node: ast.AST, depth: int):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, depth
                yield from walk(child, depth + 1)
            else:
                yield from walk(child, depth)
    yield from walk(tree, 0)


# -- no-global-rng -------------------------------------------------------------

def no_global_rng(ctx) -> Iterator[Hit]:
    """``random.*`` / ``np.random.*`` calls outside distributions/rng.py.

    Module-global RNG state is seed-shared and draw-order-dependent: one
    extra draw anywhere perturbs every stream downstream, which is exactly
    what named ``RandomStreams`` exist to prevent.
    """
    if _matches_path(ctx.relpath, policy.GLOBAL_RNG_ALLOWED):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "random" or module.endswith(".random"):
                yield (node.lineno, node.col_offset,
                       f"import from RNG module {module!r}; draw from a "
                       "named RandomStreams stream instead")
            continue
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) > 1:
            yield (node.lineno, node.col_offset,
                   f"call to global RNG {dotted!r}; use a named "
                   "RandomStreams stream")
        elif "random" in parts[:-1] and parts[0] in ("np", "numpy"):
            yield (node.lineno, node.col_offset,
                   f"call to {dotted!r} outside distributions/rng.py; "
                   "derive generators from RandomStreams")


# -- no-wall-clock -------------------------------------------------------------

def no_wall_clock(ctx) -> Iterator[Hit]:
    """Wall-clock reads inside the deterministic generation path.

    Generation must be a pure function of (spec, seed); a clock read in
    core/, sim/, distributions/ or nfs/ leaks host timing into artifacts.
    """
    if not _matches_path(ctx.relpath, policy.WALL_CLOCK_BANNED_DIRS):
        return
    if _matches_path(ctx.relpath, policy.WALL_CLOCK_ALLOWED):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        tail = ".".join(dotted.split(".")[-2:])
        if tail in policy.WALL_CLOCK_CALLS:
            yield (node.lineno, node.col_offset,
                   f"wall-clock read {dotted!r} in deterministic path "
                   f"({ctx.relpath}); clocks belong in obs/ or benchmarks/")


# -- stream-name-registry ------------------------------------------------------

def _holder_name(receiver: ast.expr) -> str:
    """The last name of a ``x`` / ``a.b.x`` receiver, else ``""``."""
    if isinstance(receiver, ast.Name):
        return receiver.id
    if isinstance(receiver, ast.Attribute):
        return receiver.attr
    return ""


def _is_stream_holder(receiver: ast.expr) -> bool:
    name = _holder_name(receiver)
    return name in policy.STREAM_HOLDER_NAMES or name.endswith("streams")


def _literal_stream_name(arg: ast.expr) -> tuple[str, bool] | None:
    """``(text, is_prefix)`` for a str constant or f-string, else None."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, False
    if isinstance(arg, ast.JoinedStr):
        prefix = []
        for piece in arg.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                prefix.append(piece.value)
            else:
                break
        return "".join(prefix), True
    return None


def _collected_names(arg: ast.expr) -> Iterator[ast.expr]:
    """The element expressions of a names collection, flattened.

    Descends list/tuple displays, ``*`` unpacking and comprehensions
    (their element and what they iterate over) — the shapes a literal
    name list is written in.
    """
    if isinstance(arg, (ast.List, ast.Tuple)):
        for element in arg.elts:
            yield from _collected_names(element)
    elif isinstance(arg, ast.Starred):
        yield from _collected_names(arg.value)
    elif isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
        yield from _collected_names(arg.elt)
        for generator in arg.generators:
            yield from _collected_names(generator.iter)
    else:
        yield arg


def _stream_name_args(node: ast.Call) -> Iterator[ast.expr]:
    """The expressions of ``node`` that name a stream, if it names any."""
    func = node.func
    if isinstance(func, ast.Name):
        called, receiver = func.id, None
    elif isinstance(func, ast.Attribute):
        called, receiver = func.attr, func.value
    else:
        return
    if called == policy.STREAM_FAMILY_CLASS:
        if node.args:
            yield from _collected_names(node.args[0])
    elif receiver is None:
        return
    elif called == policy.STREAM_FAMILY_METHOD:
        if _holder_name(receiver).endswith("family") and len(node.args) >= 2:
            yield from _collected_names(node.args[1])
    elif called in policy.STREAM_METHODS:
        if _is_stream_holder(receiver) and node.args:
            yield node.args[0]


def stream_name_registry(ctx) -> Iterator[Hit]:
    """Stream names must exist in distributions/streamnames.py.

    ``derive_seed`` hashes any string, so a misspelled stream name yields
    a different-but-plausible generator — the #1 historical source of
    byte-identity breaks.  Every literal passed to ``RandomStreams.get``/
    ``fork``/``spawn_seed``, and every literal inside the name and fork
    collections of the batched ``StreamFamily`` derivation, is
    cross-checked against the canonical registry.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        for arg in _stream_name_args(node):
            literal = _literal_stream_name(arg)
            if literal is None:
                continue  # a variable: checked at its own literal source
            text, is_prefix = literal
            where = (getattr(arg, "lineno", node.lineno),
                     getattr(arg, "col_offset", node.col_offset))
            if ctx.registry is None:
                yield (*where,
                       "stream name used but no registry found (expected "
                       f"{policy.REGISTRY_RELPATH}); pass --registry or add "
                       "one")
                continue
            names, prefixes = ctx.registry
            if is_prefix:
                if not text:
                    yield (*where,
                           "dynamic stream name with no static prefix; start "
                           "the f-string with a registered family prefix")
                elif not text.startswith(tuple(prefixes)):
                    yield (*where,
                           f"stream family prefix {text!r} not in the "
                           f"registry ({policy.REGISTRY_RELPATH}); registered "
                           f"prefixes: {sorted(prefixes)}")
            elif text not in names and not text.startswith(tuple(prefixes)):
                yield (*where,
                       f"stream name {text!r} not in the registry "
                       f"({policy.REGISTRY_RELPATH}); a typo here silently "
                       "derives a different generator")


# -- unordered-iteration -------------------------------------------------------

def _setish_names(func: ast.AST) -> set[str]:
    """Local names assigned a set/frozenset in this function body."""
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _is_setish(node.value, names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_setish(node: ast.expr, local_sets: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return (_is_setish(node.left, local_sets)
                or _is_setish(node.right, local_sets))
    return False


def unordered_iteration(ctx) -> Iterator[Hit]:
    """Iterating a set in code that feeds sinks, serializers or merges.

    Set iteration order depends on insertion history and hash seeds; in a
    function that writes artifacts or merges shards it produces
    run-to-run nondeterminism.  Wrap the set in ``sorted(...)``.
    """
    module_scoped = _matches_path(ctx.relpath, policy.SINK_MODULES)
    for func, _depth in _functions(ctx.tree):
        name = func.name.lower()
        if not module_scoped and not any(
                marker in name for marker in policy.SINK_FUNC_MARKERS):
            continue
        local_sets = _setish_names(func)
        for node in ast.walk(func):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp, ast.SetComp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("list", "tuple", "enumerate")
                  and node.args):
                iters.append(node.args[0])
            for it in iters:
                if _is_setish(it, local_sets):
                    yield (it.lineno, it.col_offset,
                           f"iteration over a set in {func.name!r} feeds an "
                           "ordered artifact; wrap in sorted(...) for a "
                           "deterministic order")


# -- mp-hygiene ----------------------------------------------------------------

def _nested_def_names(tree: ast.AST) -> set[str]:
    return {func.name for func, depth in _functions(tree) if depth > 0}


def mp_hygiene(ctx) -> Iterator[Hit]:
    """Worker targets must be module-level functions.

    A lambda or nested function handed to ``Process(target=...)`` or a
    pool submit method is unpicklable under the spawn start method — the
    only start method whose workers are fork-safe with threads around.
    """
    nested = _nested_def_names(ctx.tree)

    def bad(candidate: ast.expr) -> str | None:
        if isinstance(candidate, ast.Lambda):
            return "a lambda"
        if isinstance(candidate, ast.Name) and candidate.id in nested:
            return f"nested function {candidate.id!r}"
        return None

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        candidates: list[ast.expr] = [
            kw.value for kw in node.keywords if kw.arg == "target"
        ]
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in policy.POOL_SUBMIT_METHODS
                and node.args):
            candidates.append(node.args[0])
        for candidate in candidates:
            what = bad(candidate)
            if what is not None:
                yield (candidate.lineno, candidate.col_offset,
                       f"worker target is {what}; process targets must be "
                       "module-level (picklable, closure-free) functions")


# -- float-accum ---------------------------------------------------------------

def _int_exempt(value: ast.expr) -> bool:
    if isinstance(value, ast.Constant) and isinstance(value.value, int):
        return True
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in policy.INT_EXEMPT_CALLS):
        return True
    return False


def float_accum(ctx) -> Iterator[Hit]:
    """Bare ``sum()`` / ``+=`` accumulation inside merge functions.

    Naive float summation is order-dependent and loses precision across
    shards; merge paths must go through the exact parallel-Welford /
    merge helpers in obs/metrics.py (or prove the accumulation integral).
    """
    for func, _depth in _functions(ctx.tree):
        if not func.name.lstrip("_").startswith("merge"):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                yield (node.lineno, node.col_offset,
                       f"bare sum() in merge function {func.name!r}; use "
                       "the exact merge helpers in obs/metrics.py")
            elif (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)
                    and not _int_exempt(node.value)):
                yield (node.lineno, node.col_offset,
                       f"'+=' accumulation in merge function {func.name!r} "
                       "may be float and order-dependent; use the exact "
                       "merge helpers in obs/metrics.py or accumulate "
                       "via int(...)")


# -- swallowed-exceptions ------------------------------------------------------

def swallowed_exceptions(ctx) -> Iterator[Hit]:
    """Bare ``except:`` or pass-only broad handlers.

    In retry/supervision paths a swallowed exception converts a crash the
    supervisor would retry deterministically into silent data loss.
    """
    broad = ("Exception", "BaseException")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield (node.lineno, node.col_offset,
                   "bare 'except:' swallows KeyboardInterrupt and worker "
                   "kill signals; name the exceptions or re-raise")
            continue
        caught = _dotted(node.type) if not isinstance(node.type, ast.Tuple) \
            else None
        if isinstance(node.type, ast.Tuple):
            names = [_dotted(elt) for elt in node.type.elts]
            caught = next((n for n in names if n in broad), None)
        if caught not in broad:
            continue
        body_is_noop = all(
            isinstance(stmt, (ast.Pass, ast.Continue))
            or (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant))
            for stmt in node.body
        )
        if body_is_noop:
            yield (node.lineno, node.col_offset,
                   f"'except {caught}' with a no-op body swallows errors "
                   "silently; handle, log or re-raise")


# -- registry ------------------------------------------------------------------

# rule-id -> (implementation, one-line description)
ALL_RULES = {
    "no-global-rng": (
        no_global_rng,
        "random.* / np.random.* calls outside distributions/rng.py",
    ),
    "no-wall-clock": (
        no_wall_clock,
        "wall-clock reads inside core/, sim/, distributions/, nfs/",
    ),
    "stream-name-registry": (
        stream_name_registry,
        "stream names must exist in distributions/streamnames.py",
    ),
    "unordered-iteration": (
        unordered_iteration,
        "set iteration feeding sinks, serializers or merges",
    ),
    "mp-hygiene": (
        mp_hygiene,
        "process/pool targets must be module-level picklable functions",
    ),
    "float-accum": (
        float_accum,
        "bare sum()/'+=' float accumulation inside merge* functions",
    ),
    "swallowed-exceptions": (
        swallowed_exceptions,
        "bare or pass-only broad exception handlers",
    ),
}
