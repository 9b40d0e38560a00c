"""Developer tooling that machine-checks the repository's own invariants.

Nothing in this package is imported by the runtime generator; it exists so
that the determinism and concurrency rules the documentation promises
(``docs/architecture.md``, "Statically enforced invariants") are enforced
at the source level, in CI, before any artifact can be corrupted:

* :mod:`repro.devtools.detlint` — AST-based determinism/concurrency lint
  (``python -m repro.devtools.detlint src``).
"""
