"""The per-record Usage Analyzer walks, kept as the reference.

Until the Usage Analyzer became one fold over op batches
(``repro.core.analyzer.UsageFold`` and its array marginals), three
walks over a materialised ``UsageLog`` measured usage: these are they,
moved verbatim (``characterization`` was
``UsageAnalyzer.characterization``, ``think_time_samples`` lived in
``repro.traces.measures``).  The fold is compared against them; their
one known difference is sample order, which here follows set
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DATA_OPS = ("read", "write")
_REFERENCE_OPS = ("open", "creat", "stat")


@dataclass
class CategorySamples:
    """Raw per-category observations extracted from a log."""

    category_key: str
    accesses_per_byte: list[float]
    files_per_session: list[float]
    file_sizes: list[float]
    sessions_accessing: int


def extract_samples(log, layout=None):
    """Pull per-category measure samples plus access sizes out of a log.

    Returns ``(samples_by_category, access_sizes, inter_request_gaps)``.
    """
    per_cell_bytes: dict = {}
    per_cell_sizes: dict = {}
    session_keys: set = set()
    access_sizes: list[float] = []
    op_starts: dict = {}

    for op in log.operations:
        session = (op.user_id, op.session_id)
        op_starts.setdefault(session, []).append(op.start_us)
        if op.op in _DATA_OPS:
            access_sizes.append(float(op.size))
        if not op.category_key:
            continue
        session_keys.add(session)
        cell = (session, op.category_key)
        if op.op in _DATA_OPS or op.op == "listdir":
            per_cell_bytes[cell] = per_cell_bytes.get(cell, 0) + op.size
        if op.op in _REFERENCE_OPS:
            per_cell_sizes.setdefault(cell, {}).setdefault(op.path, 0)
        if op.op == "write":
            sizes = per_cell_sizes.setdefault(cell, {})
            sizes[op.path] = sizes.get(op.path, 0) + op.size

    for (session, key), sizes in per_cell_sizes.items():
        for path in list(sizes):
            recorded = layout.size_of(path) if layout is not None else None
            if recorded is not None:
                sizes[path] = recorded

    categories = {cell[1] for cell in per_cell_sizes}
    out: dict[str, CategorySamples] = {}
    for key in sorted(categories):
        samples = CategorySamples(key, [], [], [], 0)
        for session in session_keys:
            cell = (session, key)
            sizes = per_cell_sizes.get(cell)
            if not sizes:
                continue
            samples.sessions_accessing += 1
            samples.files_per_session.append(float(len(sizes)))
            samples.file_sizes.extend(float(v) for v in sizes.values())
            total_size = sum(sizes.values())
            if total_size > 0:
                samples.accesses_per_byte.append(
                    per_cell_bytes.get(cell, 0) / total_size
                )
        out[key] = samples

    gaps: list[float] = []
    for starts in op_starts.values():
        ordered = sorted(starts)
        gaps.extend(
            b - a for a, b in zip(ordered, ordered[1:]) if b - a >= 0
        )
    return out, access_sizes, gaps


def think_time_samples(log) -> np.ndarray:
    """Per-gap think times: next start minus previous call's *end*."""
    per_session: dict = {}
    for op in log.operations:
        per_session.setdefault((op.user_id, op.session_id), []).append(
            (op.start_us, op.response_us)
        )
    gaps: list[float] = []
    for entries in per_session.values():
        entries.sort()
        for (start, response), (next_start, _) in zip(entries, entries[1:]):
            gaps.append(max(next_start - (start + response), 0.0))
    return np.asarray(gaps, dtype=float)


def characterization(log, layout=None) -> list[tuple]:
    """Per-category ``(key, mean accesses/byte, mean file size, mean
    files, % of users, sessions accessing)``."""
    by_category, _, _ = extract_samples(log, layout)
    touched = {(op.user_id, op.session_id)
               for op in log.operations if op.category_key}
    n_sessions = max(len(touched), len(log.sessions), 1)

    def mean(values: list[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    return [
        (key, mean(samples.accesses_per_byte), mean(samples.file_sizes),
         mean(samples.files_per_session),
         100.0 * samples.sessions_accessing / n_sessions,
         samples.sessions_accessing)
        for key, samples in by_category.items()
    ]
