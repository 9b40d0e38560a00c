"""Workload-spec serialisation: :class:`WorkloadSpec` ⇄ JSON.

A calibrated spec (the output of ``repro trace calibrate``) must be a
shareable artefact: written to disk, diffed, loaded back, registered as a
scenario, validated against its source trace.  This module defines that
interchange form.

The document layout::

    {
      "format": "repro.workload-spec",
      "version": 1,
      "total_files": 400, "n_users": 8, "seed": 0,
      "file_categories": [
        {"category": "REG:USER:RDONLY", "fraction_of_files": 0.3,
         "size_distribution": {"kind": "shifted-exponential", ...}}, ...
      ],
      "user_types": [
        {"name": "calibrated", "fraction": 1.0, "max_open_files": 8,
         "think_time": {...}, "access_size": {...},
         "usage": [{"category": ..., "fraction_of_users": ...,
                    "access_per_byte": {...}, "file_count": {...},
                    "file_size": {...}}, ...]}, ...
      ],
      "meta": {...},  # free-form provenance (source trace, method, ...)
      "arrivals": {   # optional temporal-load model (see repro.core.arrivals)
        "first_login": {...}, "session_gap": {...}, "profile": {...}|null
      }
    }

Distribution payloads use :mod:`repro.distributions.serialize`; every
family a spec can hold round-trips to an equal object, so
``spec_from_jsonable(spec_to_jsonable(spec)) == spec``.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

from ..distributions import DistributionError, from_jsonable, to_jsonable
from .arrivals import (
    ArrivalError,
    ArrivalModel,
    arrival_model_from_jsonable,
    arrival_model_to_jsonable,
)
from .spec import (
    FileCategory,
    FileCategorySpec,
    SpecError,
    UsageSpec,
    UserTypeSpec,
    WorkloadSpec,
)

__all__ = [
    "SPEC_FORMAT",
    "SPEC_VERSION",
    "spec_to_jsonable",
    "spec_from_jsonable",
    "dump_spec",
    "dumps_spec",
    "load_spec",
    "loads_spec",
    "parse_spec_document",
    "spec_meta",
    "spec_arrivals",
]

SPEC_FORMAT = "repro.workload-spec"
SPEC_VERSION = 1


def spec_to_jsonable(
    spec: WorkloadSpec,
    meta: dict | None = None,
    arrivals: "ArrivalModel | None" = None,
) -> dict[str, Any]:
    """Encode ``spec`` (plus optional provenance ``meta`` and an optional
    temporal-load ``arrivals`` block) as a JSON-able dict."""
    document = {
        "format": SPEC_FORMAT,
        "version": SPEC_VERSION,
        "total_files": spec.total_files,
        "n_users": spec.n_users,
        "seed": spec.seed,
        "file_categories": [
            {
                "category": fc.category.key,
                "fraction_of_files": fc.fraction_of_files,
                "size_distribution": to_jsonable(fc.size_distribution),
            }
            for fc in spec.file_categories
        ],
        "user_types": [
            {
                "name": ut.name,
                "fraction": ut.fraction,
                "max_open_files": ut.max_open_files,
                "think_time": to_jsonable(ut.think_time),
                "access_size": to_jsonable(ut.access_size),
                "usage": [
                    {
                        "category": u.category.key,
                        "fraction_of_users": u.fraction_of_users,
                        "access_per_byte": to_jsonable(u.access_per_byte),
                        "file_count": to_jsonable(u.file_count),
                        "file_size": to_jsonable(u.file_size),
                    }
                    for u in ut.usage
                ],
            }
            for ut in spec.user_types
        ],
        "meta": dict(meta or {}),
    }
    if arrivals is not None:
        document["arrivals"] = arrival_model_to_jsonable(arrivals)
    return document


def _require(payload: dict, key: str, context: str):
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise SpecError(f"spec JSON: {context} is missing {key!r}") from None


def _int_field(payload: dict, key: str, default: int) -> int:
    # ``type(...) is int``: 2.7 and true are rejected, not truncated.
    value = payload.get(key, default)
    if type(value) is not int:
        raise SpecError(f"spec JSON: {key!r} must be an integer, got {value!r}")
    return value


def spec_from_jsonable(payload: dict[str, Any]) -> WorkloadSpec:
    """Decode a dict produced by :func:`spec_to_jsonable`.

    Raises :class:`~repro.core.spec.SpecError` for structurally invalid
    documents and lets the spec dataclasses enforce semantic validity
    (fractions summing to one, non-empty usage, ...).
    """
    if not isinstance(payload, dict):
        raise SpecError(f"spec JSON: expected an object, got {type(payload).__name__}")
    fmt = payload.get("format", SPEC_FORMAT)
    if fmt != SPEC_FORMAT:
        raise SpecError(f"spec JSON: unknown format {fmt!r} (expected {SPEC_FORMAT!r})")
    version = payload.get("version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise SpecError(f"spec JSON: unsupported version {version!r}")

    try:
        categories = tuple(
            FileCategorySpec(
                category=FileCategory.from_key(_require(fc, "category", "file category")),
                size_distribution=from_jsonable(
                    _require(fc, "size_distribution", "file category")
                ),
                fraction_of_files=float(_require(fc, "fraction_of_files", "file category")),
            )
            for fc in _require(payload, "file_categories", "document")
        )
        user_types = tuple(
            UserTypeSpec(
                name=str(_require(ut, "name", "user type")),
                fraction=float(_require(ut, "fraction", "user type")),
                max_open_files=_int_field(ut, "max_open_files", 8),
                think_time=from_jsonable(_require(ut, "think_time", "user type")),
                access_size=from_jsonable(_require(ut, "access_size", "user type")),
                usage=tuple(
                    UsageSpec(
                        category=FileCategory.from_key(_require(u, "category", "usage")),
                        fraction_of_users=float(_require(u, "fraction_of_users", "usage")),
                        access_per_byte=from_jsonable(_require(u, "access_per_byte", "usage")),
                        file_count=from_jsonable(_require(u, "file_count", "usage")),
                        file_size=from_jsonable(_require(u, "file_size", "usage")),
                    )
                    for u in _require(ut, "usage", "user type")
                ),
            )
            for ut in _require(payload, "user_types", "document")
        )
    except SpecError:
        raise
    except DistributionError as exc:
        raise SpecError(f"spec JSON: bad distribution payload: {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        # Wrong-shaped payloads (lists where objects belong, non-numeric
        # fractions, ...) must surface as the documented SpecError, not
        # leak implementation exceptions to CLI error handling.
        raise SpecError(f"spec JSON: malformed document: {exc}") from exc
    return WorkloadSpec(
        file_categories=categories,
        user_types=user_types,
        total_files=_int_field(payload, "total_files", 400),
        n_users=_int_field(payload, "n_users", 1),
        seed=_int_field(payload, "seed", 0),
    )


def spec_meta(payload: dict[str, Any]) -> dict:
    """The free-form ``meta`` block of a spec document (may be empty)."""
    meta = payload.get("meta", {}) if isinstance(payload, dict) else {}
    return meta if isinstance(meta, dict) else {}


def spec_arrivals(payload: dict[str, Any]) -> "ArrivalModel | None":
    """The optional ``arrivals`` block, decoded (None when absent)."""
    block = payload.get("arrivals") if isinstance(payload, dict) else None
    if not block:
        return None
    try:
        return arrival_model_from_jsonable(block)
    except (ArrivalError, DistributionError) as exc:
        raise SpecError(f"spec JSON: bad arrivals block: {exc}") from exc


def dumps_spec(
    spec: WorkloadSpec,
    meta: dict | None = None,
    indent: int = 2,
    arrivals: "ArrivalModel | None" = None,
) -> str:
    """Serialise to a JSON string."""
    return json.dumps(spec_to_jsonable(spec, meta, arrivals=arrivals),
                      indent=indent, sort_keys=True)


def dump_spec(
    spec: WorkloadSpec,
    stream: TextIO,
    meta: dict | None = None,
    arrivals: "ArrivalModel | None" = None,
) -> None:
    """Write the JSON document to a text stream."""
    stream.write(dumps_spec(spec, meta, arrivals=arrivals) + "\n")


def parse_spec_document(text: str) -> Any:
    """JSON-parse a spec document, wrapping parse errors in
    :class:`~repro.core.spec.SpecError`.

    The single entry point for turning artefact text into a payload:
    callers that need more than ``(spec, meta)`` — e.g. the scenario
    registry, which also decodes the ``arrivals`` block — parse once
    here and feed the payload to :func:`spec_from_jsonable` /
    :func:`spec_meta` / :func:`spec_arrivals`.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec JSON: not valid JSON: {exc}") from exc


def loads_spec(text: str) -> tuple[WorkloadSpec, dict]:
    """Parse a JSON string; returns ``(spec, meta)``."""
    payload = parse_spec_document(text)
    return spec_from_jsonable(payload), spec_meta(payload)


def load_spec(stream: TextIO) -> tuple[WorkloadSpec, dict]:
    """Read a JSON document from a text stream; returns ``(spec, meta)``."""
    return loads_spec(stream.read())
