"""JSON (de)serialisation for distribution objects.

Calibrated workload specs must be shareable artefacts (the trace
subsystem writes them to disk and the scenario registry loads them back),
so every distribution family the spec layer can hold needs a stable,
version-free JSON form.  The codec is one ``kind`` → class table; a
payload is the ``kind`` string plus the family's ``_PARAMS`` (its
constructor keywords) as plain floats and lists.  Unknown keys are
ignored and a missing optional parameter takes the constructor default.

Round-trip guarantee: ``from_jsonable(to_jsonable(d)) == d`` for every
supported family (equality is by ``_PARAMS`` value).
"""

from __future__ import annotations

from typing import Any

from .base import Distribution, DistributionError
from .basic import Constant, Uniform
from .empirical import EmpiricalDistribution, TabulatedCdf, TabulatedPdf
from .exponential import PhaseTypeExponential, ShiftedExponential
from .gamma import MultiStageGamma, ShiftedGamma

__all__ = ["to_jsonable", "from_jsonable"]

_KINDS: dict[str, type[Distribution]] = {
    "constant": Constant,
    "uniform": Uniform,
    "shifted-exponential": ShiftedExponential,
    "phase-type-exponential": PhaseTypeExponential,
    "shifted-gamma": ShiftedGamma,
    "multi-stage-gamma": MultiStageGamma,
    "empirical": EmpiricalDistribution,
    "tabulated-pdf": TabulatedPdf,
    "tabulated-cdf": TabulatedCdf,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in _KINDS.items()}


def to_jsonable(dist: Distribution) -> dict[str, Any]:
    """Encode ``dist`` as a JSON-able dict with a ``kind`` discriminator."""
    kind = _KIND_BY_TYPE.get(type(dist))
    if kind is None:
        raise DistributionError(
            f"cannot serialise a {type(dist).__name__}; supported kinds: "
            f"{', '.join(sorted(_KINDS))}"
        )
    return {**dist._plain_params(), "kind": kind}


def from_jsonable(payload: dict[str, Any]) -> Distribution:
    """Decode a dict produced by :func:`to_jsonable`."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise DistributionError(f"not a distribution payload: {payload!r}")
    kind = payload["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DistributionError(
            f"unknown distribution kind {kind!r}; supported: {', '.join(sorted(_KINDS))}"
        )
    cls = _KINDS[kind]
    try:
        return cls(**{name: payload[name] for name in cls._PARAMS if name in payload})
    except DistributionError:
        raise
    except (TypeError, ValueError) as exc:
        raise DistributionError(f"bad {kind!r} payload: {exc}") from exc
