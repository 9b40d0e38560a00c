"""Distribution protocol shared by every distribution family.

The thesis (section 3.1.3) requires that *all* usage measures be described by
full distributions, not just means, and that the families be general enough
to fit empirical data (phase-type exponential, multi-stage gamma, or raw
PDF/CDF tables).  This module defines the small interface the rest of the
system programs against.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

__all__ = ["Distribution", "DistributionError", "StageMixture", "as_float_array"]


class DistributionError(ValueError):
    """Raised for invalid distribution parameters or unusable inputs."""


def as_float_array(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    """Validate and convert ``values`` to a 1-D float array.

    Raises :class:`DistributionError` for empty input or non-finite entries,
    which would otherwise surface much later as NaNs in sampled workloads.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise DistributionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DistributionError(f"{name} must contain only finite values")
    return arr


class Distribution(abc.ABC):
    """A one-dimensional distribution over a (possibly shifted) support.

    Concrete families implement ``pdf``/``cdf``/``mean``/``var`` analytically
    where possible and ``sample`` by direct transformation.  The GDS
    additionally tabulates any distribution into a :class:`~repro.distributions.cdf_table.CdfTable`
    for the inverse-transform sampling path the thesis describes.

    ``_PARAMS`` names a family's constructor keywords, which are also its
    attribute names.  It is the one parameter table: equality, hashing,
    ``repr`` and the JSON codec (:mod:`.serialize`) are all derived from it.
    A family that declares none compares by object identity.
    """

    _PARAMS: tuple[str, ...] = ()

    def _plain_params(self) -> dict[str, Any]:
        """The ``_PARAMS`` values as plain floats and lists, in order."""
        values = ((name, getattr(self, name)) for name in self._PARAMS)
        return {name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in values}

    def _identity(self) -> tuple:
        values = [getattr(self, name) for name in self._PARAMS] or [id(self)]
        return (type(self), *(v.tobytes() if isinstance(v, np.ndarray) else v
                              for v in values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={v!r}" for n, v in self._plain_params().items())
        return f"{type(self).__name__}({args})"

    @abc.abstractmethod
    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Probability density evaluated at ``x`` (vectorised)."""

    @abc.abstractmethod
    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Cumulative distribution evaluated at ``x`` (vectorised)."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value."""

    @abc.abstractmethod
    def var(self) -> float:
        """Variance."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw ``size`` variates (or a scalar when ``size`` is ``None``)."""

    @abc.abstractmethod
    def support(self) -> tuple[float, float]:
        """Return ``(lo, hi)`` bounds outside which the density is zero.

        ``hi`` may be ``math.inf``.  Used by the GDS to pick tabulation
        ranges automatically.
        """

    def std(self) -> float:
        """Standard deviation (derived from :meth:`var`)."""
        return float(np.sqrt(self.var()))

    def quantile_range(self, q: float = 0.999) -> tuple[float, float]:
        """A finite ``[lo, hi]`` interval covering probability ``q``.

        The default implementation walks the CDF with doubling steps; exact
        families may override.  This is what the GDS uses to bound Simpson
        integration when the support is infinite.
        """
        lo, hi = self.support()
        if np.isfinite(hi):
            return lo, hi
        # Expand until the CDF exceeds q.
        width = max(1.0, abs(self.mean()) + 4.0 * self.std())
        hi = lo + width
        for _ in range(128):
            if float(self.cdf(hi)) >= q:
                return lo, hi
            hi = lo + (hi - lo) * 2.0
        return lo, hi

    def describe(self) -> str:
        """One-line human-readable summary used in logs and the CLI."""
        return (
            f"{type(self).__name__}(mean={self.mean():.6g}, "
            f"std={self.std():.6g})"
        )


class StageMixture(Distribution):
    """``f(x) = sum_i w_i * stage_i(x)``: what the thesis's two native
    families (phase-type exponential, multi-stage gamma) share.

    ``_PARAMS`` is ``("weights", <per-stage columns>..., "offsets")`` and
    ``_stage`` the single-stage family built from one row of those columns.
    A family adds its stage quantile and keeps its own literal
    ``mean``/``var`` expressions (they bound every tabulated draw, so they
    are not re-derived from stage moments).
    """

    _stage: type[Distribution]

    def __init__(self, **columns: Sequence[float] | None):
        for name in self._PARAMS:
            value = columns[name]
            if value is None:  # offsets default to all zeros
                value = np.zeros_like(self.weights)
            setattr(self, name, as_float_array(value, name))
        stage_columns = [getattr(self, name) for name in self._PARAMS[1:]]
        if any(len(column) != len(self.weights) for column in stage_columns):
            raise DistributionError(
                f"{', '.join(self._PARAMS)} must have equal length; got "
                f"{', '.join(str(len(getattr(self, n))) for n in self._PARAMS)}"
            )
        if np.any(self.weights <= 0):
            raise DistributionError("weights must be strictly positive")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-6:
            raise DistributionError(
                f"weights must sum to 1 (within 1e-6), got {total!r}"
            )
        self.weights = self.weights / total
        self._cum_weights = np.cumsum(self.weights)
        self._stages = [self._stage(*row) for row in zip(*stage_columns)]

    @abc.abstractmethod
    def _stage_quantile(self, stage_idx: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Quantile ``u`` of stage ``stage_idx`` (both arrays, elementwise)."""

    def _weighted(self, method: str, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for w, stage in zip(self.weights, self._stages):
            out = out + w * getattr(stage, method)(x)
        return out if out.ndim else float(out)

    def pdf(self, x):
        return self._weighted("pdf", x)

    def cdf(self, x):
        return self._weighted("cdf", x)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        # Per-element inverse transform: each variate consumes exactly two
        # uniforms in row-major order (stage pick, then that stage's
        # quantile), so element i of a size-N draw equals the i-th scalar
        # draw — the property batched sampling relies on.
        n = 1 if size is None else int(size)
        u = rng.random((n, 2))
        stage_idx = np.minimum(
            np.searchsorted(self._cum_weights, u[:, 0], side="right"),
            len(self._stages) - 1,
        )
        draws = self._stage_quantile(stage_idx, u[:, 1])
        if size is None:
            return float(draws[0])
        return draws

    def support(self) -> tuple[float, float]:
        return float(self.offsets.min()), np.inf
