"""Shifted and phase-type exponential distributions.

The thesis defines (section 5.1) the phase-type exponential density

    f(x) = sum_i w_i * exp(theta_i, x - s_i)

where ``exp(theta, y) = (1/theta) * e^(-y/theta)`` for ``0 <= y < inf``,
the ``w_i`` sum to one, and ``s_i`` are per-phase offsets.  Note the thesis
parameterises each phase by its *mean* ``theta`` (scale), not its rate: the
Figure 5.1 captions such as ``f(x) = exp(22.1, x)`` denote an exponential
with mean 22.1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import Distribution, DistributionError, StageMixture

__all__ = ["ShiftedExponential", "PhaseTypeExponential"]


class ShiftedExponential(Distribution):
    """An exponential with mean ``scale`` shifted right by ``offset``.

    This is a single phase of the thesis's phase-type family: density
    ``(1/scale) * exp(-(x - offset)/scale)`` for ``x >= offset``.
    """

    _PARAMS = ("scale", "offset")

    def __init__(self, scale: float, offset: float = 0.0):
        if not np.isfinite(scale) or scale <= 0:
            raise DistributionError(f"scale must be positive, got {scale!r}")
        if not np.isfinite(offset):
            raise DistributionError(f"offset must be finite, got {offset!r}")
        self.scale = float(scale)
        self.offset = float(offset)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        y = x - self.offset
        # Clamp before exponentiating so the masked-out branch cannot
        # overflow (np.where still evaluates both sides).
        safe = np.maximum(y, 0.0)
        out = np.where(y >= 0.0, np.exp(-safe / self.scale) / self.scale, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        y = x - self.offset
        safe = np.maximum(y, 0.0)
        out = np.where(y >= 0.0, 1.0 - np.exp(-safe / self.scale), 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.offset + self.scale

    def var(self) -> float:
        return self.scale**2

    def sample(self, rng: np.random.Generator, size: int | None = None):
        draws = rng.exponential(self.scale, size=size)
        return draws + self.offset

    def support(self) -> tuple[float, float]:
        return self.offset, np.inf


class PhaseTypeExponential(StageMixture):
    """Mixture of shifted exponentials — the thesis's phase-type family.

    Parameters
    ----------
    weights:
        Mixture weights ``w_i``; must be positive and sum to one (a small
        tolerance is accepted and renormalised).
    scales:
        Per-phase means ``theta_i`` (the thesis's first argument to
        ``exp(theta, y)``).
    offsets:
        Per-phase shifts ``s_i``.  Defaults to all zeros.

    Example (third panel of Figure 5.1)::

        PhaseTypeExponential(
            weights=[0.4, 0.3, 0.3],
            scales=[12.7, 18.2, 24.5],
            offsets=[0.0, 18.0, 41.0],
        )
    """

    _PARAMS = ("weights", "scales", "offsets")
    _stage = ShiftedExponential

    def __init__(
        self,
        weights: Sequence[float],
        scales: Sequence[float],
        offsets: Sequence[float] | None = None,
    ):
        super().__init__(weights=weights, scales=scales, offsets=offsets)

    @property
    def n_phases(self) -> int:
        """Number of mixture phases ``N``."""
        return len(self._stages)

    def mean(self) -> float:
        return float(np.sum(self.weights * (self.offsets + self.scales)))

    def var(self) -> float:
        # Var = E[X^2] - E[X]^2 with per-phase second moments.
        second = self.scales**2 * 2 + 2 * self.offsets * self.scales + self.offsets**2
        ex2 = float(np.sum(self.weights * second))
        return ex2 - self.mean() ** 2

    def _stage_quantile(self, stage_idx, u):
        return -self.scales[stage_idx] * np.log1p(-u) + self.offsets[stage_idx]
