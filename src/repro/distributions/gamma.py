"""Shifted and multi-stage gamma distributions.

The thesis defines (section 5.1) the multi-stage gamma density

    f(x) = sum_i w_i * g(alpha_i, theta_i, x - s_i)

where ``g(alpha, theta, y) = y^(alpha-1) e^(-y/theta) / (Gamma(alpha) theta^alpha)``
for ``0 <= y < inf``, the ``w_i`` sum to one, and ``s_i`` are per-stage
offsets.  Devarakonda and Iyer [DI86] found that real file and usage
distributions are well approximated by this family, which is why the GDS
supports it natively.

``scipy.special`` (~0.2 s and ~20 MiB of start-up) is imported where a
density, CDF or quantile is evaluated, not with the package: no bundled
scenario carries a gamma family, so engine-free runs never load SciPy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import Distribution, DistributionError, StageMixture

__all__ = ["ShiftedGamma", "MultiStageGamma"]


class ShiftedGamma(Distribution):
    """A gamma(shape, scale) shifted right by ``offset``.

    Density ``g(shape, scale, x - offset)`` in the thesis's notation.
    """

    _PARAMS = ("shape", "scale", "offset")

    def __init__(self, shape: float, scale: float, offset: float = 0.0):
        if not np.isfinite(shape) or shape <= 0:
            raise DistributionError(f"shape must be positive, got {shape!r}")
        if not np.isfinite(scale) or scale <= 0:
            raise DistributionError(f"scale must be positive, got {scale!r}")
        if not np.isfinite(offset):
            raise DistributionError(f"offset must be finite, got {offset!r}")
        self.shape = float(shape)
        self.scale = float(scale)
        self.offset = float(offset)

    def pdf(self, x):
        from scipy import special  # on first use; see module docstring

        x = np.asarray(x, dtype=float)
        y = x - self.offset
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pdf = (
                (self.shape - 1.0) * np.log(y)
                - y / self.scale
                - special.gammaln(self.shape)
                - self.shape * np.log(self.scale)
            )
            out = np.where(y > 0.0, np.exp(log_pdf), 0.0)
        # A shape-1 gamma has positive density at y == 0.
        if self.shape == 1.0:
            out = np.where(y == 0.0, 1.0 / self.scale, out)
        return out if out.ndim else float(out)

    def cdf(self, x):
        from scipy import special  # on first use; see module docstring

        x = np.asarray(x, dtype=float)
        y = np.maximum(x - self.offset, 0.0)
        out = special.gammainc(self.shape, y / self.scale)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.offset + self.shape * self.scale

    def var(self) -> float:
        return self.shape * self.scale**2

    def sample(self, rng: np.random.Generator, size: int | None = None):
        draws = rng.gamma(self.shape, self.scale, size=size)
        return draws + self.offset

    def support(self) -> tuple[float, float]:
        return self.offset, np.inf


class MultiStageGamma(StageMixture):
    """Mixture of shifted gammas — the thesis's multi-stage gamma family.

    Example (third panel of Figure 5.2)::

        MultiStageGamma(
            weights=[0.7, 0.2, 0.1],
            shapes=[1.3, 1.5, 1.3],
            scales=[12.3, 12.4, 12.3],
            offsets=[0.0, 23.0, 41.0],
        )
    """

    _PARAMS = ("weights", "shapes", "scales", "offsets")
    _stage = ShiftedGamma

    def __init__(
        self,
        weights: Sequence[float],
        shapes: Sequence[float],
        scales: Sequence[float],
        offsets: Sequence[float] | None = None,
    ):
        super().__init__(weights=weights, shapes=shapes, scales=scales,
                         offsets=offsets)

    @property
    def n_stages(self) -> int:
        """Number of mixture stages ``N``."""
        return len(self._stages)

    def mean(self) -> float:
        stage_means = self.offsets + self.shapes * self.scales
        return float(np.sum(self.weights * stage_means))

    def var(self) -> float:
        stage_means = self.offsets + self.shapes * self.scales
        stage_vars = self.shapes * self.scales**2
        ex2 = float(np.sum(self.weights * (stage_vars + stage_means**2)))
        return ex2 - self.mean() ** 2

    def _stage_quantile(self, stage_idx, u):
        from scipy import special  # on first use; see module docstring

        # Inverse regularised incomplete gamma, then scale and shift.
        return (
            special.gammaincinv(self.shapes[stage_idx], u)
            * self.scales[stage_idx]
            + self.offsets[stage_idx]
        )
