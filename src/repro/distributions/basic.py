"""Degenerate and uniform distributions.

The experiment matrix needs a few trivial distributions the thesis uses
implicitly: the "extremely heavy I/O" user type has *zero* think time
(Table 5.4), which is a point mass, and uniform draws are handy for
parameter sweeps and tests.
"""

from __future__ import annotations

import numpy as np

from .base import Distribution, DistributionError

__all__ = ["Constant", "Uniform"]


class Constant(Distribution):
    """A point mass at ``value`` (e.g. the zero think time of Table 5.4)."""

    _PARAMS = ("value",)

    def __init__(self, value: float):
        if not np.isfinite(value):
            raise DistributionError(f"value must be finite, got {value!r}")
        self.value = float(value)

    def pdf(self, x):
        # A Dirac delta has no density; report the indicator for plotting.
        x = np.asarray(x, dtype=float)
        out = np.where(x == self.value, np.inf, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.value, 1.0, 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.value

    def var(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.value
        return np.full(int(size), self.value)

    def support(self) -> tuple[float, float]:
        return self.value, self.value

    def quantile_range(self, q: float = 0.999) -> tuple[float, float]:
        return self.value, self.value


class Uniform(Distribution):
    """Continuous uniform on ``[lo, hi]``."""

    _PARAMS = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise DistributionError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
        self.lo = float(lo)
        self.hi = float(hi)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        out = np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def var(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    def sample(self, rng: np.random.Generator, size: int | None = None):
        draws = rng.uniform(self.lo, self.hi, size=size)
        return draws

    def support(self) -> tuple[float, float]:
        return self.lo, self.hi
