"""Tabular and empirical distributions.

The GDS lets users "supply the probability density function (PDF) values or
CDF values directly" (section 4.1.1) instead of fitting a parametric family.
:class:`TabulatedPdf` and :class:`TabulatedCdf` are those two input forms;
:class:`EmpiricalDistribution` builds a distribution directly from observed
samples (the route used when characterising a trace).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import Distribution, DistributionError, as_float_array

__all__ = ["TabulatedPdf", "TabulatedCdf", "EmpiricalDistribution"]

MAX_BINS = 1 << 20  # histogram bins an EmpiricalDistribution may allocate


def _check_grid(x: np.ndarray, name: str) -> None:
    if len(x) < 2:
        raise DistributionError(f"{name} needs at least two grid points")
    if np.any(np.diff(x) <= 0):
        raise DistributionError(f"{name} grid must be strictly increasing")


class TabulatedPdf(Distribution):
    """A density given as ``(x, pdf(x))`` value pairs on a finite grid.

    Values between grid points are linearly interpolated; the table is
    normalised so the trapezoid-rule integral is one.  The CDF is the exact
    integral of that piecewise-linear density, so ``pdf``/``cdf`` are
    mutually consistent.
    """

    _PARAMS = ("xs", "densities")

    def __init__(self, xs: Sequence[float], densities: Sequence[float]):
        self.xs = as_float_array(xs, "xs")
        raw = as_float_array(densities, "densities")
        if len(self.xs) != len(raw):
            raise DistributionError("xs and densities must have equal length")
        _check_grid(self.xs, "TabulatedPdf")
        if np.any(raw < 0):
            raise DistributionError("densities must be non-negative")
        area = float(np.trapezoid(raw, self.xs))
        if area <= 0:
            raise DistributionError("densities integrate to zero")
        self.densities = raw / area
        # Cumulative trapezoid integral at each grid point.
        segment = (
            0.5
            * (self.densities[1:] + self.densities[:-1])
            * np.diff(self.xs)
        )
        self._cdf_at_grid = np.concatenate([[0.0], np.cumsum(segment)])
        # Guard against round-off: force the final value to exactly one.
        self._cdf_at_grid[-1] = 1.0

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.densities, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self._cdf_at_grid, left=0.0, right=1.0)
        # np.interp is linear between grid points which slightly mis-states
        # the quadratic segments of an integrated linear density, but the
        # error is O(h^2) and vanishes with grid resolution.
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return float(np.trapezoid(self.xs * self.densities, self.xs))

    def var(self) -> float:
        ex2 = float(np.trapezoid(self.xs**2 * self.densities, self.xs))
        return ex2 - self.mean() ** 2

    def sample(self, rng: np.random.Generator, size: int | None = None):
        n = 1 if size is None else int(size)
        u = rng.random(n)
        draws = np.interp(u, self._cdf_at_grid, self.xs)
        if size is None:
            return float(draws[0])
        return draws

    def support(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])


class TabulatedCdf(Distribution):
    """A distribution given as ``(x, cdf(x))`` value pairs on a finite grid.

    The table must be non-decreasing; it is rescaled to span [0, 1].  The PDF
    is the piecewise-constant derivative of the interpolated CDF.
    """

    _PARAMS = ("xs", "cdf_values")

    def __init__(self, xs: Sequence[float], cdf_values: Sequence[float]):
        self.xs = as_float_array(xs, "xs")
        raw = as_float_array(cdf_values, "cdf_values")
        if len(self.xs) != len(raw):
            raise DistributionError("xs and cdf_values must have equal length")
        _check_grid(self.xs, "TabulatedCdf")
        if np.any(np.diff(raw) < 0):
            raise DistributionError("cdf_values must be non-decreasing")
        span = raw[-1] - raw[0]
        if span <= 0:
            raise DistributionError("cdf_values must strictly increase overall")
        self.cdf_values = (raw - raw[0]) / span

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        slopes = np.diff(self.cdf_values) / np.diff(self.xs)
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(slopes) - 1)
        inside = (x >= self.xs[0]) & (x <= self.xs[-1])
        out = np.where(inside, slopes[idx], 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.cdf_values, left=0.0, right=1.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        # E[X] from the piecewise-linear CDF: sum over segments of midpoint
        # times probability mass in the segment.
        mids = 0.5 * (self.xs[1:] + self.xs[:-1])
        mass = np.diff(self.cdf_values)
        return float(np.sum(mids * mass))

    def var(self) -> float:
        # Second moment of a uniform on each segment, weighted by its mass.
        a, b = self.xs[:-1], self.xs[1:]
        seg_ex2 = (a * a + a * b + b * b) / 3.0
        mass = np.diff(self.cdf_values)
        ex2 = float(np.sum(seg_ex2 * mass))
        return ex2 - self.mean() ** 2

    def sample(self, rng: np.random.Generator, size: int | None = None):
        n = 1 if size is None else int(size)
        u = rng.random(n)
        draws = np.interp(u, self.cdf_values, self.xs)
        if size is None:
            return float(draws[0])
        return draws

    def support(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])


class EmpiricalDistribution(Distribution):
    """The empirical distribution of a set of observed samples.

    Sampling draws uniformly from the observations (a bootstrap draw), which
    is the natural "replay the measured marginal" behaviour; ``cdf`` is the
    usual step ECDF and ``pdf`` a histogram density estimate.
    """

    _PARAMS = ("samples", "bins")

    def __init__(self, samples: Sequence[float], bins: int = 50):
        self.samples = np.sort(as_float_array(samples, "samples"))
        # ``bins`` sizes the histogram allocation and arrives from spec
        # files, so it is bounded above as well as below.
        if not 1 <= bins <= MAX_BINS:
            raise DistributionError(f"bins must be in 1..{MAX_BINS}, got {bins!r}")
        self.bins = int(bins)
        lo, hi = float(self.samples[0]), float(self.samples[-1])
        if hi == lo:
            hi = lo + 1.0
        self._hist, self._edges = np.histogram(
            self.samples, bins=self.bins, range=(lo, hi), density=True
        )

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(
            np.searchsorted(self._edges, x, side="right") - 1,
            0,
            len(self._hist) - 1,
        )
        inside = (x >= self._edges[0]) & (x <= self._edges[-1])
        out = np.where(inside, self._hist[idx], 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.samples, x, side="right") / len(self.samples)
        out = np.asarray(out, dtype=float)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def var(self) -> float:
        return float(np.var(self.samples))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        n = 1 if size is None else int(size)
        draws = rng.choice(self.samples, size=n, replace=True)
        if size is None:
            return float(draws[0])
        return draws

    def support(self) -> tuple[float, float]:
        return float(self.samples[0]), float(self.samples[-1])
