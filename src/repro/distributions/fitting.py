"""Fitting empirical data with the GDS's parametric families.

Section 4.1.1: "Users can fit a phase-type exponential or multi-stage gamma
distribution to an empirical distribution, or supply the probability density
function (PDF) values or CDF values directly."

The fitters here use expectation-maximisation over mixture responsibilities
with moment-matching M-steps, which is robust without derivatives and fast
enough for the table sizes the GDS works with.  Offsets are either supplied
by the caller (the thesis treats them as modelling choices) or initialised
from data quantiles and kept fixed during EM.

Statistical similarity — one of Domanski's criteria the thesis adopts
(section 2.2) — is provided by :func:`ks_distance` / :func:`ks_test`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import Distribution, DistributionError, as_float_array
from .exponential import PhaseTypeExponential, ShiftedExponential
from .gamma import MultiStageGamma, ShiftedGamma

__all__ = [
    "FitResult",
    "fit_shifted_exponential",
    "fit_phase_type_exponential",
    "fit_shifted_gamma",
    "fit_multi_stage_gamma",
    "fit_best",
    "ks_distance",
    "ks_test",
    "ks_two_sample",
]

_EPS = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: the distribution plus goodness-of-fit metadata."""

    distribution: Distribution
    log_likelihood: float
    ks_statistic: float
    n_samples: int
    iterations: int

    def describe(self) -> str:
        """One-line summary for GDS output."""
        return (
            f"{self.distribution.describe()}  "
            f"logL={self.log_likelihood:.4g}  KS={self.ks_statistic:.4f}  "
            f"n={self.n_samples}  iters={self.iterations}"
        )


def ks_distance(samples: Sequence[float], dist: Distribution) -> float:
    """Kolmogorov–Smirnov distance between data and a fitted distribution.

    Computed directly from the order statistics:
    ``max_i max(|F(x_i) - i/n|, |F(x_i) - (i-1)/n|)``.
    """
    data = np.sort(as_float_array(samples, "samples"))
    n = len(data)
    cdf = np.asarray(dist.cdf(data), dtype=float)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(cdf - upper), np.abs(cdf - lower))))


def ks_test(samples: Sequence[float], dist: Distribution) -> tuple[float, float]:
    """Return ``(ks_statistic, p_value)`` for data against ``dist``.

    The p-value uses the asymptotic Kolmogorov distribution, appropriate
    when the candidate distribution was not fitted on the same data (for
    fitted distributions treat the p-value as an optimistic upper bound).
    """
    # Imported here: scipy.stats is ~1 s of start-up and only this call
    # needs it (tests/test_cli.py holds `import repro` free of it).
    from scipy.stats import kstwobign

    data = as_float_array(samples, "samples")
    d = ks_distance(data, dist)
    n = len(data)
    p = float(kstwobign.sf(d * np.sqrt(n)))
    return d, min(max(p, 0.0), 1.0)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov distance ``sup_x |F_a(x) - F_b(x)|``.

    The supremum over the two step ECDFs is attained at an observation of
    either sample, so evaluating both ECDFs on the pooled order statistics
    is exact.  Used by the trace-validation loop to compare a measured
    sample against its synthetic reproduction.
    """
    xs_a = np.sort(as_float_array(a, "a"))
    xs_b = np.sort(as_float_array(b, "b"))
    pooled = np.concatenate([xs_a, xs_b])
    cdf_a = np.searchsorted(xs_a, pooled, side="right") / len(xs_a)
    cdf_b = np.searchsorted(xs_b, pooled, side="right") / len(xs_b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _prepare(samples: Sequence[float]) -> np.ndarray:
    data = as_float_array(samples, "samples")
    if len(data) < 2:
        raise DistributionError("need at least two samples to fit")
    return data


def fit_shifted_exponential(
    samples: Sequence[float], offset: float | None = None
) -> FitResult:
    """Maximum-likelihood fit of a single shifted exponential.

    With a free offset the MLE is ``offset = min(x)`` (nudged slightly below
    so every sample has positive density) and ``scale = mean(x) - offset``.
    """
    data = _prepare(samples)
    if offset is None:
        spread = float(data.max() - data.min()) or 1.0
        offset = float(data.min()) - 1e-9 * spread
    scale = float(np.mean(data)) - offset
    if scale <= 0:
        raise DistributionError("samples lie at or below the requested offset")
    dist = ShiftedExponential(scale, offset)
    log_l = float(np.sum(np.log(np.maximum(dist.pdf(data), _EPS))))
    return FitResult(dist, log_l, ks_distance(data, dist), len(data), 1)


def fit_phase_type_exponential(
    samples: Sequence[float],
    n_phases: int = 2,
    offsets: Sequence[float] | None = None,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> FitResult:
    """EM fit of an ``n_phases``-component phase-type exponential mixture.

    Offsets default to evenly spaced data quantiles (the left edge of each
    data "hump"), matching how the thesis's figures place phase onsets, and
    stay fixed during EM; weights and scales are re-estimated each step.
    """
    data = _prepare(samples)
    if n_phases < 1:
        raise DistributionError("n_phases must be >= 1")
    if n_phases == 1:
        off = None if offsets is None else offsets[0]
        return fit_shifted_exponential(data, off)

    if offsets is None:
        qs = np.linspace(0.0, 0.8, n_phases)
        offsets_arr = np.quantile(data, qs)
        offsets_arr[0] = data.min() - 1e-9 * (np.ptp(data) or 1.0)
    else:
        offsets_arr = as_float_array(offsets, "offsets")
        if len(offsets_arr) != n_phases:
            raise DistributionError("offsets length must equal n_phases")
    offsets_arr = np.sort(offsets_arr)

    weights = np.full(n_phases, 1.0 / n_phases)
    scales = np.full(n_phases, max(float(np.std(data)), _EPS))

    prev_ll = -np.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        # E-step: responsibilities of each phase for each sample.
        dens = np.zeros((n_phases, len(data)))
        for k in range(n_phases):
            y = data - offsets_arr[k]
            # Clamp before exponentiating: np.where evaluates both
            # branches, and exp of a large positive value overflows.
            safe = np.maximum(y, 0.0)
            dens[k] = np.where(
                y >= 0,
                weights[k] * np.exp(-safe / scales[k]) / scales[k],
                0.0,
            )
        total = dens.sum(axis=0)
        total = np.maximum(total, _EPS)
        resp = dens / total
        log_l = float(np.sum(np.log(total)))

        # M-step: weighted moment updates.
        mass = resp.sum(axis=1)
        weights = np.maximum(mass / len(data), _EPS)
        weights = weights / weights.sum()
        for k in range(n_phases):
            if mass[k] < _EPS:
                continue
            y = np.maximum(data - offsets_arr[k], 0.0)
            scales[k] = max(float(np.sum(resp[k] * y) / mass[k]), _EPS)

        if abs(log_l - prev_ll) < tol * (1.0 + abs(log_l)):
            prev_ll = log_l
            break
        prev_ll = log_l

    dist = PhaseTypeExponential(weights, scales, offsets_arr)
    return FitResult(dist, prev_ll, ks_distance(data, dist), len(data), iters)


def fit_shifted_gamma(
    samples: Sequence[float], offset: float | None = None
) -> FitResult:
    """Moment fit of a single shifted gamma (shape/scale from mean & var)."""
    data = _prepare(samples)
    if offset is None:
        spread = float(data.max() - data.min()) or 1.0
        offset = float(data.min()) - 1e-3 * spread
    y = data - offset
    if np.any(y <= 0):
        raise DistributionError("samples lie at or below the requested offset")
    m = float(np.mean(y))
    v = max(float(np.var(y)), _EPS)
    shape = max(m * m / v, _EPS)
    scale = v / m
    dist = ShiftedGamma(shape, scale, offset)
    log_l = float(np.sum(np.log(np.maximum(dist.pdf(data), _EPS))))
    return FitResult(dist, log_l, ks_distance(data, dist), len(data), 1)


def fit_multi_stage_gamma(
    samples: Sequence[float],
    n_stages: int = 2,
    offsets: Sequence[float] | None = None,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> FitResult:
    """EM fit of an ``n_stages``-component multi-stage gamma mixture.

    The M-step matches each stage's weighted mean and variance (method of
    moments), which keeps every iteration closed-form.
    """
    data = _prepare(samples)
    if n_stages < 1:
        raise DistributionError("n_stages must be >= 1")
    if n_stages == 1:
        off = None if offsets is None else offsets[0]
        return fit_shifted_gamma(data, off)

    if offsets is None:
        qs = np.linspace(0.0, 0.8, n_stages)
        offsets_arr = np.quantile(data, qs)
        offsets_arr[0] = data.min() - 1e-3 * (np.ptp(data) or 1.0)
    else:
        offsets_arr = as_float_array(offsets, "offsets")
        if len(offsets_arr) != n_stages:
            raise DistributionError("offsets length must equal n_stages")
    offsets_arr = np.sort(offsets_arr)

    weights = np.full(n_stages, 1.0 / n_stages)
    shapes = np.full(n_stages, 1.5)
    base_scale = max(float(np.std(data)) / 1.5, _EPS)
    scales = np.full(n_stages, base_scale)

    prev_ll = -np.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        dens = np.zeros((n_stages, len(data)))
        for k in range(n_stages):
            stage = ShiftedGamma(shapes[k], scales[k], offsets_arr[k])
            dens[k] = weights[k] * np.asarray(stage.pdf(data))
        total = np.maximum(dens.sum(axis=0), _EPS)
        resp = dens / total
        log_l = float(np.sum(np.log(total)))

        mass = resp.sum(axis=1)
        weights = np.maximum(mass / len(data), _EPS)
        weights = weights / weights.sum()
        for k in range(n_stages):
            if mass[k] < _EPS:
                continue
            y = np.maximum(data - offsets_arr[k], _EPS)
            m = float(np.sum(resp[k] * y) / mass[k])
            v = float(np.sum(resp[k] * (y - m) ** 2) / mass[k])
            v = max(v, _EPS)
            shapes[k] = min(max(m * m / v, 0.05), 1e4)
            scales[k] = max(v / m, _EPS)

        if abs(log_l - prev_ll) < tol * (1.0 + abs(log_l)):
            prev_ll = log_l
            break
        prev_ll = log_l

    dist = MultiStageGamma(weights, shapes, scales, offsets_arr)
    return FitResult(dist, prev_ll, ks_distance(data, dist), len(data), iters)


def fit_best(
    samples: Sequence[float],
    max_phases: int = 3,
    families: tuple[str, ...] = ("exponential", "gamma"),
) -> FitResult:
    """Fit both families over 1..``max_phases`` components and pick the
    lowest KS distance — the GDS "fit" button, automated."""
    data = _prepare(samples)
    candidates: list[FitResult] = []
    for n in range(1, max_phases + 1):
        if "exponential" in families:
            try:
                candidates.append(fit_phase_type_exponential(data, n))
            except DistributionError:
                pass
        if "gamma" in families:
            try:
                candidates.append(fit_multi_stage_gamma(data, n))
            except DistributionError:
                pass
    if not candidates:
        raise DistributionError("no family could be fitted to the samples")
    return min(candidates, key=lambda r: r.ks_statistic)
