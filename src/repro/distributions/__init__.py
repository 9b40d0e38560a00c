"""Distribution library for the synthetic workload generator.

Implements the two parametric families the thesis's GDS supports natively
(phase-type exponential and multi-stage gamma), tabular PDF/CDF input,
empirical distributions, Simpson-rule CDF tabulation with inverse-transform
sampling, EM-based fitting, and reproducible named random streams.
"""

from .base import Distribution, DistributionError
from .basic import Constant, Uniform
from .batch import BatchSampler
from .cdf_table import CdfTable, simpson_cdf
from .empirical import EmpiricalDistribution, TabulatedCdf, TabulatedPdf
from .exponential import PhaseTypeExponential, ShiftedExponential
from .fitting import (
    FitResult,
    fit_best,
    fit_multi_stage_gamma,
    fit_phase_type_exponential,
    fit_shifted_exponential,
    fit_shifted_gamma,
    ks_distance,
    ks_test,
    ks_two_sample,
)
from .gamma import MultiStageGamma, ShiftedGamma
from .rng import PooledStream, RandomStreams, StreamFamily, derive_seed
from .serialize import from_jsonable, to_jsonable

__all__ = [
    "Distribution",
    "DistributionError",
    "Constant",
    "Uniform",
    "BatchSampler",
    "CdfTable",
    "simpson_cdf",
    "EmpiricalDistribution",
    "TabulatedCdf",
    "TabulatedPdf",
    "PhaseTypeExponential",
    "ShiftedExponential",
    "MultiStageGamma",
    "ShiftedGamma",
    "FitResult",
    "fit_best",
    "fit_multi_stage_gamma",
    "fit_phase_type_exponential",
    "fit_shifted_exponential",
    "fit_shifted_gamma",
    "ks_distance",
    "ks_test",
    "ks_two_sample",
    "PooledStream",
    "RandomStreams",
    "StreamFamily",
    "derive_seed",
    "from_jsonable",
    "to_jsonable",
]
