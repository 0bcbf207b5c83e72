"""Sparse combination-technique approximation toolkit.

Generic engine for multilinear approximation problems built on simplex
multi-index sets, Matern-kernel scattered-data interpolation, a compact
P1 finite-element solver on the unit square, and configuration-driven
uncertainty-quantification pipelines (multilevel and multi-index
expectations, response surfaces, optimization under uncertainty).
"""

__version__ = "0.1.0"

from kernelkit.kernels import (
    ConditioningError,
    KernelExpansion,
    MaternKernel,
    QuadratureRule,
    TensorKernel,
    fit_interpolant,
    quadrature_weights,
)
from kernelkit.multiindex import (
    CombinationTerm,
    combination_coefficients,
    delta_expand,
    enumerate_simplex,
)
from kernelkit.points import Box, Disc, PointSet, generate_points
from kernelkit.smolyak import (
    FactorSpec,
    ProblemSpec,
    RatePrediction,
    SlopeFitError,
    SmolyakEngine,
    WorkLedger,
    convergence_study,
    fit_loglog_slope,
    level_to_resolution,
    predicted_rates,
)
from kernelkit.surrogate import Surrogate
from kernelkit.uq import sparse_interpolate

__all__ = [
    "__version__",
    "Box",
    "CombinationTerm",
    "ConditioningError",
    "Disc",
    "FactorSpec",
    "KernelExpansion",
    "MaternKernel",
    "PointSet",
    "ProblemSpec",
    "QuadratureRule",
    "RatePrediction",
    "SlopeFitError",
    "SmolyakEngine",
    "Surrogate",
    "TensorKernel",
    "WorkLedger",
    "combination_coefficients",
    "convergence_study",
    "delta_expand",
    "enumerate_simplex",
    "fit_interpolant",
    "fit_loglog_slope",
    "generate_points",
    "level_to_resolution",
    "predicted_rates",
    "quadrature_weights",
    "sparse_interpolate",
]
