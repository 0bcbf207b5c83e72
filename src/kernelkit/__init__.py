"""Sparse combination-technique approximation toolkit.

Generic engine for multilinear approximation problems built on simplex
multi-index sets, Matern-kernel scattered-data interpolation, a compact
P1 finite-element solver on the unit square, and configuration-driven
uncertainty-quantification pipelines (multilevel and multi-index
expectations, response surfaces, optimization under uncertainty).
"""

__version__ = "0.1.0"
