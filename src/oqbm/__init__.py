"""Exact, spectral and finite-difference solutions of open quantum Brownian
motion on the real line for a two-level internal degree of freedom."""

__version__ = "0.1.0"

from .core import (
    BlochField,
    GaussianCoherent,
    GaussianMixture,
    InitialCondition,
    LaplaceCoherent,
    LaplaceMixture,
    Params,
    SpatialGrid,
    UniformMixture,
    plan_grid,
    sample_initial,
)

__all__ = [
    "BlochField",
    "GaussianCoherent",
    "GaussianMixture",
    "InitialCondition",
    "LaplaceCoherent",
    "LaplaceMixture",
    "Params",
    "SpatialGrid",
    "UniformMixture",
    "plan_grid",
    "sample_initial",
    "__version__",
]
