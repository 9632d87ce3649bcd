"""Numerical substrate: intervals, Poisson weights, linear solvers, order statistics."""

from repro.numerics.intervals import Interval
from repro.numerics.poisson import (
    FoxGlynnWeights,
    fox_glynn,
    poisson_pmf,
    poisson_weights,
    poisson_tail_from,
)
from repro.numerics.linsolve import (
    SolverStats,
    gauss_seidel,
    jacobi,
    solve_direct,
    solve_linear_system,
    sor,
)
from repro.numerics.orderstat import OmegaCalculator, OmegaRegistry, omega

__all__ = [
    "Interval",
    "FoxGlynnWeights",
    "fox_glynn",
    "poisson_pmf",
    "poisson_weights",
    "poisson_tail_from",
    "SolverStats",
    "gauss_seidel",
    "jacobi",
    "sor",
    "solve_direct",
    "solve_linear_system",
    "OmegaCalculator",
    "OmegaRegistry",
    "omega",
]
