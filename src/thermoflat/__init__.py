"""Nonlinear topological pressure on finite-alphabet shifts.

Solves sup over invariant measures of entropy - g-(tau-) + g+(tau+) by
linearizing the convex couplings into a max-min over tilted Ruelle
pressures, and cross-checks the answer with brute-force oracles and a
finite Monge-Kantorovich reformulation.
"""

from .config import RunConfig
from .convex import (
    INFINITY,
    AbsSum,
    DualPoint,
    GridSampled,
    LinearShift,
    Quadratic,
    SubdiffSet,
    biconjugate,
    discrete_lft,
    growth_radius,
)
from .linearizer import (
    GameSolution,
    ModelSpec,
    approximating_potential,
    p_flat_of,
    p_nl,
    solve_flat,
    solve_game,
    solve_sharp,
)
from .measures import (
    AprioriAlphabet,
    CylinderPotential,
    MarkovMeasure,
    MixtureMeasure,
    entropy_rate,
    expectation,
)
from .ruelle import (
    RPFData,
    entropy_of_gibbs,
    linear_pressure,
    normalization_residual,
    rpf_solve,
)

__version__ = "0.1.0"

__all__ = [
    "AbsSum",
    "AprioriAlphabet",
    "CylinderPotential",
    "DualPoint",
    "GameSolution",
    "GridSampled",
    "INFINITY",
    "LinearShift",
    "MarkovMeasure",
    "MixtureMeasure",
    "ModelSpec",
    "Quadratic",
    "RPFData",
    "RunConfig",
    "SubdiffSet",
    "approximating_potential",
    "biconjugate",
    "discrete_lft",
    "entropy_of_gibbs",
    "entropy_rate",
    "expectation",
    "growth_radius",
    "linear_pressure",
    "normalization_residual",
    "p_flat_of",
    "p_nl",
    "rpf_solve",
    "solve_flat",
    "solve_game",
    "solve_sharp",
]
