"""Shared numeric tolerances and the solver run configuration."""

import dataclasses

# Construction-time convexity / normalization checks.
CONVEXITY_TOL = 1e-12
PROB_TOL = 1e-12
STATIONARITY_TOL = 1e-10

# Interval subdifferentials: singleton detection width.
SINGLETON_TOL = 1e-12

# Growth-certificate search: doubling from R=1 with a unit margin in
# log-pressure units, at most 40 doublings.
GROWTH_START_RADIUS = 1.0
GROWTH_MARGIN = 1.0
GROWTH_MAX_DOUBLINGS = 40

# Local-maximum search over y+: at most MULTISTART_CAP starts; maxima within
# CLUSTER_RADIUS of a better one are dropped, and the outer sup keeps those
# within VALUE_WINDOW of the best.
CLUSTER_RADIUS = 1e-4
VALUE_WINDOW = 1e-8
MULTISTART_CAP = 289

# Equilibrium admission: self-consistency residuals below SC_TOL, and a
# direct pressure within ADMISSION_TOL of P_flat.
SC_TOL = 1e-6
ADMISSION_TOL = 1e-6

# Potential memory cap (state space k**(memory-1) stays desk-scale).
MEMORY_CAP = 4


@dataclasses.dataclass
class RunConfig:
    """The solver settings a caller may change; echoed into every CLI
    report."""

    grid: int = 17

    def __post_init__(self):
        if self.grid < 5:
            raise ValueError("multistart grid must have at least 5 points")
