"""Shared numeric tolerances and the solver run configuration."""

import dataclasses

# Construction-time convexity / normalization checks.
CONVEXITY_TOL = 1e-12
PROB_TOL = 1e-12
STATIONARITY_TOL = 1e-10

# Fenchel-Young equality detection.
FENCHEL_YOUNG_TOL = 1e-9

# Interval subdifferentials: singleton detection width.
SINGLETON_TOL = 1e-12

# Growth-certificate search: doubling from R=1 with a unit margin in
# log-pressure units, at most 40 doublings.
GROWTH_START_RADIUS = 1.0
GROWTH_MARGIN = 1.0
GROWTH_MAX_DOUBLINGS = 40

# Potential memory cap (state space k**(memory-1) stays desk-scale).
MEMORY_CAP = 4


@dataclasses.dataclass
class RunConfig:
    """Solver knobs; defaults are echoed into every CLI report."""

    tol: float = 1e-8
    sc_tol: float = 1e-6
    cluster_radius: float = 1e-4
    value_window: float = 1e-8
    grid: int = 17
    multistart_cap: int = 289
    seed: int = 0
    radius_plus: float | None = None
    radius_minus: float | None = None
    out: str | None = None

    def __post_init__(self):
        if self.tol <= 0 or self.sc_tol <= 0 or self.cluster_radius <= 0:
            raise ValueError("tolerances must be positive")
        if self.grid < 5:
            raise ValueError("multistart grid must have at least 5 points")

    def to_dict(self):
        return {
            "tol": self.tol,
            "sc_tol": self.sc_tol,
            "cluster_radius": self.cluster_radius,
            "value_window": self.value_window,
            "grid": self.grid,
            "multistart_cap": self.multistart_cap,
            "seed": self.seed,
            "radius_plus": self.radius_plus,
            "radius_minus": self.radius_minus,
        }
