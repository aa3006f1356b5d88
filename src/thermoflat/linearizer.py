"""Max-min solver for the linearized nonlinear pressure and its game.

The nonlinear pressure sup over measures of entropy - g_minus(tau_minus) +
g_plus(tau_plus) is computed as a max-min over tilt coefficients: the outer
sup runs over y_plus via multistart + local refinement, the inner inf over
y_minus is convex and handled by golden-section / coordinate descent.
Optimizers are tied back to Gibbs measures through the self-consistency
residuals x_pm in subdiff(g_pm, tau_pm(mu)).
"""

import dataclasses
import math

import numpy as np
from scipy.optimize import minimize

from .config import RunConfig
from .convex import INFINITY, DualPoint, growth_radius
from .measures import CylinderPotential, entropy_rate, expectation
from .ruelle import _log_sum_exp, _log_transfer, build_transfer, perron, rpf_solve


class ModelSpec:
    """A nonlinear model: alphabet, tilt potentials and convex couplings."""

    def __init__(
        self,
        alphabet,
        plus_potentials=(),
        minus_potentials=(),
        g_plus=None,
        g_minus=None,
        label="",
    ):
        self.alphabet = alphabet
        self.plus_potentials = list(plus_potentials)
        self.minus_potentials = list(minus_potentials)
        self.g_plus = g_plus
        self.g_minus = g_minus
        self.label = label
        if g_plus is None and g_minus is None:
            raise ValueError("at least one convex coupling must be present")
        if g_plus is not None and len(self.plus_potentials) != g_plus.dim:
            raise ValueError("g_plus dimension must match the number of potentials")
        if g_minus is not None and len(self.minus_potentials) != g_minus.dim:
            raise ValueError("g_minus dimension must match the number of potentials")
        for phi in self.plus_potentials + self.minus_potentials:
            if phi.alphabet != alphabet:
                raise ValueError("all potentials must share the model alphabet")
        self._fast = None

    @property
    def n_plus(self):
        return len(self.plus_potentials)

    @property
    def n_minus(self):
        return len(self.minus_potentials)

    def tau_plus(self, mu):
        return np.array([expectation(mu, p) for p in self.plus_potentials])

    def tau_minus(self, mu):
        return np.array([expectation(mu, p) for p in self.minus_potentials])

    def tau_plus_norm(self):
        return math.sqrt(sum(p.sup_norm**2 for p in self.plus_potentials))

    def tau_minus_norm(self):
        return math.sqrt(sum(p.sup_norm**2 for p in self.minus_potentials))

    def _fast_data(self):
        """Cached log weights and stacked padded tables for tilt sweeps."""
        if self._fast is not None:
            return self._fast
        k = self.alphabet.k
        memory = max(
            [p.memory for p in self.plus_potentials + self.minus_potentials],
            default=1,
        )
        size = k**memory

        def stack(pots):
            if not pots:
                return np.zeros((0, size))
            return np.stack([p.padded(memory).table.ravel() for p in pots])

        self._fast = {
            "memory": memory,
            "log_w": np.log(self.alphabet.weights),
            "plus": stack(self.plus_potentials),
            "minus": stack(self.minus_potentials),
        }
        return self._fast

    def linear_pressure_tilted(self, y_plus, y_minus):
        """P_L(Theta) without building potential objects."""
        fast = self._fast_data()
        tbl = np.zeros(fast["plus"].shape[1] or fast["minus"].shape[1])
        if len(y_plus):
            tbl = tbl + y_plus @ fast["plus"]
        if len(y_minus):
            tbl = tbl - y_minus @ fast["minus"]
        if fast["memory"] == 1:
            return _log_sum_exp(fast["log_w"] + tbl)
        try:
            return perron(_log_transfer(fast["log_w"], tbl, fast["memory"]))[0]
        except ArithmeticError as exc:
            raise ArithmeticError(
                f"linear_pressure_tilted at y+ = {np.asarray(y_plus).tolist()}, "
                f"y- = {np.asarray(y_minus).tolist()}: {exc}"
            ) from exc

    def direct_pressure_of(self, mu):
        """P(mu) = entropy - g_minus(tau_minus) + g_plus(tau_plus)."""
        value = entropy_rate(mu)
        if self.g_minus is not None:
            value -= self.g_minus.value(self.tau_minus(mu))
        if self.g_plus is not None:
            value += self.g_plus.value(self.tau_plus(mu))
        return value


@dataclasses.dataclass
class EquilibriumRecord:
    x_plus: tuple
    x_minus: tuple
    measure: object
    residual_plus: float
    residual_minus: float
    p_value: float


@dataclasses.dataclass
class GameSolution:
    p_flat: float | None = None
    p_sharp: float | None = None
    m_flat: list = dataclasses.field(default_factory=list)
    m_flat_of: dict = dataclasses.field(default_factory=dict)
    m_sharp: list = dataclasses.field(default_factory=list)
    m_sharp_of: dict = dataclasses.field(default_factory=dict)
    equilibria: list = dataclasses.field(default_factory=list)
    gap: float | None = None
    growth_radii: tuple = (None, None)
    diagnostics: dict = dataclasses.field(default_factory=dict)


# -- elementary pieces -------------------------------------------------------


def approximating_potential(model, y_plus, y_minus):
    """Theta = sum_i y+_i phi+_i - sum_j y-_j phi-_j, padded to common memory."""
    y_plus = np.atleast_1d(np.asarray(y_plus, dtype=float))
    y_minus = np.atleast_1d(np.asarray(y_minus, dtype=float))
    if len(y_plus) != model.n_plus or len(y_minus) != model.n_minus:
        raise ValueError("tilt coefficient dimension mismatch")
    memory = max(
        [p.memory for p in model.plus_potentials + model.minus_potentials],
        default=1,
    )
    theta = CylinderPotential.zero(model.alphabet, memory)
    for c, p in zip(y_plus, model.plus_potentials):
        theta = theta + float(c) * p
    for c, p in zip(y_minus, model.minus_potentials):
        theta = theta + float(-c) * p
    return theta


def p_nl(model, y_plus, y_minus):
    """P_NL = P_L(Theta) + g-*(y-) - g+*(y+); +inf outside dom(g-*)."""
    y_plus = np.atleast_1d(np.asarray(y_plus, dtype=float))
    y_minus = np.atleast_1d(np.asarray(y_minus, dtype=float))
    if len(y_plus) != model.n_plus or len(y_minus) != model.n_minus:
        raise ValueError("tilt coefficient dimension mismatch")
    value = model.linear_pressure_tilted(y_plus, y_minus)
    if model.g_minus is not None:
        c = model.g_minus.conjugate(y_minus)
        if c == INFINITY:
            return INFINITY
        value += c
    if model.g_plus is not None:
        value -= model.g_plus.conjugate(y_plus)
    return value


def _golden_min(f, a, b, tol=1e-11):
    """Golden-section minimum of a unimodal f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _cluster(points, values, radius, window):
    """Merge nearby optimizers: coordinate radius + value window of the best."""
    order = np.argsort(values)[::-1]
    best = values[order[0]]
    kept = []
    for i in order:
        if values[i] < best - window:
            break
        p = points[i]
        if all(np.linalg.norm(p - q) > radius for q in kept):
            kept.append(p)
    kept.sort(key=lambda p: tuple(p))
    return kept


def _minimize_convex_box(f, radius, dim, scan=33, tol=1e-11):
    """Minimize a convex function over the box [-radius, radius]^dim.

    Golden section per axis (cyclic coordinate descent for dim 2); returns
    (value, list of minimizers) with flat regions reported via the scan.
    """
    if dim == 1:
        grid = np.linspace(-radius, radius, scan)
        vals = np.array([f(np.array([t])) for t in grid])
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        x, v = _golden_min(lambda t: f(np.array([t])), lo, hi, tol)
        minimizers = [np.array([x])]
        # detect flat stretches (non-strictly-convex conjugates)
        flat = np.where(vals <= v + 1e-9)[0]
        for j in flat:
            if abs(grid[j] - x) > 1e-4:
                xj, vj = _golden_min(
                    lambda t: f(np.array([t])),
                    grid[max(j - 1, 0)],
                    grid[min(j + 1, len(grid) - 1)],
                    tol,
                )
                if vj <= v + 1e-9:
                    minimizers.append(np.array([xj]))
        return v, minimizers
    # dim == 2: coarse scan then cyclic coordinate descent
    grid = np.linspace(-radius, radius, 9)
    best_x, best_v = None, INFINITY
    for a in grid:
        for b in grid:
            v = f(np.array([a, b]))
            if v < best_v:
                best_v, best_x = v, np.array([a, b])
    x = best_x.copy()
    for _ in range(60):
        moved = 0.0
        for axis in range(2):

            def line(t, axis=axis):
                y = x.copy()
                y[axis] = t
                return f(y)

            t, _ = _golden_min(line, -radius, radius, tol)
            moved = max(moved, abs(t - x[axis]))
            x[axis] = t
        if moved < 1e-10:
            break
    return f(x), [x]


# -- one-sided problems -------------------------------------------------------


def minus_radius(model, config=None):
    cert = growth_radius(model.g_minus, model.tau_minus_norm())
    if config is not None and config.radius_minus is not None:
        return config.radius_minus, cert
    return cert.safe_radius, cert


def plus_radius(model, config=None):
    cert = growth_radius(model.g_plus, model.tau_plus_norm())
    if config is not None and config.radius_plus is not None:
        return config.radius_plus, cert
    return cert.safe_radius, cert


def p_flat_of(model, y_plus, radius=None, config=None):
    """P_flat(y+) = inf over y- of P_NL(y+, y-), with the minimizer set."""
    y_plus = np.atleast_1d(np.asarray(y_plus, dtype=float))
    if model.g_minus is None:
        return p_nl(model, y_plus, np.zeros(0)), []
    if radius is None:
        radius, _ = minus_radius(model, config)
    cfg = config or RunConfig()

    def objective(y_minus):
        return p_nl(model, y_plus, y_minus)

    value, minimizers = _minimize_convex_box(objective, radius, model.n_minus)
    pts = [np.asarray(m) for m in minimizers]
    kept = _cluster(
        pts, np.array([-0.0] * len(pts)), cfg.cluster_radius, cfg.value_window
    )
    return value, [DualPoint(p) for p in kept]


def _multistart_max(f, radius, dim, grid_points, cap):
    """Multistart maximization of f over [-radius, radius]^dim.

    Uniform grid of starts (capped), Nelder-Mead refinement clipped to the
    box; returns (points, values) arrays of all refined local optima.
    """
    axes = [np.linspace(-radius, radius, grid_points)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.stack([m.ravel() for m in mesh], axis=1)
    if len(starts) > cap:
        idx = np.linspace(0, len(starts) - 1, cap).astype(int)
        starts = starts[idx]

    def neg(y):
        y = np.clip(y, -radius, radius)
        v = f(y)
        return INFINITY if v == -INFINITY else -v

    def refine(start):
        res = minimize(
            neg,
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400},
        )
        x = np.clip(res.x, -radius, radius)
        return x, -neg(x)

    results = [refine(start) for start in starts]
    points = np.array([r[0] for r in results])
    values = np.array([r[1] for r in results])
    return points, values


def solve_flat(model, config=None, warm_starts=()):
    """Populate the max-min side: P_flat, M_flat, self-consistent equilibria."""
    cfg = config or RunConfig()
    sol = GameSolution()
    diag = sol.diagnostics
    r_minus = None
    if model.g_minus is not None:
        r_minus, cert_minus = minus_radius(model, cfg)
        diag["growth_minus"] = dataclasses.asdict(cert_minus)

    if model.g_plus is None:
        # Remark-style degenerate case: pure inf over y-.
        value, minimizers = p_flat_of(model, np.zeros(0), radius=r_minus, config=cfg)
        sol.p_flat = value
        sol.m_flat = []
        sol.m_flat_of = {(): minimizers}
        sol.growth_radii = (None, r_minus)
        _attach_equilibria(model, sol, [((), m) for m in minimizers], cfg)
        return sol

    r_plus, cert_plus = plus_radius(model, cfg)
    diag["growth_plus"] = dataclasses.asdict(cert_plus)
    sol.growth_radii = (r_plus, r_minus)

    def outer(y_plus):
        return p_flat_of(model, y_plus, radius=r_minus, config=cfg)[0]

    points, values = _multistart_max(
        outer, r_plus, model.n_plus, cfg.grid, cfg.multistart_cap
    )
    for w in warm_starts:
        w = np.atleast_1d(np.asarray(w, dtype=float))
        points = np.vstack([points, w[None, :]])
        values = np.append(values, outer(w))
    sol.p_flat = float(values.max())
    maximizers = _cluster(points, values, cfg.cluster_radius, cfg.value_window)
    sol.m_flat = [DualPoint(p) for p in maximizers]
    diag["n_starts"] = len(points)

    pairs = []
    for x_plus in maximizers:
        _, inner = p_flat_of(model, x_plus, radius=r_minus, config=cfg)
        sol.m_flat_of[tuple(x_plus.tolist())] = inner
        if inner:
            pairs.extend((tuple(x_plus.tolist()), m) for m in inner)
        else:
            pairs.append((tuple(x_plus.tolist()), None))
    _attach_equilibria(model, sol, pairs, cfg)
    return sol


def _attach_equilibria(model, sol, pairs, cfg):
    """Build Gibbs measures for optimizer pairs and admit self-consistent ones."""
    rejected = []
    for x_plus, x_minus in pairs:
        xp = np.array(x_plus, dtype=float)
        xm = x_minus.array if x_minus is not None else np.zeros(model.n_minus)
        theta = approximating_potential(model, xp, xm)
        rpf = rpf_solve(build_transfer(theta))
        mu = rpf.gibbs
        res_plus = 0.0
        if model.g_plus is not None:
            res_plus = model.g_plus.subdiff(model.tau_plus(mu)).distance(xp)
        res_minus = 0.0
        if model.g_minus is not None:
            res_minus = model.g_minus.subdiff(model.tau_minus(mu)).distance(xm)
        p_value = model.direct_pressure_of(mu)
        record = EquilibriumRecord(
            x_plus=tuple(xp.tolist()),
            x_minus=tuple(xm.tolist()),
            measure=mu,
            residual_plus=float(res_plus),
            residual_minus=float(res_minus),
            p_value=float(p_value),
        )
        admitted = res_plus < cfg.sc_tol and res_minus < cfg.sc_tol
        if admitted and sol.p_flat is not None:
            admitted = abs(p_value - sol.p_flat) < max(cfg.tol, 1e-6)
        if admitted:
            sol.equilibria.append(record)
        else:
            rejected.append(record)
    sol.diagnostics["rejected"] = [
        {
            "x_plus": r.x_plus,
            "x_minus": r.x_minus,
            "residual_plus": r.residual_plus,
            "residual_minus": r.residual_minus,
            "p_value": r.p_value,
        }
        for r in rejected
    ]
    if not sol.equilibria:
        raise ArithmeticError(
            "no self-consistent optimizer found; diagnostics: "
            f"{sol.diagnostics['rejected']}"
        )


def solve_sharp(model, config=None):
    """Populate the min-max side: P_sharp = inf_y- sup_y+ P_NL."""
    cfg = config or RunConfig()
    sol = GameSolution()
    if model.g_minus is None or model.g_plus is None or model.n_minus == 0:
        flat = solve_flat(model, cfg)
        flat.p_sharp = flat.p_flat
        flat.gap = 0.0
        flat.diagnostics["sharp_note"] = "one-sided model: P_sharp := P_flat"
        return flat

    r_minus, _ = minus_radius(model, cfg)
    r_plus, _ = plus_radius(model, cfg)
    sol.growth_radii = (r_plus, r_minus)

    def inner_sup(y_minus):
        def f(y_plus):
            return p_nl(model, y_plus, y_minus)

        points, values = _multistart_max(f, r_plus, model.n_plus, 9, 81)
        best = float(values.max())
        argmax = _cluster(points, values, cfg.cluster_radius, cfg.value_window)
        return best, argmax

    def outer(y_minus):
        return inner_sup(y_minus)[0]

    value, minimizers = _minimize_convex_box(
        outer, r_minus, model.n_minus, scan=17
    )
    sol.p_sharp = float(value)
    sol.m_sharp = [DualPoint(m) for m in minimizers]
    for m in minimizers:
        _, argmax = inner_sup(np.asarray(m))
        sol.m_sharp_of[tuple(np.asarray(m).tolist())] = [DualPoint(p) for p in argmax]
    return sol


def solve_game(model, config=None):
    """Both sides plus the duality gap."""
    cfg = config or RunConfig()
    flat = solve_flat(model, cfg)
    sharp = solve_sharp(model, cfg)
    flat.p_sharp = sharp.p_sharp
    flat.m_sharp = sharp.m_sharp
    flat.m_sharp_of = sharp.m_sharp_of
    flat.gap = float(flat.p_sharp - flat.p_flat)
    if flat.gap < -1e-8:
        raise ArithmeticError(f"weak duality violated: gap {flat.gap}")
    return flat


def mean_field_iterate(model, y0, damping=1.0, max_iters=500, step_tol=1e-10):
    """Damped gradient-consistency iteration; fixed points seed solve_flat.

    Requires differentiable couplings (quadratic / shifted quadratic): the
    update is y <- (1-a) y + a (grad g+(tau+(mu_y)), grad g-(tau-(mu_y))).
    Returns (trace, fixed_point_or_None, cycle_flag).
    """
    for g in (model.g_plus, model.g_minus):
        if g is not None and not hasattr(g, "gradient"):
            raise ValueError("mean-field iteration requires differentiable couplings")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    np_, nm = model.n_plus, model.n_minus
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    if y.shape != (np_ + nm,):
        raise ValueError("y0 must stack (y_plus, y_minus)")
    trace = [y.copy()]
    for _ in range(max_iters):
        theta = approximating_potential(model, y[:np_], y[np_:])
        mu = rpf_solve(build_transfer(theta)).gibbs
        target = np.concatenate(
            [
                model.g_plus.gradient(model.tau_plus(mu)) if np_ else np.zeros(0),
                model.g_minus.gradient(model.tau_minus(mu)) if nm else np.zeros(0),
            ]
        )
        new = (1.0 - damping) * y + damping * target
        trace.append(new.copy())
        if np.abs(new - y).max() < step_tol:
            return trace, new, False
        # cycle detection, period <= 8
        for period in range(2, 9):
            if len(trace) > period and np.abs(trace[-1 - period] - new).max() < 1e-12:
                return trace, None, True
        y = new
    return trace, None, False


def decision_rule(model, solution, samples=5, spacing=1e-3):
    """Tabulate the inner minimizer x-(x+) over M_flat and a neighborhood.

    Requires a strictly convex conjugate on the minus side (quadratic) so
    each M_flat(x+) is a singleton; raises on a multivalued rule.
    """
    if model.g_minus is None:
        return {
            tuple(x.coords): np.zeros(0) for x in solution.m_flat
        }
    rule = {}
    r_minus, _ = minus_radius(model)
    for x_plus in solution.m_flat:
        base = x_plus.array
        offsets = np.linspace(-spacing * (samples // 2), spacing * (samples // 2), samples)
        for d in offsets:
            pt = base + d  # applied to every coordinate; small probe grid
            _, minimizers = p_flat_of(model, pt, radius=r_minus)
            if len(minimizers) != 1:
                raise ArithmeticError(
                    "multivalued inner minimizer under a strictly convex conjugate"
                )
            rule[tuple(pt.tolist())] = minimizers[0].array
    return rule
