"""Max-min solver for the linearized nonlinear pressure and its game.

The nonlinear pressure sup over measures of entropy - g_minus(tau_minus) +
g_plus(tau_plus) is computed as a max-min over tilt coefficients,

    P_flat = sup_{y+} inf_{y-} P_NL(y+, y-),
    P_NL = P_L(y+ . phi+ - y- . phi-) + g-*(y-) - g+*(y+).

The search over y+ follows the plus coupling.  A grid-sampled g+ has a
piecewise-linear conjugate, and the inf over y- of the jointly convex part
is convex in y+, so P_flat(y+) is convex on every linearity cell of g+* and
its sup over the search box is attained at a vertex of a cell cut to the
box (Rockafellar, Convex Analysis, Cor. 32.3.4).  Otherwise, the gradient
of P_L in (y+, y-) is (tau+, -tau-), the Gibbs averages of the tilted
equilibrium, and by Danskin's theorem the gradient of P_flat(y+) is tau+
at the inner minimizer minus grad g+*(y+).  One search (_local_maxima)
serves the outer sup and the inner sup over y+ of the min-max side: it
evaluates exactly those finitely many vertices (conjugate_vertices), or
else runs a projected Newton search (_newton) under box bounds from a set of
starts, on the Hessian of P_L in the tilt, the Green-Kubo covariance of the
tilted Gibbs measure (ruelle._tilted_pressure).  The convex inner inf runs
it from y- = 0 when g-* has a gradient on its domain box (quadratic, l1
norm and their linear shifts); a grid-sampled g- has a piecewise-linear
conjugate, and its inner inf is a smooth epigraph program, solved by SLSQP
and polished on the face of g-* it ends on (_epigraph_inf).

The min-max side (solve_sharp) minimizes the convex S(y-) = sup over y+ of
P_NL by a level bundle method on Danskin cuts: one HiGHS LP over the cuts
bounds P_sharp from below, full inner sups bound it from above, and the
weak-duality bound P_flat <= P_sharp stops it at once where the max-min
inner minimizer attains P_flat.  Optimizers are tied back to Gibbs measures
through the self-consistency residuals x_pm in subdiff(g_pm, tau_pm(mu)).
"""

import dataclasses
import functools
import math

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog, minimize, nnls

from .config import (ADMISSION_TOL, CLUSTER_RADIUS, MULTISTART_CAP, SC_TOL,
                     VALUE_WINDOW, RunConfig)
from .convex import INFINITY, DualPoint, growth_radius
from .measures import CylinderPotential, entropy_rate, expectation
from .ruelle import _tilted_pressure, rpf_solve, stacked_tables

# Projected-gradient targets of the inner inf and the outer sup.  The inner
# one sits below SINGLETON_TOL: an l1 coupling admits a minimizer on its kink
# only when |tau-| there is within SINGLETON_TOL of 0.  Then the Newton
# search's caps on steps and on halvings of one step.
INNER_GTOL = 1e-13
OUTER_GTOL = 1e-9
NEWTON_STEPS = 100
NEWTON_HALVINGS = 30
# SLSQP options of the epigraph inner inf for a grid g-: tight enough that
# its active pieces are those at the minimizer, which the face polish then
# reaches.  On the grid-minus test models SLSQP stopped up to 2e-3 from the
# minimizer at its default ftol of 1e-6, and up to 3e-5 at 1e-10.
SLSQP_OPTIONS = {"ftol": 1e-10}
# The level bundle of solve_sharp: it stops once its bracket on P_sharp is
# at most SHARP_GAP wide or after SHARP_MAX_ITER inner sups, and puts each
# level LEVEL of the way from the lower bound to the least model value of
# the evaluated points.  Its master LPs run at HiGHS tolerances LP_OPTIONS.
SHARP_GAP = 1e-11
SHARP_MAX_ITER = 100
LEVEL = 0.01
LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class ModelSpec:
    """A nonlinear model: alphabet, tilt potentials and convex couplings.

    `memory` is the largest potential memory (1 without potentials),
    `tables` the flat word tables of the plus, then the minus potentials
    padded to it, one row each (`signed`: the minus rows negated), and
    `log_weights` the log a priori weights; `evaluations` counts P_L calls.
    The growth certificates and search boxes are made once, on first use.
    """

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
        potentials = self.plus_potentials + self.minus_potentials
        for phi in potentials:
            if phi.alphabet != alphabet:
                raise ValueError("all potentials must share the model alphabet")
        self.memory = max([p.memory for p in potentials], default=1)
        self.tables = stacked_tables(alphabet, potentials, self.memory)
        self.log_weights = np.log(alphabet.weights)
        n = self.n_plus
        self.signed = np.vstack([self.tables[:n], -self.tables[n:]])
        self.evaluations = 0

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

    @functools.cached_property
    def growth_plus(self):
        """g+'s growth certificate (convex.growth_radius) at the joint sup
        norm of the plus potentials, a bound on |tau+|; None without g+."""
        norm = math.sqrt(sum(p.sup_norm**2 for p in self.plus_potentials))
        return None if self.g_plus is None else growth_radius(self.g_plus, norm)

    @functools.cached_property
    def growth_minus(self):
        """g-'s growth certificate, as growth_plus; None without g-."""
        norm = math.sqrt(sum(p.sup_norm**2 for p in self.minus_potentials))
        return None if self.g_minus is None else growth_radius(self.g_minus, norm)

    @functools.cached_property
    def box_plus(self):
        """(lo, hi), the search box over y+: dom(g+*) cut to [-r, r] in each
        coordinate, r the certified growth radius of g+.  Read-only, as
        every search over y+ shares it."""
        r = self.growth_plus.safe_radius
        box = np.clip(self.g_plus.conjugate_box(), -r, r)
        box.flags.writeable = False
        return tuple(box)

    @functools.cached_property
    def box_minus(self):
        """(lo, hi), the search box over y-, as box_plus."""
        r = self.growth_minus.safe_radius
        box = np.clip(self.g_minus.conjugate_box(), -r, r)
        box.flags.writeable = False
        return tuple(box)

    @property
    def growth_radii(self):
        """(r+, r-), the certified growth radii; None for an absent coupling."""
        return tuple(None if c is None else c.safe_radius
                     for c in (self.growth_plus, self.growth_minus))

    def tilt(self, y_plus, y_minus):
        """The flat word table of Theta = y+ . phi+ - y- . phi- at `memory`."""
        return np.concatenate([y_plus, -y_minus]) @ self.tables

    def linear_pressure_tilted(self, y_plus, y_minus, hessian=False):
        """(P_L(Theta), tau+, tau-) of Theta = tilt(y+, y-), without
        building potential objects, and with hessian=True the Hessian of P_L.

        tau+ and tau- are the averages of the plus and minus potentials
        under the Gibbs measure of Theta (ruelle._tilted_pressure), so
        (tau+, -tau-), the averages of the signed rows, is the gradient of
        P_L in (y+, y-), and their covariance its Hessian.
        """
        self.evaluations += 1
        try:
            value, tau, *cov = _tilted_pressure(
                self.log_weights, self.tilt(y_plus, y_minus), self.signed,
                self.memory, hessian,
            )
        except ArithmeticError as exc:
            raise ArithmeticError(
                f"linear_pressure_tilted at y+ = {np.asarray(y_plus).tolist()}, "
                f"y- = {np.asarray(y_minus).tolist()}: {exc}"
            ) from exc
        return value, tau[: self.n_plus], -tau[self.n_plus :], *cov

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
    """Theta = sum_i y+_i phi+_i - sum_j y-_j phi-_j as a cylinder potential
    of the model's memory: the table model.tilt(y+, y-)."""
    y_plus = np.atleast_1d(np.asarray(y_plus, dtype=float))
    y_minus = np.atleast_1d(np.asarray(y_minus, dtype=float))
    if len(y_plus) != model.n_plus or len(y_minus) != model.n_minus:
        raise ValueError("tilt coefficient dimension mismatch")
    shape = (model.alphabet.k,) * model.memory
    return CylinderPotential(model.alphabet, model.tilt(y_plus, y_minus).reshape(shape))


def p_nl(model, y_plus, y_minus, grad=False, hess=False):
    """P_NL = P_L(Theta) + g-*(y-) - g+*(y+); +inf outside dom(g-*).

    With grad=True returns (value, grad_plus, grad_minus), the gradient
    (tau+ - grad g+*(y+), -tau- + grad g-*(y-)), and hess=True adds the
    Hessian in (y+, y-) of the same terms.  A coupling without a conjugate
    gradient (a grid) adds no term to its side, which then holds the P_L
    terms alone; so does the minus side outside dom(g-*).
    """
    y_plus = np.atleast_1d(np.asarray(y_plus, dtype=float))
    y_minus = np.atleast_1d(np.asarray(y_minus, dtype=float))
    if len(y_plus) != model.n_plus or len(y_minus) != model.n_minus:
        raise ValueError("tilt coefficient dimension mismatch")
    value, grad_plus, grad_minus, *hessian = model.linear_pressure_tilted(
        y_plus, y_minus, hess
    )
    grad, n = grad or hess, model.n_plus
    grad_minus = -grad_minus
    if model.g_minus is not None:
        c = model.g_minus.conjugate(y_minus)
        if c == INFINITY:
            return (INFINITY, grad_plus, grad_minus, *hessian) if grad else INFINITY
        value += c
        if grad and model.g_minus.has_conjugate_gradient:
            grad_minus += model.g_minus.conjugate_gradient(y_minus)
            for h in hessian:
                h[n:, n:] += model.g_minus.conjugate_hessian(y_minus)
    if model.g_plus is not None:
        value -= model.g_plus.conjugate(y_plus)
        if grad and model.g_plus.has_conjugate_gradient:
            grad_plus -= model.g_plus.conjugate_gradient(y_plus)
            for h in hessian:
                h[:n, :n] -= model.g_plus.conjugate_hessian(y_plus)
    return (value, grad_plus, grad_minus, *hessian) if grad else value


def _free(x, gradient, lo, hi):
    """The coordinates the box leaves free: off its faces, or descending into it."""
    return ~(((x <= lo) & (gradient > 0)) | ((x >= hi) & (gradient < 0)))


def _modified_inverse(h):
    """The inverse of the symmetric h with each eigenvalue made positive, as
    |lambda| floored at 1e-10 max |lambda|; zero for a zero or non-finite h."""
    if not (np.isfinite(h).all() and h.any()):
        return np.zeros_like(h)
    lam, vec = np.linalg.eigh(h)
    return (vec / np.maximum(np.abs(lam), 1e-10 * np.abs(lam).max())) @ vec.T


def _newton(fun, x0, lo, hi, gtol):
    """Minimize fun over the box [lo, hi] from x0 by projected Newton steps.

    fun(x) returns (value, gradient, Hessian, *extra).  Each step is a
    modified Newton step (_modified_inverse; Nocedal & Wright, Numerical
    Optimization, 2006, sec. 3.4) on the free coordinates (_free), or the
    gradient step where the Hessian is of no use or the box cuts the step
    into an ascent.  Halvings of the step clipped to the box run until
    Armijo's test passes or, where values differ by rounding (about
    sqrt(eps) from a minimizer, while the gradient keeps its precision), the
    value is within 1e-12 (relative) with a smaller projected gradient.
    Returns (x, fun(x), steps, message) once the projected gradient is at
    most gtol, message None, or else naming why it stopped.
    """
    x = np.clip(x0, lo, hi)
    out = fun(x)
    for steps in range(NEWTON_STEPS + 1):
        free = _free(x, out[1], lo, hi)
        gradient = np.where(free, out[1], 0.0)
        norm = np.abs(gradient).max(initial=0.0)
        if norm <= gtol or steps == NEWTON_STEPS:
            break
        step = -gradient
        hess = out[2] if free.all() else out[2][np.ix_(free, free)]
        step[free] = _modified_inverse(hess) @ step[free]
        step = np.clip(x + step, lo, hi) - x
        if gradient @ step >= 0:  # no Newton step, or the box made it ascend
            step = np.clip(x - gradient, lo, hi) - x
        for _ in range(NEWTON_HALVINGS):
            trial = np.clip(x + step, lo, hi)
            new = fun(trial)
            rounding = abs(new[0] - out[0]) <= 1e-12 * max(1.0, abs(out[0]))
            pg = np.abs(new[1][_free(trial, new[1], lo, hi)]).max(initial=0.0)
            if new[0] <= out[0] + 1e-4 * (gradient @ step) or rounding and pg < norm:
                break
            step = step / 2
        else:
            return x, out, steps, f"line search failed at projected gradient {norm:.3g}"
        x, out = trial, new
    cap = f"iteration cap of {NEWTON_STEPS} steps at projected gradient {norm:.3g}"
    return x, out, steps, None if norm <= gtol else cap


# -- one-sided problems -------------------------------------------------------


def _epigraph_inf(model, y_plus, lo, hi):
    """The minimizer over the box [lo, hi] of P_L(y+, y-) + g-*(y-) for a
    piecewise-linear g-*(y) = max_i x_i.y - v_i.

    One SLSQP run solves the smooth convex epigraph program min P_L + s
    subject to s >= x_i.y- - v_i, on the exact gradient (-tau-, 1) and the
    constant constraint Jacobian.  SLSQP stops on ftol (see SLSQP_OPTIONS)
    short of the minimizer, but an admissible equilibrium needs tau- on a
    grid node to SINGLETON_TOL.  So its point is projected onto the face
    where the pieces with positive KKT multipliers are equal, and, unless
    that face is one vertex, _newton polishes P_L + x_a.y - v_a along it,
    in a null-space basis B of the differences of its nodes, on the Hessian
    B^T H-- B.  That point is kept, with B, if it stays in the box and on
    the face; otherwise SLSQP's is.  A nonzero SLSQP status is no failure:
    every point of the box bounds the inf from above.
    """
    x, v = model.g_minus.conjugate_pieces()
    n = model.n_minus

    def epigraph(z):
        value, _, tau_minus = model.linear_pressure_tilted(y_plus, z[:n])
        return value + z[n], np.append(-tau_minus, 1.0)

    # s - x_i.y + v_i >= 0
    jacobian = np.column_stack([-x, np.ones(len(v))])
    y = np.clip(np.zeros(n), lo, hi)
    res = minimize(
        epigraph,
        np.append(y, (x @ y - v).max()),
        jac=True,
        method="SLSQP",
        bounds=list(zip(lo, hi)) + [(None, None)],
        constraints={"type": "ineq", "fun": lambda z: jacobian @ z + v,
                     "jac": lambda z: jacobian},
        options=SLSQP_OPTIONS,
    )
    y = np.clip(res.x[:n], lo, hi)
    # stationarity in the free s makes the multipliers sum to 1
    a, *others = np.flatnonzero(res.multipliers > 0)
    rows, rhs = x[others] - x[a], v[others] - v[a]
    point = y - np.linalg.pinv(rows) @ (rows @ y - rhs)
    basis = null_space(rows)
    if basis.shape[1]:

        def along(t):
            face = point + basis @ t
            value, _, tau_minus, h = model.linear_pressure_tilted(y_plus, face, True)
            return (value + x[a] @ face - v[a], basis.T @ (x[a] - tau_minus),
                    basis.T @ h[-n:, -n:] @ basis)

        free = np.full(basis.shape[1], np.inf)
        t, *_ = _newton(along, np.zeros(len(free)), -free, free, INNER_GTOL)
        point = point + basis @ t
    level = x[a] @ point - v[a]
    on_face = (x @ point - v).max() <= level + 1e-12 * max(1.0, abs(level))
    return (point if on_face and np.all((lo <= point) & (point <= hi)) else y), basis


def p_flat_of(model, y_plus, grad=False, hess=False):
    """P_flat(y+) = inf over y- of P_NL(y+, y-), with its one minimizer.

    The inf runs over the model's search box over y- (ModelSpec.box_minus,
    certified once per model).  A grid g-* takes _epigraph_inf; otherwise
    _newton finds the root of the gradient -tau- + grad g-*(y-) from y- = 0
    moved into the box.  With grad=True it also returns the plus gradient of P_NL
    at the minimizer (see p_nl): tau+ - grad g+*(y+), by Danskin the
    gradient of P_flat, or tau+ alone for a grid g+.  hess=True adds its
    Hessian H++ - H+- B (B^T H-- B)^-1 B^T H-+ from P_NL's Hessian H, B a
    basis of the free coordinates (_free) or grid face of the minimizer.
    """
    y_plus = np.atleast_1d(np.asarray(y_plus, dtype=float))
    n, minimizers, basis = len(y_plus), [], np.zeros((0, 0))
    if model.g_minus is None:
        value, grad_plus, _, h = p_nl(model, y_plus, np.zeros(0), True, True)
    else:
        lo, hi = model.box_minus
        if model.g_minus.conjugate_pieces() is not None:
            y_minus, basis = _epigraph_inf(model, y_plus, lo, hi)
            value, grad_plus, _, h = p_nl(model, y_plus, y_minus, True, True)
        else:

            def inner(y):
                value, grad_plus, grad_minus, h = p_nl(model, y_plus, y, True, True)
                return value, grad_minus, h[n:, n:], grad_plus, h

            y_minus, (value, grad_minus, _, grad_plus, h), _, _ = _newton(
                inner, np.zeros(model.n_minus), lo, hi, INNER_GTOL
            )
            basis = np.eye(model.n_minus)[:, _free(y_minus, grad_minus, lo, hi)]
        minimizers = [DualPoint(y_minus)]
    if not hess:
        return (value, minimizers, grad_plus) if grad else (value, minimizers)
    cross = h[:n, n:] @ basis
    schur = cross @ _modified_inverse(basis.T @ h[n:, n:] @ basis) @ cross.T
    return value, minimizers, grad_plus, h[:n, :n] - schur


def _start_grid(lo, hi, grid_points, cap):
    """A uniform grid of grid_points per axis over the box [lo, hi], as
    rows, thinned evenly to at most cap."""
    axes = [np.linspace(a, b, grid_points) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.stack([m.ravel() for m in mesh], axis=1)
    if len(starts) > cap:
        idx = np.linspace(0, len(starts) - 1, cap).astype(int)
        starts = starts[idx]
    return starts


def _local_maxima(f, lo, hi, vertices, starts, radius, window):
    """The distinct local maxima over the box [lo, hi] of f, which returns
    (value, gradient, Hessian, *extra).

    With vertices (the cell vertices of a piecewise-linear g+*, see the
    module docstring) f is evaluated at each of them, which is exact;
    otherwise _newton maximizes f from each start.  Returns (rows, stats):
    the rows (point, value, gradient, *extra), best first (a stable sort),
    down to window below the best, each more than radius from every better
    row, and the candidates, or the starts, total Newton steps and
    unconverged starts with their sorted messages.
    """
    if vertices is not None:
        found = [(y, *f(y)) for y in vertices]
        stats = {"candidates": len(vertices)}
    else:

        def neg(y):
            value, gradient, hess, *extra = f(y)
            return -value, -gradient, -hess, *extra

        results = [_newton(neg, start, lo, hi, OUTER_GTOL) for start in starts]
        found = [(x, -out[0], -out[1], *out[2:]) for x, out, _, _ in results]
        failed = sorted(message for *_, message in results if message is not None)
        stats = {
            "starts": len(starts),
            "iterations": sum(steps for _, _, steps, _ in results),
            "unconverged": len(failed),
            "unconverged_messages": failed,
        }
    found = [row[:3] + row[4:] for row in found]  # without the Hessians
    found.sort(key=lambda row: -row[1])
    rows = []
    for row in found:
        if row[1] < found[0][1] - window:
            break
        if all(np.linalg.norm(row[0] - kept[0]) > radius for kept in rows):
            rows.append(row)
    return rows, stats


def solve_flat(model, config=None):
    """Populate the max-min side: P_flat, M_flat, self-consistent equilibria.

    The outer sup is _local_maxima of P_flat over the model's search box
    over y+ (ModelSpec.box_plus): at the cell vertices of a piecewise-linear
    g+* (see the module docstring), otherwise by the Newton search from the
    start grid (cfg.grid per axis, at most MULTISTART_CAP), which counts its
    linear-pressure evaluations.  The growth certificates that make the
    search boxes go into diagnostics, their radii into growth_radii.
    """
    cfg = config or RunConfig()
    sol = GameSolution(growth_radii=model.growth_radii)
    diag = sol.diagnostics
    if model.g_minus is not None:
        diag["growth_minus"] = dataclasses.asdict(model.growth_minus)

    if model.g_plus is None:
        # Remark-style degenerate case: pure inf over y-.
        value, minimizers = p_flat_of(model, np.zeros(0))
        sol.p_flat = value
        sol.m_flat = []
        sol.m_flat_of = {(): minimizers}
        _attach_equilibria(model, sol, [((), m) for m in minimizers])
        return sol

    diag["growth_plus"] = dataclasses.asdict(model.growth_plus)
    lo, hi = model.box_plus
    vertices = model.g_plus.conjugate_vertices(lo, hi)
    starts = None
    if vertices is None:
        starts = _start_grid(lo, hi, cfg.grid, MULTISTART_CAP)

    def outer(y_plus):
        value, inner, gradient, hess = p_flat_of(model, y_plus, True, True)
        return value, gradient, hess, inner

    before = model.evaluations
    rows, diag["search"] = _local_maxima(
        outer, lo, hi, vertices, starts, CLUSTER_RADIUS, VALUE_WINDOW
    )
    if starts is not None:
        diag["search"]["evaluations"] = model.evaluations - before
    sol.p_flat = float(rows[0][1])
    pairs = []
    for x_plus, _, _, inner in sorted(rows, key=lambda row: tuple(row[0])):
        sol.m_flat.append(DualPoint(x_plus))
        key = tuple(x_plus.tolist())
        sol.m_flat_of[key] = inner
        pairs += [(key, m) for m in inner] or [(key, None)]
    _attach_equilibria(model, sol, pairs)
    return sol


def _attach_equilibria(model, sol, pairs):
    """Build Gibbs measures for optimizer pairs and admit self-consistent ones."""
    rejected = []
    for x_plus, x_minus in pairs:
        xp = np.array(x_plus, dtype=float)
        xm = x_minus.array if x_minus is not None else np.zeros(model.n_minus)
        theta = approximating_potential(model, xp, xm)
        rpf = rpf_solve(theta)
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
        admitted = res_plus < SC_TOL and res_minus < SC_TOL
        if admitted and sol.p_flat is not None:
            admitted = abs(p_value - sol.p_flat) < ADMISSION_TOL
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


@dataclasses.dataclass
class _InnerSup:
    """One inner sup of solve_sharp: the distinct local maxima over y+ of
    P_NL(., y_minus) with their values, best first, and whether the full
    search found them."""

    y_minus: np.ndarray
    maxima: list
    values: np.ndarray
    full: bool


def _master_lp(slopes, offsets, pieces, lo, hi):
    """Min over the box [lo, hi] of the cutting-plane model
    max_j slopes_j.y + offsets_j, plus max_i x_i.y - v_i for the affine
    pieces (x, v) of a grid g-*, as one HiGHS LP in (y, t[, s]).

    Returns (lower, y): y is the LP's minimizer, and lower is the least
    value over the box of the combination of cuts (and pieces) that the
    LP's multipliers give, a lower bound on the model however loosely
    HiGHS meets its tolerances (LP weak duality).
    """
    blocks = [(slopes, offsets)]
    if pieces is not None:
        blocks.append((pieces[0], -pieces[1]))
    # block j holds the rows a.y + b <= t_j
    n, k = len(lo), len(blocks)
    epigraph = [-np.eye(k)[[j] * len(b)] for j, (_, b) in enumerate(blocks)]
    res = linprog(
        np.append(np.zeros(n), np.ones(k)),
        A_ub=np.vstack([np.hstack([a, t]) for (a, _), t in zip(blocks, epigraph)]),
        b_ub=np.concatenate([-b for _, b in blocks]),
        bounds=list(zip(lo, hi)) + [(None, None)] * k,
        method="highs",
        options=LP_OPTIONS,
    )
    if res.status != 0:
        raise ArithmeticError(
            f"solve_sharp: master LP over {len(offsets)} cuts: {res.message}"
        )
    weights = -res.ineqlin.marginals
    lower = 0.0
    for a, b in blocks:
        w, weights = np.maximum(weights[: len(b)], 0.0), weights[len(b) :]
        w = w / w.sum()
        g = w @ a
        lower += w @ b + np.minimum(g * lo, g * hi).sum()
    return float(lower), res.x[:n]


def _project(point, a, b, lo, hi):
    """Euclidean projection of point onto {y : a y <= b, lo <= y <= hi}, or
    None when that set is empty: least-distance programming by one NNLS
    (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23)."""
    n = len(point)
    eye = np.eye(n)
    a = np.vstack([a, eye, -eye])
    b = np.concatenate([b, hi, -lo])
    # with y = point + x: min |x| subject to -a x >= h = a point - b; x is
    # homogeneous in h, so h is scaled to a largest entry of 1
    h = a @ point - b
    scale = h.max()
    if scale <= 0.0:
        return point
    e = np.vstack([-a.T, h[None, :] / scale])
    u, _ = nnls(e, np.append(np.zeros(n), 1.0))
    r = e @ u
    r[-1] -= 1.0
    if r[-1] > -1e-12:
        return None
    return np.clip(point - scale * r[:n] / r[-1], lo, hi)


def solve_sharp(model, config=None, *, _flat=None):
    """Populate the min-max side: P_sharp = inf over y- of S(y-), where
    S(y-) = sup over y+ of P_NL(y+, y-).

    S is convex, a sup of the convex functions P_NL(y+, .), and by Danskin
    each local max y+ of P_NL(., y-_k) gives the cut
    P_NL(y+, y-_k) + (-tau-(y+, y-_k) + grad g-*(y-_k)).(y- - y-_k), which
    lies below S whether or not y+ is the global max.  A level bundle
    (Lemarechal, Nemirovskii & Nesterov, Math. Prog. 69, 1995) minimizes S
    over the model's search box over y- (ModelSpec.box_minus):
    - the min of the cuts over the box, one HiGHS LP, bounds P_sharp from
      below (a grid g-* stays out of the cuts and enters that LP exactly,
      as its affine pieces; an abs_sum g-* is the box);
    - the least S found by a full inner search bounds it from above;
    - the next iterate is the Euclidean projection of the evaluated point
      of least model value onto the level set {model <= lower + LEVEL *
      (that value - lower)}.
    It stops when upper - lower <= SHARP_GAP, when the master LP resolves
    no narrower bracket, or after SHARP_MAX_ITER inner sups (then with one
    full search at the best point if none has run).  Each inner sup over y+
    is the _local_maxima search that solve_flat runs, over the same box,
    without its value window: it evaluates the cell vertices of a grid g+*,
    which is exact.  Otherwise the Newton search runs from warm starts (the
    local maxima the previous inner sup found, or at first the max-min
    maximizers), and, where a point is to bound P_sharp from above, also
    from a start grid of 9 points per axis, at most 81 starts.  The bracket
    is rigorous as far as those full searches find the global max.

    solve_game passes its max-min solution as _flat: the first iterates are
    then its inner minimizers x-*, and P_flat bounds P_sharp from below
    (weak duality), so S(x-*) <= P_flat + SHARP_GAP stops the search there.
    Otherwise the first iterate is y- = 0 moved into the box.
    diagnostics["sharp"] gives the bracket (lower, upper), the inner sups
    (iterations), the full_inner_sups, their linear-pressure evaluations,
    the cuts and why it stopped
    ("bracket", "weak_duality", "lp_resolution" when the master LP resolves
    no narrower bracket, or "iteration_cap").
    """
    cfg = config or RunConfig()
    if model.g_minus is None or model.g_plus is None or model.n_minus == 0:
        flat = solve_flat(model, cfg) if _flat is None else _flat
        flat.p_sharp = flat.p_flat
        flat.gap = 0.0
        flat.diagnostics["sharp_note"] = "one-sided model: P_sharp := P_flat"
        return flat

    sol = GameSolution(growth_radii=model.growth_radii)
    lo_plus, hi_plus = model.box_plus
    vertices = model.g_plus.conjugate_vertices(lo_plus, hi_plus)
    grid_starts = list(_start_grid(lo_plus, hi_plus, 9, 81))
    lo, hi = model.box_minus
    pieces = model.g_minus.conjugate_pieces()
    flat_starts = [] if _flat is None else [x.array for x in _flat.m_flat]
    slopes, offsets = np.zeros((0, model.n_minus)), np.zeros(0)
    points = []  # one _InnerSup per point of the y- box, in order
    counts = {"iterations": 0, "full_inner_sups": 0}
    before = model.evaluations

    def inner_sup(y_minus, full):
        """The local maxima of P_NL(., y-); their cuts join the model."""
        nonlocal slopes, offsets
        warm = points[-1].maxima if points else flat_starts
        full = full or vertices is not None or not warm
        counts["iterations"] += 1
        counts["full_inner_sups"] += full
        def plus_side(y_plus):
            value, grad_plus, grad_minus, h = p_nl(model, y_plus, y_minus, True, True)
            return value, grad_plus, h[: len(y_plus), : len(y_plus)], grad_minus

        # every distinct local max gives a cut, so no value window
        kept, _ = _local_maxima(
            plus_side, lo_plus, hi_plus, vertices,
            warm + (grid_starts if full else []), CLUSTER_RADIUS, INFINITY,
        )
        values = np.array([k[1] for k in kept])
        new_slopes = np.array([k[3] for k in kept])
        at_cut = values
        if pieces is not None:
            at_cut = values - model.g_minus.conjugate(y_minus)
        slopes = np.vstack([slopes, new_slopes])
        offsets = np.concatenate([offsets, at_cut - new_slopes @ y_minus])
        return _InnerSup(y_minus, [k[0] for k in kept], values, full)

    def model_value(ys):
        value = (ys @ slopes.T + offsets).max(axis=1)
        if pieces is not None:
            value = value + model.g_minus.conjugate_many(ys)
        return value

    first = []
    if _flat is not None:
        first = [m.array for ms in _flat.m_flat_of.values() for m in ms]
    for y in np.unique(np.clip(first or [np.zeros(model.n_minus)], lo, hi), axis=0):
        points.append(inner_sup(y, full=False))
    p_flat = -INFINITY if _flat is None else _flat.p_flat
    while True:
        lp_lower, lp_point = _master_lp(slopes, offsets, pieces, lo, hi)
        lower = max(lp_lower, p_flat)
        upper = min([p.values[0] for p in points if p.full], default=INFINITY)
        if upper - lower <= SHARP_GAP:
            stop = "weak_duality" if p_flat >= lp_lower else "bracket"
            break
        capped = counts["iterations"] >= SHARP_MAX_ITER
        if capped and upper < INFINITY:
            stop = "iteration_cap"
            break
        estimates = model_value(np.array([p.y_minus for p in points]))
        best = int(np.argmin(estimates))
        # no point of the box has a model value below lower, and the LP's
        # minimizer has one of at most floor, so the level set is not empty
        floor = model_value(lp_point[None, :])[0]
        if capped or estimates[best] <= max(lower + SHARP_GAP, floor):
            if points[best].full:
                stop = "lp_resolution"
                break
            # only a full search lets the point bound P_sharp from above
            points[best] = inner_sup(points[best].y_minus, full=True)
            continue
        level = max(lower + LEVEL * (estimates[best] - lower), floor)
        if pieces is None:
            a, b = slopes, level - offsets
        else:
            x, v = pieces
            a = (slopes[:, None, :] + x[None, :, :]).reshape(-1, model.n_minus)
            b = (level - offsets[:, None] + v[None, :]).ravel()
        y = _project(points[best].y_minus, a, b, lo, hi)
        points.append(inner_sup(lp_point if y is None else y, full=False))

    sol.p_sharp = float(upper)
    for p in sorted(points, key=lambda p: tuple(p.y_minus)):
        if not p.full or p.values[0] > upper + VALUE_WINDOW:
            continue
        near = [np.linalg.norm(p.y_minus - m.array) for m in sol.m_sharp]
        if min(near, default=INFINITY) <= CLUSTER_RADIUS:
            continue
        least = p.values[0] - VALUE_WINDOW
        argmax = [DualPoint(x) for x, v in zip(p.maxima, p.values) if v >= least]
        argmax.sort(key=lambda x: x.coords)
        sol.m_sharp.append(DualPoint(p.y_minus))
        sol.m_sharp_of[tuple(p.y_minus.tolist())] = argmax
    sol.diagnostics["sharp"] = {
        "lower": float(lower),
        "upper": float(upper),
        **counts,
        "evaluations": model.evaluations - before,
        "cuts": len(offsets),
        "stop": stop,
    }
    return sol


def solve_game(model, config=None):
    """Both sides plus the duality gap; the sharp side starts from the flat
    solution (see solve_sharp)."""
    cfg = config or RunConfig()
    flat = solve_flat(model, cfg)
    sharp = solve_sharp(model, cfg, _flat=flat)
    flat.p_sharp = sharp.p_sharp
    flat.m_sharp = sharp.m_sharp
    flat.m_sharp_of = sharp.m_sharp_of
    if "sharp" in sharp.diagnostics:
        flat.diagnostics["sharp"] = sharp.diagnostics["sharp"]
    flat.gap = float(flat.p_sharp - flat.p_flat)
    if flat.gap < -1e-8:
        raise ArithmeticError(f"weak duality violated: gap {flat.gap}")
    return flat


def mean_field_iterate(model, y0, damping=1.0, max_iters=500, step_tol=1e-10):
    """Damped gradient-consistency iteration; fixed points seed solve_flat.

    Requires differentiable couplings (quadratic / shifted quadratic, see
    ConvexSpec.has_gradient): the update is
    y <- (1-a) y + a (grad g+(tau+(mu_y)), grad g-(tau-(mu_y))).
    Returns (trace, fixed_point_or_None, cycle_flag).
    """
    for g in (model.g_plus, model.g_minus):
        if g is not None and not g.has_gradient:
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
        mu = rpf_solve(theta).gibbs
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
    """Tabulate the inner minimizer x-(x+) that p_flat_of returns over M_flat
    and a neighborhood, in the model's search box over y-: samples points
    spacing apart, each shifting every coordinate of x+ by the same offset.  Where the
    inner inf has several minimizers (a conjugate that is not strictly
    convex), it is one of them.
    """
    if model.g_minus is None:
        return {tuple(x.coords): np.zeros(0) for x in solution.m_flat}
    rule = {}
    offsets = np.linspace(-spacing * (samples // 2), spacing * (samples // 2), samples)
    for x_plus in solution.m_flat:
        for d in offsets:
            pt = x_plus.array + d
            (x_minus,) = p_flat_of(model, pt)[1]
            rule[tuple(pt.tolist())] = x_minus.array
    return rule
