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
the same search when g-* has a gradient on its domain box (quadratic, l1
norm and their linear shifts); a grid-sampled g- has a piecewise-linear
conjugate, and its inner inf is a smooth epigraph program, solved by SLSQP
and polished on the face of g-* it ends on (_epigraph_inf).

Every search runs on stacks of tilts.  The pressure layer (p_nl,
ModelSpec.linear_pressure_tilted, ruelle._tilted_pressure) prices a stack
in one call, at memory 1 by one broadcast logsumexp.  _newton advances all
starts in lockstep: each round prices the next trial point of every start
still searching in one stacked call, and each start keeps its own steps,
halvings and stop message.  The outer search over y+ solves the inner infs
of all its points in one inner lockstep search, in which each outer start
begins from the inner minimizer of its own last point (the first from
y- = 0).

The min-max side (solve_sharp) minimizes the convex S(y-) = sup over y+ of
P_NL by a level bundle method on Danskin cuts.  One HiGHS LP over the cuts
bounds P_sharp from below, by weak duality on its multipliers; it is one
model for the whole solve, each new cut joins it as a row and its dual
simplex restarts from the last basis, and it runs again only when a new
cut rises above the cut model at its last minimizer.  Full inner sups
bound P_sharp from above,
and the weak-duality bound P_flat <= P_sharp stops it at once where the
max-min inner minimizer attains P_flat.  Optimizers are tied back to Gibbs
measures through the self-consistency residuals x_pm in subdiff(g_pm,
tau_pm(mu)).  The same condition bounds every search: each Gibbs average
lies in the range box T of its potentials, so every optimizer, and every
inner minimizer and inner maximizer, lies in the hull of subdiff g(T) on
its side, and each side searches the certified growth box cut to that hull
(ModelSpec.box_plus, box_minus).
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import scipy

from .config import (ADMISSION_TOL, CLUSTER_RADIUS, MULTISTART_CAP, SC_TOL,
                     VALUE_WINDOW, RunConfig)
from .convex import INFINITY, DualPoint, growth_radius
from .measures import CylinderPotential, entropy_rate
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
# the evaluated points.  Its master LP is one HiGHS model per solve at the
# tolerances LP_OPTIONS: each new cut is added as a row and the dual simplex
# warm-starts from the last basis, and the lower bound is taken from the
# row multipliers by weak duality, never from HiGHS's objective value.
# SHARP_GAP lies below those feasibility tolerances (1e-10), so the lower
# bound can trail the cut model's value at the LP's minimizer (its floor)
# by more than SHARP_GAP (1.5e-11 seen); a point whose model value is
# within SHARP_FLOOR_RTOL * max(1, |floor|) of the floor counts as having
# reached it, so rounding cannot keep the bundle from its full search.
SHARP_GAP = 1e-11
SHARP_FLOOR_RTOL = 1e-12
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
    `log_weights` the log a priori weights; `evaluations` counts the tilts
    whose P_L linear_pressure_tilted prices, a stack counting its rows.
    The growth certificates and the search boxes, each growth box cut to
    the hull of subdiff g over the range of its potentials (_search_box),
    are made once, on first use.  A side with potentials needs a coupling.
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
        for side, g, pots in (("plus", g_plus, self.plus_potentials),
                              ("minus", g_minus, self.minus_potentials)):
            if g is None and pots:
                raise ValueError(f"{side} potentials need a g_{side} coupling")
            if g is not None and len(pots) != g.dim:
                raise ValueError(
                    f"g_{side} dimension must match the number of potentials")
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

    def averages(self, mu):
        """The averages under mu of the plus, then the minus potentials: each
        row of `tables` times mu's law of the words of length `memory`,
        summed."""
        if mu.alphabet != self.alphabet:
            raise ValueError("measure and model alphabets differ")
        return (self.tables * mu.word_probs(self.memory).ravel()).sum(axis=-1)

    def tau_plus(self, mu):
        return self.averages(mu)[: self.n_plus]

    def tau_minus(self, mu):
        return self.averages(mu)[self.n_plus :]

    @functools.cached_property
    def growth_plus(self):
        """g+'s growth certificate (convex.growth_radius) at the joint sup
        norm of the plus potentials, a bound on |tau+|; None without g+."""
        return _growth("plus", self.g_plus, self.plus_potentials)

    @functools.cached_property
    def growth_minus(self):
        """g-'s growth certificate, as growth_plus; None without g-."""
        return _growth("minus", self.g_minus, self.minus_potentials)

    def _search_box(self, g, certificate, tables):
        """dom(g*) cut to [-r, r] in each coordinate, r the certified growth
        radius, and then to the hull of subdiff g over the range box T of
        the potentials' tables (ConvexSpec.subdiff_hull).  Every optimizer
        on that side lies in that hull: it is tied to a Gibbs average in T
        by the self-consistency condition y in subdiff g(tau) (Rockafellar,
        Convex Analysis, Thm 23.5).  An axis where the hull is None, has
        zero width or misses the growth box keeps the growth box.  Read-only,
        as every search over that side shares it."""
        r = certificate.safe_radius
        lo, hi = np.clip(g.conjugate_box(), -r, r)
        hull = g.subdiff_hull(tables.min(axis=1), tables.max(axis=1))
        if hull is not None:
            cut_lo, cut_hi = np.maximum(lo, hull[0]), np.minimum(hi, hull[1])
            cut = (hull[0] < hull[1]) & (cut_lo < cut_hi)
            lo, hi = np.where(cut, cut_lo, lo), np.where(cut, cut_hi, hi)
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    @functools.cached_property
    def box_plus(self):
        """(lo, hi), the search box over y+ (_search_box of g+ on the plus
        potentials)."""
        return self._search_box(self.g_plus, self.growth_plus,
                                self.tables[: self.n_plus])

    @functools.cached_property
    def box_minus(self):
        """(lo, hi), the search box over y-, as box_plus."""
        return self._search_box(self.g_minus, self.growth_minus,
                                self.tables[self.n_plus :])

    @property
    def growth_radii(self):
        """(r+, r-), the certified growth radii; None for an absent coupling."""
        return tuple(None if c is None else c.safe_radius
                     for c in (self.growth_plus, self.growth_minus))

    def tilt(self, y_plus, y_minus):
        """The flat word table of Theta = y+ . phi+ - y- . phi- at `memory`,
        or one per row for stacks of y+ and y-."""
        y = np.concatenate([y_plus, -y_minus], axis=-1)
        return (y[..., None, :] @ self.tables)[..., 0, :]

    def linear_pressure_tilted(self, y_plus, y_minus, hessian=False):
        """(P_L(Theta), tau+, tau-) of Theta = tilt(y+, y-), without
        building potential objects, and with hessian=True the Hessian of P_L.

        tau+ and tau- are the averages of the plus and minus potentials
        under the Gibbs measure of Theta (ruelle._tilted_pressure), so
        (tau+, -tau-), the averages of the signed rows, is the gradient of
        P_L in (y+, y-), and their covariance its Hessian.  Stacks of y+
        and y-, one tilt per row, give each output a leading stack axis;
        an ArithmeticError names the tilt that raised it.
        """
        theta = self.tilt(y_plus, y_minus)
        self.evaluations += len(theta) if theta.ndim > 1 else 1
        try:
            value, tau, *cov = _tilted_pressure(
                self.log_weights, theta, self.signed, self.memory, hessian
            )
        except ArithmeticError as exc:
            i = getattr(exc, "row", 0)
            raise ArithmeticError(
                f"linear_pressure_tilted at y+ = {np.atleast_2d(y_plus)[i].tolist()}, "
                f"y- = {np.atleast_2d(y_minus)[i].tolist()}: {exc}"
            ) from exc
        return value, tau[..., : self.n_plus], -tau[..., self.n_plus :], *cov

    def direct_pressure_of(self, mu):
        """P(mu) = entropy - g_minus(tau_minus) + g_plus(tau_plus)."""
        value = entropy_rate(mu)
        tau, n = self.averages(mu), self.n_plus
        if self.g_minus is not None:
            value -= self.g_minus.value(tau[n:])
        if self.g_plus is not None:
            value += self.g_plus.value(tau[:n])
        return value


def _growth(side, g, potentials):
    """growth_radius of g at the joint sup norm of the potentials, or None
    without g.  Its ArithmeticError is raised again naming the side, the
    coupling and the slope, and for a grid (or a linear shift of one) each
    axis's potential range beside the grid's interval."""
    if g is None:
        return None
    norm = math.sqrt(sum(p.sup_norm**2 for p in potentials))
    try:
        return growth_radius(g, norm)
    except ArithmeticError as exc:
        base = getattr(g, "base", None)
        kind = type(g).__name__
        if base is not None:
            kind, g = f"{kind} of {type(base).__name__}", base
        text = (f"{side} coupling {kind} at slope {norm!r}, the joint sup norm "
                f"of the {side} potentials: {exc}")
        grids = getattr(g, "grids", ())
        for i, (p, x) in enumerate(zip(potentials, grids)):
            text += (f"; axis {i}: potential range [{p.table.min():.6g}, "
                     f"{p.table.max():.6g}], grid [{x[0]:.6g}, {x[-1]:.6g}]")
        raise ArithmeticError(text) from exc


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
    terms alone.  Stacks of y+ and y-, one point per row, are priced by
    one linear_pressure_tilted call, and each output gains a leading
    stack axis.
    """
    y_plus = np.asarray(y_plus, dtype=float)
    y_minus = np.asarray(y_minus, dtype=float)
    single = y_plus.ndim < 2
    if single:
        y_plus, y_minus = np.atleast_1d(y_plus)[None], np.atleast_1d(y_minus)[None]
    if (y_plus.shape[1:] != (model.n_plus,) or y_minus.shape[1:] != (model.n_minus,)
            or len(y_plus) != len(y_minus)):
        raise ValueError("tilt coefficient dimension mismatch")
    value, grad_plus, grad_minus, *hessian = model.linear_pressure_tilted(
        y_plus, y_minus, hess
    )
    grad, n = grad or hess, model.n_plus
    grad_minus = -grad_minus
    if model.g_minus is not None:
        value = value + model.g_minus.conjugate(y_minus)
        if grad and model.g_minus.has_conjugate_gradient:
            grad_minus += model.g_minus.conjugate_gradient(y_minus)
            for h in hessian:
                h[:, n:, n:] += model.g_minus.conjugate_hessian(y_minus)
    if model.g_plus is not None:
        conjugate = model.g_plus.conjugate(y_plus)
        if model.g_minus is not None:  # a row outside dom(g-*) stays at +inf
            conjugate = np.where(value < INFINITY, conjugate, 0.0)
        value = value - conjugate
        if grad and model.g_plus.has_conjugate_gradient:
            grad_plus -= model.g_plus.conjugate_gradient(y_plus)
            for h in hessian:
                h[:, :n, :n] -= model.g_plus.conjugate_hessian(y_plus)
    if single:
        value = float(value[0])
        grad_plus, grad_minus, *hessian = (a[0] for a in (grad_plus, grad_minus,
                                                          *hessian))
    return (value, grad_plus, grad_minus, *hessian) if grad else value


def _free(x, gradient, lo, hi):
    """The coordinates the box leaves free: off its faces, or descending into it."""
    return ~(((x <= lo) & (gradient > 0)) | ((x >= hi) & (gradient < 0)))


def _modified_inverse(h):
    """The inverse of each symmetric matrix of the stack h (..., d, d) with
    each eigenvalue made positive, as |lambda| floored at 1e-10 max |lambda|;
    zero for a zero or non-finite matrix.  A 1 x 1 matrix is its eigenvalue."""
    entries = h.reshape(*h.shape[:-2], -1)
    usable = np.isfinite(entries).all(axis=-1) & entries.any(axis=-1)
    if not usable.all():
        inverse = np.zeros_like(h)
        if usable.any():
            inverse[usable] = _modified_inverse(h[usable])
        return inverse
    if h.shape[-1] == 1:
        return 1.0 / np.abs(h)
    lam, vec = np.linalg.eigh(h)
    lam = np.abs(lam)
    lam = np.maximum(lam, 1e-10 * lam.max(axis=-1, keepdims=True))
    return (vec / lam[..., None, :]) @ np.swapaxes(vec, -1, -2)


def _blocks(free):
    """(rows, cols) for each distinct row of the boolean matrix free: the
    rows equal to it (a full slice for all of them) and its True columns."""
    if free.all():
        yield slice(None), np.arange(free.shape[1])
        return
    codes = free @ (1 << np.arange(free.shape[1]))
    for code in np.unique(codes):
        rows = np.flatnonzero(codes == code)
        yield rows, np.flatnonzero(free[rows[0]])


def _dot(a, b):
    """The dot product of each row of a with that row of b."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _clip(x, lo, hi):
    """np.clip(x, lo, hi) without its argument handling, which costs more
    than the clip itself on the small arrays of a search."""
    return np.minimum(np.maximum(x, lo), hi)


def _newton_steps(h, gradient, free):
    """The modified Newton step of each row: -M gradient on the row's free
    coordinates, M the _modified_inverse of its free block of h, and
    -gradient (zero) elsewhere."""
    if free.all():
        return (_modified_inverse(h) @ -gradient[..., None])[..., 0]
    step = -gradient
    for rows, cols in _blocks(free):
        block = np.ix_(rows, cols)
        inverse = _modified_inverse(h[np.ix_(rows, cols, cols)])
        step[block] = (inverse @ step[block][..., None])[..., 0]
    return step


def _newton(fun, x0, lo, hi, gtol):
    """Minimize fun over the box [lo, hi] from each row of x0 by projected
    Newton steps, all rows in lockstep.

    fun(x, rows) returns (value, gradient, Hessian, *extra) at the points x
    of the rows `rows` of x0, each output with a leading axis over them.
    Each step is a modified Newton step (_newton_steps; Nocedal & Wright,
    Numerical Optimization, 2006, sec. 3.4) on the row's free coordinates
    (_free), or the gradient step where the Hessian is of no use or the box
    cuts the step into an ascent.  Halvings of the step clipped to the box
    run until Armijo's test passes or, where values differ by rounding
    (about sqrt(eps) from a minimizer, while the gradient keeps its
    precision), the value is within 1e-12 (relative) with a smaller
    projected gradient.  Each round makes one fun call, in which every row
    still searching prices its next trial point, a new step or a halving;
    so each row takes exactly the steps it would take alone.  Returns (x,
    out, steps, messages): the points, fun's outputs there (fun returns new
    arrays, which are updated in place), and per row its number of steps
    and a message, None once its projected gradient is at most gtol, or
    else naming why it stopped.  A 1-D x0 is one start: fun(x) then takes
    and returns one point, and so do the results.
    """
    if x0.ndim == 1:
        x, out, steps, messages = _newton(
            lambda x, _: [np.array(o)[None] for o in fun(x[0])],
            x0[None], lo, hi, gtol,
        )
        return x[0], tuple(o[0] for o in out), int(steps[0]), messages[0]
    count = len(x0)
    x = _clip(x0, lo, hi)
    out = list(fun(x, np.arange(count)))  # updated in place from here on
    steps, halvings = np.zeros((2, count), dtype=int)
    messages = [None] * count
    step, slope, norm = np.zeros_like(x), np.zeros(count), np.zeros(count)
    searching = np.ones(count, dtype=bool)
    moved = rows = np.arange(count)  # the rows at a new point; those searching
    every = slice(None)  # picks every row faster than their indices do
    for rounds in itertools.count():
        # each row at a new point stops there or takes a step from it
        if len(moved):
            at = every if len(moved) == count else moved
            point, g = x[at], out[1][at]
            free = _free(point, g, lo, hi)
            g = np.where(free, g, 0.0)
            size = np.abs(g).max(axis=1)
            stop = size <= gtol
            if rounds >= NEWTON_STEPS:  # no row has more steps than rounds
                stop |= steps[at] == NEWTON_STEPS
            if stop.any():
                for i, s in zip(moved[stop], size[stop]):
                    if s > gtol:
                        messages[i] = (f"iteration cap of {NEWTON_STEPS} steps at "
                                       f"projected gradient {s:.3g}")
                searching[moved[stop]] = False
                rows = np.flatnonzero(searching)
                at = moved = moved[~stop]
                point, free, g, size = point[~stop], free[~stop], g[~stop], size[~stop]
        if len(moved):
            d = _clip(point + _newton_steps(out[2][at], g, free), lo, hi) - point
            down = _dot(g, d)
            ascent = down >= 0  # no Newton step, or the box made it ascend
            if ascent.any():
                d[ascent] = _clip(point[ascent] - g[ascent], lo, hi) - point[ascent]
                down[ascent] = _dot(g[ascent], d[ascent])
            step[at], slope[at], norm[at], halvings[at] = d, down, size, 0
        if not len(rows):
            return x, out, steps, messages
        # every row still searching prices its trial point
        tried = rows
        at = every if len(tried) == count else tried
        trial = _clip(x[at] + step[at], lo, hi)
        new = fun(trial, tried)
        value = out[0][at]
        # halving a step halves its slope exactly
        accepted = new[0] <= value + 1e-4 * slope[at]
        if not accepted.all():
            rounding = np.abs(new[0] - value) <= 1e-12 * np.maximum(1.0, np.abs(value))
            if rounding.any():
                pg = np.abs(np.where(_free(trial, new[1], lo, hi), new[1], 0.0))
                accepted |= rounding & (pg.max(axis=1) < norm[at])
            rejected = tried[~accepted]
            step[rejected] /= 2
            slope[rejected] /= 2
            halvings[rejected] += 1
            failed = rejected[halvings[rejected] == NEWTON_HALVINGS]
            for i in failed:
                messages[i] = f"line search failed at projected gradient {norm[i]:.3g}"
            if len(failed):
                searching[failed] = False
                rows = np.flatnonzero(searching)
        moved = tried[accepted]
        if len(moved) == count:
            x, out = trial, list(new)
            steps += 1
        elif len(moved):
            x[moved] = trial[accepted]
            for o, n in zip(out, new):
                o[moved] = n[accepted]
            steps[moved] += 1


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
    res = scipy.optimize.minimize(
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
    basis = scipy.linalg.null_space(rows)
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


def p_flat_of(model, y_plus, grad=False, hess=False, start=None):
    """P_flat(y+) = inf over y- of P_NL(y+, y-), with its one minimizer.

    The inf runs over the model's search box over y- (ModelSpec.box_minus,
    certified once per model).  A grid g-* takes _epigraph_inf; otherwise
    _newton finds the root of the gradient -tau- + grad g-*(y-) from
    `start` (by default y- = 0) moved into the box.  With grad=True it also
    returns the plus gradient of P_NL at the minimizer (see p_nl): tau+ -
    grad g+*(y+), by Danskin the gradient of P_flat, or tau+ alone for a
    grid g+.  hess=True adds its Hessian H++ - H+- B (B^T H-- B)^-1 B^T H-+
    from P_NL's Hessian H, B a basis of the free coordinates (_free) or
    grid face of the minimizer.

    A stack of points y+, one per row (and of starts), solves every inner
    inf in one lockstep _newton, or one _epigraph_inf per row, and returns
    stacks: the values, the minimizers as rows, the gradients and the
    Hessians.
    """
    y_plus = np.asarray(y_plus, dtype=float)
    if y_plus.ndim < 2:
        if start is not None:
            start = np.atleast_1d(start)[None]
        value, y_minus, *rest = p_flat_of(model, np.atleast_1d(y_plus)[None],
                                          grad, hess, start)
        minimizers = [] if model.g_minus is None else [DualPoint(y_minus[0])]
        return float(value[0]), minimizers, *(a[0] for a in rest)
    count, n = y_plus.shape
    faces = []  # (rows, B): rows whose minimizers share the basis B
    if model.g_minus is None:
        y_minus = np.zeros((count, 0))
        value, grad_plus, _, h = p_nl(model, y_plus, y_minus, True, True)
    elif model.g_minus.conjugate_pieces() is not None:
        y_minus = np.zeros((count, model.n_minus))
        for i, y in enumerate(y_plus):
            y_minus[i], basis = _epigraph_inf(model, y, *model.box_minus)
            faces.append(([i], basis))
        value, grad_plus, _, h = p_nl(model, y_plus, y_minus, True, True)
    else:
        lo, hi = model.box_minus

        def inner(y, rows):
            value, grad_plus, grad_minus, h = p_nl(model, y_plus[rows], y, True, True)
            return value, grad_minus, h[:, n:, n:], grad_plus, h

        y_minus, (value, grad_minus, _, grad_plus, h), _, _ = _newton(
            inner, np.zeros((count, model.n_minus)) if start is None else start,
            lo, hi, INNER_GTOL,
        )
        if hess:
            eye = np.eye(model.n_minus)
            faces = [(rows, eye[:, cols])
                     for rows, cols in _blocks(_free(y_minus, grad_minus, lo, hi))]
    if not hess:
        return (value, y_minus, grad_plus) if grad else (value, y_minus)
    schur = np.zeros((count, n, n))
    for rows, basis in faces:
        cross = h[rows, :n, n:] @ basis
        inverse = _modified_inverse(basis.T @ h[rows, n:, n:] @ basis)
        schur[rows] = cross @ inverse @ np.swapaxes(cross, -1, -2)
    return value, y_minus, grad_plus, h[:, :n, :n] - schur


def _box_lists(box):
    """A search box (lo, hi) as the lists [lo, hi] of a report."""
    return [side.tolist() for side in box]


def _start_grid(lo, hi, grid_points, cap):
    """A uniform grid over the box [lo, hi], as rows, of the same number n
    of points on each of its d axes: the largest n <= grid_points with
    n**d <= cap, but at least 2, so the grid always holds the box's corners."""
    n = max(2, min(grid_points, int(cap ** (1.0 / len(lo)) + 1e-9)))
    mesh = np.meshgrid(*[np.linspace(a, b, n) for a, b in zip(lo, hi)], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _local_maxima(f, lo, hi, vertices, starts, radius, window):
    """The distinct local maxima over the box [lo, hi] of f, which takes a
    stack of points and the indices of their rows, and returns (value,
    gradient, Hessian, *extra) as stacks.

    With vertices (the cell vertices of a piecewise-linear g+*, see the
    module docstring) f is evaluated at all of them in one call, which is
    exact; otherwise one lockstep _newton maximizes f from every start.
    Returns (rows, stats): the rows (point, value, gradient, *extra), best
    first (a stable sort), down to window below the best, each more than
    radius from every better row, and the candidates, or the starts, total
    Newton steps and unconverged starts with their sorted messages.
    """
    if vertices is not None:
        points = vertices
        value, gradient, _, *extra = f(points, np.arange(len(points)))
        stats = {"candidates": len(vertices)}
    else:

        def neg(y, rows):
            value, gradient, hess, *extra = f(y, rows)
            return -value, -gradient, -hess, *extra

        points, (value, gradient, _, *extra), steps, messages = _newton(
            neg, np.array(starts, dtype=float), lo, hi, OUTER_GTOL
        )
        value, gradient = -value, -gradient
        failed = sorted(m for m in messages if m is not None)
        stats = {
            "starts": len(starts),
            "iterations": int(steps.sum()),
            "unconverged": len(failed),
            "unconverged_messages": failed,
        }
    order = np.argsort(-value, kind="stable")
    order = order[value[order] >= value[order[0]] - window]
    kept = []
    while len(order):
        # the best row left is kept, and the rows within radius of it go
        kept.append(order[0])
        order = order[np.linalg.norm(points[order] - points[order[0]], axis=1) > radius]
    rows = [(points[i], value[i], gradient[i], *(e[i] for e in extra)) for i in kept]
    return rows, stats


def solve_flat(model, config=None):
    """Populate the max-min side: P_flat, M_flat, self-consistent equilibria.

    The outer sup is _local_maxima of P_flat over the model's search box
    over y+ (ModelSpec.box_plus): at the cell vertices of a piecewise-linear
    g+* (see the module docstring), otherwise by the lockstep Newton search
    from the start grid (_start_grid: at most cfg.grid per axis and
    MULTISTART_CAP in all), which counts the tilts it prices.  Each point's
    inner search starts from the inner minimizer of its start's last point.
    The growth certificates go into diagnostics, their radii into
    growth_radii, and next to them the boxes searched (box_plus, box_minus:
    [lo, hi]), which the hulls of the subdifferentials over the range boxes
    narrow (ModelSpec._search_box).
    """
    cfg = config or RunConfig()
    sol = GameSolution(growth_radii=model.growth_radii)
    diag = sol.diagnostics
    if model.g_minus is not None:
        diag["growth_minus"] = dataclasses.asdict(model.growth_minus)
        diag["box_minus"] = _box_lists(model.box_minus)

    if model.g_plus is None:
        # Remark-style degenerate case: pure inf over y-.
        value, minimizers = p_flat_of(model, np.zeros(0))
        sol.p_flat = value
        sol.m_flat = []
        sol.m_flat_of = {(): minimizers}
        _attach_equilibria(model, sol, [((), m) for m in minimizers])
        return sol

    diag["growth_plus"] = dataclasses.asdict(model.growth_plus)
    diag["box_plus"] = _box_lists(model.box_plus)
    lo, hi = model.box_plus
    vertices = model.g_plus.conjugate_vertices(lo, hi)
    starts = None
    if vertices is None:
        starts = _start_grid(lo, hi, cfg.grid, MULTISTART_CAP)

    # the inner minimizer of each start's last point
    last = np.zeros((len(vertices if starts is None else starts), model.n_minus))

    def outer(y_plus, rows):
        value, inner, gradient, hess = p_flat_of(model, y_plus, True, True, last[rows])
        last[rows] = inner
        return value, gradient, hess, inner

    before = model.evaluations
    rows, diag["search"] = _local_maxima(
        outer, lo, hi, vertices, starts, CLUSTER_RADIUS, VALUE_WINDOW
    )
    if starts is not None:
        diag["search"]["evaluations"] = model.evaluations - before
    sol.p_flat = float(rows[0][1])
    pairs = []
    for x_plus, _, _, y_minus in sorted(rows, key=lambda row: tuple(row[0])):
        sol.m_flat.append(DualPoint(x_plus))
        key = tuple(x_plus.tolist())
        inner = [] if model.g_minus is None else [DualPoint(y_minus)]
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
        tau, n = model.averages(mu), model.n_plus
        res_plus = 0.0
        if model.g_plus is not None:
            res_plus = model.g_plus.subdiff(tau[:n]).distance(xp)
        res_minus = 0.0
        if model.g_minus is not None:
            res_minus = model.g_minus.subdiff(tau[n:]).distance(xm)
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


def _master_model(lo, hi, pieces):
    """The master LP of one solve_sharp before its first cut: a HiGHS model
    with columns (y, t[, s]), y in the box [lo, hi], the objective t [+ s]
    and, for a grid g-*, the rows x_i.y - s <= v_i of its affine pieces."""
    lp = scipy.optimize._highspy._core._Highs()
    lp.setOptionValue("output_flag", False)
    for key, value in LP_OPTIONS.items():
        lp.setOptionValue(key, value)
    n, k = len(lo), 1 if pieces is None else 2
    lp.addVars(n + k, np.append(lo, [-INFINITY] * k), np.append(hi, [INFINITY] * k))
    lp.changeColsCost(k, np.arange(n, n + k, dtype=np.int32), np.ones(k))
    if pieces is not None:
        _add_epigraph_rows(lp, pieces[0], -pieces[1], n + 1)
    return lp


def _add_epigraph_rows(lp, a, b, column):
    """Add the rows a_j.y + b_j <= (the variable at column) to lp."""
    m, n = a.shape
    index = np.tile(np.append(np.arange(n), column), m).astype(np.int32)
    values = np.hstack([a, -np.ones((m, 1))]).ravel()
    starts = np.arange(0, m * (n + 1), n + 1, dtype=np.int32)
    lp.addRows(m, np.full(m, -INFINITY), -b, m * (n + 1), starts, index, values)


def _master_lp(lp, slopes, offsets, pieces, lo, hi):
    """Min over the box [lo, hi] of the cutting-plane model
    max_j slopes_j.y + offsets_j, plus max_i x_i.y - v_i for the affine
    pieces (x, v) of a grid g-*: the cuts that lp (_master_model) does not
    hold yet join it as rows a.y + b <= t, and its dual simplex runs again
    from the last basis.

    Returns (lower, y): y is the LP's minimizer, and lower is the least
    value over the box of the combination of cuts (and pieces) that the
    LP's multipliers give, a lower bound on the model however loosely
    HiGHS meets its tolerances (LP weak duality).
    """
    # rows in model order: the pieces, then the cuts
    blocks = [] if pieces is None else [(pieces[0], -pieces[1])]
    held = lp.getNumRow() - sum(len(b) for _, b in blocks)
    blocks.append((slopes, offsets))
    _add_epigraph_rows(lp, slopes[held:], offsets[held:], len(lo))
    lp.run()
    status = lp.getModelStatus()
    if status != scipy.optimize._highspy._core.HighsModelStatus.kOptimal:
        raise ArithmeticError(
            f"solve_sharp: master LP over {len(offsets)} cuts: "
            f"{lp.modelStatusToString(status)}"
        )
    solution = lp.getSolution()
    weights = -np.array(solution.row_dual)
    lower = 0.0
    for a, b in blocks:
        w, weights = np.maximum(weights[: len(b)], 0.0), weights[len(b) :]
        w = w / w.sum()
        g = w @ a
        lower += w @ b + np.minimum(g * lo, g * hi).sum()
    return float(lower), np.array(solution.col_value[: len(lo)])


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
    u, _ = scipy.optimize.nnls(e, np.append(np.zeros(n), 1.0))
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
    - the min of the cuts over the box, a HiGHS LP, bounds P_sharp from
      below (a grid g-* stays out of the cuts and enters that LP exactly,
      as its affine pieces; an abs_sum g-* is the box).  The bound is the
      least value over the box of the combination of cuts that the LP's
      row multipliers give (weak duality), so it holds however loosely
      HiGHS meets its tolerances.  The solve keeps one HiGHS model
      (_master_model): each LP adds the cuts that arrived since the last
      one as rows, and the dual simplex starts from the last basis.  When
      no cut added since the last LP exceeds that LP's cut model at its
      minimizer, the point stays a minimizer with the same value and the
      LP's bound still holds, so the LP is not run again;
    - the least S found by a full inner search bounds it from above;
    - the next iterate is the Euclidean projection of the evaluated point
      of least model value onto the level set {model <= lower + LEVEL *
      (that value - lower)}.
    It stops when upper - lower <= SHARP_GAP, when the master LP resolves
    no narrower bracket (the point of least model value has had a full
    search and lies within SHARP_FLOOR_RTOL of the LP's floor), or after
    SHARP_MAX_ITER inner sups, then with one full search at the point of
    least model value unless it has had one, so upper is never older than
    the cut model.  Each inner sup over y+ is the _local_maxima search that
    solve_flat runs, over the same box, without its value window: it
    evaluates the cell vertices of a grid g+*, which is exact.  Otherwise
    the Newton search runs from warm starts (the local maxima the previous
    inner sup found, or at first the max-min maximizers), and, where a
    point is to bound P_sharp from above, also from a start grid of 9
    points per axis, at most 81 starts.  The bracket is rigorous as far as
    those full searches find the global max.

    solve_game passes its max-min solution as _flat: the first iterates are
    then its inner minimizers x-*, and P_flat bounds P_sharp from below
    (weak duality), so S(x-*) <= P_flat + SHARP_GAP stops the search there.
    Otherwise the first iterate is y- = 0 moved into the box.  Both boxes,
    which the hulls of the subdifferentials cut (ModelSpec._search_box), are
    reported as diagnostics box_plus and box_minus ([lo, hi]), and
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
    sol.diagnostics["box_plus"] = _box_lists(model.box_plus)
    sol.diagnostics["box_minus"] = _box_lists(model.box_minus)
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
        def plus_side(y_plus, _):
            value, grad_plus, grad_minus, h = p_nl(
                model, y_plus, np.tile(y_minus, (len(y_plus), 1)), True, True
            )
            return value, grad_plus, h[:, : model.n_plus, : model.n_plus], grad_minus

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
            value = value + model.g_minus.conjugate(ys)
        return value

    first = []
    if _flat is not None:
        first = [m.array for ms in _flat.m_flat_of.values() for m in ms]
    for y in np.unique(np.clip(first or [np.zeros(model.n_minus)], lo, hi), axis=0):
        points.append(inner_sup(y, full=False))
    p_flat = -INFINITY if _flat is None else _flat.p_flat
    lp = _master_model(lo, hi, pieces)
    solved = 0  # the cuts the last master LP saw
    closing = False  # the full search at the cap has run
    while True:
        # cuts at or below the last LP's cut model at its minimizer leave
        # that point a minimizer with the same value, and the bound the LP's
        # multipliers gave still holds: that LP need not run again
        if not solved or np.any(slopes[solved:] @ lp_point + offsets[solved:] > lp_cut):
            lp_lower, lp_point = _master_lp(lp, slopes, offsets, pieces, lo, hi)
            solved, lp_cut = len(offsets), (slopes @ lp_point + offsets).max()
        lower = max(lp_lower, p_flat)
        upper = min([p.values[0] for p in points if p.full], default=INFINITY)
        if upper - lower <= SHARP_GAP:
            stop = "weak_duality" if p_flat >= lp_lower else "bracket"
            break
        if closing:
            stop = "iteration_cap"
            break
        capped = counts["iterations"] >= SHARP_MAX_ITER
        estimates = model_value(np.array([p.y_minus for p in points]))
        best = int(np.argmin(estimates))
        # no point of the box has a model value below lower, and the LP's
        # minimizer has one of at most floor, so the level set is not empty
        floor = model_value(lp_point[None, :])[0]
        slack = SHARP_FLOOR_RTOL * max(1.0, abs(floor))
        if capped or estimates[best] <= max(lower + SHARP_GAP, floor) + slack:
            if points[best].full:
                stop = "iteration_cap" if capped else "lp_resolution"
                break
            # only a full search lets the point bound P_sharp from above;
            # at the cap it is the last one, so upper is not older than the
            # model
            closing = capped
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
