"""Brute-force oracles for the nonlinear pressure.

Two routes to the paper's variational principle, the sup over invariant
measures of h - g-(tau-) + g+(tau+):
  * the direct search over an explicit measure family.  A memory-1 model
    attains its sup at a product measure, searched on a refined simplex
    grid, each round of which is priced in one stacked evaluation.  A
    memory-m >= 2 model attains it at a chain of order m - 1, and every
    fully supported such chain is the Gibbs measure of its own memory-m
    log-transition table (Parry & Pollicott, Asterisque 187-188, 1990), so
    the search climbs over tilts of all k^m word indicators, whose Gibbs
    averages are the chain's word law; the value returned is priced again
    from the best chain's entropy and averages;
  * the constrained-entropy route: h(z) as a Legendre transform of the
    linear pressure, and the max of g+(z+) - g-(z-) + h(z) over achievable
    averages z of the model's distinct potentials.
Both climbs are one ascent (_ascent) over the tilts of coordinate tables
whose Gibbs averages map linearly onto the model's, reduced once per call
modulo coboundaries and constants (_reduce): every start in lockstep with
one stacked Perron call per round, by the projected Newton loop that the
max-min solver runs too (thermoflat.newton), on a Gauss-Newton model that
the majorant curvature of a minus coupling's kinks (_kink_curvature)
keeps from crossing them back and forth.  At the Gibbs averages tau of a
tilt psi, h = P_L(psi) - psi . tau exactly (Legendre duality), so no dual
solve is needed, the Hessian of P_L gives the exact gradient, and every
value is that of a real Gibbs measure and cannot be overstated.  Both take
linear pressures, Gibbs averages and their covariance from
ruelle._tilted_pressure.  They share the solver's search loop but not its
objective, and import nothing of the max-min solver, so they can
arbitrate it.
"""

import itertools
import math

import numpy as np

from .convex import AbsSum, GridSampled, LinearShift
from .measures import CylinderPotential, MarkovMeasure
from .newton import _newton
from .ruelle import _tilted_pressure, _word_maps, rpf_solve, stacked_tables

# Both ascents climb from about MARKOV_STARTS tilts (_tilt_starts), then once
# more from the slope tilt of the best point, over the tilt in the box
# |psi_i| <= BKL_RADIUS, every start in lockstep: a row stops once its step
# is at most BKL_XTOL or a step it takes raises F by at most BKL_FTOL
# (relative).  The majorant curvature of a minus coupling's kink counts
# within KINK_RADIUS of it, with its gap floored at KINK_FLOOR; without the
# radius, a two-axis grid optimum 0.02 from a kink was approached by 2 % a
# step.
MARKOV_STARTS = 9
BKL_RADIUS = 60.0
BKL_XTOL = 1e-10
BKL_FTOL = 1e-15
KINK_RADIUS = 1e-3
KINK_FLOOR = 1e-8
# The product search of a memory-1 model: a simplex grid of PRODUCT_STEPS
# steps, then PRODUCT_ROUNDS refinements, each 10 times finer, each round
# priced in blocks of at most PRODUCT_BLOCK rows.
PRODUCT_STEPS = 41
PRODUCT_ROUNDS = 3
PRODUCT_BLOCK = 4096


def direct_pressure(model):
    """Sup of the direct pressure over the measure family of the model.

    A memory-1 model attains its sup at a product measure, so it searches
    product measures on the simplex grid (_direct_product).  A memory-m
    >= 2 model searches the chains of order m - 1 with full support: the
    ascent (_ascent) over tilts psi of the k^m word indicators, where tau
    is the Gibbs word law and A = model.tables takes it to the model's
    averages, from the tilts of _tilt_starts on the model's tables.  Returns
    (value, best measure), the measure being the Gibbs chain of the best
    tilt (rpf_solve) and the value its direct pressure.
    """
    if model.memory <= 1:
        return _direct_product(model)
    k, m = model.alphabet.k, model.memory
    psi = _ascent(model, np.eye(k**m), model.tables,
                  "direct_pressure: every start chain failed")[1]
    mu = rpf_solve(CylinderPotential(model.alphabet, psi.reshape((k,) * m))).gibbs
    return model.direct_pressure_of(mu), mu


def _direct_product(model):
    """Product measures on a simplex grid of PRODUCT_STEPS steps, refined
    PRODUCT_ROUNDS times around the best point.  Each round is priced in
    stacked evaluations of at most PRODUCT_BLOCK rows, pricing every point
    as direct_pressure_of prices its MarkovMeasure.product, and keeps the
    first maximum; the incumbent leads each refinement, so on a tie it
    stays, as in a scan for a better point.  A row's value does not depend
    on the rows priced with it, so the blocks only bound the memory.
    """
    k, n = model.alphabet.k, model.n_plus

    def value_of(points):
        p = np.clip(points, 1e-300, None)
        p /= p.sum(axis=1, keepdims=True)
        value = -(p * np.log(p / model.alphabet.weights)).sum(axis=1)
        words = p  # the i.i.d. word law at the model's memory
        for _ in range(model.memory - 1):
            words = (words[:, :, None] * p[:, None, :]).reshape(len(p), -1)
        tau = (words[:, None, :] * model.tables).sum(axis=-1)
        if model.g_minus is not None:
            value -= model.g_minus.value(tau[:, n:])
        if model.g_plus is not None:
            value += model.g_plus.value(tau[:, :n])
        return value

    def best_of(blocks):
        """The first point of largest value over the blocks in turn; a NaN
        ranks above every number, as under argmax."""
        best = top = None
        for points in blocks:
            value = value_of(points)
            i = int(np.argmax(value))
            rank = (bool(np.isnan(value[i])), value[i])
            if top is None or rank > top:
                best, top = points[i], rank
        return best

    def grid():
        comps = itertools.combinations_with_replacement(range(k), PRODUCT_STEPS)
        while block := list(itertools.islice(comps, PRODUCT_BLOCK)):
            counts = (np.array(block)[:, :, None] == np.arange(k)).sum(axis=1)
            yield counts / PRODUCT_STEPS
        yield np.full((1, k), 1.0 / k)

    def box(centre, half):
        """centre, then the simplex points of a box of 31 nodes per axis
        around it, in index order"""
        yield centre[None]
        axes = np.array([np.linspace(a - half, a + half, 31) for a in centre[:-1]])
        shape, size = (31,) * (k - 1), 31 ** (k - 1)
        for start in range(0, size, PRODUCT_BLOCK):
            index = np.unravel_index(
                np.arange(start, min(start + PRODUCT_BLOCK, size)), shape)
            t = np.stack([axis[i] for axis, i in zip(axes, index)], axis=1)
            last = 1.0 - t.sum(axis=1)
            keep = (t.min(axis=1) >= 0) & (last >= 0)
            if keep.any():
                yield np.column_stack([t, last])[keep]

    best = best_of(grid())
    spacing = 1.0 / PRODUCT_STEPS
    for _ in range(PRODUCT_ROUNDS):
        # refine on a box of 3 coarse cells at 10x density
        best = best_of(box(best, 1.5 * spacing))
        spacing /= 10.0
    mu = MarkovMeasure.product(model.alphabet, np.clip(best, 1e-300, None))
    return model.direct_pressure_of(mu), mu


def _tilt_starts(model, cap):
    """Tilts y on the stacked plus-then-minus tables, i.e. (y+, -y-), on a
    grid of about `cap` points.

    Each coupling's search box (ModelSpec.box_plus and box_minus) gives one
    interval per axis; with d such axes, each is cut into the same number
    n of equal cells, the largest n with n**d <= cap but at least 2, and
    the grid takes their centres.  An even n leaves out the box centre, so
    it is added: 9 starts for d <= 3 at cap 9, and 17 for d = 4.  The
    centres stay off the ends, whose Gibbs chains are nearly deterministic,
    where H is nearly 0 and the ascent nearly flat.
    """
    spans = [None] * model.n_plus
    if model.g_plus is not None:
        spans = list(zip(*model.box_plus))
    if model.g_minus is None:
        spans += [None] * model.n_minus
    else:
        spans += [(-a, -b) for a, b in zip(*model.box_minus)]
    d = sum(s is not None for s in spans)
    n = max(2, int(cap ** (1.0 / max(d, 1)) + 1e-9))
    cells = (np.arange(n) + 0.5) / n
    axes = [np.zeros(1) if s is None else s[0] + (s[1] - s[0]) * cells
            for s in spans]
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.stack([m.ravel() for m in mesh], axis=1)
    if n % 2:
        return starts
    centre = [0.0 if s is None else (s[0] + s[1]) / 2.0 for s in spans]
    return np.vstack([starts, centre])


# -- the lockstep ascent ------------------------------------------------------


def _reduce(k, memory, coords):
    """The coordinate tables `coords` (flat memory-word tables, one row
    each) modulo coboundaries and constants.

    Two tables have equal averages under every invariant measure exactly
    when they differ by a coboundary plus a constant, f = c + h(trail) -
    h(lead) (Parry & Pollicott, Asterisque 187-188, 1990); those f span
    k**(memory-1) dimensions, the constant alone at memory 1.  Returns
    (principal, basis, offset): with the rows of coords projected off them
    and U S V^T the SVD of what is left, cut to its rank r (at least 1),
    the principal tables S V^T (r rows), U (one column per principal
    table) and the word-mean c of the residual.  Under every invariant
    measure the averages of coords are U tau_r + c, tau_r those of the
    principal tables, and the tilt y of coords has the Gibbs measure of the
    tilt y U of the principal tables.
    """
    trail, lead, _ = _word_maps(k, memory)
    cells = np.arange(k ** (memory - 1))[:, None]
    kernel = np.vstack([np.ones(k**memory), (trail == cells) * 1.0 - (lead == cells)])
    kernel = np.linalg.svd(kernel, full_matrices=False)[2][:len(cells)]
    residual = coords @ kernel.T @ kernel
    u, s, vt = np.linalg.svd(coords - residual, full_matrices=False)
    rank = max(1, int((s > s[0] * max(coords.shape) * np.finfo(float).eps).sum()))
    return s[:rank, None] * vt[:rank], u[:, :rank], residual.mean(axis=1)


def _midpoints(g, tau):
    """The midpoint of g's subdifferential at each row of tau: its gradient
    where g has one everywhere."""
    if g.has_gradient:
        return g.gradient(tau)
    return np.array([g.subdiff(t).midpoint for t in tau])


def _rows(model, coords, mix, y, shift=0.0):
    """(F, dF/dy, tau, s, H) at each row of the stack y of tilts of the
    coordinate tables `coords`, each output with a leading axis over the
    rows; H is the Hessian of P_L.

    F = P_L(y) - y . tau + g+(A+ tau + b+) - g-(A- tau + b-), with tau =
    tau(y) the Gibbs averages of coords, A+, A- the plus and minus rows of
    `mix` and b+, b- those of `shift`: by Legendre duality P_L(y) - y . tau
    is the entropy of the Gibbs measure, so F is its direct pressure.  s =
    A+^T dg+ - A-^T dg- is the coupling slope at tau, the midpoints of the
    subdifferentials, and dF/dy = H (s - y).
    """
    p_l, tau, hess = _tilted_pressure(model.log_weights, y @ coords, coords,
                                      model.memory, hessian=True)
    value = p_l - (y * tau).sum(axis=1)
    slope = np.zeros_like(tau)
    z = tau @ mix.T + shift
    n = model.n_plus
    if model.g_plus is not None:
        value += model.g_plus.value(z[:, :n])
        slope += _midpoints(model.g_plus, z[:, :n]) @ mix[:n]
    if model.g_minus is not None:
        value -= model.g_minus.value(z[:, n:])
        slope -= _midpoints(model.g_minus, z[:, n:]) @ mix[n:]
    return value, (hess @ (slope - y)[..., None])[..., 0], tau, slope, hess


def _coupling_curvature(model, mix):
    """S' = A+^T S+ A+ - A-^T S- A- on the coordinates, S+ and S- the
    Hessians of g+ and g-.  A coupling's Hessian is the inverse of its
    conjugate Hessian, constant for every kind here, where that is
    nonsingular (Quadratic, a LinearShift of one), and 0 otherwise: a kink
    or a grid is piecewise linear (see _kink_curvature)."""
    n = model.n_plus
    curvature = np.zeros((mix.shape[1],) * 2)
    for g, a, sign in ((model.g_plus, mix[:n], 1.0),
                       (model.g_minus, mix[n:], -1.0)):
        if g is None or not g.has_conjugate_gradient:
            continue
        try:
            inverse = np.linalg.inv(g.conjugate_hessian(np.zeros(g.dim)))
        except np.linalg.LinAlgError:
            continue
        curvature += sign * (a.T @ inverse @ a)
    return curvature


def _kink_curvature(g, z):
    """The curvature of a quadratic majorant of the piecewise-linear part of
    g that touches g at each row of z, (rows, d, d) (Hunter & Lange, Amer.
    Statist. 58, 2004); 0 for a smooth g.  Only the kinks within
    KINK_RADIUS count, each gap floored at KINK_FLOOR:
      * AbsSum: 1 / |z_j| on the diagonal, the curvature of the majorant
        z^2 / (2 |z_j|) + |z_j| / 2 of |z|;
      * GridSampled, the max of facet planes with slopes m_i: the sum over
        the facets i with gap delta_i = g(z) - plane_i(z) and m_i != s, s
        the slope midpoint, of (m_i - s)(m_i - s)^T / (2 delta_i).
    A LinearShift keeps its base's kinks.
    """
    while isinstance(g, LinearShift):
        g = g.base
    out = np.zeros((len(z), g.dim, g.dim))
    if isinstance(g, AbsSum):
        near = np.abs(z) <= KINK_RADIUS
        out[:, np.arange(g.dim), np.arange(g.dim)] = np.where(
            near, 1.0 / np.maximum(np.abs(z), KINK_FLOOR), 0.0)
    elif isinstance(g, GridSampled):
        for row, point in zip(out, z):
            planes = g._planes(point)
            gap = planes.max() - planes
            diff = g._slopes - g.subdiff(point).midpoint
            near = (gap <= KINK_RADIUS) & diff.any(axis=1)
            weight = 1.0 / (2.0 * np.maximum(gap[near], KINK_FLOOR))
            row += (diff[near].T * weight) @ diff[near]
    return out


def _ascent(model, coords, mix, failure):
    """Maximum of F (_rows) over the tilts of the coordinate tables
    `coords`, with `mix` the matrix A from their Gibbs averages to the
    model's plus-then-minus averages.

    Returns (F, table, tau) at the best tilt priced: F, the tilt as a flat
    word table and the Gibbs averages of coords.  The climb runs over the
    tilts y of the principal tables of coords (_reduce), where H, the
    Hessian of P_L, has no kernel, in the box |y_i| <= BKL_RADIUS: one
    _newton call (thermoflat.newton) minimizes -F from the tilts of
    _tilt_starts mapped to them, all in lockstep, and, as F is not concave
    and its critical points with H nonsingular are the tilts y = s(tau(y)),
    one more from the slope tilt of the best point.  A row whose Perron
    solve raises gets -F = +inf and gradient 0, so it stops or its step is
    halved; when every start does, the ArithmeticError says `failure` and
    lists their errors.

    The Hessian model of -F is Gauss-Newton: with S' the coupling curvature
    (_coupling_curvature), S- raised by the majorant curvature of g- at the
    row's averages (_kink_curvature), and dropping the third derivatives of
    P_L, -F'' ~ H - H S' H; at S' = 0 the Newton step is s - y.  The plus
    side needs no kink term, as the tangent plane of g+ is a minorant of
    it.  A row stops once its step is at most BKL_XTOL or a step raises F by
    at most BKL_FTOL (relative), never on |dF/dy|: where the Gibbs chain is
    frozen, H and with it dF/dy = H (s - y) are nearly 0 away from the
    maximum.
    """
    principal, basis, offset = _reduce(model.alphabet.k, model.memory, coords)
    starts = _tilt_starts(model, MARKOV_STARTS) @ mix @ basis
    mix, shift = mix @ basis, mix @ offset
    curvature = _coupling_curvature(model, mix)
    n = model.n_plus
    best = [-math.inf, None, None, None]  # F, y, tau, slope at the best tilt
    failures = []

    def fun(y, _):
        """-F, its gradient and Hessian model, at the rows of y."""
        count, r = y.shape
        value, grad = np.full(count, np.inf), np.zeros((count, r))
        hess = np.zeros((count, r, r))
        kept = np.arange(count)
        while len(kept):
            try:
                out = _rows(model, principal, mix, y[kept], shift)
                break
            except ArithmeticError as exc:
                row = getattr(exc, "row", 0)
                failures.append(f"tilt {y[kept[row]].tolist()}: {exc}")
                kept = np.delete(kept, row)
        else:
            return value, grad, hess
        f, g, tau, slope, h = out
        i = int(np.argmax(np.where(np.isnan(f), -np.inf, f)))
        if f[i] > best[0]:
            best[:] = float(f[i]), y[kept[i]].copy(), tau[i], slope[i]
        value[kept], grad[kept], hess[kept] = -f, -g, h - h @ curvature @ h
        if model.g_minus is not None:
            z = tau @ mix[n:].T + shift[n:]
            kink = mix[n:].T @ _kink_curvature(model.g_minus, z) @ mix[n:]
            hess[kept] += h @ kink @ h
        return value, grad, hess

    box = (-BKL_RADIUS, BKL_RADIUS)
    _newton(fun, starts, *box, 0.0, BKL_XTOL, BKL_FTOL)
    if best[1] is None:
        raise ArithmeticError(f"{failure}; " + "; ".join(failures))
    _newton(fun, best[3][None], *box, 0.0, BKL_XTOL, BKL_FTOL)
    return best[0], best[1] @ principal, basis @ best[2] + offset


# -- constrained-entropy route -------------------------------------------------


def _unique_potentials(model):
    """The model's potentials deduplicated by table equality, so that a
    model reusing one potential on both sides gets a single well-posed
    constraint coordinate.

    Returns (tables, mix): the flat tables of the distinct potentials at
    the model's memory, one row each, and the 0/1 matrix taking their
    averages to the plus-then-minus averages of the model's potentials.
    """
    uniq, index = [], []
    for p in model.plus_potentials + model.minus_potentials:
        for i, q in enumerate(uniq):
            if p.memory == q.memory and np.array_equal(p.table, q.table):
                index.append(i)
                break
        else:
            index.append(len(uniq))
            uniq.append(p)
    mix = np.zeros((len(index), len(uniq)))
    mix[np.arange(len(index)), index] = 1.0
    return stacked_tables(model.alphabet, uniq, model.memory), mix


def bkl_pressure(model):
    """Maximum of g+(z+) - g-(z-) + h(z) over achievable averages z.

    Returns (value, z).  The ascent (_ascent) over the tilt y of the merged
    potentials (_unique_potentials), whose Gibbs averages are z, A being
    the 0/1 selection of each side's potentials among them.  The value
    returned is F at the best tilt evaluated, at z = tau of that tilt: an
    achievable average, so it cannot overstate beyond Perron rounding.
    """
    tables, mix = _unique_potentials(model)
    value, _, tau = _ascent(model, tables, mix,
                            "bkl_pressure: every start tilt failed")
    return value, tau
