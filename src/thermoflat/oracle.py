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
whose Gibbs averages map linearly onto the model's: every start in
lockstep with one stacked Perron call per round, by Gauss-Newton steps; a
start that stalls, as at the kink of a coupling, finishes with L-BFGS-B.
At the Gibbs averages tau of a tilt psi, h = P_L(psi) - psi . tau exactly
(Legendre duality), so no dual solve is needed, the Hessian of P_L gives
the exact gradient, and every value is that of a real Gibbs measure and
cannot be overstated.  Both take linear pressures, Gibbs averages and
their covariance from ruelle._tilted_pressure.  Neither touches the
max-min solver, so they can arbitrate it.
"""

import itertools
import math

import numpy as np
import scipy

from .measures import CylinderPotential, MarkovMeasure
from .ruelle import _tilted_pressure, rpf_solve, stacked_tables

# Both ascents climb from about MARKOV_STARTS tilts (_tilt_starts), then once
# more from the slope tilt of the best point, over the tilt in the box
# |psi_i| <= BKL_RADIUS, every start in lockstep: a row stops once its step
# is at most BKL_XTOL or a step it takes raises F by at most BKL_FTOL
# (relative), and stops short after BKL_STEPS steps or BKL_HALVINGS halvings
# of one step.  A row that stops short goes on to L-BFGS-B with BKL_OPTIONS,
# as do the dual solves of bkl_entropy in the same box.
MARKOV_STARTS = 9
BKL_RADIUS = 60.0
BKL_OPTIONS = {"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500}
BKL_STEPS = 100
BKL_HALVINGS = 30
BKL_XTOL = 1e-10
BKL_FTOL = 1e-15
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


def _midpoints(g, tau):
    """The midpoint of g's subdifferential at each row of tau: its gradient
    where g has one everywhere."""
    if g.has_gradient:
        return g.gradient(tau)
    return np.array([g.subdiff(t).midpoint for t in tau])


def _rows(model, coords, mix, y):
    """(F, dF/dy, tau, s, H) at each row of the stack y of tilts of the
    coordinate tables `coords`, each output with a leading axis over the
    rows; H is the Hessian of P_L.

    F = P_L(y) - y . tau + g+(A+ tau) - g-(A- tau), with tau = tau(y) the
    Gibbs averages of coords and A+, A- the plus and minus rows of `mix`:
    by Legendre duality P_L(y) - y . tau is the entropy of the Gibbs
    measure, so F is its direct pressure.  s = A+^T dg+ - A-^T dg- is the
    coupling slope at tau, the midpoints of the subdifferentials, and
    dF/dy = H (s - y).
    """
    p_l, tau, hess = _tilted_pressure(model.log_weights, y @ coords, coords,
                                      model.memory, hessian=True)
    value = p_l - (y * tau).sum(axis=1)
    slope = np.zeros_like(tau)
    n = model.n_plus
    if model.g_plus is not None:
        z = tau @ mix[:n].T
        value += model.g_plus.value(z)
        slope += _midpoints(model.g_plus, z) @ mix[:n]
    if model.g_minus is not None:
        z = tau @ mix[n:].T
        value -= model.g_minus.value(z)
        slope -= _midpoints(model.g_minus, z) @ mix[n:]
    return value, (hess @ (slope - y)[..., None])[..., 0], tau, slope, hess


def _objective(model, coords, mix, y):
    """(F, dF/dy, tau, s) at the one tilt y (_rows)."""
    value, grad, tau, slope, _ = _rows(model, coords, mix, y[None])
    return float(value[0]), grad[0], tau[0], slope[0]


def _coupling_curvature(model, mix):
    """S' = A+^T S+ A+ - A-^T S- A- on the coordinates, S+ and S- the
    Hessians of g+ and g-; None when it is 0.  A coupling's Hessian is the
    inverse of its conjugate Hessian, constant for every kind here, where
    that is nonsingular (Quadratic, a LinearShift of one), and 0 otherwise:
    a kink or a grid is piecewise linear."""
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
    return curvature if curvature.any() else None


def _modified_inverse(m):
    """The pseudo-inverse of each symmetric matrix of the stack m with each
    eigenvalue replaced by its modulus, dropping those below 1e-10 of the
    largest: the directions along which the potentials are cohomologous to
    a constant are a kernel of H, F is constant along them, and a floored
    inverse would blow up the rounding of the gradient there.  Eigenvalues
    below the smallest normal float, whose inverse would overflow, are
    dropped too, and a matrix with an entry that is not finite gives 0."""
    m = np.where(np.isfinite(m).all(axis=(-2, -1), keepdims=True), m, 0.0)
    lam, vec = np.linalg.eigh(m)
    lam = np.abs(lam)
    floor = np.maximum(1e-10 * lam.max(axis=-1, keepdims=True), np.finfo(float).tiny)
    keep = lam > floor
    scale = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return (vec * scale[..., None, :]) @ vec.swapaxes(-1, -2)


def _clip(y):
    """y cut to the box |y_i| <= BKL_RADIUS."""
    return np.clip(y, -BKL_RADIUS, BKL_RADIUS)


def _ascent(model, coords, mix, failure):
    """Maximum of F (_rows) over the tilts y of the coordinate tables
    `coords`, with `mix` the matrix A from their Gibbs averages to the
    model's plus-then-minus averages.

    Returns (F, y, tau, s) at the best tilt evaluated.  The ascent runs in
    the box |y_i| <= BKL_RADIUS, from the tilts of _tilt_starts mapped by
    A (y = start A), all in lockstep: each round prices every row still
    climbing in one stacked Perron call with its Hessian.  A start whose
    Perron solve raises is dropped; when every one is, the ArithmeticError
    says `failure` and lists their errors.  F is not concave, and its
    critical points with H nonsingular are the tilts y = s(tau(y)), so one
    more climb starts from the slope tilt of the best point.

    Each step is Gauss-Newton: with S' the coupling curvature
    (_coupling_curvature) and dropping the third derivatives of P_L,
    -F'' ~ H - H S' H, and the step is M g, M the _modified_inverse of that
    model; at S' = 0 it is s - y on the range of H.  Where M g is no ascent,
    the step is the fixed-point step s - y, always an ascent since
    g . (s - y) = (s - y) H (s - y).  Each step is cut to the box and halved
    until Armijo's test passes on F (Nocedal & Wright, Numerical
    Optimization, 2006, sec. 3.1) or F moves by rounding only.  A row stops
    once its step is at most BKL_XTOL or a step raises F by at most
    BKL_FTOL (relative): where H is ill-conditioned, rounding can keep
    every step above BKL_XTOL, and a test on |g| would stop at once where H
    is nearly 0.  A row that stops short, after BKL_STEPS steps or
    BKL_HALVINGS halvings or at a step that is not finite, as at the kink
    of an abs_sum or grid coupling, goes on alone to L-BFGS-B from its end
    point.
    """
    curvature = _coupling_curvature(model, mix)
    best = [-math.inf, None, None, None]  # F, y, tau, slope at the best tilt
    failures = []

    def price(y, starts):
        """_rows at the rows of y and the indices of the rows priced, all
        but those whose Perron solve raises; (empty, None) if none."""
        kept = np.arange(len(y))
        while len(kept):
            try:
                out = _rows(model, coords, mix, y[kept])
            except ArithmeticError as exc:
                row = getattr(exc, "row", 0)
                failures.append(f"tilt {starts[kept[row]].tolist()}: {exc}")
                kept = np.delete(kept, row)
                continue
            i = int(np.argmax(np.where(np.isnan(out[0]), -np.inf, out[0])))
            if out[0][i] > best[0]:  # copies: climb updates out in place
                best[:] = (float(out[0][i]), y[kept[i]].copy(),
                           out[2][i].copy(), out[3][i].copy())
            return kept, out
        return kept, None

    def direction(x, grad, slope, hess):
        gauss = hess if curvature is None else hess - hess @ curvature @ hess
        step = _clip(x + (_modified_inverse(gauss) @ grad[..., None])[..., 0]) - x
        fixed = _clip(x + (slope - x)) - x
        ascent = (grad * step).sum(axis=1) > 0
        return np.where(ascent[:, None], step, fixed)

    def climb(starts):
        """The lockstep ascent from each row of starts; returns the end
        points of the rows that stop short."""
        x = _clip(starts)
        kept, out = price(x, starts)
        if out is None:
            return x[:0]
        starts, x = starts[kept], x[kept]
        value, grad, _, slope, hess = out
        count = len(x)
        step, gain = np.zeros_like(x), np.zeros(count)
        steps, halvings = np.zeros((2, count), dtype=int)
        short = np.zeros(count, dtype=bool)
        climbing = moved = np.arange(count)
        while True:
            if len(moved):
                d = direction(x[moved], grad[moved], slope[moved], hess[moved])
                size = np.abs(d).max(axis=1)
                done = size <= BKL_XTOL
                stuck = ~np.isfinite(size) | (steps[moved] >= BKL_STEPS)
                short[moved[stuck & ~done]] = True
                step[moved], gain[moved] = d, (grad[moved] * d).sum(axis=1)
                halvings[moved] = 0
                climbing = np.setdiff1d(climbing, moved[done | stuck])
            if not len(climbing):
                return x[short]
            trial = _clip(x[climbing] + step[climbing])
            kept, out = price(trial, starts[climbing])
            if out is None:
                return x[short]
            climbing, trial = climbing[kept], trial[kept]
            old = value[climbing]
            rise = out[0] - old
            tol = np.maximum(1.0, np.abs(old))
            accepted = (rise >= 1e-4 * gain[climbing]) | (np.abs(rise) <= 1e-12 * tol)
            moved = climbing[accepted]
            x[moved] = trial[accepted]
            for arr, new in zip((value, grad, slope, hess),
                                (out[0], out[1], out[3], out[4])):
                arr[moved] = new[accepted]
            steps[moved] += 1
            settled = moved[rise[accepted] <= BKL_FTOL * tol[accepted]]
            rejected = climbing[~accepted]
            step[rejected] /= 2
            gain[rejected] /= 2
            halvings[rejected] += 1
            failed = rejected[halvings[rejected] >= BKL_HALVINGS]
            short[failed] = True
            climbing = np.setdiff1d(climbing, np.concatenate([settled, failed]))
            moved = np.setdiff1d(moved, settled)

    def neg(y):
        value, grad, tau, slope = _objective(model, coords, mix, y)
        if value > best[0]:
            best[:] = value, y.copy(), tau, slope
        return -value, -grad

    def finish(points):
        """L-BFGS-B from each point where a lockstep row stopped short."""
        for y in points:
            try:
                scipy.optimize.minimize(
                    neg, y, jac=True, method="L-BFGS-B",
                    bounds=[(-BKL_RADIUS, BKL_RADIUS)] * len(y), options=BKL_OPTIONS)
            except ArithmeticError as exc:
                failures.append(f"tilt {y.tolist()}: {exc}")

    finish(climb(_tilt_starts(model, MARKOV_STARTS) @ mix))
    if best[1] is None:
        raise ArithmeticError(f"{failure}; " + "; ".join(failures))
    finish(climb(best[3][None]))
    return tuple(best)


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


def bkl_entropy(alphabet, potentials, z):
    """h(z) = inf_y { P_L(sum_i y_i phi_i) - y . z }.

    The maximal entropy among shift-invariant measures with constrained
    averages tau(mu) = z, by convex duality against the linear pressure:
    one L-BFGS-B run from y = 0 over the box |y_i| <= BKL_RADIUS, on the value
    and its gradient tau(y) - z.  Returns (value, boundary_flag);
    boundary_flag True means the bounded search hit its box, i.e. z sits on
    or outside the achievable set and the value is an upper bound only.
    """
    potentials = list(potentials)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (len(potentials),):
        raise ValueError("constraint dimension mismatch")
    memory = max(p.memory for p in potentials)
    log_w = np.log(alphabet.weights)
    tables = stacked_tables(alphabet, potentials, memory)

    def objective(y):
        value, tau = _tilted_pressure(log_w, y @ tables, tables, memory)
        return value - float(y @ z), tau - z

    try:
        res = scipy.optimize.minimize(
            objective, np.zeros(len(z)), jac=True, method="L-BFGS-B",
            bounds=[(-BKL_RADIUS, BKL_RADIUS)] * len(z), options=BKL_OPTIONS)
    except ArithmeticError as exc:
        raise ArithmeticError(f"bkl_entropy at z = {z.tolist()}: {exc}") from exc
    return float(res.fun), bool(np.any(np.abs(res.x) > BKL_RADIUS - 1e-6))


def bkl_pressure(model):
    """Maximum of g+(z+) - g-(z-) + h(z) over achievable averages z.

    Returns (value, z).  The ascent (_ascent) over the tilt y of the merged
    potentials (_unique_potentials), whose Gibbs averages are z, A being
    the 0/1 selection of each side's potentials among them.  The value
    returned is F at the best tilt evaluated, at z = tau of that tilt: an
    achievable average, so it cannot overstate beyond Perron rounding.
    """
    tables, mix = _unique_potentials(model)
    value, _, tau, _ = _ascent(model, tables, mix,
                               "bkl_pressure: every start tilt failed")
    return value, tau
