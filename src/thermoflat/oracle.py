"""Brute-force oracles for the nonlinear pressure.

Two independent routes to the same number:
  * direct variational search over an explicit measure family, maximizing
    h - g-(tau-) + g+(tau+): a memory-1 model attains its sup at a product
    measure, searched on a refined simplex grid, each round of which is
    priced in one stacked evaluation; every other model is
    searched over order-1 Markov chains by L-BFGS-B on their row logits,
    from the chains of tilted Gibbs measures;
  * the constrained-entropy route: h(z) as a Legendre transform of the
    linear pressure, and the max of g+(z+) - g-(z-) + h(z) by an ascent
    over the tilt y, every start in lockstep with one stacked Perron call
    per round, by Gauss-Newton steps; a start that stalls, as at the kink
    of a coupling, finishes with L-BFGS-B.  At z = tau(y), the Gibbs
    averages of the tilt, h(z) = P_L(y) - y . z exactly (Legendre
    duality), so no dual solve is needed, the Hessian of P_L gives the
    exact gradient, and the value returned is that of an achievable
    average and cannot be overstated.
Both take linear pressures, Gibbs averages and their covariance from
ruelle._tilted_pressure.
Neither touches the max-min solver, so they can arbitrate it.
"""

import itertools
import math

import numpy as np
import scipy

from .measures import MarkovMeasure
from .ruelle import _log_sum_exp, _tilted_pressure, stacked_tables

# Both oracles climb from about MARKOV_STARTS tilts, then once more from the
# slope tilt of the best point.  The order-1 direct oracle runs L-BFGS-B over
# row logits.  The constrained-entropy route climbs over the tilt in the box
# |y_i| <= BKL_RADIUS, every start in lockstep: a row stops once its step is
# at most BKL_XTOL or a step it takes raises F by at most BKL_FTOL
# (relative), and stops short after BKL_STEPS steps or BKL_HALVINGS halvings
# of one step.  A row that stops short goes on to L-BFGS-B with BKL_OPTIONS,
# as do the dual solves of bkl_entropy in the same box.
MARKOV_STARTS = 9
MARKOV_OPTIONS = {"ftol": 1e-15, "gtol": 1e-10, "maxiter": 500}
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
    product measures on the simplex grid (_direct_product).  Every other
    model searches all one-step Markov chains with positive entries by
    L-BFGS-B over their row logits, from tilted Gibbs chains
    (_direct_markov).  Returns (value, best measure), the value being the
    direct pressure of that measure.
    """
    if model.memory <= 1:
        return _direct_product(model)
    return _direct_markov(model)


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


def _solve(a, b):
    """a^-1 b; where a is singular to working precision, as when the rows
    of a chain underflow into several closed classes, the least-norm
    solution."""
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.all(np.isfinite(x)):
        x = np.linalg.lstsq(a, b)[0]
    return x


def _chain_pressure(model, tables, n, logits):
    """Direct pressure of the order-1 chain with row logits `logits`, its
    gradient in the logits, and the coupling slopes at the chain's averages
    as a tilt of the tables, (dg+(tau+), -dg-(tau-)).

    tables: the plus then the minus potentials as flat tables over words
    of length n >= 2.  With Q the row softmax of the logits, pi its
    stationary law and P(w) = pi(w_0) Q(w_0, w_1) ... the word law, the
    value is h - g-(tau-) + g+(tau+), tau = tables @ P.  The slope of a
    coupling is the midpoint of its subdifferential hull: its gradient
    where it is smooth.  The gradient runs backward through the word law,
    then through pi by dpi = pi dQ Z with Z = (I - Q + 1 pi)^-1, then
    through the softmax.
    """
    k = model.alphabet.k
    log_q = logits - _log_sum_exp(logits, rows=True)[:, None]
    q = np.exp(log_q)
    # the generator Q - I, each diagonal entry minus the row's off-diagonal
    # mass: 1 - Q_ii would round a nearly absorbing state's exit rate to 0
    gen = q - np.diag(np.diag(q))
    gen -= np.diag(gen.sum(axis=1))
    a = gen.T.copy()
    a[-1] = 1.0
    pi = _solve(a, np.eye(k)[-1])
    # forward[j]: law of the words of length j + 1; last symbol = index % k
    forward = [pi]
    for j in range(1, n):
        prev = forward[-1]
        forward.append((prev[:, None] * q[np.arange(len(prev)) % k]).ravel())
    tau = tables @ forward[-1]
    rel = log_q - model.log_weights
    row_entropy = -(q * rel).sum(axis=1)
    value = float(pi @ row_entropy)
    slope = np.zeros(len(tau))
    n_plus = model.n_plus
    if model.g_plus is not None:
        value += model.g_plus.value(tau[:n_plus])
        slope[:n_plus] = model.g_plus.subdiff(tau[:n_plus]).midpoint
    if model.g_minus is not None:
        value -= model.g_minus.value(tau[n_plus:])
        slope[n_plus:] = -model.g_minus.subdiff(tau[n_plus:]).midpoint
    # backward: d value / d P(w) through tau, summed over the last symbols
    back = slope @ tables
    grad_q = -pi[:, None] * (rel + 1.0)
    for j in range(n - 1, 0, -1):
        block = back.reshape(-1, k)
        prev = forward[j - 1]
        grad_q += (prev[:, None] * block).reshape(-1, k, k).sum(axis=0)
        back = (q[np.arange(len(prev)) % k] * block).sum(axis=1)
    grad_pi = row_entropy + back
    fundamental = pi[None, :] - gen
    grad_q += pi[:, None] * _solve(fundamental, grad_pi)[None, :]
    grad = q * (grad_q - (grad_q * q).sum(axis=1, keepdims=True))
    return value, grad, slope


def _tilt_starts(model, cap):
    """Tilts y on the stacked plus-then-minus tables, i.e. (y+, -y-), on a
    grid of about `cap` points.

    Each coupling's search box (ModelSpec.box_plus and box_minus) gives one
    interval per axis; with d such axes, each is cut into the same number
    n of equal cells, the largest n with n**d <= cap but at least 2, and
    the grid takes their centres.  An even n leaves out the box centre, so
    it is added: 9 starts for d <= 3 at cap 9, and 17 for d = 4.  The
    centres stay off the ends, whose Gibbs chains are nearly deterministic
    and flat in the logits.
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


def _direct_markov(model):
    """Multistart L-BFGS-B over the row logits of an order-1 chain.

    Each start is the chain of pair probabilities of the Gibbs measure of a
    tilt y+ . phi+ - y- . phi- (_tilt_starts); a start whose Perron solve
    fails is skipped.  Every chain with finite logits has full support, so
    no chain is rejected on the way.  The value and its gradient are exact
    (_chain_pressure).  The search is not concave and can stop at a local
    maximum next to the optimum.  The optimum is the Gibbs chain of the
    coupling slopes at its own averages, so one more climb starts from the
    Gibbs chain of the slopes at the best chain's averages.
    """
    k, n, tables = model.alphabet.k, model.memory, model.tables
    pairs = np.repeat(np.eye(k * k), k ** (n - 2), axis=1)

    def neg(logits):
        value, grad, _ = _chain_pressure(model, tables, n, logits.reshape(k, k))
        return -value, -grad.ravel()

    def climb(y):
        """(value, row logits) of the L-BFGS-B climb from the Gibbs chain of
        the tilt y on the tables."""
        _, pair = _tilted_pressure(model.log_weights, y @ tables, pairs, n)
        # floored so that a pair law that underflows still gives finite logits
        log_q = np.log(np.maximum(pair.reshape(k, k), np.finfo(float).tiny))
        res = scipy.optimize.minimize(
            neg, (log_q - log_q.max(axis=1, keepdims=True)).ravel(), jac=True,
            method="L-BFGS-B", options=MARKOV_OPTIONS)
        return -float(res.fun), res.x.reshape(k, k)

    best, failures = (-math.inf, None), []
    for y in _tilt_starts(model, MARKOV_STARTS):
        try:
            best = max(best, climb(y), key=lambda r: r[0])
        except ArithmeticError as exc:
            failures.append(f"tilt {y.tolist()}: {exc}")
    if best[1] is None:
        raise ArithmeticError(
            "direct_pressure: every start chain failed; " + "; ".join(failures)
        )
    try:
        best = max(best, climb(_chain_pressure(model, tables, n, best[1])[2]),
                   key=lambda r: r[0])
    except ArithmeticError:
        pass
    q = np.exp(best[1] - _log_sum_exp(best[1], rows=True)[:, None])
    mu = MarkovMeasure.from_transitions(model.alphabet, q)
    return model.direct_pressure_of(mu), mu


# -- constrained-entropy route -------------------------------------------------


def _unique_potentials(model):
    """Deduplicate the plus/minus potential lists by table equality.

    Returns (potentials, plus_index, minus_index) mapping each side into the
    merged list, so models reusing one potential on both sides get a single
    well-posed constraint coordinate.
    """
    uniq = []
    plus_idx = []
    minus_idx = []

    def locate(p):
        for i, q in enumerate(uniq):
            if p.memory == q.memory and np.array_equal(p.table, q.table):
                return i
        uniq.append(p)
        return len(uniq) - 1

    for p in model.plus_potentials:
        plus_idx.append(locate(p))
    for p in model.minus_potentials:
        minus_idx.append(locate(p))
    return uniq, plus_idx, minus_idx


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


def _midpoints(g, tau):
    """The midpoint of g's subdifferential at each row of tau: its gradient
    where g has one everywhere."""
    if g.has_gradient:
        return g.gradient(tau)
    return np.array([g.subdiff(t).midpoint for t in tau])


def _bkl_rows(model, tables, plus_idx, minus_idx, y):
    """(F, dF/dy, tau, s, H) at each row of the stack y of tilts of the
    merged tables, each output with a leading axis over the rows; H is the
    Hessian of P_L.  See _bkl_objective."""
    p_l, tau, hess = _tilted_pressure(model.log_weights, y @ tables, tables,
                                      model.memory, hessian=True)
    value = p_l - (y * tau).sum(axis=1)
    slope = np.zeros_like(tau)
    if model.g_plus is not None:
        value += model.g_plus.value(tau[:, plus_idx])
        np.add.at(slope, (slice(None), plus_idx),
                  _midpoints(model.g_plus, tau[:, plus_idx]))
    if model.g_minus is not None:
        value -= model.g_minus.value(tau[:, minus_idx])
        np.subtract.at(slope, (slice(None), minus_idx),
                       _midpoints(model.g_minus, tau[:, minus_idx]))
    return value, (hess @ (slope - y)[..., None])[..., 0], tau, slope, hess


def _bkl_objective(model, tables, plus_idx, minus_idx, y):
    """(F, dF/dy, tau, s) at the tilt y of the merged tables.

    F = P_L(y) - y . tau + g+(tau+) - g-(tau-), with tau = tau(y) the Gibbs
    averages of the tilt: by Legendre duality P_L(y) - y . tau is h(tau)
    exactly, so F is the constrained-entropy score of the achievable
    average tau.  s is the coupling slope at tau on the merged coordinates,
    the midpoints of the subdifferentials of g+ and of -g- summed over the
    plus and minus indices (dg+ - dg- on a shared potential).  With H the
    Hessian of P_L, dF/dy = H (s - y).
    """
    value, grad, tau, slope, _ = _bkl_rows(model, tables, plus_idx,
                                           minus_idx, y[None])
    return float(value[0]), grad[0], tau[0], slope[0]


def _coupling_curvature(model, size, plus_idx, minus_idx):
    """S' on the merged coordinates: the Hessian of g+ on the plus indices
    minus that of g- on the minus indices, summed on a shared potential;
    None when it is 0.  A coupling's Hessian is the inverse of
    its conjugate Hessian, constant for every kind here, where that is
    nonsingular (Quadratic, a LinearShift of one), and 0 otherwise: a kink
    or a grid is piecewise linear."""
    curvature = np.zeros((size, size))
    for g, idx, sign in ((model.g_plus, plus_idx, 1.0),
                         (model.g_minus, minus_idx, -1.0)):
        if g is None or not g.has_conjugate_gradient:
            continue
        try:
            inverse = np.linalg.inv(g.conjugate_hessian(np.zeros(g.dim)))
        except np.linalg.LinAlgError:
            continue
        np.add.at(curvature, np.ix_(idx, idx), sign * inverse)
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


def bkl_pressure(model):
    """Maximum of g+(z+) - g-(z-) + h(z) over achievable averages z.

    Returns (value, z).  An ascent of F (_bkl_objective) over the tilt y of
    the merged potentials in the box |y_i| <= BKL_RADIUS, from the tilts of
    _tilt_starts on the merged coordinates, all in lockstep: each round
    prices every row still climbing in one stacked Perron call with its
    Hessian, and no dual solve.  A start whose Perron solve raises is
    dropped.  F is not concave, and its critical points with H nonsingular
    are the tilts y = s(tau(y)), so one more climb starts from the slope
    tilt of the best point.  The value returned is F at the best tilt
    evaluated, at z = tau of that tilt: an achievable average, so it cannot
    overstate beyond Perron rounding.

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
    uniq, plus_idx, minus_idx = _unique_potentials(model)
    tables = stacked_tables(model.alphabet, uniq, model.memory)
    curvature = _coupling_curvature(model, len(uniq), plus_idx, minus_idx)
    best = [-math.inf, None, None]  # F, tau, slope at the best tilt
    failures = []

    def price(y, starts):
        """_bkl_rows at the rows of y and the indices of the rows priced,
        all but those whose Perron solve raises; (empty, None) if none."""
        kept = np.arange(len(y))
        while len(kept):
            try:
                out = _bkl_rows(model, tables, plus_idx, minus_idx, y[kept])
            except ArithmeticError as exc:
                failures.append(f"tilt {starts[kept[exc.row]].tolist()}: {exc}")
                kept = np.delete(kept, exc.row)
                continue
            i = int(np.argmax(np.where(np.isnan(out[0]), -np.inf, out[0])))
            if out[0][i] > best[0]:  # copies: climb updates out in place
                best[:] = float(out[0][i]), out[2][i].copy(), out[3][i].copy()
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
        value, grad, tau, slope = _bkl_objective(model, tables, plus_idx,
                                                 minus_idx, y)
        if value > best[0]:
            best[:] = value, tau, slope
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

    starts = _tilt_starts(model, MARKOV_STARTS)
    y0 = np.zeros((len(starts), len(uniq)))
    np.add.at(y0, (slice(None), plus_idx + minus_idx), starts)
    finish(climb(y0))
    if best[1] is None:
        raise ArithmeticError(
            "bkl_pressure: every start tilt failed; " + "; ".join(failures)
        )
    finish(climb(best[2][None]))
    return best[0], best[1]

