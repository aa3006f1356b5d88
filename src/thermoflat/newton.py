"""The lockstep projected Newton search that every climb of the package runs.

_newton minimizes a function over a box from a stack of starts, all in
lockstep: each round prices the next trial point of every start still
searching in one call of the function, and each start keeps its own steps,
halvings and stop.  The max-min solver (linearizer) runs it for its inner
infs, its outer sups and the face polish of a grid g-, each row stopping on
its projected gradient; the oracles run it on minus their objective, over
the tilts of their reduced coordinate tables, each row stopping on the
size of its step or of its decrease instead, as their gradient nearly
vanishes wherever the Gibbs chain is nearly frozen.  It needs numpy only.
"""

import itertools

import numpy as np

# The caps on a row's steps and on the halvings of one step.
NEWTON_STEPS = 100
NEWTON_HALVINGS = 30


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


def _newton(fun, x0, lo, hi, gtol, xtol=0.0, ftol=0.0):
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
    so each row takes exactly the steps it would take alone.

    A row stops, converged, once its projected gradient is at most gtol;
    with xtol > 0, once its step (after the gradient fallback and the box
    clip) is at most xtol in sup norm; and with ftol > 0, once a step it
    takes lowers the value by at most ftol * max(1, |value|).  Returns (x,
    out, steps, messages): the points, fun's outputs there (fun returns new
    arrays, which are updated in place), and per row its number of steps
    and a message, None once it converged, or else naming why it stopped.
    A 1-D x0 is one start: fun(x) then takes and returns one point, and so
    do the results.
    """
    if x0.ndim == 1:
        x, out, steps, messages = _newton(
            lambda x, _: [np.array(o)[None] for o in fun(x[0])],
            x0[None], lo, hi, gtol, xtol, ftol,
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
            if xtol:
                short = np.abs(d).max(axis=1) <= xtol
                if short.any():
                    searching[moved[short]] = False
                    rows = np.flatnonzero(searching)
                    at = moved = moved[~short]
                    d, down, size = d[~short], down[~short], size[~short]
            step[at], slope[at], norm[at], halvings[at] = d, down, size, 0
        if not len(rows):
            return x, out, steps, messages
        # every row still searching prices its trial point
        tried = rows
        at = every if len(tried) == count else tried
        trial = _clip(x[at] + step[at], lo, hi)
        new = fun(trial, tried)
        value = out[0][at]  # a view when every row is tried: read it first
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
        if ftol:
            old = value[accepted]
            settled = old - new[0][accepted] <= ftol * np.maximum(1.0, np.abs(old))
        if len(moved) == count:
            x, out = trial, list(new)
            steps += 1
        elif len(moved):
            x[moved] = trial[accepted]
            for o, n in zip(out, new):
                o[moved] = n[accepted]
            steps[moved] += 1
        if ftol and settled.any():
            searching[moved[settled]] = False
            rows = np.flatnonzero(searching)
            moved = moved[~settled]
