"""Reference values computed apart from thermoflat.

Nothing here imports thermoflat: linear pressures come from closed forms
(memory 1) or from `numpy.linalg.eigvals` on transfer matrices built
straight from the definition of the Ruelle operator, and optimisation uses
scipy's own Brent, Nelder-Mead and HiGHS routines.
"""

import itertools
import math

import numpy as np
from scipy.optimize import brentq, linprog, minimize, minimize_scalar
from scipy.special import logsumexp


def cw_root(beta, field=0.0):
    """Largest root of y = beta * tanh(y) + field (Curie-Weiss order parameter)."""
    f = lambda y: y - beta * math.tanh(y) - field  # noqa: E731
    return brentq(f, 1e-12 if field == 0.0 else field, beta + abs(field) + 1.0,
                  xtol=1e-15)


def mem1_pressure(log_w, tables, y):
    """P_L(sum_i y_i f_i) for memory-1 tables (rows of `tables`), closed form."""
    return float(logsumexp(log_w + np.asarray(y, float) @ tables))


def transfer_matrix(weights, table):
    """Ruelle operator of a memory-m potential on functions of m-1 symbols.

    (L g)(x) = sum_a m_a exp(f(a x)) g(a x); on functions of the leading
    m-1 coordinates x = (x_1..x_{m-1}) the entry [x, x'] is m_a exp(f(a, x))
    with x' = (a, x_1..x_{m-2}).  Returned with the largest exponent
    factored out as a scalar log scale, so large tilts do not overflow.
    """
    table = np.asarray(table, float)
    k, m = table.shape[0], table.ndim
    words = list(itertools.product(range(k), repeat=m - 1))
    index = {w: i for i, w in enumerate(words)}
    expo = np.full((len(words), len(words)), -np.inf)
    for x in words:
        for a in range(k):
            expo[index[x], index[(a,) + x[:-1]]] = (
                math.log(weights[a]) + table[(a,) + x])
    scale = expo.max()
    return np.exp(expo - scale), scale


def linear_pressure(weights, table):
    """log of the spectral radius of the Ruelle operator (any memory)."""
    table = np.asarray(table, float)
    if table.ndim == 1:
        return float(logsumexp(np.log(weights) + table))
    mat, scale = transfer_matrix(weights, table)
    return float(scale + math.log(np.abs(np.linalg.eigvals(mat)).max()))


def gibbs_mean(weights, table, y, h=1e-5):
    """mu_{y f}(f) = d/dy P_L(y f), by a central difference."""
    up = linear_pressure(weights, (y + h) * np.asarray(table))
    down = linear_pressure(weights, (y - h) * np.asarray(table))
    return (up - down) / (2 * h)


def sup_1d(fn, lo, hi, points=161):
    """Global sup of fn on [lo, hi]: dense grid, then bounded Brent polish
    around every grid local maximum.  Returns (value, [argmax, ...])."""
    grid = np.linspace(lo, hi, points)
    vals = np.array([fn(t) for t in grid])
    best, args = -math.inf, []
    for i in range(points):
        if vals[i] < vals[max(i - 1, 0)] or vals[i] < vals[min(i + 1, points - 1)]:
            continue
        a, b = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
        res = minimize_scalar(lambda t: -fn(t), bounds=(a, b), method="bounded",
                              options={"xatol": 1e-12})
        v, x = (-res.fun, res.x) if -res.fun > vals[i] else (vals[i], grid[i])
        args.append((v, x))
        best = max(best, v)
    return best, [x for v, x in args if v > best - 1e-9]


def inf_1d(fn, bracket=(-1.0, 1.0)):
    """Minimum of a convex coercive function on the line (Brent)."""
    res = minimize_scalar(fn, bracket=bracket, method="brent",
                          options={"xtol": 1e-12})
    return float(res.fun), float(res.x)


def sup_2d(fn, lo, hi, points=81):
    """Global sup of fn on the square [lo, hi]^2: grid, then Nelder-Mead
    polish from the eight best grid nodes."""
    axis = np.linspace(lo, hi, points)
    vals = np.array([[fn(np.array([a, b])) for b in axis] for a in axis])
    order = np.argsort(vals.ravel())[::-1][:8]
    best = float(vals.max())
    for flat in order:
        i, j = np.unravel_index(flat, vals.shape)
        res = minimize(lambda y: -fn(y), np.array([axis[i], axis[j]]),
                       method="Nelder-Mead",
                       options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 4000})
        best = max(best, -float(res.fun))
    return best


def grid_conjugate(nodes, values, y):
    """Conjugate of the convex envelope of grid samples: max over nodes."""
    return float(np.max(nodes @ np.asarray(y, float) - values))


def transport_lp(cost, row_weights, col_weights):
    """Optimal transport value by HiGHS on the marginal equality LP."""
    nr, nc = cost.shape
    a_eq = np.zeros((nr + nc, nr * nc))
    for i in range(nr):
        a_eq[i, i * nc:(i + 1) * nc] = 1.0
    for j in range(nc):
        a_eq[nr + j, j::nc] = 1.0
    res = linprog(cost.ravel(), A_eq=a_eq,
                  b_eq=np.concatenate([row_weights, col_weights]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def markov_entropy(weights, stationary, transitions):
    """Entropy rate relative to the a priori product measure, order 0 or 1."""
    w = np.asarray(weights, float)
    pi = np.asarray(stationary, float)
    if transitions is None:
        return float(-(pi * np.log(pi / w)).sum())
    q = np.asarray(transitions, float)
    return float(-(pi[:, None] * q * np.log(q / w[None, :])).sum())
