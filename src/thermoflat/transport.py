"""Order-parameter transport: Delta-functionals over ergodic decompositions
and the finite Monge-Kantorovich reformulation of the max-min pressure,
whose primal is one HiGHS linear program of any size.
"""

import dataclasses

import numpy as np
import scipy

from . import kernels
from .linearizer import p_nl
from .measures import MarkovMeasure, MixtureMeasure, entropy_rate

_WORD_CAP = 2_000_000


def _components(mu):
    """Ergodic components with weights; rejects opaque non-ergodic input."""
    if isinstance(mu, MixtureMeasure):
        out = []
        for w, nu in zip(mu.weights, mu.components):
            if not nu.ergodic:
                raise ValueError(
                    "Delta-functional requires explicit ergodic decomposition"
                )
            out.append((w, nu))
        return out
    if isinstance(mu, MarkovMeasure):
        if not mu.ergodic:
            raise ValueError(
                "Delta-functional requires explicit ergodic decomposition"
            )
        return [(1.0, mu)]
    raise TypeError("unsupported measure type")


def _component_averages(model, mu):
    """(weight, averages) of each ergodic component of mu, the averages of
    the plus, then the minus potentials (ModelSpec.averages)."""
    return [(w, model.averages(nu)) for w, nu in _components(mu)]


def _side(model, side):
    """The slice of the averages on `side` ("plus" or "minus")."""
    n = model.n_plus
    return slice(None, n) if side == "plus" else slice(n, None)


def _delta(parts, func, cut):
    """sum_i lambda_i F(tau_cut(nu_i)) over (lambda_i, tau(nu_i)) in parts."""
    return sum(w * func(tau[cut]) for w, tau in parts)


def delta_functional(model, mu, func, side="plus"):
    """Delta^F(mu) = sum_i lambda_i F(tau(nu_i)) over ergodic components,
    tau the averages of the model's potentials on `side` ("plus" or
    "minus")."""
    return _delta(_component_averages(model, mu), func, _side(model, side))


def delta_report(model, mu):
    """The entropy of mu, F_flat and F_sharp, and the Delta-functional of
    each coupling present, "delta_plus" of g+ and "delta_minus" of g-, from
    one ModelSpec.averages call per ergodic component and, for the minus
    side of F_sharp on a mixture, one at mu itself.

    F_flat(mu) = Delta^{g+ o tau+} - Delta^{g- o tau-} + h(mu) equals
    sum_i lambda_i P(nu_i): affine in the ergodic decomposition.  F_sharp
    evaluates the minus side at the mixed mean, not component-wise, so only
    its plus side is affine.
    """
    parts = _component_averages(model, mu)
    report = {"entropy": entropy_rate(mu)}
    flat = sharp = report["entropy"]
    if model.g_plus is not None:
        delta = report["delta_plus"] = _delta(parts, model.g_plus.value,
                                              _side(model, "plus"))
        flat += delta
        sharp += delta
    if model.g_minus is not None:
        cut = _side(model, "minus")
        delta = report["delta_minus"] = _delta(parts, model.g_minus.value, cut)
        flat -= delta
        mean = parts[0][1] if isinstance(mu, MarkovMeasure) else model.averages(mu)
        sharp -= model.g_minus.value(mean[cut])
    report["f_flat"], report["f_sharp"] = flat, sharp
    return report


def _distinct_rows(a):
    """np.unique(a, axis=0, return_inverse=True) for float rows, by one
    lexsort: the distinct rows in lexicographic order and the index of each
    row of a among them."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def delta_via_birkhoff(potentials, mu, func, n):
    """Exact finite-n approximant: E_mu[F(n-step cyclic Birkhoff averages)].

    Enumerates all k^n words (capped); non-increasing in n for convex F by
    Jensen on the two-block split.  The averages of the words and their
    distinct rows are computed once; each component only sums its word
    probabilities per row, and a mixture sums its components' approximants
    with its weights.
    """
    potentials = list(potentials)
    if any(p.alphabet != mu.alphabet for p in potentials):
        raise ValueError("measure and potential alphabets differ")
    if n < 1:
        raise ValueError("word length must be >= 1")
    k = mu.alphabet.k
    if k**n > _WORD_CAP:
        raise ValueError("word enumeration too large; reduce n")
    # row w is the word with C-order index w, as digits
    words = np.indices((k,) * n, dtype=np.min_scalar_type(k - 1)).reshape(n, -1).T
    averages = np.stack(
        [kernels.birkhoff_averages(words, p.table.ravel(), p.memory, k)
         for p in potentials],
        axis=1,
    )
    rows, inverse = _distinct_rows(averages)

    def expect(nu):
        if isinstance(nu, MixtureMeasure):
            return sum(w * expect(c) for w, c in zip(nu.weights, nu.components))
        # F once per distinct row of averages that has positive probability,
        # weighted by its total probability
        weights = np.bincount(inverse, weights=nu.word_probs(n).ravel(),
                              minlength=len(rows))
        live = weights > 0
        return float(np.dot(weights[live], [func(a) for a in rows[live]]))

    return expect(mu)


def affine_pressure_flat(model, mu):
    """F_flat(mu), as delta_report gives it."""
    return delta_report(model, mu)["f_flat"]


def affine_pressure_sharp(model, mu):
    """F_sharp(mu), as delta_report gives it."""
    return delta_report(model, mu)["f_sharp"]


# -- finite transportation problem -------------------------------------------


@dataclasses.dataclass(frozen=True)
class DiscreteDualMeasure:
    """Finitely supported probability vector on dual (tilt) points."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.points) != len(w) or len(w) == 0:
            raise ValueError("points and weights must match and be nonempty")
        for p in self.points:
            p = np.asarray(p, dtype=float)
            if not np.all(np.isfinite(p)):
                raise ValueError(f"points must be finite, got {p.tolist()}")
        if not np.all(np.isfinite(w)):
            raise ValueError(f"weights must be finite, got {w.tolist()}")
        if w.min() <= 0 or abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be positive and sum to one")


@dataclasses.dataclass
class Coupling:
    matrix: np.ndarray
    row_measure: DiscreteDualMeasure
    col_measure: DiscreteDualMeasure

    def __post_init__(self):
        n = np.asarray(self.matrix, dtype=float)
        if n.min() < -1e-12:
            raise ValueError("coupling entries must be nonnegative")
        if (
            np.abs(n.sum(axis=1) - np.asarray(self.row_measure.weights)).max()
            > 1e-10
            or np.abs(n.sum(axis=0) - np.asarray(self.col_measure.weights)).max()
            > 1e-10
        ):
            raise ValueError("coupling marginals do not match")
        self.matrix = n

    def cost(self, cost_matrix):
        return float(np.sum(self.matrix * cost_matrix))


def cost_matrix(model, rows, cols):
    """C[i, j] = P_NL(y+_i, y-_j), every pair priced by one stacked p_nl."""
    rows = np.array(rows, dtype=float).reshape(len(rows), model.n_plus)
    cols = np.array(cols, dtype=float).reshape(len(cols), model.n_minus)
    pairs = p_nl(model, np.repeat(rows, len(cols), axis=0),
                 np.tile(cols, (len(rows), 1)))
    return pairs.reshape(len(rows), len(cols))


def _checked_cost(cost, row_measure, col_measure):
    """The cost matrix as floats, one row per row point and one column per
    column point."""
    cost = np.asarray(cost, dtype=float)
    shape = (len(row_measure.points), len(col_measure.points))
    if cost.shape != shape:
        raise ValueError(
            f"cost matrix has shape {cost.shape}, the measures need {shape}"
        )
    return cost


def kantorovich_primal(cost, row_measure, col_measure):
    """min over couplings of sum n_ij C_ij, with C = cost_matrix(...) the
    prices P_NL(y+_i, y-_j).

    Returns (value, Coupling). One HiGHS solve of the marginal-equality LP
    (n >= 0, row sums r, column sums c), at any size; the value is the cost
    of the returned plan.
    """
    r = np.asarray(row_measure.weights, dtype=float)
    c = np.asarray(col_measure.weights, dtype=float)
    cost = _checked_cost(cost, row_measure, col_measure)
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains infinite entries")
    nr, nc = cost.shape
    # plan entry n_ij (flat index i*nc + j) enters two constraints, row sum
    # i and column sum nr + j: one CSC column with two ones
    i, j = np.divmod(np.arange(nr * nc), nc)
    a_eq = scipy.sparse.csc_array(
        (np.ones(2 * nr * nc), np.stack([i, nr + j], axis=1).ravel(),
         np.arange(0, 2 * nr * nc + 1, 2)),
        shape=(nr + nc, nr * nc),
    )
    res = scipy.optimize.linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([r, c]),
                                 bounds=(0, None), method="highs")
    if not res.success:
        raise ArithmeticError(f"kantorovich_primal: HiGHS failed: {res.message}")
    # HiGHS returns -0.0 and rounding-level negatives for nonbasic cells
    plan = np.maximum(res.x.reshape(nr, nc), 0.0)
    return float(np.sum(plan * cost)), Coupling(plan, row_measure, col_measure)


def kantorovich_dual_check(cost, row_measure, col_measure, primal_value,
                           alpha=None, beta=None, p_flat=None):
    """Verify a dual pair: feasibility alpha_i + beta_j <= C_ij and weak
    duality; defaults to the canonical pair alpha_i = P_flat, beta_j = 0.
    """
    cost = _checked_cost(cost, row_measure, col_measure)
    if alpha is None:
        if p_flat is None:
            raise ValueError("need p_flat for the canonical dual pair")
        alpha = np.full(len(row_measure.points), p_flat)
        beta = np.zeros(len(col_measure.points))
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    slack = cost - alpha[:, None] - beta[None, :]
    feasible = slack.min() > -1e-10
    dual_value = float(
        np.dot(alpha, row_measure.weights) + np.dot(beta, col_measure.weights)
    )
    weak = dual_value <= primal_value + 1e-8
    return {
        "feasible": bool(feasible),
        "dual_value": dual_value,
        "weak_duality": bool(weak),
        "gap": float(primal_value - dual_value),
        "min_slack": float(slack.min()),
    }


def birkhoff_sampling(model, mu, n, num_samples, seed=0):
    """Monte-Carlo order parameters: gradients of g at sampled n-step
    Birkhoff averages. Returns dict of arrays keyed by side.
    """
    for g in (model.g_plus, model.g_minus):
        if g is not None and not g.has_gradient:
            raise ValueError("order parameters require differentiable g")
    if mu.alphabet != model.alphabet:
        raise ValueError("measure and potential alphabets differ")
    k = mu.alphabet.k
    chunks = mu.path_chunks(n, num_samples, seed)
    sides = [(side, pots, g, np.empty((num_samples, len(pots))))
             for side, pots, g in (("plus", model.plus_potentials, model.g_plus),
                                   ("minus", model.minus_potentials, model.g_minus))
             if g is not None]
    # each chunk of paths is averaged as soon as it is drawn
    for lo, block in chunks:
        for _, pots, _, avgs in sides:
            for i, p in enumerate(pots):
                avgs[lo : lo + len(block), i] = kernels.birkhoff_averages(
                    block, p.table.ravel(), p.memory, k)
    return {side: g.gradient(avgs) for side, _, g, avgs in sides}
