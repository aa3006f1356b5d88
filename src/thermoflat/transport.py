"""Order-parameter transport: Delta-functionals over ergodic decompositions
and the finite Monge-Kantorovich reformulation of the max-min pressure,
whose primal is one HiGHS linear program of any size.
"""

import dataclasses

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import kernels
from .linearizer import p_nl
from .measures import MarkovMeasure, MixtureMeasure, entropy_rate, expectation

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


def delta_functional(model_or_potentials, mu, func, side="plus"):
    """Delta^F(mu) = sum_i lambda_i F(tau(nu_i)) over ergodic components.

    model_or_potentials is either a ModelSpec (side picks the potential
    family) or an explicit list of potentials.
    """
    if hasattr(model_or_potentials, "plus_potentials"):
        pots = (
            model_or_potentials.plus_potentials
            if side == "plus"
            else model_or_potentials.minus_potentials
        )
    else:
        pots = list(model_or_potentials)
    total = 0.0
    for w, nu in _components(mu):
        tau = np.array([expectation(nu, p) for p in pots])
        total += w * func(tau)
    return total


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
    Jensen on the two-block split.  The averages of the words are computed
    once; a mixture sums its components' approximants with its weights.
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
    words = np.indices((k,) * n).reshape(n, -1).T
    averages = np.stack(
        [kernels.birkhoff_averages(words, p.table.ravel(), p.memory, k)
         for p in potentials],
        axis=1,
    )

    def expect(nu):
        if isinstance(nu, MixtureMeasure):
            return sum(w * expect(c) for w, c in zip(nu.weights, nu.components))
        # F once per distinct row of averages, weighted by its total probability
        probs = nu.word_probs(n).ravel()
        mask = probs > 0
        rows, inverse = _distinct_rows(averages[mask])
        weights = np.bincount(inverse, weights=probs[mask], minlength=len(rows))
        return float(np.dot(weights, [func(a) for a in rows]))

    return expect(mu)


def affine_pressure_flat(model, mu):
    """F_flat(mu) = Delta^{g+ o tau+} - Delta^{g- o tau-} + h(mu).

    Equals sum_i lambda_i P(nu_i): affine in the ergodic decomposition.
    """
    total = entropy_rate(mu)
    if model.g_plus is not None:
        total += delta_functional(model, mu, model.g_plus.value, side="plus")
    if model.g_minus is not None:
        total -= delta_functional(model, mu, model.g_minus.value, side="minus")
    return total


def affine_pressure_sharp(model, mu):
    """F_sharp(mu): the minus side is evaluated at the mixed mean, not
    component-wise, so only the plus side is affine.
    """
    total = entropy_rate(mu)
    if model.g_plus is not None:
        total += delta_functional(model, mu, model.g_plus.value, side="plus")
    if model.g_minus is not None:
        tau = np.array([expectation(mu, p) for p in model.minus_potentials])
        total -= model.g_minus.value(tau)
    return total


def order_parameter_distribution(model, mu):
    """Push-forward of the ergodic decomposition to gradient order parameters.

    Returns [(weight, x_plus, x_minus)] with x_pm = grad g_pm(tau_pm(nu_i));
    kinked couplings (no gradient) are rejected.
    """
    for g in (model.g_plus, model.g_minus):
        if g is not None and not g.has_gradient:
            raise ValueError("order parameters require differentiable g")
    out = []
    for w, nu in _components(mu):
        xp = (
            model.g_plus.gradient(model.tau_plus(nu))
            if model.g_plus is not None
            else np.zeros(0)
        )
        xm = (
            model.g_minus.gradient(model.tau_minus(nu))
            if model.g_minus is not None
            else np.zeros(0)
        )
        out.append((w, xp, xm))
    return out


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
    a_eq = sparse.csc_array(
        (np.ones(2 * nr * nc), np.stack([i, nr + j], axis=1).ravel(),
         np.arange(0, 2 * nr * nc + 1, 2)),
        shape=(nr + nc, nr * nc),
    )
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([r, c]),
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
    paths = mu.sample_paths(n, num_samples, seed=seed)
    k = mu.alphabet.k
    out = {}
    for side, pots, g in (
        ("plus", model.plus_potentials, model.g_plus),
        ("minus", model.minus_potentials, model.g_minus),
    ):
        if g is None:
            continue
        avgs = np.stack(
            [
                kernels.birkhoff_averages(paths, p.table.ravel(), p.memory, k)
                for p in pots
            ],
            axis=1,
        )
        out[side] = g.gradient_many(avgs)
    return out
