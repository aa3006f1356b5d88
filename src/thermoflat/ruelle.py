"""Transfer operators, Ruelle-Perron-Frobenius data and linear pressure.

The operator of a memory-m potential is realized on functions of the
leading m-1 coordinates as a dense matrix of entrywise logs, so large
potentials do not overflow.  Every Perron root and vector is certified by
the Collatz-Wielandt bounds: for a nonnegative matrix M and any positive
vector h,

    min_i (M h)_i / h_i  <=  lambda  <=  max_i (M h)_i / h_i

so once that bracket on log lambda is narrower than PERRON_TOL, the returned
Perron root is correct to PERRON_TOL / 2 (up to rounding in the log-domain
sums).  A matrix that cannot be certified raises ArithmeticError; no
estimate is returned unchecked.

`perron` (root and right vector: the linear pressure) runs balanced dense
`eig` rounds.  `_word_law` (root and both vectors: the Gibbs measure) finds
both vectors by Noda's iteration, inverse iteration shifted by the current
Collatz-Wielandt upper bound, each step one batched `solve` of the shifted
matrix and its transpose; a pair on which it stalls, and a vector that does
not certify, go alone to `perron`'s rounds.  The tests certify random
memory-4 tables with entries uniform in [-50, 50] (k = 3 and 4) and, through
`perron`, in [-300, 300] (k = 3).  Wider tables can fail.  Of 30 tables in
[-300, 300] drawn from the default_rng(i) stream and 30 from one
default_rng(300) stream, `perron` fails 4 and 1 at k = 4 and none at k = 3,
and `_word_law` fails 5 and 1 at k = 4 and 0 and 2 at k = 3.
"""

import dataclasses
import functools

import numpy as np
import scipy.linalg

from .measures import CylinderPotential, MarkovMeasure

# Width, in log units, below which the Collatz-Wielandt bracket certifies
# log lambda; log-domain power steps per dense eigen-solve; eigen-solves.
PERRON_TOL = 1e-11
PERRON_STEPS = 16
PERRON_ROUNDS = 3
# Noda iteration for a Perron pair: linear-domain power steps before it,
# at most this many Noda steps, and the relative width of the shared
# Collatz-Wielandt bracket at which it stops.
NODA_WARMUP = 3
NODA_STEPS = 12
NODA_TOL = 1e-13


def _log_sum_exp(a, rows=False):
    """log(sum(exp(a))) shifted by the max: a float over all of `a`, or with
    rows=True one value per row of a matrix, -inf for a row of -inf."""
    if not rows:
        peak = a.max()
        return float(peak + np.log(np.exp(a - peak).sum()))
    peak = a.max(axis=1)
    peak[~np.isfinite(peak)] = 0.0
    return peak + np.log(np.exp(a - peak[:, None]).sum(axis=1))


def _collatz_wielandt(log_matrix, log_vec):
    """Log-domain power steps from log_vec until the Collatz-Wielandt
    bracket [min, max] of log(M h) - log h is narrower than PERRON_TOL, at
    most PERRON_STEPS of them.

    Returns (log_lambda, log_vec, width): the bracket's midpoint (None when
    no step certified), the last vector (max 0) and the last width.
    """
    width = np.nan
    for _ in range(PERRON_STEPS):
        log_mv = _log_sum_exp(log_matrix + log_vec, rows=True)
        ratio = log_mv - log_vec
        lo, hi = ratio.min(), ratio.max()
        width = hi - lo
        if width < PERRON_TOL:
            return float(0.5 * (lo + hi)), log_vec - log_vec.max(), width
        log_vec = log_mv - log_mv.max()
    return None, log_vec, width


def perron(log_matrix):
    """Perron root and right vector of a nonnegative matrix given by its logs.

    log_matrix: (D, D) entrywise logs, -inf for zero entries; acts on
    vectors as (M h)_i = sum_j M[i, j] h_j.  Returns (log_lambda, log_vec)
    with log_vec normalized to max 0.

    The top eigenvector of a dense `eig` is polished by log-domain power
    steps (_collatz_wielandt) until the Collatz-Wielandt bracket is
    narrower than PERRON_TOL; the midpoint is returned.  Each further round
    re-runs `eig` on M balanced by the current vector,
    diag(h)^-1 M diag(h), whose Perron vector is near all ones, so that
    components many orders of magnitude below the largest come out
    accurate.  Raises ArithmeticError with the last bracket width when no
    round certifies, for example when the Perron vector has a zero entry.
    A 1x1 matrix [[c]] gives exactly (c, [0.0]).
    """
    log_matrix = np.asarray(log_matrix, dtype=float)
    log_vec = np.zeros(log_matrix.shape[0])
    width = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(PERRON_ROUNDS):
            balanced = log_matrix - log_vec[:, None] + log_vec[None, :]
            peak = balanced.max()
            if not np.isfinite(peak):
                break
            vals, vecs = scipy.linalg.eig(
                np.exp(balanced - peak), check_finite=False, overwrite_a=True
            )
            log_lam, log_vec, width = _collatz_wielandt(
                log_matrix, log_vec + np.log(np.abs(vecs[:, np.argmax(vals.real)]))
            )
            if log_lam is not None:
                return log_lam, log_vec
            if not np.isfinite(log_vec).all():
                break
    raise ArithmeticError(
        f"perron: Collatz-Wielandt bracket width {width:.3g} on a "
        f"{len(log_vec)}-state matrix, above {PERRON_TOL:g}"
    )


@functools.cache
def _word_maps(k, memory):
    """Transfer-matrix cell [trail, lead] of every memory-word, in index order.

    A word w = (a, b), a its first symbol, has trailing (memory-1)-word
    trail = b = w mod k**(memory-1) and leading one lead = w // k; no two
    words share a cell.
    """
    words = np.arange(k**memory)
    trail, lead = words % k ** (memory - 1), words // k
    trail.flags.writeable = lead.flags.writeable = False
    return trail, lead


def _log_transfer(log_weights, table, memory):
    """Log transfer matrix of a flat word table: [trail, lead] of each word
    holds log m_a + f(w), so (L v)(b) = sum_a m_a exp(f(a ^ b)) v(lead).
    Memory 1 reduces to the 1x1 matrix log sum_a m_a exp(f(a))."""
    if memory == 1:
        return np.array([[_log_sum_exp(log_weights + table)]])
    k = len(log_weights)
    dim = k ** (memory - 1)
    trail, lead = _word_maps(k, memory)
    log_b = np.full((dim, dim), -np.inf)
    log_b[trail, lead] = np.repeat(log_weights, dim) + table
    return log_b


def _noda_pair(m):
    """Right and left Perron vectors of a nonnegative matrix m, as the rows
    of a (2, D) array with max 1, by Noda's iteration on m and m.T at once
    (see _word_law); None when it stalls or is not done after NODA_STEPS."""
    dim = m.shape[0]
    pair = np.stack([m, m.T])
    x = np.ones((2, dim, 1))
    for _ in range(NODA_WARMUP):
        x = pair @ x
        x /= x.max(axis=1, keepdims=True)
    shift = (1 + 1e-12) * np.eye(dim)
    gap = np.inf
    for step in range(NODA_STEPS + 1):
        ratio = (pair @ x) / x
        sigma = ratio.max(axis=1).min()
        lo = ratio.min(axis=1).max()
        if sigma - lo <= NODA_TOL * sigma:
            return x[..., 0]
        last, gap = gap, np.log(sigma / lo)
        if step == NODA_STEPS or not gap < last:
            return None
        x = np.abs(np.linalg.solve(sigma * shift - pair, x))
        x /= x.max(axis=1, keepdims=True)


def _word_law(log_b, k, memory):
    """Perron data of a memory >= 2 log transfer matrix and the law of its
    Gibbs measure on memory-words.

    Returns (log_lambda, log_h, log_nu, log_p): the Perron root, the right
    and left Perron vectors (each with max 0) and, for each word w in index
    order, log P(w) = log b[trail, lead] + log h(lead) + log nu(trail),
    unnormalized.  The Gibbs measure gives w the probability P(w) / sum P.

    M and M.T share their spectrum, so one shift serves both vectors of
    M = exp(log_b - max).  After NODA_WARMUP power steps from ones, Noda's
    iteration (Numer. Math. 17, 1971) takes the shift sigma, the smaller of
    the right and left Collatz-Wielandt maxima (both upper bounds on the
    root), and makes one batched `solve` of sigma (1 + 1e-12) I - M and its
    transpose.  It stops once sigma is within NODA_TOL (relative) of lo, the
    larger of the two minima.  A step that does not shrink log(sigma / lo)
    (an inf or NaN bracket, or vectors spanning too many orders of magnitude
    for the linear domain) stalls it.  _collatz_wielandt certifies each
    vector.  A stalled pair, one not done after NODA_STEPS steps, a
    LinAlgError (a singular solve) and a vector that does not certify fall
    back, one vector at a time, to `perron`'s balanced rounds; their error,
    if they fail too, gets the vector's name appended.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            x = _noda_pair(np.exp(log_b - log_b.max()))
        except np.linalg.LinAlgError:
            x = None
        starts = (None, None) if x is None else np.log(x)
        pair = []
        for log_matrix, start, side in zip(
            (log_b, log_b.T), starts, ("right", "left")
        ):
            log_lam = None
            if start is not None:
                log_lam, log_vec, _ = _collatz_wielandt(log_matrix, start)
            if log_lam is None:
                try:
                    log_lam, log_vec = perron(log_matrix)
                except ArithmeticError as exc:
                    raise ArithmeticError(f"{exc} ({side} vector)") from exc
            pair.append((log_lam, log_vec))
    (log_lam, log_h), (_, log_nu) = pair
    trail, lead = _word_maps(k, memory)
    return log_lam, log_h, log_nu, log_b[trail, lead] + log_h[lead] + log_nu[trail]


def stacked_tables(alphabet, potentials, memory):
    """The flat word tables of the potentials padded to `memory`, one row
    each: shape (len(potentials), k**memory)."""
    return np.array(
        [p.padded(memory).table.ravel() for p in potentials]
    ).reshape(-1, alphabet.k**memory)


def _tilted_pressure(log_weights, tilt, averaged, memory, hessian=False):
    """(P_L, tau), or with hessian=True (P_L, tau, H): the linear pressure of
    a flat memory-word table `tilt`, the Gibbs averages of the rows of
    `averaged`, flat tables over the same words, and their asymptotic
    covariance.  When `tilt` is y . averaged, tau and H are the gradient
    and Hessian of P_L in y.  A stack of tables, one per row of `tilt`,
    gives each output a leading stack axis, row for row equal to the
    table's own.

    Memory 1: the Gibbs measure is the product of the softmax weights of
    the table, its words i.i.d., and H their covariance; a stack is one
    broadcast logsumexp.  Memory >= 2: its law P on words comes from the
    Perron pair (_word_law), one row of a stack at a time, whose
    ArithmeticError passes through unchanged, with the row's index as its
    `row` attribute on a stack; H is the Green-Kubo sum (Parry & Pollicott,
    Asterisque 187-188, 1990) A diag(P) A^T + X + X^T of the centred rows
    A, X = (A P) u(trail).  u = (I - Q + 1 pi)^-1 c sums the correlations
    of the chain Q[lead, trail] = P / pi(lead) on the (memory-1)-words, pi
    its law, c(s) = E[A | lead = s]; a state whose pi underflows to 0 has
    an empty row of Q and c = 0, so it drops out.
    """
    stacked = tilt.ndim > 1
    if memory == 1:
        log_p = log_weights + tilt
        value = _log_sum_exp(log_p, rows=stacked)
        log_p -= value[:, None] if stacked else value
    elif stacked:
        rows = []
        for i, table in enumerate(tilt):
            try:
                rows.append(_tilted_pressure(log_weights, table, averaged, memory,
                                             hessian))
            except ArithmeticError as exc:
                exc.row = i
                raise
        return tuple(np.array(column) for column in zip(*rows))
    else:
        value, _, _, log_p = _word_law(
            _log_transfer(log_weights, tilt, memory), len(log_weights), memory
        )
        log_p -= _log_sum_exp(log_p)
    p = np.exp(log_p)
    # one matrix-vector product per table, so that a row of a stack is
    # priced exactly as the table alone
    tau = (averaged @ p[..., None])[..., 0]
    if not hessian:
        return value, tau
    centred = averaged - tau[..., None]
    weighted = centred * p[..., None, :]
    cov = weighted @ np.swapaxes(centred, -1, -2)
    if memory > 1:
        k = len(log_weights)
        trail, lead = _word_maps(k, memory)
        # words grouped by lead: row s of the reshape holds the words s ^ c
        pi = p.reshape(-1, k).sum(axis=1)
        mass = np.where(pi > 0, pi, 1.0)
        lhs = np.eye(len(pi)) + pi  # I - Q + 1 pi
        lhs[lead, trail] -= p / mass[lead]
        c = weighted.reshape(len(tau), -1, k).sum(axis=2).T / mass[:, None]
        cross = weighted @ np.linalg.solve(lhs, c)[trail]
        cov += cross + cross.T
    return value, tau, cov


@dataclasses.dataclass
class RPFData:
    """Perron data of a transfer matrix plus the induced Gibbs chain."""

    log_lambda: float
    h: np.ndarray  # right eigenvector over states, max = 1
    nu: np.ndarray  # eigenmeasure marginal over states, sums to 1
    gibbs: MarkovMeasure
    normalized_potential: CylinderPotential


def _potential_error(layer, phi, exc):
    return ArithmeticError(
        f"{layer}: memory-{phi.memory} potential with sup-norm "
        f"{phi.sup_norm:.6g}: {exc}"
    )


def rpf_solve(phi):
    """Perron pair of the transfer operator of a cylinder potential and the
    Gibbs chain it induces.

    The operator is the log transfer matrix of phi's own memory
    (_log_transfer), a 1x1 matrix at memory 1, where the Gibbs measure is
    the product of the weights m_a exp(f(a)) / lambda.  At memory m >= 2,
    with h and nu the right and left Perron vectors, the Gibbs measure of
    an m-word w with first symbol a is
        P(w) = m_a exp(f(w)) h(lead) nu(trail) / lambda
    (normalized).  Both of its (m-1)-word marginals equal h nu, so the chain
    with rows P(w) / pi(lead) over the words of each lead is stationary
    under pi, the lead marginal.  The normalized potential is
    f + ln h(lead) - ln h(trail) - ln lambda.
    """
    alphabet, m = phi.alphabet, phi.memory
    log_w = np.log(alphabet.weights)
    log_b = _log_transfer(log_w, phi.table.ravel(), m)

    if m == 1:
        log_lam = float(log_b[0, 0])
        log_p = log_w + phi.table - log_lam
        gibbs = MarkovMeasure.product(alphabet, np.exp(log_p))
        fbar = CylinderPotential(alphabet, phi.table - log_lam)
        return RPFData(
            log_lambda=log_lam,
            h=np.ones(1),
            nu=np.ones(1),
            gibbs=gibbs,
            normalized_potential=fbar,
        )

    k, dim = alphabet.k, log_b.shape[0]
    try:
        log_lam, log_h, log_nu, log_p = _word_law(log_b, k, m)
    except ArithmeticError as exc:
        raise _potential_error("rpf_solve", phi, exc) from exc

    trail, lead = _word_maps(k, m)
    # words grouped by lead: row s of the reshape holds the words s ^ c
    log_pi = _log_sum_exp(log_p.reshape(dim, k), rows=True)
    forward = np.zeros((dim, dim))
    forward[lead, trail] = np.exp(log_p - log_pi[lead])
    pi = np.exp(log_pi - _log_sum_exp(log_pi))
    fbar_table = phi.table.ravel() + log_h[lead] - log_h[trail] - log_lam

    return RPFData(
        log_lambda=log_lam,
        h=np.exp(log_h),
        nu=np.exp(log_nu - _log_sum_exp(log_nu)),
        gibbs=MarkovMeasure(alphabet, m - 1, pi, forward),
        normalized_potential=CylinderPotential(
            alphabet, fbar_table.reshape(phi.table.shape)
        ),
    )


def linear_pressure(phi):
    """Topological pressure log lambda_phi of a cylinder potential: the
    Perron root of its log transfer matrix.  At memory 1 that matrix is the
    1x1 log sum_a m_a exp(f(a)), which perron returns exactly."""
    try:
        return perron(
            _log_transfer(np.log(phi.alphabet.weights), phi.table.ravel(), phi.memory)
        )[0]
    except ArithmeticError as exc:
        raise _potential_error("linear_pressure", phi, exc) from exc


def entropy_of_gibbs(rpf, phi):
    """Entropy of the Gibbs measure via the duality log lambda - mu(f)."""
    from .measures import expectation

    return rpf.log_lambda - expectation(rpf.gibbs, phi)


def normalization_residual(rpf):
    """Max deviation of L_fbar(1) from 1 over all states."""
    fbar = rpf.normalized_potential
    k = fbar.alphabet.k
    m = fbar.memory
    weights = fbar.alphabet.weights
    if m == 1:
        return abs(float((weights * np.exp(fbar.table)).sum()) - 1.0)
    dim = k ** (m - 1)
    flat = fbar.table.reshape(k, dim)
    sums = (weights[:, None] * np.exp(flat)).sum(axis=0)
    return float(np.abs(sums - 1.0).max())
