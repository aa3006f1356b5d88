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
Collatz-Wielandt upper bound.  It takes a stack of transfer matrices, one
per tilt, and shares every stage among them: each Noda step is one batched
`solve` of every shifted matrix still iterating and its transpose, and one
batched Collatz-Wielandt step certifies every vector found.  A matrix on
which the iteration stalls, and a vector that does not certify, go alone to
`perron`'s rounds.  Each matrix of a stack gets bitwise the result it gets
alone.  The tests certify random
memory-4 tables with entries uniform in [-50, 50] (k = 3 and 4) and, through
`perron`, in [-300, 300] (k = 3).  Wider tables can fail.  Of 30 tables in
[-300, 300] drawn from the default_rng(i) stream and 30 from one
default_rng(300) stream, `perron` fails 4 and 1 at k = 4 and none at k = 3,
and `_word_law` fails 5 and 1 at k = 4 and 0 and 2 at k = 3.
"""

import dataclasses
import functools

import numpy as np
import scipy

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
    """Transfer-matrix cell [trail, lead] of every memory-word, in index
    order, and its flat index trail * k**(memory-1) + lead.

    A word w = (a, b), a its first symbol, has trailing (memory-1)-word
    trail = b = w mod k**(memory-1) and leading one lead = w // k; no two
    words share a cell.
    """
    words = np.arange(k**memory)
    dim = k ** (memory - 1)
    trail, lead = words % dim, words // k
    cell = trail * dim + lead
    trail.flags.writeable = lead.flags.writeable = cell.flags.writeable = False
    return trail, lead, cell


@functools.cache
def _identity(dim):
    """The dim x dim identity, read-only, as every solve of that size shares
    it."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def _log_transfer(log_weights, table, memory):
    """Log transfer matrix of a flat word table: [trail, lead] of each word
    holds log m_a + f(w), so (L v)(b) = sum_a m_a exp(f(a ^ b)) v(lead).  A
    stack of tables, one per row, gives a stack of matrices, built in one
    scatter.  Memory 1 reduces to the 1x1 matrix log sum_a m_a exp(f(a))."""
    if memory == 1:
        return np.array([[_log_sum_exp(log_weights + table)]])
    k = len(log_weights)
    dim = k ** (memory - 1)
    trail, lead, _ = _word_maps(k, memory)
    log_b = np.empty(table.shape[:-1] + (dim, dim))
    log_b.fill(-np.inf)
    log_b[..., trail, lead] = np.repeat(log_weights, dim) + table
    return log_b


def _noda_pair(m):
    """Right and left Perron vectors of nonnegative matrices by Noda's
    iteration on each m and m.T at once (see _word_law).  A stack m of shape
    (S, D, D) gives an (S, 2, D) array whose rows have max 1, NaN for a
    matrix on which the iteration stalls, meets a singular solve or is not
    done after NODA_STEPS; a (D, D) matrix gives (2, D), or None.

    Every step is one batched `solve` over the matrices still iterating; a
    matrix leaves as soon as it is done or stalls.  When the batched solve
    is singular, the step is retried one matrix at a time, so that only a
    singular matrix stalls.
    """
    single = m.ndim == 2
    m = m.reshape((-1,) + m.shape[-2:])
    count, dim = m.shape[:2]
    pair = np.empty((count, 2, dim, dim))
    pair[:, 0] = m
    pair[:, 1] = m.swapaxes(1, 2)
    del m  # the pair holds the matrices from here on
    x = np.empty((count, 2, dim, 1))
    x.fill(1.0)
    for _ in range(NODA_WARMUP):
        x = pair @ x
        x /= x.max(axis=2, keepdims=True)
    found = None  # the vectors, once a matrix leaves the batch
    rows, gap = list(range(count)), [[np.inf]] * count
    shift = (1 + 1e-12) * _identity(dim)
    shifted = np.empty_like(pair)
    for step in range(NODA_STEPS + 1):
        ratio = (pair @ x) / x
        sigma = ratio.max(axis=2).min(axis=1)
        lo = ratio.min(axis=2).max(axis=1)
        last, gap = gap, np.log(sigma / lo).tolist()
        go, done = [], []
        for i, ((s,), (b,)) in enumerate(zip(sigma.tolist(), lo.tolist())):
            if s - b <= NODA_TOL * s:
                done.append(i)
            elif step < NODA_STEPS and gap[i][0] < last[i][0]:
                go.append(i)
        if len(go) < len(rows):
            if len(done) == count:  # all done at once: the iterates are the vectors
                found = x[..., 0]
                break
            if found is None:
                found = np.full((count, 2, dim), np.nan)
            found[[rows[i] for i in done]] = x[done, ..., 0]
            if not go:
                break
            # keep the matrices still iterating, in place: a large stack
            # allocates no second copy of itself
            for j, i in enumerate(go):
                pair[j] = pair[i]
            pair, shifted = pair[: len(go)], shifted[: len(go)]
            x, sigma = x[go], sigma[go]
            rows, gap = [rows[i] for i in go], [gap[i] for i in go]
        np.subtract(sigma[..., None, None] * shift, pair, out=shifted)
        try:
            x = np.abs(np.linalg.solve(shifted, x))
        except np.linalg.LinAlgError:
            x = np.array([_solve_or_nan(a, b) for a, b in zip(shifted, x)])
        x /= x.max(axis=2, keepdims=True)
    if single:
        return None if np.isnan(found[0, 0, 0]) else found[0]
    return found


def _solve_or_nan(a, b):
    """|a^-1 b|, or NaN in its place when a is singular."""
    try:
        return np.abs(np.linalg.solve(a, b))
    except np.linalg.LinAlgError:
        return np.full_like(b, np.nan)


def _word_law(log_b, k, memory):
    """Perron data of memory >= 2 log transfer matrices and the law of each
    one's Gibbs measure on memory-words.

    log_b: a (D, D) matrix, or a stack (S, D, D) of them.  Returns
    (log_lambda, log_h, log_nu, log_p): the Perron root, the right and left
    Perron vectors (each with max 0) and, for each word w in index order,
    log P(w) = log b[trail, lead] + log h(lead) + log nu(trail),
    unnormalized.  The Gibbs measure gives w the probability P(w) / sum P.
    A stack gives each output a leading stack axis, row for row bitwise
    equal to the matrix's own.

    M and M.T share their spectrum, so one shift serves both vectors of
    M = exp(log_b - max).  After NODA_WARMUP power steps from ones, Noda's
    iteration (Numer. Math. 17, 1971) takes the shift sigma, the smaller of
    the right and left Collatz-Wielandt maxima (both upper bounds on the
    root), and makes one batched `solve` of sigma (1 + 1e-12) I - M and its
    transpose, for every matrix of a stack at once (_noda_pair).  It stops
    once sigma is within NODA_TOL (relative) of lo, the larger of the two
    minima.  A step that does not shrink log(sigma / lo) (an inf or NaN
    bracket, or vectors spanning too many orders of magnitude for the
    linear domain) stalls it.  One batched Collatz-Wielandt step certifies
    every vector Noda found.  Only a vector it does not certify goes on,
    alone, to _collatz_wielandt's further steps; a stalled matrix, one not
    done after NODA_STEPS steps or one whose solve is singular sends both
    its vectors, one at a time, to `perron`'s balanced rounds.  Their error,
    if they fail too, gets the vector's name appended and the matrix's index
    in the stack as its `row` attribute.
    """
    single = log_b.ndim == 2
    log_b = log_b.reshape((-1,) + log_b.shape[-2:])
    count, dim = log_b.shape[:2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = _noda_pair(np.exp(log_b - log_b.max(axis=(1, 2), keepdims=True)))
        # Noda's vectors have max exactly 1, so these logs have max 0
        log_vec = np.log(x)
        terms = np.empty((count, 2, dim, dim))
        terms[:, 0] = log_b
        terms[:, 1] = log_b.swapaxes(1, 2)
        terms += log_vec[:, :, None, :]
        # a row of -inf terms gives NaN here, so that its vector fails the
        # bracket below and goes on to _collatz_wielandt, which handles it
        peak = terms.max(axis=-1)
        terms -= peak[..., None]
        ratio = peak + np.log(np.exp(terms, out=terms).sum(axis=-1)) - log_vec
        lo, hi = ratio.min(axis=2), ratio.max(axis=2)
        log_lam = 0.5 * (lo + hi)
        for i, width in enumerate((hi - lo).ravel().tolist()):
            if width < PERRON_TOL:
                continue
            row, side = divmod(i, 2)
            log_matrix = log_b[row].T if side else log_b[row]
            lam = None
            if not np.isnan(x[row, 0, 0]):
                lam, vec, _ = _collatz_wielandt(log_matrix, log_vec[row, side])
            if lam is None:
                try:
                    lam, vec = perron(log_matrix)
                except ArithmeticError as exc:
                    error = ArithmeticError(f"{exc} ({('right', 'left')[side]} vector)")
                    error.row = row
                    raise error from exc
            log_lam[row, side], log_vec[row, side] = lam, vec
    # take keeps each row of log_p contiguous, so that a row of a stack is
    # summed exactly as the matrix alone
    trail, lead, cell = _word_maps(k, memory)
    log_p = (log_b.reshape(count, -1).take(cell, axis=1)
             + log_vec[:, 0].take(lead, axis=1) + log_vec[:, 1].take(trail, axis=1))
    log_h, log_nu = log_vec[:, 0], log_vec[:, 1]
    if single:
        return float(log_lam[0, 0]), log_h[0], log_nu[0], log_p[0]
    return log_lam[:, 0], log_h, log_nu, log_p


def stacked_tables(alphabet, potentials, memory):
    """The flat word tables of the potentials padded to `memory`, one row
    each: shape (len(potentials), k**memory)."""
    return np.array(
        [p.padded(memory).table.ravel() for p in potentials]
    ).reshape(-1, alphabet.k**memory)


def _fundamental_solve(lhs, c):
    """(I - Q + 1 pi)^-1 c for a stack of chains.  A matrix that is singular
    to working precision, a chain that splits into closed classes whose
    correlations never decay, raises ArithmeticError with its index in the
    stack as its `row` attribute."""
    try:
        return np.linalg.solve(lhs, c)
    except np.linalg.LinAlgError:
        stack = lhs.reshape((-1,) + lhs.shape[-2:])
        rights = c.reshape((len(stack),) + c.shape[-2:])
        error = ArithmeticError("Green-Kubo sum: the Gibbs chain splits into "
                                "closed classes to working precision")
        error.row = next(i for i, (a, b) in enumerate(zip(stack, rights))
                         if np.isnan(_solve_or_nan(a, b)).all())
        raise error from None


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
    broadcast logsumexp.  Memory >= 2: the transfer matrices of a stack are
    built in one scatter, and their laws P on words come from one call of
    the Perron pair (_word_law), whose ArithmeticError passes through
    unchanged, with the failing row's index as its `row` attribute; H is
    the Green-Kubo sum (Parry & Pollicott, Asterisque 187-188, 1990)
    A diag(P) A^T + X + X^T of the centred rows A, X = (A P) u(trail).
    u = (I - Q + 1 pi)^-1 c sums the correlations of the chain
    Q[lead, trail] = P / pi(lead) on the (memory-1)-words, pi its law,
    c(s) = E[A | lead = s], one stacked solve for the whole stack
    (_fundamental_solve, which names a chain that splits into closed
    classes); a state whose pi underflows to 0 has an empty row of Q and
    c = 0, so it drops out.
    """
    stacked = tilt.ndim > 1
    if memory == 1:
        log_p = log_weights + tilt
        value = _log_sum_exp(log_p, rows=stacked)
        total = value
    else:
        value, _, _, log_p = _word_law(
            _log_transfer(log_weights, tilt, memory), len(log_weights), memory
        )
        total = _log_sum_exp(log_p, rows=stacked)
    log_p -= total[:, None] if stacked else total
    p = np.exp(log_p)
    # one matrix-vector product per table, so that a row of a stack is
    # priced exactly as the table alone
    tau = (averaged @ p[..., None])[..., 0]
    if not hessian:
        return value, tau
    centred = averaged - tau[..., None]
    weighted = centred * p[..., None, :]
    cov = weighted @ centred.swapaxes(-1, -2)
    if memory > 1:
        k = len(log_weights)
        trail, lead, _ = _word_maps(k, memory)
        # words grouped by lead: row s of the reshape holds the words s ^ c
        grouped = p.reshape(p.shape[:-1] + (-1, k))
        pi = grouped.sum(axis=-1)
        mass = np.where(pi > 0, pi, 1.0)
        lhs = _identity(pi.shape[-1]) + pi[..., None, :]  # I - Q + 1 pi
        lhs[..., lead, trail] -= (grouped / mass[..., None]).reshape(p.shape)
        c = weighted.reshape(weighted.shape[:-1] + (-1, k)).sum(axis=-1)
        c = c.swapaxes(-1, -2) / mass[..., None]
        cross = weighted @ _fundamental_solve(lhs, c).take(trail, axis=-2)
        cov += cross + cross.swapaxes(-1, -2)
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

    trail, lead, _ = _word_maps(k, m)
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
