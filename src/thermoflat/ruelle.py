"""Transfer operators, Ruelle-Perron-Frobenius data and linear pressure.

The operator of a memory-m potential is realized on functions of the
leading m-1 coordinates as a dense matrix of entrywise logs, so large
potentials do not overflow.  `perron` is the one eigen-solve.  It certifies
its answer with the Collatz-Wielandt bounds: for a nonnegative matrix M and
any positive vector h,

    min_i (M h)_i / h_i  <=  lambda  <=  max_i (M h)_i / h_i

so once that bracket on log lambda is narrower than PERRON_TOL, the returned
Perron root is correct to PERRON_TOL / 2 (up to rounding in the log-domain
sums).  A matrix it cannot certify raises ArithmeticError; no estimate is
returned unchecked.  The tests certify random memory-4 tables with entries
uniform in [-50, 50] (k = 3 and 4) and in [-300, 300] (k = 3); wider
tables can fail, as do about 4 in 30 of the k = 4 tables in [-300, 300].
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


def _log_sum_exp(a, rows=False):
    """log(sum(exp(a))) shifted by the max: a float over all of `a`, or with
    rows=True one value per row of a matrix, -inf for a row of -inf."""
    if not rows:
        peak = a.max()
        return float(peak + np.log(np.exp(a - peak).sum()))
    peak = a.max(axis=1)
    peak[~np.isfinite(peak)] = 0.0
    return peak + np.log(np.exp(a - peak[:, None]).sum(axis=1))


def perron(log_matrix):
    """Perron root and right vector of a nonnegative matrix given by its logs.

    log_matrix: (D, D) entrywise logs, -inf for zero entries; acts on
    vectors as (M h)_i = sum_j M[i, j] h_j.  Returns (log_lambda, log_vec)
    with log_vec normalized to max 0.

    The top eigenvector of a dense `eig` is polished by log-domain power
    steps until the Collatz-Wielandt bracket [min, max] of
    log(M h) - log h is narrower than PERRON_TOL; the midpoint is returned.
    Each further round re-runs `eig` on M balanced by the current vector,
    diag(h)^-1 M diag(h), whose Perron vector is near all ones, so that
    components many orders of magnitude below the largest come out
    accurate.  Raises ArithmeticError with the last bracket width when no
    round certifies, for example when the Perron vector has a zero entry.
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
            log_vec = log_vec + np.log(np.abs(vecs[:, np.argmax(vals.real)]))
            for _ in range(PERRON_STEPS):
                log_mv = _log_sum_exp(log_matrix + log_vec, rows=True)
                ratio = log_mv - log_vec
                lo, hi = ratio.min(), ratio.max()
                width = hi - lo
                if width < PERRON_TOL:
                    return float(0.5 * (lo + hi)), log_vec - log_vec.max()
                log_vec = log_mv - log_mv.max()
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


class TransferMatrix:
    """Log-domain matrix realization of the weighted prepend-and-sum operator.

    For memory m >= 2 the states are the (m-1)-words; entry [b, b'] is
    log(m_a exp(f(a ^ b))) when b' = (a, b_1..b_{m-2}) and -inf otherwise
    (structural zeros appear only for m >= 3; the matrix stays primitive).
    Memory-1 potentials reduce to the scalar sum_a m_a exp(f(a)).
    """

    def __init__(self, phi):
        self.phi = phi
        self.alphabet = phi.alphabet
        self.memory = phi.memory
        self.log_entries = _log_transfer(
            np.log(self.alphabet.weights), phi.table.ravel(), phi.memory
        )
        self.dim = self.log_entries.shape[0]


@dataclasses.dataclass
class RPFData:
    """Perron data of a transfer matrix plus the induced Gibbs chain."""

    log_lambda: float
    h: np.ndarray  # right eigenvector over states, max = 1
    nu: np.ndarray  # eigenmeasure marginal over states, sums to 1
    gibbs: MarkovMeasure
    normalized_potential: CylinderPotential


def build_transfer(phi):
    return TransferMatrix(phi)


def _potential_error(layer, phi, exc):
    return ArithmeticError(
        f"{layer}: memory-{phi.memory} potential with sup-norm "
        f"{phi.sup_norm:.6g}: {exc}"
    )


def rpf_solve(transfer):
    """Perron pair of the transfer matrix and the Gibbs chain it induces.

    With h and nu the right and left Perron vectors, the Gibbs measure of an
    m-word w with first symbol a is
        P(w) = m_a exp(f(w)) h(lead) nu(trail) / lambda
    (normalized).  Both of its (m-1)-word marginals equal h nu, so the chain
    with rows P(w) / pi(lead) over the words of each lead is stationary
    under pi, the lead marginal.  The normalized potential is
    f + ln h(lead) - ln h(trail) - ln lambda.
    """
    phi = transfer.phi
    alphabet = transfer.alphabet
    m = transfer.memory

    if m == 1:
        log_lam = float(transfer.log_entries[0, 0])
        log_p = np.log(alphabet.weights) + phi.table - log_lam
        gibbs = MarkovMeasure.product(alphabet, np.exp(log_p))
        fbar = CylinderPotential(alphabet, phi.table - log_lam)
        return RPFData(
            log_lambda=log_lam,
            h=np.ones(1),
            nu=np.ones(1),
            gibbs=gibbs,
            normalized_potential=fbar,
        )

    log_b = transfer.log_entries
    try:
        log_lam, log_h = perron(log_b)
        _, log_nu = perron(log_b.T)
    except ArithmeticError as exc:
        raise _potential_error("rpf_solve", phi, exc) from exc

    k, dim = alphabet.k, transfer.dim
    trail, lead = _word_maps(k, m)
    # words grouped by lead: row s of the reshape holds the words s ^ c
    log_p = log_b[trail, lead] + log_h[lead] + log_nu[trail]
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
    """Topological pressure log lambda_phi of a cylinder potential."""
    if phi.memory == 1:
        # scalar fast path, exact closed form
        return _log_sum_exp(np.log(phi.alphabet.weights) + phi.table)
    try:
        return perron(build_transfer(phi).log_entries)[0]
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
