"""Finite alphabets, cylinder potentials and shift-invariant measures.

Entropy here is relative to the product of the a priori weights, hence
always <= 0 (natural log).  This differs from the classical Shannon rate by
the log of the alphabet-weight offsets; see entropy_rate.
"""

import numpy as np

from . import kernels
from .config import (
    MEMORY_CAP,
    PROB_TOL,
    STATIONARITY_TOL,
)


class AprioriAlphabet:
    """Finite character set with full-support a priori weights."""

    def __init__(self, k, weights=None):
        self.k = int(k)
        if self.k < 2:
            raise ValueError("alphabet needs at least two characters")
        if weights is None:
            weights = np.full(self.k, 1.0 / self.k)
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (self.k,):
            raise ValueError("weight vector length mismatch")
        if np.any(self.weights <= 0):
            raise ValueError("a priori weights must have full support")
        if abs(self.weights.sum() - 1.0) > PROB_TOL:
            raise ValueError("a priori weights must sum to 1")

    def __eq__(self, other):
        return (
            isinstance(other, AprioriAlphabet)
            and self.k == other.k
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self):
        return f"AprioriAlphabet(k={self.k}, weights={self.weights.tolist()})"


class CylinderPotential:
    """Locally constant potential depending on the leading `memory` symbols."""

    def __init__(self, alphabet, table, name=""):
        self.alphabet = alphabet
        self.table = np.asarray(table, dtype=float)
        self.name = name
        self.memory = self.table.ndim
        if self.memory < 1 or self.memory > MEMORY_CAP:
            raise ValueError(f"potential memory must be in [1, {MEMORY_CAP}]")
        if self.table.shape != (alphabet.k,) * self.memory:
            raise ValueError("table shape must be (k,) * memory")
        if not np.all(np.isfinite(self.table)):
            raise ValueError("potential table must be finite")

    def padded(self, memory):
        """Same potential as a table over longer words (trailing broadcast)."""
        if memory < self.memory:
            raise ValueError("cannot pad to a shorter memory")
        if memory == self.memory:
            return self
        shape = self.table.shape + (1,) * (memory - self.memory)
        table = np.broadcast_to(
            self.table.reshape(shape), (self.alphabet.k,) * memory
        ).copy()
        return CylinderPotential(self.alphabet, table, name=self.name)

    def __mul__(self, c):
        return CylinderPotential(self.alphabet, self.table * float(c), name=self.name)

    __rmul__ = __mul__

    def __add__(self, other):
        if self.alphabet != other.alphabet:
            raise ValueError("potentials live on different alphabets")
        m = max(self.memory, other.memory)
        return CylinderPotential(
            self.alphabet, self.padded(m).table + other.padded(m).table
        )

    def __neg__(self):
        return self * (-1.0)

    @property
    def sup_norm(self):
        return float(np.abs(self.table).max())

    @classmethod
    def zero(cls, alphabet, memory=1):
        return cls(alphabet, np.zeros((alphabet.k,) * memory))


def _is_primitive(support):
    """Irreducible + aperiodic boolean transition support."""
    n = support.shape[0]
    power = np.eye(n, dtype=bool)
    for _ in range(n * n + 1):
        power = power @ support
        if power.all():
            return True
    return False


def stationary_distribution(Q):
    """Left fixed vector of a row-stochastic matrix.

    Solved directly from pi (Q - I) = 0 with the normalization row; direct
    solve stays accurate even when the subdominant eigenvalue sits near the
    unit circle (strongly antiperiodic chains), where power iteration drifts.
    """
    Q = np.asarray(Q, dtype=float)
    if not _is_primitive(Q > 0):
        raise ValueError("non-ergodic transition matrix")
    n = Q.shape[0]
    a = Q.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _cumulative(probs):
    """Cumulative sums along the last axis, set to 1.0 from each row's last
    positive entry on.  A row whose sum rounds below 1 would otherwise send
    a draw u at or above that sum past its last positive entry."""
    cum = np.cumsum(probs, axis=-1)
    last = probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cum[np.arange(probs.shape[-1]) >= np.expand_dims(last, -1)] = 1.0
    return cum


class MarkovMeasure:
    """Shift-invariant measure of finite Markov order on an a priori alphabet.

    order 0 is a product measure (stationary = symbol probabilities); order
    r >= 1 keeps a stationary vector over the k**r length-r words and a
    row-stochastic transition matrix consistent with word overlap.
    """

    def __init__(self, alphabet, order, stationary, transitions=None, ergodic=None):
        self.alphabet = alphabet
        self.order = int(order)
        self.stationary = np.asarray(stationary, dtype=float)
        k = alphabet.k
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        n_states = k ** max(self.order, 1) if self.order >= 1 else k
        if self.stationary.shape != (n_states if self.order >= 1 else k,):
            raise ValueError("stationary vector has the wrong length")
        if np.any(self.stationary < -PROB_TOL) or abs(self.stationary.sum() - 1) > PROB_TOL:
            raise ValueError("stationary vector must be a probability vector")
        self.stationary = np.clip(self.stationary, 0.0, None)
        self.stationary /= self.stationary.sum()

        if self.order == 0:
            if transitions is not None:
                raise ValueError("product measures carry no transition matrix")
            self.transitions = None
            self.ergodic = True if ergodic is None else bool(ergodic)
            return

        if transitions is None:
            raise ValueError("Markov order >= 1 requires a transition matrix")
        Q = np.asarray(transitions, dtype=float)
        if Q.shape != (n_states, n_states):
            raise ValueError("transition matrix has the wrong shape")
        if np.any(Q < -PROB_TOL) or np.abs(Q.sum(axis=1) - 1.0).max() > PROB_TOL:
            raise ValueError("transition rows must be probability vectors")
        Q = np.clip(Q, 0.0, None)
        # Word-overlap support: state (w1..wr) may only reach (w2..wr, a).
        r = self.order
        if r > 1:
            s, t = np.nonzero(Q > 0)
            if np.any(t // k != s % (k ** (r - 1))):
                raise ValueError("transition support violates word overlap")
        if np.abs(self.stationary @ Q - self.stationary).max() > STATIONARITY_TOL:
            raise ValueError("stationary vector is not invariant under Q")
        self.transitions = Q
        if ergodic is None:
            self.ergodic = _is_primitive(Q > 0)
        else:
            self.ergodic = bool(ergodic)
            if self.ergodic and not _is_primitive(Q > 0):
                raise ValueError("measure flagged ergodic but support is not primitive")

    @classmethod
    def product(cls, alphabet, probs, ergodic=True):
        return cls(alphabet, 0, probs, ergodic=ergodic)

    @classmethod
    def from_transitions(cls, alphabet, transitions, order=1, ergodic=None):
        pi = stationary_distribution(np.asarray(transitions, dtype=float))
        return cls(alphabet, order, pi, transitions, ergodic=ergodic)

    # -- word machinery ----------------------------------------------------

    def symbol_kernel(self):
        """(n_states, k) next-symbol probabilities given the current state."""
        k = self.alphabet.k
        if self.order == 0:
            return np.tile(self.stationary, (k, 1))
        r = self.order
        n_states = k**r
        kern = np.zeros((n_states, k))
        for s in range(n_states):
            tail = s % (k ** (r - 1)) if r > 1 else 0
            for a in range(k):
                t = tail * k + a if r > 1 else a
                kern[s, a] = self.transitions[s, t]
        return kern

    def word_probs(self, length):
        """Probabilities of all k**length words, as a (k,)*length tensor."""
        k = self.alphabet.k
        if length < 1:
            raise ValueError("word length must be >= 1")
        if self.order == 0:
            out = self.stationary.copy()
            for _ in range(length - 1):
                out = np.multiply.outer(out, self.stationary)
            return out.reshape((k,) * length) if length > 1 else out
        r = self.order
        if length <= r:
            full = self.stationary.reshape((k,) * r)
            return full.sum(axis=tuple(range(length, r))) if length < r else full
        kern = self.symbol_kernel()
        probs = self.stationary.copy()  # over length-r prefixes
        for step in range(length - r):
            cur_len = r + step
            # state of a word = its trailing r symbols
            n_words = k**cur_len
            idx = np.arange(n_words) % (k**r)
            probs = (probs[:, None] * kern[idx]).reshape(n_words * k)
        return probs.reshape((k,) * length)

    def two_cylinder_tv(self, other):
        """Total variation distance on 2-cylinders (solver identity checks)."""
        return 0.5 * float(
            np.abs(self.word_probs(2) - other.word_probs(2)).sum()
        )

    def path_chunks(self, n, num_samples, seed):
        """Sample symbol paths of length n in chunks (seeded PCG64).

        Returns an iterator of (first_row, block), one per chunk of up to
        1024 paths, checking its arguments at the call: block is
        (size, n), symbols in the smallest unsigned dtype that holds k - 1,
        and row i is path first_row + i.  Chunk ci draws from
        SeedSequence(entropy=seed, spawn_key=(ci,)), so the first paths do
        not depend on num_samples: a larger budget only appends paths.

        Order 0 draws each symbol from the one distribution, the u of a chunk
        in row blocks of about kernels.BLOCK_VALUES: a symbol is the count of
        cumulative weights <= u below the last one, searchsorted(side="right")
        capped at k - 1.  Order >= 1 runs the state chain and expands its
        states into symbols.  The cumulative weights are 1.0 from the last
        positive one on (_cumulative), so no draw takes a step of probability 0.
        """
        r = max(self.order, 1)
        if n < r:
            raise ValueError("path length shorter than the measure order")
        if num_samples < 0:
            raise ValueError(f"num_samples must be >= 0, got {num_samples}")
        return self._chunks(n, num_samples, seed)

    def _chunks(self, n, num_samples, seed):
        """The generator of path_chunks, on checked arguments."""
        k = self.alphabet.k
        r = max(self.order, 1)
        start_cum = _cumulative(self.stationary)
        if self.order > 0:
            trans_cum = _cumulative(self.transitions)
        draws = 1 + (n - r)
        chunk = 1024
        dtype = np.min_scalar_type(k - 1)
        for ci, lo in enumerate(range(0, num_samples, chunk)):
            size = min(chunk, num_samples - lo)
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
            )
            block = np.zeros((size, n), dtype=dtype)
            if self.order == 0:
                for rows in np.array_split(block, -(-size * n // kernels.BLOCK_VALUES)):
                    uniforms = rng.random(rows.shape)
                    for c in start_cum[:-1]:
                        rows += uniforms >= c
            else:
                uniforms = rng.random((size, draws))
                states = kernels.sample_state_paths(start_cum, trans_cum, uniforms)
                # expand: initial state contributes its r symbols, then one per step
                first = states[:, 0]
                for j in range(r):
                    block[:, r - 1 - j] = first % k
                    first = first // k
                if draws > 1:
                    block[:, r:] = states[:, 1:] % k
            yield lo, block

    def sample_paths(self, n, num_samples, seed):
        """Sample symbol paths of length n as one (num_samples, n) int64
        array: the blocks of path_chunks, copied in order."""
        chunks = self.path_chunks(n, num_samples, seed)
        out = np.empty((num_samples, n), dtype=np.int64)
        for lo, block in chunks:
            out[lo : lo + len(block)] = block
        return out


def expectation(mu, phi):
    """E_mu[phi] over words of the potential memory."""
    if mu.alphabet != phi.alphabet:
        raise ValueError("measure and potential alphabets differ")
    probs = mu.word_probs(phi.memory)
    return float((probs * phi.table).sum())


def entropy_rate(mu):
    """Relative entropy rate w.r.t. the a priori product measure (<= 0)."""
    if isinstance(mu, MixtureMeasure):
        return mu.entropy_rate()
    m = mu.alphabet.weights
    if mu.order == 0:
        p = mu.stationary
        mask = p > 0
        return float(-(p[mask] * np.log(p[mask] / m[mask])).sum())
    kern = mu.symbol_kernel()
    pi = mu.stationary
    total = 0.0
    for s in range(len(pi)):
        if pi[s] == 0:
            continue
        row = kern[s]
        mask = row > 0
        total -= pi[s] * float((row[mask] * np.log(row[mask] / m[mask])).sum())
    return total


class MixtureMeasure:
    """Finite convex mixture of Markov measures with explicit Choquet weights."""

    def __init__(self, components):
        comps = []
        weights = []
        for weight, measure in components:
            if weight <= 0 or weight > 1:
                raise ValueError("mixture weights must lie in (0, 1]")
            comps.append(measure)
            weights.append(float(weight))
        if abs(sum(weights) - 1.0) > PROB_TOL:
            raise ValueError("mixture weights must sum to 1")
        if not comps:
            raise ValueError("mixture needs at least one component")
        if any(c.alphabet != comps[0].alphabet for c in comps):
            raise ValueError("mixture components must share one alphabet")
        self.weights = weights
        self.components = comps
        self.alphabet = comps[0].alphabet

    def word_probs(self, length):
        """The weighted sum of the components' word laws."""
        return sum(w * c.word_probs(length)
                   for w, c in zip(self.weights, self.components))

    def entropy_rate(self):
        # entropy is affine: the mixture rate is the weighted component sum
        return sum(w * entropy_rate(c) for w, c in zip(self.weights, self.components))
