"""Numpy kernels for Monte-Carlo path sampling and Birkhoff averaging.

State selection uses "first index whose cumulative weight exceeds u", so
paths are a fixed function of the uniform draws.
"""

import numpy as np


def sample_state_paths(start_cum, trans_cum, uniforms):
    """Sample Markov state paths by inverse-CDF lookup.

    start_cum: (S,) cumulative initial distribution, last entry == 1.
    trans_cum: (S, S) cumulative transition rows, last column == 1.
    uniforms:  (num, steps) uniform draws; column 0 selects the initial
               state, the rest drive transitions.

    Returns (num, steps) int64 state indices.
    """
    uniforms = np.asarray(uniforms, dtype=np.float64)
    num, steps = uniforms.shape
    paths = np.empty((num, steps), dtype=np.int64)
    state = np.searchsorted(start_cum, uniforms[:, 0], side="right")
    np.clip(state, 0, len(start_cum) - 1, out=state)
    paths[:, 0] = state
    for t in range(1, steps):
        rows = trans_cum[state]
        u = uniforms[:, t]
        state = (rows <= u[:, None]).sum(axis=1)
        np.clip(state, 0, trans_cum.shape[1] - 1, out=state)
        paths[:, t] = state
    return paths


def birkhoff_averages(symbols, table, memory, k):
    """Cyclic Birkhoff averages of a word-indexed potential along paths.

    symbols: (num, n) symbol indices in [0, k).
    table:   flat potential table of length k**memory, C order.
    Returns (num,) averages over all n cyclic window positions.
    """
    symbols = np.asarray(symbols)
    num, n = symbols.shape
    acc = np.zeros(num, dtype=np.float64)
    for t in range(n):
        idx = np.zeros(num, dtype=np.int64)
        for j in range(memory):
            idx = idx * k + symbols[:, (t + j) % n]
        acc += table[idx]
    return acc / n
