"""Numpy kernels for Monte-Carlo path sampling and Birkhoff averaging.

State selection uses "first index whose cumulative weight exceeds u", so
paths are a fixed function of the uniform draws.

Birkhoff averages are whole-array passes over blocks of rows: each block
builds all window indices at once and sums the window values with a
cumulative sum, which adds left to right, in the same order as a running
``acc += value`` over window positions, so the averages do not depend on the
block size.
"""

import numpy as np

# rows per block of birkhoff_averages: bounds its temporaries to a few
# (ROW_BLOCK, n) arrays, whatever the number of paths
ROW_BLOCK = 512


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

    The window at position t reads symbols (t + j) % n, j < memory: column t
    of the j-th left rotation of the row.  Rows go in blocks of ROW_BLOCK;
    each block sums its n window values with a cumulative sum from a zero
    start, so every average is bitwise the sum 0.0 + v_0 + ... + v_{n-1} in
    that order, divided by n.
    """
    symbols = np.asarray(symbols)
    num, n = symbols.shape
    acc = np.zeros(num, dtype=np.float64)
    for lo in range(0, num, ROW_BLOCK):
        block = symbols[lo : lo + ROW_BLOCK].astype(np.int64, copy=False)
        idx = block
        for j in range(1, memory):
            idx = idx * k + np.roll(block, -j, axis=1)
        vals = table[idx]
        np.cumsum(vals, axis=1, out=vals)
        # the zero start makes an all -0.0 sum +0.0, as a running sum does
        acc[lo : lo + ROW_BLOCK] += vals[:, -1]
    return acc / n
