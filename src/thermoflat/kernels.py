"""Numpy kernels for Monte-Carlo path sampling and Birkhoff averaging.

State selection uses "first index whose cumulative weight exceeds u", so
paths are a fixed function of the uniform draws.

Birkhoff averages are whole-array passes over blocks of rows, each sized to
about BLOCK_VALUES window values so that its temporaries stay in cache
whatever the path length.  A block is turned time-major, (n, rows), and its
window values are summed by one reduction over time, which adds row by row
from the first, in the same order as a running ``acc += value`` over window
positions, so the averages do not depend on the block size.
"""

import numpy as np

# window values per block of birkhoff_averages: bounds its temporaries to a
# few arrays of this size, whatever the number and length of the paths
BLOCK_VALUES = 32768
# rows per block at least: the sum over time runs one inner loop per time
# step across the block's rows, and on narrower blocks the loop overhead
# dominates (long paths exceed BLOCK_VALUES in fewer rows than this)
MIN_BLOCK_ROWS = 16


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

    symbols: (num, n) symbol indices in [0, k), of any integer dtype.
    table:   flat potential table of length k**memory, C order.
    Returns (num,) averages over all n cyclic window positions.

    The window at position t reads symbols (t + j) % n, j < memory: row t of
    the time-major block rolled up by j.  Rows go in blocks of about
    BLOCK_VALUES window values, and of at least MIN_BLOCK_ROWS rows.  Each
    block is transposed and cast to intp once, gathers its (n, rows) window
    values and sums them over time by one add.reduce, which on a
    C-contiguous array adds row after row.  Every average is thus bitwise
    the sum 0.0 + v_0 + ... + v_{n-1} in that order, divided by n.
    """
    symbols = np.asarray(symbols)
    num, n = symbols.shape
    rows = max(MIN_BLOCK_ROWS, BLOCK_VALUES // n)
    acc = np.empty(num, dtype=np.float64)
    for lo in range(0, num, rows):
        block = symbols[lo : lo + rows]
        width = len(block)
        if width == 1:
            # with one column, time would be add.reduce's innermost axis,
            # which numpy sums pairwise; a copy of the row keeps the order
            block = np.repeat(block, 2, axis=0)
        times = np.ascontiguousarray(block.T, dtype=np.intp)
        idx = times
        for j in range(1, memory):
            idx = idx * k + np.roll(times, -j, axis=0)
        # the zero start makes an all -0.0 sum +0.0, as a running sum does
        acc[lo : lo + width] = np.add.reduce(table[idx], axis=0,
                                             initial=0.0)[:width]
    return acc / n
