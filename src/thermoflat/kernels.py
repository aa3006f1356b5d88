"""Numpy kernels for Monte-Carlo path sampling and Birkhoff averaging.

State selection uses "first index whose cumulative weight exceeds u", so
paths are a fixed function of the uniform draws.

Birkhoff averages are whole-array passes over blocks of rows, each sized to
about BLOCK_VALUES window values so that its temporaries stay in cache
whatever the path length.  A block is turned time-major, (n, rows), and its
window values are summed by one reduction over time, which adds row by row
from the first, in the same order as a running ``acc += value`` over window
positions, so the averages do not depend on the block size.

A memory-1 table with integer entries, at most MAX_COUNTED_SYMBOLS of them
nonzero and n * max|table| <= 2**53, is summed by symbol counts instead:
sum_a table[a] * count_a over the nonzero entries.  Every partial sum of
both the running sum and the count sum is then an integer of magnitude at
most n * max|table| <= 2**53, which a float64 holds exactly, and a correctly
rounded add returns a representable sum exactly.  So both sums are the same
float, a zero one +0.0 in both, and the averages are bitwise the running
sum's.
"""

import numpy as np

# window values per block of birkhoff_averages: bounds its temporaries to a
# few arrays of this size, whatever the number and length of the paths
BLOCK_VALUES = 32768
# rows per block at least: the sum over time runs one inner loop per time
# step across the block's rows, and on narrower blocks the loop overhead
# dominates (long paths exceed BLOCK_VALUES in fewer rows than this)
MIN_BLOCK_ROWS = 16
# nonzero entries of a memory-1 table at most for the count sum: each takes
# one compare-and-count pass over the symbols, and from about five on they
# cost more than the gather and sum over time
MAX_COUNTED_SYMBOLS = 4


def sample_state_paths(start_cum, trans_cum, uniforms):
    """Sample Markov state paths by inverse-CDF lookup.

    start_cum: (S,) cumulative initial distribution, last entry == 1.
    trans_cum: (S, S) cumulative transition rows, last column == 1.
    uniforms:  (num, steps) uniform draws; column 0 selects the initial
               state, the rest drive transitions.

    Returns (num, steps) int64 state indices.  A step counts the inner
    columns 0..S-2 of its state's row at or below u: on monotone rows that
    is the count over all S columns capped at S - 1.
    """
    uniforms = np.asarray(uniforms, dtype=np.float64)
    num, steps = uniforms.shape
    times = np.ascontiguousarray(uniforms.T)
    inner = np.ascontiguousarray(trans_cum[:, :-1])
    paths = np.empty((num, steps), dtype=np.int64)
    state = np.searchsorted(start_cum, times[0], side="right")
    np.clip(state, 0, len(start_cum) - 1, out=state)
    paths[:, 0] = state
    for t in range(1, steps):
        state = np.count_nonzero(inner[state] <= times[t][:, None], axis=1)
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

    A memory-1 table of integers, with at most MAX_COUNTED_SYMBOLS nonzero
    entries and n * max|table| <= 2**53, is summed as sum_a table[a] *
    count_a over the same blocks instead.  Every partial sum then is an
    integer float64 holds exactly, so the count sum is that same float.
    """
    symbols = np.asarray(symbols)
    num, n = symbols.shape
    rows = max(MIN_BLOCK_ROWS, BLOCK_VALUES // n)
    if memory == 1 and _countable(table, n):
        return _count_averages(symbols, table, rows)
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


def _countable(table, n):
    """Whether a memory-1 table takes the count sum: at most
    MAX_COUNTED_SYMBOLS nonzero entries, all entries integers and
    n * max|table| <= 2**53, so that every partial sum of n of them, in any
    order, is an integer that float64 holds exactly."""
    return bool(np.count_nonzero(table) <= MAX_COUNTED_SYMBOLS
                and np.all(table == np.rint(table))
                and np.abs(table).max() <= 2**53 // n)


def _count_averages(symbols, table, rows):
    """birkhoff_averages of a countable memory-1 table: sum_a table[a] *
    count_a over its nonzero entries, per block of rows, divided by n."""
    num, n = symbols.shape
    count_dtype = np.min_scalar_type(n)
    # Python ints, so that a comparison runs in the symbols' own dtype
    counted = np.flatnonzero(table).tolist()
    sums = np.zeros(num)
    for lo in range(0, num, rows):
        block, axis = symbols[lo : lo + rows], 1
        if n < len(block):
            # counting along short rows is loop overhead: count time-major
            block, axis = np.ascontiguousarray(block.T), 0
        for a in counted:
            sums[lo : lo + rows] += table[a] * np.add.reduce(
                block == a, axis=axis, dtype=count_dtype)
    return sums / n
