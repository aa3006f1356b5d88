import numpy as np
import pytest

from thermoflat.kernels import (
    BLOCK_VALUES,
    MAX_COUNTED_SYMBOLS,
    MIN_BLOCK_ROWS,
    birkhoff_averages,
    sample_state_paths,
)
from thermoflat.measures import _cumulative


def window_loop_averages(symbols, table, memory, k):
    """The reference: one running sum over the n cyclic window positions."""
    symbols = np.asarray(symbols)
    num, n = symbols.shape
    acc = np.zeros(num, dtype=np.float64)
    for t in range(n):
        idx = np.zeros(num, dtype=np.int64)
        for j in range(memory):
            idx = idx * k + symbols[:, (t + j) % n]
        acc += table[idx]
    return acc / n


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSamplePaths:
    def test_sample_paths_boundary_uniforms(self):
        # the rule is "first index whose cumulative weight exceeds u": a u
        # exactly on a cumulative boundary selects the next index
        start = np.array([0.5, 1.0])
        rows = np.array([[0.5, 1.0], [0.5, 1.0]])
        u = np.array([[0.5, 0.0, 0.4999999, 1.0 - 1e-16]])
        np.testing.assert_array_equal(
            sample_state_paths(start, rows, u), [[1, 0, 0, 1]]
        )

    @pytest.mark.parametrize("order", [1, 2])
    def test_equal_to_a_per_row_searchsorted(self, order):
        # random chains on k = 3 symbols, states k**order, with zero
        # probabilities (order 2: only the words that overlap have weight),
        # and a quarter of the draws exactly on a cumulative boundary
        rng = np.random.default_rng(order)
        k = 3
        states = k**order
        probs = rng.dirichlet(np.ones(k), size=states)
        probs[rng.random(probs.shape) < 0.3] = 0.0
        probs[:, 0] += probs.sum(axis=1) == 0
        trans = np.zeros((states, states))
        for s in range(states):
            tail = k * s % states
            trans[s, tail : tail + k] = probs[s] / probs[s].sum()
        start_cum = _cumulative(np.full(states, 1.0 / states))
        trans_cum = _cumulative(trans)
        u = rng.random((300, 40))
        on_edge = rng.random(u.shape) < 0.25
        u[on_edge] = rng.choice(trans_cum[trans_cum < 1.0], on_edge.sum())
        want = np.empty(u.shape, dtype=np.int64)
        for i, row in enumerate(u):
            state = np.searchsorted(start_cum, row[0], side="right")
            want[i, 0] = state
            for t in range(1, len(row)):
                state = np.searchsorted(trans_cum[state], row[t], side="right")
                want[i, t] = state
        got = sample_state_paths(start_cum, trans_cum, u)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


class TestBirkhoffAverages:
    @pytest.mark.parametrize("memory", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bitwise_equal_to_the_window_loop(self, memory, k):
        # n < memory wraps a window around the word more than once; the row
        # count spans several blocks and ends in a partial one, of one row
        # (a block with one column) or of three; symbols come as int64 and
        # as the uint8 that sampling yields
        rng = np.random.default_rng(100 * memory + k)
        table = rng.standard_normal(k**memory) * 10.0 ** rng.uniform(-4, 4, k**memory)
        for n in (1, 2, 3, 7, 37, 1000):
            block = BLOCK_VALUES // n
            for num, dtype in ((2 * block + 1, np.int64), (2 * block + 3, np.uint8)):
                symbols = rng.integers(0, k, size=(num, n), dtype=dtype)
                assert_bitwise_equal(
                    birkhoff_averages(symbols, table, memory, k),
                    window_loop_averages(symbols, table, memory, k),
                )

    @pytest.mark.parametrize("memory", [1, 3])
    def test_paths_longer_than_the_block_budget(self, memory):
        # BLOCK_VALUES // n is below MIN_BLOCK_ROWS, so blocks hold that many
        # rows, and the last one a single row
        rng = np.random.default_rng(memory)
        table = rng.standard_normal(3**memory) * 10.0 ** rng.uniform(-4, 4, 3**memory)
        n = BLOCK_VALUES // MIN_BLOCK_ROWS + 5
        symbols = rng.integers(0, 3, size=(2 * MIN_BLOCK_ROWS + 1, n), dtype=np.uint8)
        assert_bitwise_equal(
            birkhoff_averages(symbols, table, memory, 3),
            window_loop_averages(symbols, table, memory, 3),
        )

    def test_negative_zero_table_sums_to_positive_zero(self):
        # a running sum from 0.0 never yields -0.0, so neither may the kernel
        symbols = np.zeros((3, 5), dtype=np.int64)
        got = birkhoff_averages(symbols, np.array([-0.0, 1.0]), 1, 2)
        assert_bitwise_equal(got, np.zeros(3))

    @pytest.mark.parametrize("table", [[-0.0, -0.0], [-0.0, -3.0]])
    def test_counted_zero_sums_are_positive_zero(self, table):
        # the count sum of an integer table too: with no nonzero entry to
        # count, or a -0.0 product (-3.0 times a count of 0)
        symbols = np.zeros((3, 5), dtype=np.int64)
        got = birkhoff_averages(symbols, np.array(table), 1, 2)
        assert_bitwise_equal(got, np.zeros(3))

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 7])
    def test_integer_tables_equal_to_the_window_loop(self, k):
        # memory-1 integer tables, with a 0 and a -0.0 entry from k = 3 on,
        # are summed by symbol counts (k = 7 has more nonzero entries than
        # MAX_COUNTED_SYMBOLS and is gathered); long paths take blocks
        # along rows and short ones time-major, over several blocks and a
        # partial last one, from int64 and uint8 symbols
        rng = np.random.default_rng(k)
        table = rng.integers(-50, 51, size=k).astype(float)
        table[table == 0] = 7.0
        if k >= 3:
            table[1], table[2] = 0.0, -0.0
        assert (np.count_nonzero(table) > MAX_COUNTED_SYMBOLS) == (k == 7)
        for n in (1, 2, 3, 1000):
            block = max(MIN_BLOCK_ROWS, BLOCK_VALUES // n)
            for num, dtype in ((2 * block + 1, np.int64), (2 * block + 3, np.uint8)):
                symbols = rng.integers(0, k, size=(num, n), dtype=dtype)
                assert_bitwise_equal(
                    birkhoff_averages(symbols, table, 1, k),
                    window_loop_averages(symbols, table, 1, k),
                )

    def test_integer_sums_past_two_to_the_53_are_not_counted(self):
        # on the path 0, 1, 1 the running sum 2**53 + 1 rounds to 2**53 and
        # stays there, while the counts give 2**53 + 2: with n * max|table|
        # above 2**53 the kernel must keep the running sum's bits
        table = np.array([2.0**53, 1.0])
        symbols = np.array([[0, 1, 1]])
        want = window_loop_averages(symbols, table, 1, 2)
        assert want[0] == 2.0**53 / 3 != (2.0**53 + 2) / 3
        assert_bitwise_equal(birkhoff_averages(symbols, table, 1, 2), want)
        # at n * max|table| == 2**53 every partial sum is exact
        table = np.array([2.0**51, -1.0])
        symbols = np.array([[0, 1, 1, 0], [1, 1, 1, 1]])
        assert_bitwise_equal(birkhoff_averages(symbols, table, 1, 2),
                             window_loop_averages(symbols, table, 1, 2))
