import numpy as np
import pytest

from thermoflat.kernels import (
    BLOCK_VALUES,
    MIN_BLOCK_ROWS,
    birkhoff_averages,
    sample_state_paths,
)


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
