import numpy as np

from thermoflat.kernels import sample_state_paths


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
