import math

import numpy as np
import pytest
from scipy.optimize import brentq

from thermoflat.convex import LinearShift, Quadratic
from thermoflat.linearizer import ModelSpec, solve_flat
from thermoflat.measures import AprioriAlphabet, CylinderPotential
from thermoflat.oracle import (
    bkl_entropy,
    bkl_pressure,
    direct_pressure,
)

A2 = AprioriAlphabet(2)
SPIN = CylinderPotential(A2, [1.0, -1.0], name="spin")


def cw_model(beta):
    return ModelSpec(A2, plus_potentials=[SPIN], g_plus=Quadratic(beta))


class TestDirectPressure:
    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            direct_pressure(cw_model(2.0), resolution=5)

    def test_subcritical_zero(self):
        v, mu = direct_pressure(cw_model(0.5))
        assert v == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(mu.stationary, [0.5, 0.5], atol=1e-4)

    def test_supercritical_matches_closed_form(self):
        ystar = brentq(lambda y: y - 2.0 * math.tanh(y), 0.5, 3.0)
        closed = math.log(math.cosh(ystar)) - ystar**2 / 4.0
        v, mu = direct_pressure(cw_model(2.0))
        assert v == pytest.approx(closed, abs=1e-6)
        # maximizer is one of the two tilted products
        p = math.exp(ystar) / (2 * math.cosh(ystar))
        assert mu.stationary.max() == pytest.approx(p, abs=1e-4)

    def test_markov_family_beats_products_on_memory2(self):
        rng = np.random.default_rng(21)
        phi = CylinderPotential(A2, rng.normal(size=(2, 2)))
        m = ModelSpec(A2, [phi], g_plus=Quadratic(1.2))
        v0, _ = direct_pressure(m, order=0)
        v1, _ = direct_pressure(m, order=1)
        assert v1 >= v0 - 1e-9

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            direct_pressure(cw_model(1.0), order=2)


class TestBKLEntropy:
    def test_zero_constraint_full_entropy(self):
        # h(0) = 0 for the uniform a priori measure and the spin potential
        h, boundary = bkl_entropy(A2, [SPIN], [0.0])
        assert not boundary
        assert h == pytest.approx(0.0, abs=1e-10)

    def test_interior_constraint_closed_form(self):
        # for the product family: h(z) with E[spin] = z has the binary
        # relative entropy form at p = (1+z)/2
        z = 0.6
        p = (1 + z) / 2
        expected = -(p * math.log(p / 0.5) + (1 - p) * math.log((1 - p) / 0.5))
        h, boundary = bkl_entropy(A2, [SPIN], [z])
        assert not boundary
        assert h == pytest.approx(expected, abs=1e-8)

    def test_boundary_constraint_flagged(self):
        h, boundary = bkl_entropy(A2, [SPIN], [1.5])  # unachievable average
        assert boundary

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bkl_entropy(A2, [SPIN], [0.0, 0.0])


class TestBKLPressure:
    def test_matches_solver_on_curie_weiss(self):
        for beta in (0.5, 2.0):
            m = cw_model(beta)
            sol = solve_flat(m)
            v, z = bkl_pressure(m)
            assert v == pytest.approx(sol.p_flat, abs=1e-6)

    def test_shared_potential_merged(self):
        # same potential on both sides: the constraint space is 1-dimensional
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        sol = solve_flat(m)
        v, z = bkl_pressure(m)
        assert len(z) == 1
        assert v == pytest.approx(sol.p_flat, abs=1e-6)

    def test_external_field_model(self):
        g = LinearShift(np.array([0.3]), Quadratic(2.0))
        m = ModelSpec(A2, [SPIN], g_plus=g)
        sol = solve_flat(m)
        v, _ = bkl_pressure(m)
        assert v == pytest.approx(sol.p_flat, abs=1e-6)


class TestThreeSymbolMemory2:
    def test_bkl_matches_solver(self):
        # the bkl search reaches tilts where some states of the Gibbs chain
        # carry almost no mass; the chain must stay a valid ergodic chain
        a3 = AprioriAlphabet(3)
        table = np.random.default_rng(3).standard_normal((3, 3))
        m = ModelSpec(a3, [CylinderPotential(a3, table)], g_plus=Quadratic(1.5))
        sol = solve_flat(m)
        assert sol.p_flat == pytest.approx(2.0254008866, abs=1e-10)
        v, _ = bkl_pressure(m)
        assert v == pytest.approx(sol.p_flat, abs=1e-8)
