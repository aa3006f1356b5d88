import math

import numpy as np
import pytest
from scipy.optimize import brentq

from thermoflat.config import RunConfig
from thermoflat.convex import INFINITY, AbsSum, Quadratic
from thermoflat.linearizer import (
    ModelSpec,
    approximating_potential,
    decision_rule,
    mean_field_iterate,
    p_flat_of,
    p_nl,
    solve_flat,
    solve_game,
    solve_sharp,
)
from thermoflat.measures import AprioriAlphabet, CylinderPotential
from thermoflat.ruelle import linear_pressure

A2 = AprioriAlphabet(2)
SPIN = CylinderPotential(A2, [1.0, -1.0], name="spin")


def cw_model(beta):
    return ModelSpec(A2, plus_potentials=[SPIN], g_plus=Quadratic(beta))


def cw_root(beta):
    """Bisection oracle for y = beta tanh y, positive branch."""
    assert beta > 1.0
    return brentq(lambda y: y - beta * math.tanh(y), 1e-8, beta, xtol=1e-14)


class TestApproximatingPotential:
    def test_combination(self):
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(1.0), Quadratic(1.0))
        theta = approximating_potential(m, [2.0], [0.5])
        np.testing.assert_allclose(theta.table, [1.5, -1.5])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            approximating_potential(cw_model(2.0), [1.0, 2.0], [])


class TestPNL:
    def test_closed_form_curie_weiss(self):
        m = cw_model(2.0)
        for y in (-2.5, 0.0, 0.3, 1.91501):
            assert p_nl(m, [y], []) == pytest.approx(
                math.log(math.cosh(y)) - y * y / 4.0, abs=1e-12
            )

    def test_infinite_outside_abs_sum_ball(self):
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(1.0), AbsSum(1))
        assert p_nl(m, [0.0], [2.0]) == INFINITY
        assert np.isfinite(p_nl(m, [0.0], [0.9]))


class TestCurieWeissPhases:
    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_subcritical_single_maximizer_at_zero(self, beta):
        sol = solve_flat(cw_model(beta))
        assert len(sol.m_flat) == 1
        assert sol.m_flat[0].coords[0] == pytest.approx(0.0, abs=1e-6)
        assert sol.p_flat == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("beta", [1.5, 2.0])
    def test_supercritical_symmetric_pair(self, beta):
        sol = solve_flat(cw_model(beta))
        ystar = cw_root(beta)
        assert len(sol.m_flat) == 2
        coords = sorted(x.coords[0] for x in sol.m_flat)
        assert coords[0] == pytest.approx(-ystar, abs=1e-6)
        assert coords[1] == pytest.approx(ystar, abs=1e-6)
        assert sol.p_flat == pytest.approx(
            math.log(math.cosh(ystar)) - ystar**2 / (2 * beta), abs=1e-9
        )

    def test_self_consistency_residuals(self):
        sol = solve_flat(cw_model(2.0))
        assert len(sol.equilibria) == 2
        for e in sol.equilibria:
            assert e.residual_plus < 1e-6
            assert e.residual_minus == 0.0
            assert e.p_value == pytest.approx(sol.p_flat, abs=1e-8)

    def test_equilibria_are_tilted_products(self):
        sol = solve_flat(cw_model(2.0))
        ystar = cw_root(2.0)
        for e in sol.equilibria:
            y = e.x_plus[0]
            p_plus = math.exp(y) / (2 * math.cosh(y))
            np.testing.assert_allclose(
                e.measure.stationary, [p_plus, 1 - p_plus], atol=1e-9
            )
            assert abs(abs(y) - ystar) < 1e-6


class TestExternalField:
    def test_field_selects_positive_phase(self):
        # g(x) = x^2 + 0.3 x: quadratic coupling with an external field term
        from thermoflat.convex import LinearShift

        g = LinearShift(np.array([0.3]), Quadratic(2.0))
        m_field = ModelSpec(A2, [SPIN], g_plus=g)
        sol = solve_flat(m_field)
        # field tilts the free energy: the global maximizer is unique and
        # solves y = 2 tanh(y) + 0.3
        ystar = brentq(lambda y: y - 2.0 * math.tanh(y) - 0.3, 0.5, 4.0)
        best = max(sol.m_flat, key=lambda x: x.coords[0])
        assert best.coords[0] == pytest.approx(ystar, abs=1e-6)
        closed = math.log(math.cosh(ystar)) - (ystar - 0.3) ** 2 / 4.0
        assert sol.p_flat == pytest.approx(closed, abs=1e-9)


class TestGame:
    def test_weak_duality_on_two_sided_model(self):
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        sol = solve_game(m)
        assert sol.gap >= -1e-8

    def test_two_sided_flat_matches_effective_single_beta(self):
        # g+ = 3x^2/2 against g- = x^2/2 on the same potential acts like an
        # effective quadratic with beta = 2 on the max-min side
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        sol = solve_flat(m)
        ref = solve_flat(cw_model(2.0))
        assert sol.p_flat == pytest.approx(ref.p_flat, abs=1e-8)
        mstar = brentq(lambda t: t - math.tanh(2 * t), 1e-6, 3.0)
        xs = sorted(e.x_plus[0] for e in sol.equilibria)
        np.testing.assert_allclose(xs, [-3 * mstar, 3 * mstar], atol=1e-6)
        for e in sol.equilibria:
            assert abs(abs(e.x_minus[0]) - mstar) < 1e-6

    def test_decoupled_model_has_no_gap(self):
        # tau- == 0: the minus layer sees a zero potential, so the game
        # decouples and P_sharp = P_flat
        zero = CylinderPotential.zero(A2)
        m = ModelSpec(A2, [SPIN], [zero], Quadratic(2.0), Quadratic(1.0))
        sol = solve_game(m)
        assert sol.p_sharp == pytest.approx(sol.p_flat, abs=1e-8)

    def test_one_sided_sharp_convention(self):
        sol = solve_sharp(cw_model(2.0))
        assert sol.p_sharp == sol.p_flat
        assert sol.gap == 0.0


class TestPFlatOf:
    def test_inner_inf_is_convex_scan(self):
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        v, mins = p_flat_of(m, [1.0])
        assert len(mins) == 1
        # stationarity of the inner problem: y- = tanh(y+ - y-)
        ym = mins[0].coords[0]
        assert ym == pytest.approx(math.tanh(1.0 - ym), abs=1e-6)
        assert v <= p_nl(m, [1.0], [0.0]) + 1e-12

    def test_no_minus_side(self):
        v, mins = p_flat_of(cw_model(2.0), [0.5])
        assert mins == []
        assert v == pytest.approx(p_nl(cw_model(2.0), [0.5], []))


class TestPerronLayer:
    def test_k3_memory3_model_admits_equilibria(self):
        # at every tilt y <= -9.6, inside the certified radius 16,
        # |lambda2 / lambda1| >= 0.9994: a Perron solve that waits on the
        # spectral gap stalls there
        a3 = AprioriAlphabet(3)
        table = np.random.default_rng(2).standard_normal((3, 3, 3))
        model = ModelSpec(a3, [CylinderPotential(a3, table)], g_plus=Quadratic(3.0))
        cfg = RunConfig()
        sol = solve_flat(model, cfg)
        assert sol.equilibria
        for e in sol.equilibria:
            assert e.residual_plus <= cfg.sc_tol
            assert e.p_value == pytest.approx(sol.p_flat, abs=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_uncertified_tilt_is_named(self):
        # y+ = -1e10 sends every word ending in symbol 1 to weight 0, so
        # state 1 of the transfer matrix has an all -inf row
        phi = CylinderPotential(A2, [[0.0, 1e300], [0.0, 1e300]])
        model = ModelSpec(A2, [phi], g_plus=Quadratic(1.0))
        with pytest.raises(ArithmeticError) as info:
            model.linear_pressure_tilted(np.array([-1e10]), np.zeros(0))
        assert str(info.value).startswith(
            "linear_pressure_tilted at y+ = [-10000000000.0], y- = []: perron:"
        )


class TestMeanField:
    def test_converges_to_self_consistent_point(self):
        m = cw_model(2.0)
        trace, fixed, cycled = mean_field_iterate(m, [1.0], damping=0.7)
        assert not cycled
        assert fixed is not None
        ystar = cw_root(2.0)
        assert fixed[0] == pytest.approx(ystar, abs=1e-7)

    def test_rejects_kinked_coupling(self):
        m = ModelSpec(A2, [SPIN], g_plus=AbsSum(1))
        with pytest.raises(ValueError, match="differentiable"):
            mean_field_iterate(m, [0.5])

    def test_damping_validated(self):
        with pytest.raises(ValueError):
            mean_field_iterate(cw_model(2.0), [0.5], damping=0.0)


class TestDecisionRule:
    def test_singleton_rule_under_strict_convexity(self):
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        sol = solve_flat(m)
        rule = decision_rule(m, sol)
        assert rule
        for x_plus, x_minus in rule.items():
            # inner stationarity y- = tanh(y+ - y-)
            assert x_minus[0] == pytest.approx(
                math.tanh(x_plus[0] - x_minus[0]), abs=1e-5
            )


class TestValidation:
    def test_requires_some_coupling(self):
        with pytest.raises(ValueError):
            ModelSpec(A2, [SPIN])

    def test_dimension_agreement(self):
        with pytest.raises(ValueError):
            ModelSpec(A2, [SPIN], g_plus=Quadratic(1.0, dim=2))

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(tol=-1.0)
        with pytest.raises(ValueError):
            RunConfig(grid=3)
