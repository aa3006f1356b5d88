import ast
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize, minimize_scalar
from scipy.special import logsumexp

from thermoflat.config import (CLUSTER_RADIUS, MULTISTART_CAP, SC_TOL, VALUE_WINDOW,
                               RunConfig)
from thermoflat.convex import INFINITY, AbsSum, GridSampled, LinearShift, Quadratic
from thermoflat.linearizer import (
    ModelSpec,
    _local_maxima,
    _start_grid,
    approximating_potential,
    p_flat_of,
    p_nl,
    solve_flat,
    solve_game,
    solve_sharp,
)
from thermoflat import ruelle
from thermoflat.measures import (AprioriAlphabet, CylinderPotential, MarkovMeasure,
                                 MixtureMeasure, expectation)
from thermoflat.ruelle import linear_pressure, rpf_solve

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

    def test_one_tilt_for_pressure_and_gibbs_measure(self):
        # memories 1 and 2 on the plus side, 3 on the minus side, weighted
        # alphabet: the Theta that rpf_solve and linear_pressure see is the
        # one linear_pressure_tilted prices
        a3 = AprioriAlphabet(3, [0.2, 0.3, 0.5])
        rng = np.random.default_rng(8)
        m = ModelSpec(
            a3,
            [CylinderPotential(a3, rng.standard_normal(3)),
             CylinderPotential(a3, rng.standard_normal((3, 3)))],
            [CylinderPotential(a3, rng.standard_normal((3, 3, 3)))],
            Quadratic(2.0, dim=2),
            Quadratic(1.0),
        )
        assert m.memory == 3
        assert m.tables.shape == (3, 27)
        for y_plus, y_minus in (([0.0, 0.0], [0.0]), ([0.7, -1.3], [0.4]),
                                ([-2.0, 0.5], [-1.1]), ([1.5, 2.5], [2.0])):
            y_plus, y_minus = np.array(y_plus), np.array(y_minus)
            value, tau_plus, tau_minus = m.linear_pressure_tilted(y_plus, y_minus)
            theta = approximating_potential(m, y_plus, y_minus)
            assert theta.memory == 3
            assert linear_pressure(theta) == pytest.approx(value, abs=1e-12)
            gibbs = rpf_solve(theta).gibbs
            np.testing.assert_allclose(m.tau_plus(gibbs), tau_plus, atol=1e-10)
            np.testing.assert_allclose(m.tau_minus(gibbs), tau_minus, atol=1e-10)


class TestAverages:
    def test_match_each_potentials_expectation(self):
        # the stacked tables against one word law of the model's memory
        # read each potential's expectation at its own memory, for a Gibbs
        # chain, a product measure and a mixture of the two
        a3 = AprioriAlphabet(3, [0.2, 0.3, 0.5])
        rng = np.random.default_rng(8)
        plus = [CylinderPotential(a3, rng.standard_normal(3)),
                CylinderPotential(a3, rng.standard_normal((3, 3)))]
        minus = [CylinderPotential(a3, rng.standard_normal((3, 3, 3)))]
        m = ModelSpec(a3, plus, minus, Quadratic(2.0, dim=2), Quadratic(1.0))
        chain = rpf_solve(approximating_potential(m, [0.7, -1.3], [0.4])).gibbs
        product = MarkovMeasure.product(a3, [0.1, 0.6, 0.3])
        want = {mu: np.array([expectation(mu, p) for p in plus + minus])
                for mu in (chain, product)}
        mixture = MixtureMeasure([(0.3, chain), (0.7, product)])
        want[mixture] = 0.3 * want[chain] + 0.7 * want[product]
        for mu, expected in want.items():
            tau = m.averages(mu)
            np.testing.assert_allclose(tau, expected, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(m.tau_plus(mu), tau[:2])
            np.testing.assert_array_equal(m.tau_minus(mu), tau[2:])
        with pytest.raises(ValueError, match="alphabets differ"):
            m.averages(MarkovMeasure.product(AprioriAlphabet(3), [0.1, 0.6, 0.3]))


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

    def test_no_self_consistent_optimizer_is_an_error(self, monkeypatch):
        # with SC_TOL at 0 no residual passes: both maximizers are rejected,
        # and the error lists them with their residuals
        import thermoflat.linearizer as lin

        monkeypatch.setattr(lin, "SC_TOL", 0.0)
        with pytest.raises(ArithmeticError,
                           match="no self-consistent optimizer found") as info:
            solve_flat(cw_model(2.0))
        rejected = ast.literal_eval(str(info.value).split("diagnostics: ")[1])
        ystar = cw_root(2.0)
        assert sorted(r["x_plus"][0] for r in rejected) == pytest.approx(
            [-ystar, ystar], abs=1e-6)
        for r in rejected:
            assert r["x_minus"] == ()
            assert 0.0 <= r["residual_plus"] < SC_TOL
            assert r["residual_minus"] == 0.0

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

    def test_three_minus_potentials_match_brute_force(self):
        # constant minus potentials 0.5 and -0.3 add -0.5 y2 + 0.3 y3 to P_L,
        # so S(y-) separates: the spin game in y1 plus y2^2/2 - 0.5 y2 and
        # y3^2/2 + 0.3 y3, whose minima are -0.125 and -0.045
        consts = [CylinderPotential(A2, [c, c]) for c in (0.5, -0.3)]
        m = ModelSpec(
            A2, [SPIN], [SPIN, *consts], Quadratic(3.0), Quadratic(1.0, dim=3)
        )
        sol = solve_game(m)
        brute = brute_sharp_1d(
            lambda yp, ym: np.log(np.cosh(yp - ym)) - yp**2 / 6.0
        )
        assert sol.p_sharp == pytest.approx(brute - 0.17, abs=1e-9)
        (x_minus,) = sol.m_sharp
        np.testing.assert_allclose(x_minus.coords, [0.0, 0.5, -0.3], atol=1e-6)
        # three spin minus potentials act through their sum, whose least
        # |y-|^2/2 is that of Quadratic(3.0) on one potential
        three = ModelSpec(
            A2, [SPIN], [SPIN] * 3, Quadratic(5.0), Quadratic(1.0, dim=3)
        )
        one = ModelSpec(A2, [SPIN], [SPIN], Quadratic(5.0), Quadratic(3.0))
        assert solve_game(three).p_sharp == pytest.approx(
            solve_game(one).p_sharp, abs=1e-9
        )

    def test_one_sided_sharp_convention(self):
        sol = solve_sharp(cw_model(2.0))
        assert sol.p_sharp == sol.p_flat
        assert sol.gap == 0.0


def brute_sharp_1d(p_nl_plus, lo=-2.0, hi=2.0):
    """inf over lo <= y- <= hi of sup over |y+| <= 8 of p_nl_plus(y+, y-) +
    y-^2 / 2: a 1601-point y+ grid refined by bounded Brent, inside golden
    section over y- (the sup is convex in y-) down to a 1e-12 bracket."""

    def sup(ym):
        ys = np.linspace(-8.0, 8.0, 1601)
        i = int(np.argmax(p_nl_plus(ys, ym)))
        res = minimize_scalar(
            lambda yp: -p_nl_plus(yp, ym),
            bounds=(ys[max(i - 1, 0)], ys[min(i + 1, len(ys) - 1)]),
            method="bounded",
            options={"xatol": 1e-12},
        )
        return -res.fun + ym * ym / 2.0

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = sup(c), sup(d)
    while hi - lo > 1e-12:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = sup(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = sup(d)
    return min(fc, fd)


HALF_SQUARE_GRID = GridSampled(
    [np.linspace(-2.0, 2.0, 9)], 0.5 * np.linspace(-2.0, 2.0, 9) ** 2
)


def memory2_game():
    rng = np.random.default_rng(1)
    plus, minus = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    return ModelSpec(
        A2, [CylinderPotential(A2, plus)], [CylinderPotential(A2, minus)],
        Quadratic(1.5), Quadratic(1.0),
    )


def two_minus_game():
    a3 = AprioriAlphabet(3)
    rng = np.random.default_rng(5)
    plus, *minus = [CylinderPotential(a3, rng.standard_normal(3)) for _ in range(3)]
    return ModelSpec(a3, [plus], minus, Quadratic(3.0), Quadratic(1.0, dim=2))


def k3_abs_minus_game():
    """k = 3, memory 1: a quadratic plus side and an l1 coupling of two
    minus potentials; P_sharp = -1.5745016206..."""
    a3 = AprioriAlphabet(3)
    plus = [CylinderPotential(a3, [-1.1555681425507156, 1.6325315662580409,
                                   -1.09866504557171])]
    minus = [CylinderPotential(a3, [-2.111577361616615, 0.4084870153597851,
                                    -2.7455241874197607]),
             CylinderPotential(a3, [-0.5744130591568221, 3.360750227243731,
                                    1.7113550722756816])]
    return ModelSpec(a3, plus, minus, Quadratic(1.5878943366131835), AbsSum(2))


class TestSharpBundle:
    """The min-max side: a level bundle over y- on Danskin cuts."""

    def test_shifted_plus_kink_matches_brute_force(self):
        # g+ = 3x^2/2 + 0.3x puts the kink of S at y- = 0.3
        g_plus = LinearShift(np.array([0.3]), Quadratic(3.0))
        sol = solve_game(ModelSpec(A2, [SPIN], [SPIN], g_plus, Quadratic(1.0)))
        brute = brute_sharp_1d(
            lambda yp, ym: np.log(np.cosh(yp - ym)) - (yp - 0.3) ** 2 / 6.0
        )
        assert sol.p_sharp == pytest.approx(brute, abs=1e-9)
        assert sol.p_sharp == pytest.approx(0.8543663184318369, abs=1e-9)
        sharp = sol.diagnostics["sharp"]
        assert sharp["stop"] == "bracket"
        assert sharp["lower"] <= sol.p_sharp == sharp["upper"]
        assert sharp["upper"] - sharp["lower"] <= 1e-9
        (x_minus,) = sol.m_sharp
        assert x_minus.coords[0] == pytest.approx(0.3, abs=1e-6)

    def test_iteration_cap_keeps_a_certified_upper_bound(self, monkeypatch):
        import thermoflat.linearizer as lin

        monkeypatch.setattr(lin, "SHARP_MAX_ITER", 3)
        g_plus = LinearShift(np.array([0.3]), Quadratic(3.0))
        sol = solve_game(ModelSpec(A2, [SPIN], [SPIN], g_plus, Quadratic(1.0)))
        sharp = sol.diagnostics["sharp"]
        assert sharp["stop"] == "iteration_cap"
        assert sharp["full_inner_sups"] >= 1
        assert sharp["lower"] <= 0.8543663184318369 <= sharp["upper"] + 1e-12
        assert sol.p_sharp == sharp["upper"]

    def test_floor_within_rounding_reaches_a_full_search(self):
        # the best point's model value sat one ulp above the LP floor and
        # 4.8e-12 above lower + SHARP_GAP: the bundle then added duplicate
        # cuts up to the cap and reported its first full sup, 0.5129676...
        sol = solve_game(k3_abs_minus_game())
        sharp = sol.diagnostics["sharp"]
        assert sol.p_sharp == pytest.approx(-1.57450162, abs=1e-9)
        assert sharp["stop"] != "iteration_cap"
        assert sharp["lower"] <= sol.p_sharp == sharp["upper"]

    def test_cap_ends_with_a_full_search_at_the_best_point(self, monkeypatch):
        # the first full sup reads 0.5129676...; the one run at the cap,
        # at the point of least model value, bounds P_sharp far closer
        import thermoflat.linearizer as lin

        monkeypatch.setattr(lin, "SHARP_MAX_ITER", 3)
        sol = solve_game(k3_abs_minus_game())
        sharp = sol.diagnostics["sharp"]
        assert sharp["stop"] == "iteration_cap"
        assert sharp["full_inner_sups"] == 2
        assert -1.57450162 - 1e-9 <= sol.p_sharp < -1.5

    @pytest.mark.parametrize("build", [memory2_game, two_minus_game])
    def test_weak_duality_stop(self, build):
        # the flat inner minimizer x-* attains P_flat as the sup over y+,
        # so S(x-*) <= P_flat closes the bracket at the first iterate
        sol = solve_game(build())
        assert sol.p_sharp == pytest.approx(sol.p_flat, abs=1e-9)
        sharp = sol.diagnostics["sharp"]
        assert sharp["stop"] == "weak_duality"
        assert sharp["full_inner_sups"] == 1
        assert sharp["lower"] == sol.p_flat

    @pytest.mark.parametrize(
        "g_plus, g_minus, solver, config, reference",
        [
            # reference values of a golden-section search over y-, which
            # stops about 1.6e-12 off the kink
            (Quadratic(3.0), Quadratic(1.0), solve_game, None, 0.8093663184314064),
            (
                Quadratic(3.0), Quadratic(1.0), solve_game, RunConfig(grid=9),
                0.8093663184314064,
            ),
            (Quadratic(3.0), AbsSum(1), solve_game, None, 0.8093663184318991),
            (Quadratic(1.5), HALF_SQUARE_GRID, solve_sharp, None, 0.11519416888287015),
            (
                Quadratic(3.0), LinearShift(np.array([0.2]), HALF_SQUARE_GRID),
                solve_sharp, None, 0.8093663184314066,
            ),
        ],
    )
    def test_matches_golden_section(self, g_plus, g_minus, solver, config, reference):
        # the grid minus couplings enter the master LP as affine pieces
        sol = solver(ModelSpec(A2, [SPIN], [SPIN], g_plus, g_minus), config)
        assert sol.p_sharp == pytest.approx(reference, abs=1e-9)
        assert sol.diagnostics["sharp"]["stop"] in ("bracket", "weak_duality")

    def test_grid_minus_game_projects_onto_the_pieces(self, monkeypatch):
        # solve_game on the shifted half-square grid model: each level step
        # projects onto the cuts plus the grid's affine pieces, and the
        # bundle stops when the master LP resolves no narrower bracket
        import thermoflat.linearizer as lin

        projected = []
        project = lin._project

        def counting(point, a, b, lo, hi):
            projected.append(len(a))
            return project(point, a, b, lo, hi)

        monkeypatch.setattr(lin, "_project", counting)
        g_minus = LinearShift(np.array([0.2]), HALF_SQUARE_GRID)
        sol = solve_game(ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), g_minus))
        sharp = sol.diagnostics["sharp"]
        assert sol.p_sharp == pytest.approx(0.8093663184314066, abs=1e-9)
        assert sharp["stop"] == "lp_resolution"
        assert sharp["lower"] <= sol.p_sharp == sharp["upper"]
        # one row per cut and piece of the grid's conjugate
        assert len(projected) == 6
        assert all(rows % len(g_minus.conjugate_pieces()[1]) == 0
                   for rows in projected)

    def test_lp_resolution_stop(self):
        # two plus and three minus potentials: the master LP at its HiGHS
        # tolerances resolves no bracket narrower than about 6e-11
        import thermoflat.linearizer as lin

        a3 = AprioriAlphabet(3)
        rng = np.random.default_rng(1)
        plus, minus = rng.standard_normal((2, 3)), rng.standard_normal((3, 3))
        model = ModelSpec(
            a3,
            [CylinderPotential(a3, row) for row in plus],
            [CylinderPotential(a3, row) for row in minus],
            Quadratic(4.0, dim=2),
            Quadratic(1.0, dim=3),
        )
        sol = solve_sharp(model, RunConfig(grid=9))
        sharp = sol.diagnostics["sharp"]
        assert sharp["stop"] == "lp_resolution"
        assert lin.SHARP_GAP < sharp["upper"] - sharp["lower"] <= 1e-9
        assert sol.p_sharp == sharp["upper"]

    def test_sharp_diagnostics_are_deterministic(self):
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        first = solve_game(m, RunConfig(grid=9)).diagnostics["sharp"]
        assert first == solve_game(m, RunConfig(grid=9)).diagnostics["sharp"]
        assert set(first) == {
            "lower", "upper", "iterations", "cuts", "full_inner_sups",
            "evaluations", "stop",
        }
        assert 1 <= first["full_inner_sups"] <= first["iterations"] <= first["cuts"]
        # every inner sup evaluates P_NL at least once per start
        assert first["evaluations"] >= first["cuts"]

    def test_master_lp_reruns_only_for_cuts_above_its_model(self, monkeypatch):
        # on the spin game a cut that stays at or below the cut model at the
        # last LP minimizer keeps that LP's point and bound: 6 master LPs
        # for 9 inner sups, where one LP per inner sup made 8, with the same
        # P_sharp, stop and report; every LP runs on the one HiGHS model of
        # the solve, which then holds one row per cut it has seen
        import thermoflat.linearizer as lin

        calls, models, rows, original = [], [], [], lin._master_lp

        def counted(*args):
            calls.append(len(args[1]))  # the cuts it saw
            out = original(*args)
            models.append(args[0])
            rows.append(args[0].getNumRow())
            return out

        monkeypatch.setattr(lin, "_master_lp", counted)
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        sol = solve_game(m, RunConfig(grid=9))
        sharp = sol.diagnostics["sharp"]
        assert sol.p_sharp == pytest.approx(0.8093663184307649, abs=1e-12)
        assert sharp["stop"] == "bracket"
        assert set(sharp) == {
            "lower", "upper", "iterations", "cuts", "full_inner_sups",
            "evaluations", "stop",
        }
        assert sharp["iterations"] == 9
        assert len(calls) == 6
        assert calls == sorted(set(calls))  # no LP sees the same cuts twice
        assert all(model is models[0] for model in models)
        assert rows == calls  # no pieces, and no cut added twice

    def test_master_lp_error_names_the_solver_the_lp_and_the_cuts(self, monkeypatch):
        # a HiGHS status other than optimal is an ArithmeticError; the first
        # master LP of the spin game sees 4 cuts
        from scipy.optimize._highspy._core import HighsModelStatus, _Highs

        class Stalled(_Highs):
            def getModelStatus(self):
                return HighsModelStatus.kIterationLimit

        monkeypatch.setattr("scipy.optimize._highspy._core._Highs", Stalled)
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        with pytest.raises(
            ArithmeticError,
            match=r"^solve_sharp: master LP over 4 cuts: Iteration limit reached$",
        ):
            solve_game(m, RunConfig(grid=9))

    def test_game_solves_the_flat_side_once(self, monkeypatch):
        import thermoflat.linearizer as lin

        calls = []
        original = lin.solve_flat

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lin, "solve_flat", counted)
        sol = solve_game(cw_model(2.0))
        assert len(calls) == 1
        assert sol.p_sharp == sol.p_flat
        assert sol.gap == 0.0

    def test_grid_plus_inner_solves_run_on_gradients(self, monkeypatch):
        # the inner inf needs only a g- conjugate gradient, so a grid g+
        # with a quadratic g- gets the Newton inner: one lockstep search
        # over the vertices, which makes as many p_nl calls as its longest
        # row makes evaluations
        import thermoflat.linearizer as lin

        g_plus = GridSampled([GRID_X], 1.5 * GRID_X**2)
        model = ModelSpec(A2, [SPIN], [SPIN], g_plus, Quadratic(1.0))
        evaluations, original = [], lin.p_nl

        def counted(*args, **kwargs):
            evaluations[-1] += 1
            return original(*args, **kwargs)

        def inner(*args, **kwargs):
            evaluations.append(0)
            return p_flat_of(*args, **kwargs)

        monkeypatch.setattr(lin, "p_nl", counted)
        monkeypatch.setattr(lin, "p_flat_of", inner)
        solve_flat(model, RunConfig(grid=9))
        assert evaluations
        assert max(evaluations) <= 15


class TestMasterLP:
    """The persistent HiGHS model of solve_sharp's master LP against a fresh
    scipy linprog on the same LP; this pins the private HiGHS binding."""

    @pytest.mark.parametrize("with_pieces", [False, True], ids=["cuts", "pieces"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_a_fresh_linprog(self, n, with_pieces):
        import thermoflat.linearizer as lin
        from scipy.optimize import linprog

        rng = np.random.default_rng([n, with_pieces])
        lo, hi = -rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
        pieces = None
        if with_pieces:
            pieces = (rng.standard_normal((6, n)), rng.standard_normal(6))
        blocks = [] if pieces is None else [(pieces[0], -pieces[1])]

        def model(ys):
            return sum((ys @ a.T + b).max(axis=1) for a, b in blocks + [cuts])

        # a dense sample of the box: a grid with its corners, and random points
        axes = [np.linspace(l, h, {1: 2001, 2: 61, 3: 17}[n]) for l, h in zip(lo, hi)]
        grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, n)
        sample = np.vstack([grid, lo + (hi - lo) * rng.random((4000, n))])
        lp = lin._master_model(lo, hi, pieces)
        slopes, offsets = np.zeros((0, n)), np.zeros(0)
        for batch in (2, 1, 3, 5, 1):
            slopes = np.vstack([slopes, 2.0 * rng.standard_normal((batch, n))])
            offsets = np.append(offsets, rng.standard_normal(batch))
            cuts = (slopes, offsets)
            lower, y = lin._master_lp(lp, slopes, offsets, pieces, lo, hi)
            k = len(blocks) + 1
            rows = [
                np.hstack([a, -np.eye(k)[[j] * len(b)]])
                for j, (a, b) in enumerate(blocks + [cuts])
            ]
            fresh = linprog(
                np.append(np.zeros(n), np.ones(k)),
                A_ub=np.vstack(rows),
                b_ub=np.concatenate([-b for _, b in blocks + [cuts]]),
                bounds=list(zip(lo, hi)) + [(None, None)] * k,
                method="highs",
                options=lin.LP_OPTIONS,
            )
            assert fresh.status == 0
            assert lp.getNumRow() == sum(len(b) for _, b in blocks) + len(offsets)
            assert lp.getInfo().objective_function_value == pytest.approx(
                fresh.fun, abs=1e-9
            )
            assert np.all((lo <= y) & (y <= hi))
            assert model(y[None, :])[0] == pytest.approx(fresh.fun, abs=1e-9)
            # weak duality, up to the rounding of the bound's own sums
            assert lower <= fresh.fun + 1e-12
            assert lower <= model(sample).min() + 1e-12


class TestPFlatOf:
    def test_inner_inf_is_convex_scan(self):
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        v, mins = p_flat_of(m, [1.0])
        assert len(mins) == 1
        # stationarity of the inner problem: y- = tanh(y+ - y-)
        ym = mins[0].coords[0]
        assert ym == pytest.approx(math.tanh(1.0 - ym), abs=1e-6)
        assert v <= p_nl(m, [1.0], [0.0]) + 1e-12

    def test_grid_minus_minimizer_puts_tau_on_the_node(self):
        # for |y+| < 0.25 the inf of log cosh(y+ - y-) + g-*(y-) sits where
        # tau- = tanh(y+ - y-) is the node 0, so y- = y+ and g-*(y-) = 0
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(1.5), HALF_SQUARE_GRID)
        v, (x_minus,) = p_flat_of(m, [0.1])
        assert x_minus.coords[0] == pytest.approx(0.1, abs=1e-12)
        assert v == pytest.approx(-0.01 / 3.0, abs=1e-14)

    def test_grid_plus_gradient_is_tau_plus_at_the_minimizer(self):
        # a grid g+* has no gradient, so the plus gradient of P_NL at the
        # inner minimizer is tau+ alone (see p_nl)
        g_plus = GridSampled([GRID_X], 1.5 * GRID_X**2)
        m = ModelSpec(A2, [SPIN], [SPIN], g_plus, Quadratic(1.0))
        for y in (-1.3, 0.0, 0.4, 2.25):
            v, (x_minus,), gradient = p_flat_of(m, [y], grad=True)
            value, grad_plus, _ = p_nl(m, [y], x_minus.array, grad=True)
            assert v == value
            np.testing.assert_array_equal(gradient, grad_plus)
            assert gradient[0] == pytest.approx(math.tanh(y - x_minus.coords[0]))

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
        sol = solve_flat(model)
        assert sol.equilibria
        for e in sol.equilibria:
            assert e.residual_plus <= SC_TOL
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


class TestGradientSearch:
    def test_p_nl_gradient_matches_finite_differences(self):
        # memory 3 on a weighted alphabet: the gradient comes from the word
        # law of the Gibbs measure, the conjugate terms from each coupling
        a3 = AprioriAlphabet(3, [0.2, 0.3, 0.5])
        rng = np.random.default_rng(4)
        model = ModelSpec(
            a3,
            [
                CylinderPotential(a3, rng.standard_normal((3, 3, 3))),
                CylinderPotential(a3, rng.standard_normal(3)),
            ],
            [CylinderPotential(a3, rng.standard_normal((3, 3)))],
            Quadratic(2.0, dim=2),
            LinearShift(np.array([0.3]), Quadratic(1.5)),
        )
        y_plus, y_minus, h = np.array([0.4, -0.7]), np.array([0.2]), 1e-6
        value, grad_plus, grad_minus = p_nl(model, y_plus, y_minus, grad=True)
        assert value == p_nl(model, y_plus, y_minus)
        fd_plus = [
            (p_nl(model, y_plus + h * e, y_minus) - p_nl(model, y_plus - h * e, y_minus))
            / (2 * h)
            for e in np.eye(2)
        ]
        fd_minus = (
            p_nl(model, y_plus, y_minus + h) - p_nl(model, y_plus, y_minus - h)
        ) / (2 * h)
        np.testing.assert_allclose(grad_plus, fd_plus, atol=1e-8)
        np.testing.assert_allclose(grad_minus, [fd_minus], atol=1e-8)

    def test_abs_sum_minimizer_sits_on_the_kink(self):
        # P_NL = log cosh(y+ - y-) - y+^2/6 with |y-| <= 1: P_flat = 0 at
        # y+ = y- = 0, admitted only if tau- there is within SINGLETON_TOL of 0
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), AbsSum(1))
        sol = solve_flat(m)
        assert sol.p_flat == pytest.approx(0.0, abs=1e-8)
        assert sol.equilibria
        for e in sol.equilibria:
            assert e.residual_plus <= SC_TOL
            assert e.residual_minus <= SC_TOL

    def test_three_minus_potentials_match_one(self):
        # the inf of |y-|^2/2 under sum y- = s is s^2/6, the conjugate of
        # Quadratic(3.0); the plus coupling makes the model supercritical
        three = ModelSpec(A2, [SPIN], [SPIN] * 3, Quadratic(5.0), Quadratic(1.0, dim=3))
        one = ModelSpec(A2, [SPIN], [SPIN], Quadratic(5.0), Quadratic(3.0))
        sol3, sol1 = solve_flat(three), solve_flat(one)
        assert sol1.p_flat > 0.1
        assert sol3.p_flat == pytest.approx(sol1.p_flat, abs=1e-10)
        xs3 = sorted(x.coords[0] for x in sol3.m_flat)
        xs1 = sorted(x.coords[0] for x in sol1.m_flat)
        np.testing.assert_allclose(xs3, xs1, atol=1e-6)
        for e in sol3.equilibria:
            # the three minus coordinates share the one-potential optimum
            np.testing.assert_allclose(e.x_minus, [e.x_minus[0]] * 3, atol=1e-8)

    def test_two_minus_potentials_on_three_symbols(self):
        a3 = AprioriAlphabet(3)
        rng = np.random.default_rng(5)
        plus, *minus = [CylinderPotential(a3, rng.standard_normal(3)) for _ in range(3)]
        model = ModelSpec(a3, [plus], minus, Quadratic(3.0), Quadratic(1.0, dim=2))
        sol = solve_flat(model)
        assert sol.equilibria
        for e in sol.equilibria:
            assert e.residual_plus <= SC_TOL
            assert e.residual_minus <= SC_TOL
            assert e.p_value == pytest.approx(sol.p_flat, abs=1e-6)

    def test_search_diagnostics_are_deterministic(self):
        cfg = RunConfig(grid=9)
        first = solve_flat(cw_model(2.0), cfg).diagnostics["search"]
        assert first == solve_flat(cw_model(2.0), cfg).diagnostics["search"]
        assert first["starts"] == 9
        assert first["iterations"] > 0
        assert first["unconverged"] == len(first["unconverged_messages"])
        assert first["unconverged_messages"] == sorted(first["unconverged_messages"])


GRID_X = np.linspace(-2.0, 2.0, 9)


def grid_star(y, nodes, values):
    """max_i y.x_i - g_i: the conjugate of the envelope of grid samples."""
    return np.max(np.atleast_2d(y) @ np.atleast_2d(nodes.T) - values, axis=-1)


class TestGridSearch:
    """A grid g+ has a piecewise-linear conjugate; P_flat is convex on each of
    its linearity cells, so the sup over y+ sits at a cell vertex."""

    def test_curie_weiss_grid_at_node_slope_vertices(self):
        model = ModelSpec(A2, [SPIN], g_plus=GridSampled([GRID_X], GRID_X**2))
        sol = solve_flat(model)
        r_plus = sol.growth_radii[0]
        # g*(y) = max_i y x_i - x_i^2 is linear between the node slopes
        # x_i + x_{i+1}; add the ends of the box [-r+, r+]
        slopes = GRID_X[:-1] + GRID_X[1:]
        ys = np.concatenate([[-r_plus], slopes[np.abs(slopes) < r_plus], [r_plus]])
        p_nl_by_hand = np.log(np.cosh(ys)) - grid_star(ys[:, None], GRID_X[:, None], GRID_X**2)
        best = p_nl_by_hand.max()
        assert sol.p_flat == pytest.approx(best, abs=1e-12)
        ystar = abs(ys[np.argmax(p_nl_by_hand)])
        assert ystar == pytest.approx(1.5)
        coords = sorted(x.coords[0] for x in sol.m_flat)
        np.testing.assert_allclose(coords, [-ystar, ystar], atol=1e-12)
        assert len(sol.equilibria) == 2
        assert sol.diagnostics["search"] == {"candidates": len(ys)}

    def test_linear_shift_of_a_grid(self):
        g = LinearShift(np.array([0.3]), GridSampled([GRID_X], GRID_X**2))
        sol = solve_flat(ModelSpec(A2, [SPIN], g_plus=g))
        # the shifted conjugate is g*(y - 0.3): its vertices move by 0.3
        slopes = GRID_X[:-1] + GRID_X[1:] + 0.3
        r_plus = sol.growth_radii[0]
        ys = np.concatenate([[-r_plus], slopes[np.abs(slopes) < r_plus], [r_plus]])
        values = np.log(np.cosh(ys)) - grid_star(ys[:, None] - 0.3, GRID_X[:, None], GRID_X**2)
        assert sol.p_flat == pytest.approx(values.max(), abs=1e-12)
        assert [x.coords for x in sol.m_flat] == [pytest.approx((1.8,), abs=1e-12)]
        assert sol.equilibria

    def test_game_on_grid_plus_two_sided_model(self):
        g_plus = GridSampled([GRID_X], 1.5 * GRID_X**2)
        model = ModelSpec(A2, [SPIN], [SPIN], g_plus, Quadratic(1.0))
        sol = solve_game(model, RunConfig(grid=9))
        assert sol.gap >= -1e-8
        # reference values of a Nelder-Mead multistart over y+ (grid 9)
        assert sol.p_flat == pytest.approx(0.37662341051709936, abs=1e-12)
        assert sol.p_sharp == pytest.approx(0.8179005642902151, abs=1e-10)
        coords = sorted(x.coords[0] for x in sol.m_flat)
        np.testing.assert_allclose(coords, [-2.25, 2.25], atol=1e-12)

    def test_sharp_inner_sup_on_the_box_face(self):
        # over |y+| <= 0.8 the inner sup over y+ of log cosh(y+ - y-) -
        # g+*(y+) at y- = 0 sits on both box faces, past the vertex 0.5.  A
        # certified box never cuts the sup of a grid g+ like this, so the
        # search runs on that box directly
        g_plus = GridSampled([GRID_X], GRID_X**2)
        model = ModelSpec(A2, [SPIN], [SPIN], g_plus, Quadratic(1.0))
        lo, hi = np.array([-0.8]), np.array([0.8])

        def plus_side(y_plus, _):
            value, grad_plus, _, h = p_nl(model, y_plus, np.zeros((len(y_plus), 1)),
                                          True, True)
            return value, grad_plus, h[:, :1, :1]

        rows, stats = _local_maxima(
            plus_side, lo, hi, g_plus.conjugate_vertices(lo, hi), None,
            CLUSTER_RADIUS, VALUE_WINDOW,
        )
        ys = np.linspace(-0.8, 0.8, 1601)
        brute = np.log(np.cosh(ys)) - grid_star(ys[:, None], GRID_X[:, None], GRID_X**2)
        # the brute-force maxima are the two box faces
        assert np.flatnonzero(brute >= brute.max() - 1e-12).tolist() == [0, 1600]
        assert sorted(row[0][0] for row in rows) == pytest.approx([-0.8, 0.8], abs=1e-12)
        assert [row[1] for row in rows] == pytest.approx([brute.max()] * 2, abs=1e-12)
        assert stats["candidates"] > 2

    @pytest.mark.parametrize("seed", range(20))
    def test_non_separable_grid_matches_brute_force(self, seed):
        # 5x5 samples of x1^2/2 + x2^2/2 + |x1 + x2|/4 over two k=3 memory-1
        # tables; the equilibrium is admitted only if subdiff g+ is that of
        # the envelope the conjugate describes
        a3 = AprioriAlphabet(3)
        rng = np.random.default_rng(seed)
        tables = np.array([[1.0, -0.4, -0.6], [-0.3, 0.9, -0.6]])
        tables = tables + 0.05 * rng.standard_normal(tables.shape)
        ax = np.linspace(-2.0, 2.0, 5)
        a, b = np.meshgrid(ax, ax, indexing="ij")
        values = 0.5 * a**2 + 0.5 * b**2 + 0.25 * np.abs(a + b)
        model = ModelSpec(
            a3,
            [CylinderPotential(a3, t) for t in tables],
            g_plus=GridSampled([ax, ax], values),
        )
        sol = solve_flat(model, RunConfig(grid=9))
        for e in sol.equilibria:
            assert e.residual_plus <= SC_TOL

        nodes, flat = np.stack([a.ravel(), b.ravel()], axis=1), values.ravel()
        log3 = np.log(np.full(3, 1.0 / 3.0))

        def p_nl_brute(ys):
            ys = np.atleast_2d(ys)
            return logsumexp(log3 + ys @ tables, axis=1) - grid_star(ys, nodes, flat)

        axis = np.linspace(-8.0, 8.0, 81)
        grid = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        vals = p_nl_brute(grid)
        best = vals.max()
        for i in np.argsort(vals)[::-1][:8]:
            res = minimize(
                lambda y: -p_nl_brute(y)[0],
                grid[i],
                method="Nelder-Mead",
                options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 4000},
            )
            best = max(best, -res.fun)
        assert sol.p_flat == pytest.approx(best, abs=1e-8)
        assert sol.p_flat >= best - 1e-12


class TestStartGrid:
    def test_every_corner_of_a_three_axis_box_is_a_start(self):
        # the 17**3 grid thinned evenly to 289 starts lay within 0.0625 of
        # the plane y2 = y0 of the unit box and held three of its eight
        # corners, as did the 9**3 grid thinned to 81
        lo, hi = np.array([-1.0, -2.0, 0.0]), np.array([1.0, 0.5, 3.0])
        for grid, cap in ((17, MULTISTART_CAP), (9, 81)):
            starts = _start_grid(lo, hi, grid, cap)
            assert len(starts) <= cap
            for corner in itertools.product(*zip(lo, hi)):
                assert (starts == corner).all(axis=1).any(), (grid, corner)

    def test_two_axes_keep_the_full_grid(self):
        starts = _start_grid(np.zeros(2), np.ones(2), 17, MULTISTART_CAP)
        assert len(starts) == 17 * 17
        assert len(_start_grid(np.zeros(2), np.ones(2), 9, 81)) == 81


class TestSearchBox:
    """Each search box is the growth box cut to the hull of subdiff g over
    the range box of the potentials (ModelSpec._search_box)."""

    def test_wide_table_solves_and_matches_both_oracles(self):
        # on the growth box [-256, 256] the Perron pair failed at the corner
        # y+ = -256; the box is now 1.5 * [min, max] of the table
        from thermoflat.oracle import bkl_pressure, direct_pressure

        a3 = AprioriAlphabet(3)
        table = 30 * np.random.default_rng(3).standard_normal((3, 3))
        model = ModelSpec(a3, [CylinderPotential(a3, table)], g_plus=Quadratic(1.5))
        sol = solve_flat(model)
        assert sol.growth_radii == (256.0, None)
        assert sol.diagnostics["box_plus"] == [[1.5 * table.min()], [1.5 * table.max()]]
        assert sol.p_flat == pytest.approx(2810.513218235406, abs=1e-9)
        assert sol.p_flat == pytest.approx(direct_pressure(model)[0], abs=1e-9)
        assert sol.p_flat == pytest.approx(bkl_pressure(model)[0], abs=1e-9)
        assert sol.equilibria

    def test_zero_width_axes_keep_the_growth_box(self):
        # a constant potential, and an abs_sum over a range on one side of
        # its kink, give hulls of zero width
        a3 = AprioriAlphabet(3)
        const = CylinderPotential(a3, [0.5, 0.5, 0.5])
        plus = CylinderPotential(a3, [1.0, -0.5, 2.0])
        minus = CylinderPotential(a3, [0.5, 1.0, 2.0])
        model = ModelSpec(a3, [plus, const], [minus, plus],
                          Quadratic(2.0, dim=2), AbsSum(dim=2))
        r = model.growth_radii[0]
        assert [a.tolist() for a in model.box_plus] == [[-1.0, -r], [4.0, r]]
        assert [a.tolist() for a in model.box_minus] == [[-1.0, -1.0], [1.0, 1.0]]
        sol = solve_flat(model)
        assert sol.diagnostics["box_plus"] == [[-1.0, -r], [4.0, r]]
        assert sol.diagnostics["box_minus"] == [[-1.0, -1.0], [1.0, 1.0]]

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_shifted_quadratics_match_the_growth_box(self, beta, monkeypatch):
        # 3-D shifted quadratics: every maximizer lies well inside the
        # growth box, so cutting it to the hull changes no P_flat
        a3 = AprioriAlphabet(3)
        pots = [CylinderPotential(a3, row)
                for row in np.random.default_rng(0).standard_normal((3, 3))]
        direction = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
        models = [
            ModelSpec(a3, pots, g_plus=LinearShift(c * direction, Quadratic(beta, 3)))
            for c in (1, 3, 10, 30, -1, -3, -10, -30)
        ]
        cut = [solve_flat(m, RunConfig(grid=5)) for m in models]
        for m, sol in zip(models, cut):
            r = m.growth_radii[0]
            lo, hi = sol.diagnostics["box_plus"]
            assert -r < min(lo) and max(hi) < r
        monkeypatch.setattr(ModelSpec, "box_plus", property(
            lambda self: tuple(np.clip(self.g_plus.conjugate_box(),
                                       -self.growth_radii[0], self.growth_radii[0]))))
        for m, sol in zip(models, cut):
            full = solve_flat(m, RunConfig(grid=5))
            assert sol.p_flat == pytest.approx(full.p_flat, abs=1e-12)
            assert len(sol.m_flat) == len(full.m_flat)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_growth_failure_names_its_cause(self, side):
        # the potential's range [-5, 5] passes the grid's [-3, 3], so g*
        # grows too slowly for slope 5; the model is still built
        spin = CylinderPotential(A2, [5.0, -5.0])
        x = np.linspace(-3.0, 3.0, 7)
        grid = GridSampled([x], x**2 / 2)
        if side == "plus":
            model = ModelSpec(A2, [spin], g_plus=grid)
        else:
            model = ModelSpec(A2, [SPIN], [spin], Quadratic(1.0),
                              LinearShift([0.5], grid))
        with pytest.raises(ArithmeticError) as info:
            model.growth_radii
        text = str(info.value)
        kind = "GridSampled" if side == "plus" else "LinearShift of GridSampled"
        assert text.startswith(f"{side} coupling {kind} at slope 5.0, ")
        assert "lacks minimal linear growth" in text
        assert text.endswith("axis 0: potential range [-5, 5], grid [-3, 3]")


def grid_minus_models():
    """The grid-minus models with P_flat from a dense brute force over the
    linearity cells of g-*."""
    a3 = AprioriAlphabet(3)
    rng = np.random.default_rng(0)
    t, u = (CylinderPotential(a3, rng.standard_normal(3)) for _ in range(2))
    ax5 = np.linspace(-2.0, 2.0, 5)
    a, b = np.meshgrid(ax5, ax5, indexing="ij")
    kinked = GridSampled([ax5, ax5], (a**2 + b**2) / 2 + (abs(a) + abs(b)) / 4)
    shifted = LinearShift(np.array([0.2]), HALF_SQUARE_GRID)
    return {
        "spin": (
            ModelSpec(A2, [SPIN], [SPIN], Quadratic(1.5), HALF_SQUARE_GRID), 0.0
        ),
        "shifted": (
            ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), shifted), 0.514632413880930
        ),
        "k3": (
            ModelSpec(a3, [t], [u], Quadratic(2.0), HALF_SQUARE_GRID),
            0.052696462895338,
        ),
        "k3_two_axes": (
            ModelSpec(a3, [t], [t, u], Quadratic(4.0), kinked), -0.068423950788751
        ),
    }


class TestGridMinusInner:
    """A grid g-* is a max of affine pieces: the inner inf is an epigraph
    program, polished on the face of g-* it ends on."""

    @pytest.mark.parametrize("name", ["spin", "shifted", "k3", "k3_two_axes"])
    def test_solves_and_matches_brute_force(self, name, monkeypatch):
        model, reference = grid_minus_models()[name]
        calls, original = [], ModelSpec.linear_pressure_tilted

        def counted(self, *args):
            calls.append(len(np.atleast_2d(args[0])))  # tilts, one per row
            return original(self, *args)

        monkeypatch.setattr(ModelSpec, "linear_pressure_tilted", counted)
        sol = solve_flat(model)
        assert sol.p_flat == pytest.approx(reference, abs=1e-9)
        assert sol.equilibria
        for e in sol.equilibria:
            assert e.residual_plus < SC_TOL
            assert e.residual_minus < SC_TOL
        assert sum(calls) <= 5000

    def test_both_couplings_on_grids(self):
        # the brute force puts the max at the vertex y+ = 1.5 of g+*
        k3, _ = grid_minus_models()["k3"]
        x = np.linspace(-1.0, 1.0, 9)
        model = ModelSpec(
            k3.alphabet, k3.plus_potentials, k3.minus_potentials,
            GridSampled([x], 2.0 * x**2), k3.g_minus,
        )
        sol = solve_flat(model)
        assert sol.p_flat == pytest.approx(0.155809059157899, abs=1e-11)
        assert sol.equilibria


def central_jacobian(f, y, h=1e-6):
    """Central differences of the vector function f at y, one column per
    coordinate."""
    return np.column_stack([(f(y + h * e) - f(y - h * e)) / (2 * h) for e in np.eye(len(y))])


class TestNewtonSearch:
    """One projected Newton search serves every smooth search: the inner inf,
    the local maxima over y+ and the face polish of a grid g-*."""

    def test_p_nl_hessian_matches_finite_differences(self):
        # memory 3 on a weighted alphabet, two plus potentials and one minus
        a3 = AprioriAlphabet(3, [0.2, 0.3, 0.5])
        rng = np.random.default_rng(4)
        model = ModelSpec(
            a3,
            [CylinderPotential(a3, rng.standard_normal((3, 3, 3))),
             CylinderPotential(a3, rng.standard_normal(3))],
            [CylinderPotential(a3, rng.standard_normal((3, 3)))],
            Quadratic(2.0, dim=2),
            LinearShift(np.array([0.3]), Quadratic(1.5)),
        )
        y = np.array([0.4, -0.7, 0.2])

        def gradient(z):
            return np.concatenate(p_nl(model, z[:2], z[2:], grad=True)[1:])

        value, grad_plus, grad_minus, hess = p_nl(model, y[:2], y[2:], True, True)
        assert value == p_nl(model, y[:2], y[2:])
        np.testing.assert_array_equal(np.concatenate([grad_plus, grad_minus]), gradient(y))
        np.testing.assert_allclose(hess, central_jacobian(gradient, y), atol=1e-8)
        np.testing.assert_allclose(hess, hess.T, atol=1e-15)

    @pytest.mark.parametrize(
        "build, y_plus",
        [
            (lambda: ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), AbsSum(1)), [0.5]),
            (lambda: ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), AbsSum(1)), [2.0]),
            (two_minus_game, [0.8]),
            (lambda: grid_minus_models()["k3_two_axes"][0], [0.93]),
        ],
        ids=["abs_sum_inside", "abs_sum_on_face", "two_minus", "grid_minus"],
    )
    def test_p_flat_hessian_is_the_derivative_of_its_gradient(self, build, y_plus):
        # the Schur complement over the minimizer's free coordinates (or the
        # face of g-* it ends on)
        model = build()
        _, _, _, hess = p_flat_of(model, y_plus, grad=True, hess=True)

        def gradient(y):
            return p_flat_of(model, y, grad=True)[2]

        fd = central_jacobian(gradient, np.array(y_plus, dtype=float))
        np.testing.assert_allclose(hess, fd, atol=1e-8)

    def test_abs_sum_p_flat_hessian_in_closed_form(self):
        # inf over |y-| <= 1 of log cosh(y+ - y-) - y+^2/6: y- = clip(y+)
        model = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), AbsSum(1))
        assert p_flat_of(model, [0.5], grad=True, hess=True)[3][0, 0] == pytest.approx(
            -1.0 / 3.0, abs=1e-12
        )
        assert p_flat_of(model, [2.0], grad=True, hess=True)[3][0, 0] == pytest.approx(
            1.0 / math.cosh(1.0) ** 2 - 1.0 / 3.0, abs=1e-12
        )

    def test_modified_steps_descend_where_the_function_is_not_convex(self):
        import thermoflat.linearizer as lin

        def quartic(x):
            return x[0] ** 4 - x[0] ** 2, 4 * x[0] ** 3 - 2 * x, np.array([[12 * x[0] ** 2 - 2]])

        # f'' < 0 at the start; the minimum is at 1/sqrt(2)
        x, out, steps, message = lin._newton(quartic, np.array([0.1]), -5.0, 5.0, 1e-12)
        assert message is None
        assert x[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert 0 < steps < 20
        # a box face that blocks the descent is a stationary point
        x, _, _, message = lin._newton(quartic, np.array([0.1]), -0.5, 0.5, 1e-12)
        assert message is None
        assert x[0] == 0.5

    def test_messages_name_why_it_stopped(self, monkeypatch):
        import thermoflat.linearizer as lin

        def inconsistent(x):
            # a gradient that no step of a constant function can shrink
            return 0.0, np.ones(1), np.eye(1)

        *_, message = lin._newton(inconsistent, np.zeros(1), -np.inf, np.inf, 1e-12)
        assert message == "line search failed at projected gradient 1"

        def quartic(x):
            return x[0] ** 4, 4 * x ** 3, np.array([[12 * x[0] ** 2]])

        monkeypatch.setattr(lin, "NEWTON_STEPS", 2)
        x, _, steps, message = lin._newton(quartic, np.array([1.0]), -2.0, 2.0, 1e-12)
        assert steps == 2
        assert message == f"iteration cap of 2 steps at projected gradient {4 * x[0] ** 3:.3g}"

    def test_diagnostics_count_the_pressure_evaluations(self, monkeypatch):
        calls, original = [], ModelSpec.linear_pressure_tilted

        def counted(self, *args):
            calls.append(len(np.atleast_2d(args[0])))  # tilts, one per row
            return original(self, *args)

        monkeypatch.setattr(ModelSpec, "linear_pressure_tilted", counted)
        sol = solve_game(
            ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0)), RunConfig(grid=9)
        )
        search, sharp = sol.diagnostics["search"], sol.diagnostics["sharp"]
        assert search["unconverged"] == 0
        assert search["evaluations"] > 0 and sharp["evaluations"] > 0
        assert search["evaluations"] + sharp["evaluations"] == sum(calls)

    def test_two_plus_potentials_game(self, monkeypatch):
        # every full inner sup over the two plus coordinates runs 81 starts
        a3 = AprioriAlphabet(3)
        rng = np.random.default_rng(0)
        plus = [CylinderPotential(a3, t) for t in rng.standard_normal((2, 3))]
        minus = [CylinderPotential(a3, t) for t in rng.standard_normal((3, 3))]
        model = ModelSpec(a3, plus, minus, Quadratic(4.0, dim=2), Quadratic(1.0, dim=3))
        calls, original = [], ModelSpec.linear_pressure_tilted

        def counted(self, *args):
            calls.append(len(np.atleast_2d(args[0])))  # tilts, one per row
            return original(self, *args)

        monkeypatch.setattr(ModelSpec, "linear_pressure_tilted", counted)
        sol = solve_game(model, RunConfig(grid=9))
        assert sol.p_flat == pytest.approx(-0.5031605120823289, abs=1e-9)
        assert sol.p_sharp == pytest.approx(-0.45032126091980607, abs=1e-9)
        assert sum(calls) <= 5000


def _row_functions():
    """Per-row test functions (value, gradient, Hessian) in two coordinates,
    each stopping in its own way on the box [-1, 1]^2."""

    def face(x):
        # the minimizer sits on the face x0 = 1, where only x1 is free
        return ((x[0] - 3) ** 2 + (x[1] - 0.5) ** 2 + 0.5 * x[0] * x[1],
                np.array([2 * (x[0] - 3) + 0.5 * x[1], 2 * (x[1] - 0.5) + 0.5 * x[0]]),
                np.array([[2.0, 0.5], [0.5, 2.0]]))

    def stuck(x):
        # a gradient that no step of a constant function can shrink
        return 0.0, np.ones(2), np.eye(2)

    def slow(x):
        # Newton converges only linearly on a quartic
        return (x**4).sum(), 4 * x**3, np.diag(12 * x**2)

    def bowl(x):
        # not convex at the start
        return (x**4 - x**2).sum(), 4 * x**3 - 2 * x, np.diag(12 * x**2 - 2)

    def overshoot(x):
        # from x0 = -0.5 the understated Hessian sends the step to the box
        # face, and Armijo's test, on the slope of each halved step, first
        # passes after five halvings, where the value has barely dropped
        t = x[0] + 0.5
        return (-t + 21.312 * t**2, np.array([-1 + 42.624 * t, 0.0]),
                np.diag([0.5, 1.0]))

    return [face, stuck, slow, bowl, overshoot]


def _reference_newton(fun, x0, lo, hi, gtol):
    """The one-start projected Newton search that the lockstep search
    replaced, kept as the reference that each of its rows must reproduce."""
    import thermoflat.linearizer as lin

    def modified_inverse(h):
        if not (np.isfinite(h).all() and h.any()):
            return np.zeros_like(h)
        lam, vec = np.linalg.eigh(h)
        return (vec / np.maximum(np.abs(lam), 1e-10 * np.abs(lam).max())) @ vec.T

    x = np.clip(x0, lo, hi)
    out = fun(x)
    for steps in range(lin.NEWTON_STEPS + 1):
        free = lin._free(x, out[1], lo, hi)
        gradient = np.where(free, out[1], 0.0)
        norm = np.abs(gradient).max(initial=0.0)
        if norm <= gtol or steps == lin.NEWTON_STEPS:
            break
        step = -gradient
        step[free] = modified_inverse(out[2][np.ix_(free, free)]) @ step[free]
        step = np.clip(x + step, lo, hi) - x
        if gradient @ step >= 0:
            step = np.clip(x - gradient, lo, hi) - x
        for _ in range(lin.NEWTON_HALVINGS):
            trial = np.clip(x + step, lo, hi)
            new = fun(trial)
            rounding = abs(new[0] - out[0]) <= 1e-12 * max(1.0, abs(out[0]))
            pg = np.abs(new[1][lin._free(trial, new[1], lo, hi)]).max(initial=0.0)
            if new[0] <= out[0] + 1e-4 * (gradient @ step) or rounding and pg < norm:
                break
            step = step / 2
        else:
            return x, out, steps, f"line search failed at projected gradient {norm:.3g}"
        x, out = trial, new
    cap = f"iteration cap of {lin.NEWTON_STEPS} steps at projected gradient {norm:.3g}"
    return x, out, steps, None if norm <= gtol else cap


def _stacked(functions):
    """fun(x, rows) for _newton: row i of x0 runs functions[i]."""

    def fun(x, rows):
        outs = [functions[i](y) for y, i in zip(x, rows)]
        return tuple(np.array(column) for column in zip(*outs))

    return fun


class TestLockstep:
    """The search runs every start in lockstep, on stacks of tilts; each row
    gets what it would get alone."""

    def test_each_row_searches_as_it_would_alone(self, monkeypatch):
        import thermoflat.linearizer as lin

        monkeypatch.setattr(lin, "NEWTON_STEPS", 10)
        functions = _row_functions()
        x0 = np.array([[0.2, -0.4], [0.3, 0.3], [0.9, -0.8], [0.1, 0.3], [-0.5, 0.0]])
        lo, hi = -np.ones(2), np.ones(2)
        x, out, steps, messages = lin._newton(_stacked(functions), x0, lo, hi, 1e-12)
        assert messages[0] is None and messages[3] is None
        assert messages[1] == "line search failed at projected gradient 1"
        assert messages[2].startswith("iteration cap of 10 steps")
        assert x[0, 0] == 1.0  # stopped on the face, the other coordinate free
        for i, f in enumerate(functions):
            alone = lin._newton(_stacked([f]), x0[i : i + 1], lo, hi, 1e-12)
            one = lin._newton(f, x0[i], lo, hi, 1e-12)
            reference = _reference_newton(f, x0[i], lo, hi, 1e-12)
            for xi, outi, stepsi, message in (
                (alone[0][0], [o[0] for o in alone[1]], alone[2][0], alone[3][0]),
                one, reference,
            ):
                np.testing.assert_allclose(xi, x[i], rtol=0, atol=1e-15)
                assert outi[0] == out[0][i]
                assert stepsi == steps[i]
                assert message == messages[i]

    @pytest.mark.parametrize("memory", [1, 2, 3, 4])
    def test_stacked_pressures_equal_single_calls(self, memory):
        rng = np.random.default_rng(memory)
        a3 = AprioriAlphabet(3, [0.2, 0.3, 0.5])
        shape = (3,) * memory
        model = ModelSpec(
            a3,
            [CylinderPotential(a3, rng.standard_normal(shape)) for _ in range(2)],
            [CylinderPotential(a3, rng.standard_normal(shape))],
            Quadratic(2.0, dim=2),
            LinearShift(np.array([0.3]), Quadratic(1.5)),
        )
        y_plus, y_minus = rng.standard_normal((5, 2)), rng.standard_normal((5, 1))
        before = model.evaluations
        stacked = model.linear_pressure_tilted(y_plus, y_minus, True)
        assert model.evaluations == before + 5
        nl = p_nl(model, y_plus, y_minus, True, True)
        for i in range(5):
            one = model.linear_pressure_tilted(y_plus[i], y_minus[i], True)
            for a, b in zip(stacked, one):
                np.testing.assert_array_equal(a[i], b)
            for a, b in zip(nl, p_nl(model, y_plus[i], y_minus[i], True, True)):
                np.testing.assert_array_equal(a[i], b)
        assert p_nl(model, y_plus, y_minus).shape == (5,)

    def test_a_stalled_row_falls_back_alone(self, monkeypatch):
        # y+ = 1 tilts by the second [-50, 50] table of the default_rng(50)
        # stream, on which Noda's iteration stalls (see TestPerronPair); the
        # small tilts around it certify, so only its vectors reach perron
        # and its eig rounds
        rng = np.random.default_rng(50)
        rng.uniform(-50.0, 50.0, (3,) * 4)
        a3 = AprioriAlphabet(3)
        table = rng.uniform(-50.0, 50.0, (3,) * 4)
        model = ModelSpec(a3, [CylinderPotential(a3, table)], g_plus=Quadratic(1.0))
        stalled = ruelle._log_transfer(model.log_weights, table.ravel(), 4)
        y_plus, y_minus = np.array([[0.01], [1.0], [-0.02]]), np.zeros((3, 0))
        calls, eigs = [], [0]
        perron, eig = ruelle.perron, ruelle.scipy.linalg.eig

        def recorded(log_matrix):
            calls.append(np.array(log_matrix))
            return perron(log_matrix)

        def counted(*args, **kwargs):
            eigs[0] += 1
            return eig(*args, **kwargs)

        monkeypatch.setattr(ruelle, "perron", recorded)
        monkeypatch.setattr(ruelle.scipy.linalg, "eig", counted)
        singles, alone = [], []
        for i in range(3):
            singles.append(p_nl(model, y_plus[i], y_minus[i], True, True))
            alone.append((len(calls), eigs[0]))
            calls.clear()
            eigs[0] = 0
        assert alone[0] == alone[2] == (0, 0)
        assert alone[1][0] == 2 and alone[1][1] > 0
        stacked = p_nl(model, y_plus, y_minus, True, True)
        assert (len(calls), eigs[0]) == alone[1]
        np.testing.assert_array_equal(calls[0], stalled)
        np.testing.assert_array_equal(calls[1], stalled.T)
        for i, one in enumerate(singles):
            for a, b in zip(stacked, one):
                np.testing.assert_array_equal(a[i], b)

    @pytest.mark.parametrize(
        "build", [lambda: ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), AbsSum(1)),
                  two_minus_game, memory2_game],
        ids=["abs_sum", "two_minus", "memory2"],
    )
    def test_stacked_inner_infs_equal_single_calls(self, build):
        # the abs_sum rows end on both faces of [-1, 1] and inside it, so
        # their Schur complements take different free sets
        model = build()
        y_plus = np.linspace(-2.5, 2.5, 7)[:, None]
        value, y_minus, gradient, hess = p_flat_of(model, y_plus, True, True)
        assert value.shape == (7,) and y_minus.shape == (7, model.n_minus)
        for i, y in enumerate(y_plus):
            one_value, (one,), one_gradient, one_hess = p_flat_of(model, y, True, True)
            assert one_value == value[i]
            np.testing.assert_array_equal(one.array, y_minus[i])
            np.testing.assert_array_equal(one_gradient, gradient[i])
            np.testing.assert_array_equal(one_hess, hess[i])

    def test_warm_inner_start_saves_evaluations(self):
        model = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        cold_before = model.evaluations
        value, (x_minus,) = p_flat_of(model, [1.0])
        cold = model.evaluations - cold_before
        warm_before = model.evaluations
        warm_value, _ = p_flat_of(model, [1.0 + 1e-3], start=x_minus.array)
        assert model.evaluations - warm_before < cold
        assert warm_value == pytest.approx(p_flat_of(model, [1.0 + 1e-3])[0], abs=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_a_failing_row_is_named(self):
        # y+ = -1e10 sends every word ending in symbol 1 to weight 0 (see
        # test_uncertified_tilt_is_named); the rows around it certify
        phi = CylinderPotential(A2, [[0.0, 1e300], [0.0, 1e300]])
        model = ModelSpec(A2, [phi], g_plus=Quadratic(1.0))
        with pytest.raises(ArithmeticError) as info:
            model.linear_pressure_tilted(np.array([[0.5], [-1e10], [0.3]]),
                                         np.zeros((3, 0)))
        assert str(info.value).startswith(
            "linear_pressure_tilted at y+ = [-10000000000.0], y- = []: perron:"
        )


class TestValidation:
    def test_requires_some_coupling(self):
        with pytest.raises(ValueError):
            ModelSpec(A2, [SPIN])

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_side_with_potentials_needs_a_coupling(self, side):
        g_plus, g_minus = (None, Quadratic(2.0)) if side == "plus" else (
            Quadratic(2.0), None)
        with pytest.raises(ValueError) as info:
            ModelSpec(A2, [SPIN], [SPIN], g_plus, g_minus)
        assert str(info.value) == f"{side} potentials need a g_{side} coupling"

    def test_dimension_agreement(self):
        with pytest.raises(ValueError):
            ModelSpec(A2, [SPIN], g_plus=Quadratic(1.0, dim=2))

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(grid=3)
