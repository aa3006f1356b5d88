import itertools
import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, linprog

from thermoflat import kernels, transport
from thermoflat.convex import AbsSum, GridSampled, LinearShift, Quadratic
from thermoflat.linearizer import ModelSpec, p_nl, solve_flat
from thermoflat.measures import (
    AprioriAlphabet,
    CylinderPotential,
    MarkovMeasure,
    MixtureMeasure,
    entropy_rate,
)
from thermoflat.transport import (
    Coupling,
    DiscreteDualMeasure,
    affine_pressure_flat,
    affine_pressure_sharp,
    birkhoff_sampling,
    cost_matrix,
    delta_functional,
    delta_via_birkhoff,
    kantorovich_dual_check,
    kantorovich_primal,
)

A2 = AprioriAlphabet(2)
SPIN = CylinderPotential(A2, [1.0, -1.0], name="spin")


def cw_model(beta):
    return ModelSpec(A2, plus_potentials=[SPIN], g_plus=Quadratic(beta))


def square(z):
    return float(np.asarray(z).ravel()[0] ** 2)


class TestDeltaFunctional:
    def test_jensen_lower_bound(self):
        mu1 = MarkovMeasure.product(A2, [0.9, 0.1])
        mu2 = MarkovMeasure.product(A2, [0.2, 0.8])
        mix = MixtureMeasure([(0.4, mu1), (0.6, mu2)])
        m = cw_model(2.0)
        delta = delta_functional(m, mix, m.g_plus.value, side="plus")
        tau = m.tau_plus(mix)
        assert delta >= m.g_plus.value(tau) - 1e-12

    def test_ergodic_component_requires_flag(self):
        q = np.eye(2)
        mu = MarkovMeasure(A2, 1, [0.5, 0.5], q, ergodic=False)
        with pytest.raises(ValueError, match="ergodic decomposition"):
            delta_functional(cw_model(2.0), mu, square)

    def test_single_ergodic_reduces_to_composition(self):
        mu = MarkovMeasure.product(A2, [0.7, 0.3])
        m = cw_model(2.0)
        delta = delta_functional(m, mu, square, side="plus")
        assert delta == pytest.approx(square(m.tau_plus(mu)), abs=1e-14)


class TestDeltaBirkhoff:
    def test_one_call_per_distinct_average(self):
        # 256 words of length 8, but their spin averages take 9 values
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        seen = []

        def f(z):
            seen.append(float(z[0]))
            return square(z)

        assert delta_via_birkhoff([SPIN], mu, f, 8) == pytest.approx(0.125)
        assert sorted(seen) == pytest.approx(np.linspace(-1, 1, 9).tolist())

    def test_uniform_spin_square_exact_values(self):
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        # E[(S_n/n)^2] = 1/n for +-1 coin flips: 0.5 at n=2, 0.25 at n=4
        assert delta_via_birkhoff([SPIN], mu, square, 2) == pytest.approx(0.5)
        assert delta_via_birkhoff([SPIN], mu, square, 4) == pytest.approx(0.25)

    def test_nonincreasing_in_n_for_convex_f(self):
        mu = MarkovMeasure.product(A2, [0.6, 0.4])
        vals = [delta_via_birkhoff([SPIN], mu, square, n) for n in (2, 4, 6, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_word_cap(self):
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        with pytest.raises(ValueError, match="too large"):
            delta_via_birkhoff([SPIN], mu, square, 22)

    def test_grouping_matches_np_unique(self):
        # two potentials with tied averages, on measures with words of
        # probability zero: F is called on np.unique's rows, in its order,
        # and the value is the reference sum to the last bit
        a3 = AprioriAlphabet(3)
        rng = np.random.default_rng(3)
        pots = [CylinderPotential(a3, [1.0, 0.0, -1.0]),
                CylinderPotential(a3, rng.integers(-1, 2, (3, 3)).astype(float))]
        chain = MarkovMeasure.from_transitions(
            a3, np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 0.6, 0.4]]))
        product = MarkovMeasure.product(a3, [0.7, 0.0, 0.3])
        n = 6
        words = np.array(np.unravel_index(np.arange(3**n), (3,) * n)).T
        averages = np.stack(
            [kernels.birkhoff_averages(words, p.table.ravel(), p.memory, 3)
             for p in pots], axis=1)

        def reference(nu):
            probs = nu.word_probs(n).ravel()
            mask = probs > 0
            assert not mask.all()
            rows, inverse = np.unique(averages[mask], axis=0, return_inverse=True)
            assert len(rows) < mask.sum()
            got_rows, got_inverse = transport._distinct_rows(averages[mask])
            np.testing.assert_array_equal(got_rows, rows)
            np.testing.assert_array_equal(got_inverse, inverse.ravel())
            weights = np.bincount(inverse.ravel(), weights=probs[mask],
                                  minlength=len(rows))
            return rows, float(np.dot(weights, [f(a) for a in rows]))

        def f(z):
            return float(z[0] ** 2 + z[0] * z[1] + 2.0 * z[1] ** 2)

        for nu in (chain, product):
            rows, want = reference(nu)
            seen = []

            def recording_f(z):
                seen.append(z)
                return f(z)

            assert delta_via_birkhoff(pots, nu, recording_f, n) == want
            np.testing.assert_array_equal(np.array(seen), rows)
        mix = MixtureMeasure([(0.4, chain), (0.6, product)])
        assert delta_via_birkhoff(pots, mix, f, n) == (
            0.4 * reference(chain)[1] + 0.6 * reference(product)[1])

    def test_alphabet_mismatch_rejected(self):
        # k=2 words read the wrong entries of a k=3 table
        phi = CylinderPotential(AprioriAlphabet(3), np.arange(9.0).reshape(3, 3))
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        with pytest.raises(ValueError, match="alphabets differ"):
            delta_via_birkhoff([phi], mu, square, 4)

    def test_mixture_splits(self):
        mu1 = MarkovMeasure.product(A2, [0.9, 0.1])
        mu2 = MarkovMeasure.product(A2, [0.2, 0.8])
        mix = MixtureMeasure([(0.4, mu1), (0.6, mu2)])
        lhs = delta_via_birkhoff([SPIN], mix, square, 4)
        rhs = 0.4 * delta_via_birkhoff([SPIN], mu1, square, 4) + (
            0.6 * delta_via_birkhoff([SPIN], mu2, square, 4)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestAffinePressures:
    def test_flat_is_affine_in_decomposition(self):
        m = cw_model(2.0)
        sol = solve_flat(m)
        nu1, nu2 = (e.measure for e in sol.equilibria)
        mix = MixtureMeasure([(0.3, nu1), (0.7, nu2)])
        lhs = affine_pressure_flat(m, mix)
        rhs = 0.3 * m.direct_pressure_of(nu1) + 0.7 * m.direct_pressure_of(nu2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_flat_attains_p_flat_on_equilibrium_mixtures(self):
        m = cw_model(2.0)
        sol = solve_flat(m)
        nu1, nu2 = (e.measure for e in sol.equilibria)
        mix = MixtureMeasure([(0.5, nu1), (0.5, nu2)])
        assert affine_pressure_flat(m, mix) == pytest.approx(
            sol.p_flat, abs=1e-8
        )

    def test_sharp_dominated_by_flat_for_plus_only(self):
        # with no minus side the two functionals coincide
        m = cw_model(1.5)
        mu = MarkovMeasure.product(A2, [0.7, 0.3])
        assert affine_pressure_sharp(m, mu) == pytest.approx(
            affine_pressure_flat(m, mu), abs=1e-14
        )

    def test_sharp_vs_flat_on_minus_mixture(self):
        # minus side evaluated at the mixed mean vs component-wise: convexity
        # of g- makes F_sharp >= F_flat
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        mu1 = MarkovMeasure.product(A2, [0.9, 0.1])
        mu2 = MarkovMeasure.product(A2, [0.2, 0.8])
        mix = MixtureMeasure([(0.5, mu1), (0.5, mu2)])
        assert affine_pressure_sharp(m, mix) >= affine_pressure_flat(m, mix) - 1e-12


class TestOrderParameters:
    def test_kinked_coupling_rejected(self):
        m = ModelSpec(A2, [SPIN], g_plus=AbsSum(1))
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        with pytest.raises(ValueError, match="differentiable"):
            birkhoff_sampling(m, mu, n=10, num_samples=5)

    @pytest.mark.parametrize("order_parameters", [
        lambda m, mu: birkhoff_sampling(m, mu, n=10, num_samples=5),
    ], ids=["birkhoff_sampling"])
    @pytest.mark.parametrize("base", [
        AbsSum(1),
        GridSampled([np.linspace(-2.0, 2.0, 9)], np.linspace(-2.0, 2.0, 9) ** 2),
    ], ids=["abs_sum", "grid"])
    def test_shifted_kinked_coupling_rejected(self, order_parameters, base):
        # a linear shift has a gradient method whatever its base, so the
        # check must ask the coupling whether it is differentiable
        m = ModelSpec(A2, [SPIN], g_plus=LinearShift(np.array([0.1]), base))
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        with pytest.raises(ValueError, match="differentiable"):
            order_parameters(m, mu)


class TestCouplings:
    def test_marginal_validation(self):
        r = DiscreteDualMeasure(((0.0,), (1.0,)), (0.5, 0.5))
        c = DiscreteDualMeasure(((0.0,),), (1.0,))
        Coupling(np.array([[0.5], [0.5]]), r, c)
        with pytest.raises(ValueError, match="marginals"):
            Coupling(np.array([[0.7], [0.5]]), r, c)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            DiscreteDualMeasure(((0.0,),), (0.9,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # NaN slips through both "w.min() <= 0" and the sum check
        with pytest.raises(ValueError, match="weights must be finite"):
            DiscreteDualMeasure(((0.0,), (1.0,)), (bad, 0.5))
        with pytest.raises(ValueError, match="points must be finite"):
            DiscreteDualMeasure(((0.0,), (bad,)), (0.5, 0.5))


class TestKantorovich:
    def _instance(self, seed, nr, nc):
        rng = np.random.default_rng(seed)
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        rows = DiscreteDualMeasure(
            tuple((float(x),) for x in rng.normal(size=nr)),
            tuple(rng.dirichlet(np.ones(nr)).tolist()),
        )
        cols = DiscreteDualMeasure(
            tuple((float(x),) for x in rng.normal(scale=0.5, size=nc)),
            tuple(rng.dirichlet(np.ones(nc)).tolist()),
        )
        return m, rows, cols

    @staticmethod
    def _highs_value(cost, rows, cols):
        """Reference optimum: the marginal-equality LP built entry by entry."""
        nr, nc = cost.shape
        a_eq = []
        for i in range(nr):
            row = np.zeros((nr, nc))
            row[i, :] = 1
            a_eq.append(row.ravel())
        for j in range(nc):
            col = np.zeros((nr, nc))
            col[:, j] = 1
            a_eq.append(col.ravel())
        b_eq = np.concatenate([rows.weights, cols.weights])
        res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=b_eq,
                      bounds=(0, None), method="highs")
        assert res.success
        return res.fun

    @pytest.mark.parametrize("nr,nc", [(2, 2), (3, 3), (4, 5), (6, 4)])
    def test_matches_linprog(self, nr, nc):
        m, rows, cols = self._instance(nr * 10 + nc, nr, nc)
        cost = cost_matrix(m, rows.points, cols.points)
        value, coupling = kantorovich_primal(cost, rows, cols)
        assert value == pytest.approx(self._highs_value(cost, rows, cols),
                                      abs=1e-9)

    def test_solves_beyond_sixteen_points(self):
        m, rows, cols = self._instance(0, 20, 17)
        cost = cost_matrix(m, rows.points, cols.points)
        value, coupling = kantorovich_primal(cost, rows, cols)
        assert value == pytest.approx(self._highs_value(cost, rows, cols),
                                      abs=1e-9)
        assert value == coupling.cost(cost)
        assert coupling.matrix.shape == (20, 17)

    def test_tied_costs_match_best_permutation(self):
        # |y+| = |y-| in pairs makes many plans tie; by Birkhoff-von Neumann
        # the optimum over uniform 5x5 couplings is the best permutation plan
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        ys = (-1.0, -0.5, 0.0, 0.5, 1.0)
        rows = DiscreteDualMeasure(tuple((y,) for y in ys), (0.2,) * 5)
        cols = DiscreteDualMeasure(tuple((abs(y),) for y in ys), (0.2,) * 5)
        cost = cost_matrix(m, rows.points, cols.points)
        value, coupling = kantorovich_primal(cost, rows, cols)
        best = min(
            0.2 * sum(cost[i, j] for i, j in enumerate(perm))
            for perm in itertools.permutations(range(5))
        )
        assert value == pytest.approx(best, abs=1e-12)
        plan = coupling.matrix
        assert plan.min() >= 0.0
        np.testing.assert_allclose(plan.sum(axis=1), 0.2, atol=1e-12)
        np.testing.assert_allclose(plan.sum(axis=0), 0.2, atol=1e-12)

    def test_nan_cost_rejected(self):
        rows = DiscreteDualMeasure(((0.0,),), (1.0,))
        cols = DiscreteDualMeasure(((0.0,), (1.0,)), (0.5, 0.5))
        with pytest.raises(ValueError, match="infinite"):
            kantorovich_primal(np.array([[0.0, math.nan]]), rows, cols)

    def test_cost_shape_must_match_measures(self):
        m, rows, cols = self._instance(2, 2, 3)
        cost = cost_matrix(m, rows.points, cols.points)
        with pytest.raises(ValueError, match=r"shape \(3, 2\), the measures need \(2, 3\)"):
            kantorovich_primal(cost.T, rows, cols)
        with pytest.raises(ValueError, match="the measures need"):
            kantorovich_dual_check(cost[:1], rows, cols, 0.0, p_flat=0.0)

    def test_failed_lp_is_solver_error(self, monkeypatch):
        monkeypatch.setattr(
            "scipy.optimize.linprog",
            lambda *a, **kw: OptimizeResult(success=False, status=4,
                                            message="numerical difficulties"),
        )
        m, rows, cols = self._instance(1, 2, 2)
        with pytest.raises(ArithmeticError, match="numerical difficulties"):
            kantorovich_primal(cost_matrix(m, rows.points, cols.points), rows, cols)

    def test_single_support_echoes_p_nl(self):
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        rows = DiscreteDualMeasure(((1.2,),), (1.0,))
        cols = DiscreteDualMeasure(((0.4,),), (1.0,))
        value, _ = kantorovich_primal(cost_matrix(m, rows.points, cols.points),
                                      rows, cols)
        assert value == pytest.approx(p_nl(m, [1.2], [0.4]), abs=1e-12)

    def test_identity_on_supercritical_model(self):
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
        sol = solve_flat(m)
        pairs = [(e.x_plus, e.x_minus) for e in sol.equilibria]
        n = len(pairs)
        rows = DiscreteDualMeasure(tuple(p for p, _ in pairs), (1.0 / n,) * n)
        cols = DiscreteDualMeasure(tuple(q for _, q in pairs), (1.0 / n,) * n)
        cost = cost_matrix(m, rows.points, cols.points)
        value, coupling = kantorovich_primal(cost, rows, cols)
        assert value == pytest.approx(sol.p_flat, abs=1e-8)
        # optimal plan matches signs: mass stays on the diagonal pairs
        assert coupling.matrix[0, 1] == pytest.approx(0.0, abs=1e-12)
        check = kantorovich_dual_check(cost, rows, cols, value, p_flat=sol.p_flat)
        assert check["feasible"]
        assert check["weak_duality"]
        assert abs(check["gap"]) < 1e-8

    def test_infinite_cost_rejected(self):
        m = ModelSpec(A2, [SPIN], [SPIN], Quadratic(1.0), AbsSum(1))
        rows = DiscreteDualMeasure(((0.0,),), (1.0,))
        cols = DiscreteDualMeasure(((2.0,),), (1.0,))  # outside dom g-*
        with pytest.raises(ValueError, match="infinite"):
            kantorovich_primal(cost_matrix(m, rows.points, cols.points), rows, cols)


class TestBirkhoffSampling:
    def test_mean_concentrates_at_fixed_point(self):
        m = cw_model(2.0)
        sol = solve_flat(m)
        pos = max(sol.equilibria, key=lambda e: e.x_plus[0])
        ystar = pos.x_plus[0]
        out = birkhoff_sampling(m, pos.measure, n=1000, num_samples=2000, seed=7)
        xs = out["plus"][:, 0]
        se = xs.std(ddof=1) / math.sqrt(len(xs))
        assert abs(xs.mean() - ystar) < 4 * se

    def test_alphabet_mismatch_rejected(self):
        a3 = AprioriAlphabet(3)
        phi = CylinderPotential(a3, np.arange(9.0).reshape(3, 3))
        m = ModelSpec(a3, [phi], g_plus=Quadratic(1.0))
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        with pytest.raises(ValueError, match="alphabets differ"):
            birkhoff_sampling(m, mu, 10, 5)

    def test_negative_sample_count_rejected(self):
        m = cw_model(2.0)
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        with pytest.raises(ValueError, match=r"num_samples must be >= 0, got -5"):
            birkhoff_sampling(m, mu, 10, -5)

    def test_deterministic_in_seed(self):
        m = cw_model(2.0)
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        a = birkhoff_sampling(m, mu, 100, 50, seed=3)["plus"]
        b = birkhoff_sampling(m, mu, 100, 50, seed=3)["plus"]
        np.testing.assert_array_equal(a, b)

    def test_gradients_equal_the_per_row_loop(self):
        # g.gradient on the stack of averages against g.gradient row by row
        a3 = AprioriAlphabet(3, [0.2, 0.3, 0.5])
        rng = np.random.default_rng(21)
        plus = [CylinderPotential(a3, rng.normal(size=(3, 3))),
                CylinderPotential(a3, rng.normal(size=3))]
        g = LinearShift([0.3, -0.7], Quadratic(1.7, dim=2))
        m = ModelSpec(a3, plus, g_plus=g)
        mu = MarkovMeasure.product(a3, [0.5, 0.2, 0.3])
        out = birkhoff_sampling(m, mu, n=50, num_samples=40, seed=5)["plus"]
        paths = mu.sample_paths(50, 40, seed=5)
        avgs = np.stack([kernels.birkhoff_averages(paths, p.table.ravel(), p.memory, 3)
                         for p in plus], axis=1)
        np.testing.assert_array_equal(out, np.array([g.gradient(a) for a in avgs]))

    def test_streamed_chunks_equal_the_whole_path_array(self):
        # three chunks of paths, the last one partial, from an order-1 chain,
        # with a memory-2 potential on the plus side and a minus side: the
        # same bits as averaging the whole sample_paths array at once
        a3 = AprioriAlphabet(3)
        rng = np.random.default_rng(25)
        plus = [CylinderPotential(a3, rng.normal(size=(3, 3))),
                CylinderPotential(a3, rng.normal(size=3))]
        minus = [CylinderPotential(a3, rng.normal(size=3))]
        m = ModelSpec(a3, plus, minus, Quadratic(1.3, dim=2), Quadratic(0.7))
        mu = MarkovMeasure.from_transitions(
            a3, np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.2, 0.4]]))
        n, num = 30, 2500
        out = birkhoff_sampling(m, mu, n, num, seed=4)
        paths = mu.sample_paths(n, num, seed=4)
        assert set(out) == {"plus", "minus"}
        for side, pots, g in (("plus", plus, m.g_plus), ("minus", minus, m.g_minus)):
            avgs = np.stack([kernels.birkhoff_averages(paths, p.table.ravel(),
                                                       p.memory, 3) for p in pots],
                            axis=1)
            want = g.gradient(avgs)
            assert out[side].shape == want.shape == (num, len(pots))
            np.testing.assert_array_equal(out[side].view(np.uint64),
                                          want.view(np.uint64))
        empty = birkhoff_sampling(m, mu, n, 0, seed=4)
        assert empty["plus"].shape == (0, 2) and empty["minus"].shape == (0, 1)
        with pytest.raises(ValueError, match="shorter than the measure order"):
            birkhoff_sampling(m, mu, 0, 10, seed=4)
