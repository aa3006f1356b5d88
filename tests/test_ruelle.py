import math

import numpy as np
import pytest
from scipy.special import logsumexp

from thermoflat.measures import (
    AprioriAlphabet,
    CylinderPotential,
    MarkovMeasure,
    entropy_rate,
    expectation,
)
from thermoflat.ruelle import (
    build_transfer,
    entropy_of_gibbs,
    linear_pressure,
    normalization_residual,
    perron,
    rpf_solve,
)

A2 = AprioriAlphabet(2)
SPIN = CylinderPotential(A2, [1.0, -1.0], name="spin")


def memory4_log_transfer(k, table):
    return build_transfer(CylinderPotential(AprioriAlphabet(k), table)).log_entries


def dense_log_perron_root(log_matrix):
    return math.log(np.abs(np.linalg.eigvals(np.exp(log_matrix))).max())


class TestPerron:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            dim = rng.integers(2, 9)
            logm = rng.normal(size=(dim, dim))
            lam, vec = perron(logm)
            dense = np.exp(logm)
            ref = np.abs(np.linalg.eigvals(dense)).max()
            assert lam == pytest.approx(np.log(ref), abs=1e-10)
            # eigen relation in linear domain
            h = np.exp(vec)
            np.testing.assert_allclose(
                dense @ h, np.exp(lam) * h, rtol=1e-7, atol=1e-9
            )

    def test_structural_zeros(self):
        # primitive but not positive: 3-state cycle with one loop
        logm = np.full((3, 3), -np.inf)
        logm[0, 1] = logm[1, 2] = logm[2, 0] = 0.0
        logm[0, 0] = 0.0
        lam, _ = perron(logm)
        ref = np.abs(
            np.linalg.eigvals(np.exp(np.nan_to_num(logm, neginf=-1e30)))
        ).max()
        assert lam == pytest.approx(np.log(ref), abs=1e-9)

    def test_near_antiperiodic_matrix_converges(self):
        # subdominant eigenvalue close to -lambda
        logm = np.array([[-4.9, 0.69], [0.69, -5.8]])
        lam, _ = perron(logm)
        ref = np.abs(np.linalg.eigvals(np.exp(logm))).max()
        assert lam == pytest.approx(np.log(ref), abs=1e-10)

    def test_scalar_case(self):
        lam, vec = perron(np.array([[1.7]]))
        assert lam == pytest.approx(1.7)
        assert vec[0] == 0.0

    @pytest.mark.parametrize("k", [3, 4])
    def test_wide_memory4_tables(self, k):
        # default_rng(0) tables: the log-domain power iteration perron
        # replaced gave up ("failed to converge") on both of them
        table = np.random.default_rng(0).uniform(-50.0, 50.0, (k,) * 4)
        logm = memory4_log_transfer(k, table)
        assert perron(logm)[0] == pytest.approx(
            dense_log_perron_root(logm), abs=1e-9
        )

    @pytest.mark.parametrize("k", [3, 4])
    def test_certifies_random_memory4_tables_up_to_50(self, k):
        rng = np.random.default_rng(50)
        for _ in range(30):
            logm = memory4_log_transfer(k, rng.uniform(-50.0, 50.0, (k,) * 4))
            assert perron(logm)[0] == pytest.approx(
                dense_log_perron_root(logm), abs=1e-9
            )

    def test_certificate_holds_up_to_300(self):
        # no dense reference is trustworthy here, so recompute the
        # Collatz-Wielandt bracket of the returned vector independently
        rng = np.random.default_rng(300)
        for _ in range(30):
            logm = memory4_log_transfer(3, rng.uniform(-300.0, 300.0, (3,) * 4))
            lam, vec = perron(logm)
            ratio = logsumexp(logm + vec[None, :], axis=1) - vec
            assert ratio.min() <= lam <= ratio.max()
            assert ratio.max() - ratio.min() < 1e-10

    def test_non_primitive_matrix_raises(self):
        # state 1 reaches no state, so h(1) = 0 and no positive vector
        # brackets the Perron root
        logm = np.array([[0.0, 0.0], [-np.inf, -np.inf]])
        with pytest.raises(ArithmeticError, match="perron: Collatz-Wielandt"):
            perron(logm)


class TestLinearPressure:
    def test_spin_closed_form(self):
        assert linear_pressure(SPIN) == pytest.approx(
            math.log(math.cosh(1.0)), abs=1e-12
        )

    def test_zero_potential(self):
        zero = CylinderPotential.zero(A2)
        assert linear_pressure(zero) == pytest.approx(0.0, abs=1e-14)

    def test_tilted_family_matches_log_cosh(self):
        for y in (-3.0, -0.5, 0.0, 1.2, 4.0):
            assert linear_pressure(y * SPIN) == pytest.approx(
                math.log(math.cosh(y)), abs=1e-12
            )

    def test_memory2_against_dense_eigensolver(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            phi = CylinderPotential(A2, rng.normal(size=(2, 2)))
            tm = build_transfer(phi)
            dense = np.exp(tm.log_entries)
            ref = math.log(np.abs(np.linalg.eigvals(dense)).max())
            assert linear_pressure(phi) == pytest.approx(ref, abs=1e-10)

    def test_memory3_alphabet3(self):
        rng = np.random.default_rng(10)
        a3 = AprioriAlphabet(3, [0.2, 0.3, 0.5])
        phi = CylinderPotential(a3, rng.normal(size=(3, 3, 3)))
        tm = build_transfer(phi)
        dense = np.where(np.isinf(tm.log_entries), 0.0, np.exp(tm.log_entries))
        ref = math.log(np.abs(np.linalg.eigvals(dense)).max())
        assert linear_pressure(phi) == pytest.approx(ref, abs=1e-9)

    def test_convexity_in_tilt(self):
        # P_L(y phi) is convex in y
        ys = np.linspace(-2, 2, 21)
        vals = np.array([linear_pressure(y * SPIN) for y in ys])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert second.min() > -1e-10

    def test_lipschitz_in_potential(self):
        # |P_L(f) - P_L(g)| <= sup|f - g|
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = CylinderPotential(A2, rng.normal(size=(2, 2)))
            g = CylinderPotential(A2, rng.normal(size=(2, 2)))
            lhs = abs(linear_pressure(f) - linear_pressure(g))
            assert lhs <= (f + (-1.0) * g).sup_norm + 1e-10


class TestRPF:
    def test_memory1_gibbs_is_tilted_product(self):
        rpf = rpf_solve(build_transfer(2.0 * SPIN))
        p0 = 0.5 * math.exp(2.0) / (0.5 * math.exp(2.0) + 0.5 * math.exp(-2.0))
        np.testing.assert_allclose(rpf.gibbs.stationary, [p0, 1 - p0], atol=1e-12)

    def test_normalized_operator_fixes_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            phi = CylinderPotential(A2, rng.normal(size=(2, 2)))
            rpf = rpf_solve(build_transfer(phi))
            assert normalization_residual(rpf) < 1e-9

    def test_eigen_relation(self):
        rng = np.random.default_rng(13)
        phi = CylinderPotential(A2, rng.normal(size=(2, 2, 2)))
        tm = build_transfer(phi)
        rpf = rpf_solve(tm)
        dense = np.where(np.isinf(tm.log_entries), 0.0, np.exp(tm.log_entries))
        lam = math.exp(rpf.log_lambda)
        np.testing.assert_allclose(dense @ rpf.h, lam * rpf.h, rtol=1e-8)
        np.testing.assert_allclose(rpf.nu @ dense, lam * rpf.nu, rtol=1e-8)

    def test_entropy_duality_randomized_memory2_suite(self):
        # log lambda - mu(f) must equal the entropy rate of the Gibbs chain
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            k = int(rng.integers(2, 4))
            w = rng.dirichlet(np.ones(k) * 3.0)
            w = np.clip(w, 0.05, None)
            alphabet = AprioriAlphabet(k, w / w.sum())
            phi = CylinderPotential(
                alphabet, rng.normal(scale=1.5, size=(k, k))
            )
            rpf = rpf_solve(build_transfer(phi))
            lhs = entropy_of_gibbs(rpf, phi)
            rhs = entropy_rate(rpf.gibbs)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-8

    def test_variational_inequality(self):
        # P_L(f) >= h(mu) + mu(f) for arbitrary Markov measures, equality at
        # the Gibbs measure
        rng = np.random.default_rng(14)
        phi = CylinderPotential(A2, rng.normal(size=(2, 2)))
        p = linear_pressure(phi)
        for _ in range(25):
            q = rng.dirichlet(np.ones(2) + 1.0, size=2)
            q = np.clip(q, 1e-3, None)
            q /= q.sum(axis=1, keepdims=True)
            mu = MarkovMeasure.from_transitions(A2, q)
            assert p >= entropy_rate(mu) + expectation(mu, phi) - 1e-10
        rpf = rpf_solve(build_transfer(phi))
        attained = entropy_rate(rpf.gibbs) + expectation(rpf.gibbs, phi)
        assert p == pytest.approx(attained, abs=1e-9)

    @pytest.mark.parametrize("k, memory", [(3, 3), (2, 4)])
    def test_gibbs_chain_attains_pressure_at_higher_memory(self, k, memory):
        # the equilibrium state is the only invariant measure with
        # h(mu) + mu(f) = P_L(f), so this pins down the whole chain
        rng = np.random.default_rng(17)
        phi = CylinderPotential(AprioriAlphabet(k), rng.normal(size=(k,) * memory))
        rpf = rpf_solve(build_transfer(phi))
        attained = entropy_rate(rpf.gibbs) + expectation(rpf.gibbs, phi)
        assert rpf.log_lambda == pytest.approx(attained, abs=1e-9)
        assert normalization_residual(rpf) < 1e-9

    def test_cohomology_invariance(self):
        # adding a coboundary-like constant shifts pressure by the constant
        rng = np.random.default_rng(15)
        phi = CylinderPotential(A2, rng.normal(size=(2, 2)))
        c = 0.7
        shifted = phi + CylinderPotential(A2, [c, c])
        assert linear_pressure(shifted) == pytest.approx(
            linear_pressure(phi) + c, abs=1e-10
        )

    def test_uncertified_left_vector_names_the_potential(self):
        # a -inf column: no state enters state 1, so the left Perron vector
        # vanishes there and the transposed solve cannot be certified
        phi = CylinderPotential(A2, [[0.3, -0.2], [1.5, 0.4]])
        tm = build_transfer(phi)
        tm.log_entries[:, 1] = -np.inf
        with pytest.raises(ArithmeticError) as info:
            rpf_solve(tm)
        message = str(info.value)
        assert message.startswith("rpf_solve: memory-2 potential with sup-norm 1.5")
        assert "perron: Collatz-Wielandt bracket width" in message

    def test_gibbs_measure_invariant_under_potential_normalization(self):
        rng = np.random.default_rng(16)
        phi = CylinderPotential(A2, rng.normal(size=(2, 2)))
        rpf = rpf_solve(build_transfer(phi))
        rpf2 = rpf_solve(build_transfer(rpf.normalized_potential))
        assert rpf2.log_lambda == pytest.approx(0.0, abs=1e-9)
        assert rpf.gibbs.two_cylinder_tv(rpf2.gibbs) < 1e-8
