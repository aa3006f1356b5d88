import math

import numpy as np
import pytest
from scipy.special import logsumexp

from thermoflat import ruelle
from thermoflat.measures import (
    AprioriAlphabet,
    CylinderPotential,
    MarkovMeasure,
    entropy_rate,
    expectation,
)
from thermoflat.ruelle import (
    _log_transfer,
    _tilted_pressure,
    entropy_of_gibbs,
    linear_pressure,
    normalization_residual,
    perron,
    rpf_solve,
)

A2 = AprioriAlphabet(2)
SPIN = CylinderPotential(A2, [1.0, -1.0], name="spin")


def log_transfer(phi):
    """The log transfer matrix that linear_pressure and rpf_solve solve."""
    return _log_transfer(np.log(phi.alphabet.weights), phi.table.ravel(), phi.memory)


def memory4_log_transfer(k, table):
    return log_transfer(CylinderPotential(AprioriAlphabet(k), table))


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
        # the memory-1 pressure is this 1x1 log-sum-exp: returned exactly
        rng = np.random.default_rng(1)
        scalars = rng.standard_normal(2000) * 10.0 ** rng.integers(-3, 4, 2000)
        for c in [1.7, *scalars]:
            lam, vec = perron(np.array([[c]]))
            assert lam == c
            assert vec.tolist() == [0.0]

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


class TestPerronPair:
    @pytest.mark.parametrize("k, memory", [(2, 2), (3, 2), (3, 3), (3, 4), (4, 4)])
    def test_both_vectors_certified_and_match_perron(self, k, memory):
        # dense random matrices with 2, 3, 9, 27 and 64 states
        rng = np.random.default_rng(100 + k * memory)
        dim = k ** (memory - 1)
        for _ in range(10):
            log_b = rng.normal(scale=2.0, size=(dim, dim))
            lam, log_h, log_nu, _ = ruelle._word_law(log_b, k, memory)
            for log_matrix, log_vec in ((log_b, log_h), (log_b.T, log_nu)):
                # each vector's own Collatz-Wielandt bracket, recomputed
                ratio = logsumexp(log_matrix + log_vec[None, :], axis=1) - log_vec
                assert ratio.min() - 1e-11 <= lam <= ratio.max() + 1e-11
                assert ratio.max() - ratio.min() < 1e-10
                ref_lam, ref_vec = perron(log_matrix)
                assert lam == pytest.approx(ref_lam, abs=1e-12)
                np.testing.assert_allclose(log_vec, ref_vec, rtol=0, atol=1e-12)

    @staticmethod
    def count_eigen_calls(monkeypatch):
        calls = {"eigvals": 0, "eig": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(np.linalg, "eigvals")
        counted(ruelle.scipy.linalg, "eig")
        return calls

    def test_no_eigvals_and_no_eig(self, monkeypatch):
        # Noda's iteration converges on its own on this 64-state table
        table = 0.5 * np.random.default_rng(11144).standard_normal((4,) * 4)
        log_b = memory4_log_transfer(4, table)
        calls = self.count_eigen_calls(monkeypatch)
        ruelle._word_law(log_b, 4, 4)
        assert calls == {"eigvals": 0, "eig": 0}

    def test_stalled_noda_falls_back_to_balanced_rounds(self, monkeypatch):
        # the second table of the stream: its Perron vectors span too many
        # orders of magnitude for linear-domain Noda steps to shrink the
        # bracket, so each vector is exactly what perron returns
        rng = np.random.default_rng(50)
        rng.uniform(-50.0, 50.0, (3,) * 4)
        log_b = memory4_log_transfer(3, rng.uniform(-50.0, 50.0, (3,) * 4))
        right, left = perron(log_b), perron(log_b.T)
        calls = self.count_eigen_calls(monkeypatch)
        lam, log_h, log_nu, _ = ruelle._word_law(log_b, 3, 4)
        assert calls["eigvals"] == 0
        assert lam == right[0]
        np.testing.assert_array_equal(log_h, right[1])
        np.testing.assert_array_equal(log_nu, left[1])

    def test_noda_on_a_stack_matches_each_matrix(self):
        # the memory-3 tilts of the test below, as one stack: each row is
        # the pair the matrix gets alone, NaN where that is None
        table = np.random.default_rng(2).standard_normal((3, 3, 3))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_b = np.array([
                log_transfer(CylinderPotential(AprioriAlphabet(3), y * table))
                for y in np.linspace(-16.0, 16.0, 33)
            ])
            m = np.exp(log_b - log_b.max(axis=(1, 2), keepdims=True))
            stacked = ruelle._noda_pair(m)
            alone = [ruelle._noda_pair(matrix) for matrix in m]
        assert stacked.shape == (33, 2, 9)
        assert 0 < sum(x is None for x in alone) < 33
        for row, x in zip(stacked, alone):
            if x is None:
                assert np.isnan(row).all()
            else:
                np.testing.assert_array_equal(row, x)

    def test_stacked_pairs_equal_single_calls(self):
        # the 30 [-50, 50] k = 3 memory-4 tables of the stream below, on 24
        # of which Noda's iteration stalls, as one stack
        rng = np.random.default_rng(50)
        log_b = np.array([
            memory4_log_transfer(3, rng.uniform(-50.0, 50.0, (3,) * 4))
            for _ in range(30)
        ])
        lam, log_h, log_nu, log_p = ruelle._word_law(log_b, 3, 4)
        for i, matrix in enumerate(log_b):
            one = ruelle._word_law(matrix, 3, 4)
            assert lam[i] == one[0]
            for got, want in zip((log_h[i], log_nu[i], log_p[i]), one[1:]):
                np.testing.assert_array_equal(got, want)

    def test_noda_stalls_only_when_the_bracket_stops_shrinking(self):
        # a memory-3 table over 161 tilts in [-16, 16]: Noda converges on
        # 137 of them, and on 93 when a step had to halve log(sigma / lo)
        table = np.random.default_rng(2).standard_normal((3, 3, 3))
        converged = 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for y in np.linspace(-16.0, 16.0, 161):
                log_b = log_transfer(CylinderPotential(AprioriAlphabet(3), y * table))
                try:
                    x = ruelle._noda_pair(np.exp(log_b - log_b.max()))
                except np.linalg.LinAlgError:
                    x = None
                converged += x is not None
        assert converged >= 130

    @pytest.mark.parametrize("k", [3, 4])
    def test_pair_certifies_random_memory4_tables_up_to_50(self, k):
        rng = np.random.default_rng(50)
        for _ in range(30):
            log_b = memory4_log_transfer(k, rng.uniform(-50.0, 50.0, (k,) * 4))
            lam, log_h, log_nu, _ = ruelle._word_law(log_b, k, 4)
            for log_matrix, log_vec in ((log_b, log_h), (log_b.T, log_nu)):
                ratio = logsumexp(log_matrix + log_vec[None, :], axis=1) - log_vec
                assert ratio.min() - 1e-11 <= lam <= ratio.max() + 1e-11
                assert ratio.max() - ratio.min() < 1e-10

    def test_a_singular_row_stays_alone(self, monkeypatch):
        # in a stack of three, every solve that holds the middle matrix is
        # singular: the batched step is retried one matrix at a time, so
        # only the middle one goes to perron, and the other two get what
        # they get alone
        rng = np.random.default_rng(8)
        stack = rng.normal(scale=2.0, size=(3, 9, 9))
        alone = [ruelle._word_law(log_b, 3, 3) for log_b in stack]
        middle = np.exp(stack[1] - stack[1].max())
        solve = np.linalg.solve
        raised = []

        def singular(a, b):
            # the shift leaves the off-diagonal entries at -m exactly
            if (a[..., 0, 0, 1:] == -middle[0, 1:]).all(axis=-1).any():
                raised.append(a.shape)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        calls = self.count_eigen_calls(monkeypatch)
        perron_inputs = []
        perron = ruelle.perron

        def recorded(log_matrix):
            perron_inputs.append(np.array(log_matrix))
            return perron(log_matrix)

        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(ruelle, "perron", recorded)
        lam, log_h, log_nu, log_p = ruelle._word_law(stack, 3, 3)
        assert raised[0] == (3, 2, 9, 9) and raised[1] == (2, 9, 9)
        assert calls["eig"] > 0
        assert len(perron_inputs) == 2
        np.testing.assert_array_equal(perron_inputs[0], stack[1])
        np.testing.assert_array_equal(perron_inputs[1], stack[1].T)
        right, left = perron(stack[1]), perron(stack[1].T)
        assert lam[1] == right[0]
        np.testing.assert_array_equal(log_h[1], right[1])
        np.testing.assert_array_equal(log_nu[1], left[1])
        for i in (0, 2):
            assert lam[i] == alone[i][0]
            for got, want in zip((log_h[i], log_nu[i], log_p[i]), alone[i][1:]):
                np.testing.assert_array_equal(got, want)

    def test_singular_solve_falls_back_to_balanced_rounds(self, monkeypatch):
        rng = np.random.default_rng(7)
        log_b = rng.normal(size=(9, 9))
        right, left = perron(log_b), perron(log_b.T)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        lam, log_h, log_nu, _ = ruelle._word_law(log_b, 3, 3)
        assert lam == right[0]
        np.testing.assert_array_equal(log_h, right[1])
        np.testing.assert_array_equal(log_nu, left[1])


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
            dense = np.exp(log_transfer(phi))
            ref = math.log(np.abs(np.linalg.eigvals(dense)).max())
            assert linear_pressure(phi) == pytest.approx(ref, abs=1e-10)

    def test_memory3_alphabet3(self):
        rng = np.random.default_rng(10)
        a3 = AprioriAlphabet(3, [0.2, 0.3, 0.5])
        phi = CylinderPotential(a3, rng.normal(size=(3, 3, 3)))
        dense = np.exp(log_transfer(phi))
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


class TestTiltedPressure:
    @pytest.mark.parametrize("memory", [1, 3])
    def test_tau_is_the_gradient(self, memory):
        rng = np.random.default_rng(14 + memory)
        a3 = AprioriAlphabet(3, [0.2, 0.3, 0.5])
        tables = rng.normal(size=(2, 3**memory))
        log_w = np.log(a3.weights)
        y = np.array([0.7, -0.4])
        value, tau = _tilted_pressure(log_w, y @ tables, tables, memory)
        phi = CylinderPotential(a3, (y @ tables).reshape((3,) * memory))
        assert value == pytest.approx(linear_pressure(phi), abs=1e-12)
        step = 1e-6
        for i in range(2):
            e = np.eye(2)[i] * step
            fd = (_tilted_pressure(log_w, (y + e) @ tables, tables, memory)[0]
                  - _tilted_pressure(log_w, (y - e) @ tables, tables, memory)[0])
            assert tau[i] == pytest.approx(fd / (2 * step), abs=1e-8)


    @pytest.mark.parametrize("memory", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_hessian_is_the_derivative_of_tau(self, k, memory):
        # the Green-Kubo covariance against central differences of tau
        rng = np.random.default_rng(10 * k + memory)
        tables = rng.normal(size=(3, k**memory))
        log_w = np.log(rng.dirichlet(np.ones(k)))
        y = 0.5 * rng.normal(size=3)
        value, tau, hess = _tilted_pressure(log_w, y @ tables, tables, memory, True)
        plain_value, plain_tau = _tilted_pressure(log_w, y @ tables, tables, memory)
        assert value == plain_value
        np.testing.assert_array_equal(tau, plain_tau)
        step = 1e-6
        fd = np.column_stack([
            (_tilted_pressure(log_w, (y + e) @ tables, tables, memory)[1]
             - _tilted_pressure(log_w, (y - e) @ tables, tables, memory)[1]) / (2 * step)
            for e in np.eye(3) * step
        ])
        np.testing.assert_allclose(hess, fd, atol=1e-9)
        np.testing.assert_allclose(hess, hess.T, atol=1e-15)
        assert np.linalg.eigvalsh(hess).min() > -1e-12

    def test_hessian_with_a_state_of_zero_mass(self):
        # every word through symbol 2 has weight about e^-1000, so the
        # chain's state 2 has mass 0.0 in floating point
        a3 = AprioriAlphabet(3)
        rng = np.random.default_rng(3)
        base = rng.normal(size=(3, 3))
        base[2, :] = base[:, 2] = -1000.0
        tables = np.vstack([base.ravel(), rng.normal(size=(2, 9))])
        log_w = np.log(a3.weights)
        y = np.array([1.0, 0.3, -0.2])
        _, _, _, log_p = ruelle._word_law(_log_transfer(log_w, y @ tables, 2), 3, 2)
        assert np.exp(log_p - log_p.max()).reshape(3, 3)[2].sum() == 0.0
        _, _, hess = _tilted_pressure(log_w, y @ tables, tables, 2, True)
        assert np.isfinite(hess).all()
        step = 1e-6
        fd = np.column_stack([
            (_tilted_pressure(log_w, (y + e) @ tables, tables, 2)[1]
             - _tilted_pressure(log_w, (y - e) @ tables, tables, 2)[1]) / (2 * step)
            for e in np.eye(3) * step
        ])
        np.testing.assert_allclose(hess, fd, atol=1e-9)

    def test_chain_split_into_closed_classes_names_its_row(self):
        # at the second tilt the words 01 and 10 carry e^-700 of the mass:
        # to working precision the chain stays in its first state forever,
        # so the Green-Kubo sum has no finite value
        log_w = np.log(A2.weights)
        tilts = np.array([[0.0, 0.5, -0.5, 0.0], [0.0, -700.0, -700.0, 0.0]])
        with pytest.raises(ArithmeticError, match="closed classes") as info:
            _tilted_pressure(log_w, tilts, np.eye(4), 2, True)
        assert info.value.row == 1
        assert np.isfinite(_tilted_pressure(log_w, tilts[:1], np.eye(4), 2, True)[2]).all()


class TestRPF:
    def test_memory1_gibbs_is_tilted_product(self):
        rpf = rpf_solve(2.0 * SPIN)
        p0 = 0.5 * math.exp(2.0) / (0.5 * math.exp(2.0) + 0.5 * math.exp(-2.0))
        np.testing.assert_allclose(rpf.gibbs.stationary, [p0, 1 - p0], atol=1e-12)

    def test_normalized_operator_fixes_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            phi = CylinderPotential(A2, rng.normal(size=(2, 2)))
            rpf = rpf_solve(phi)
            assert normalization_residual(rpf) < 1e-9

    def test_eigen_relation(self):
        rng = np.random.default_rng(13)
        phi = CylinderPotential(A2, rng.normal(size=(2, 2, 2)))
        rpf = rpf_solve(phi)
        dense = np.exp(log_transfer(phi))
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
            rpf = rpf_solve(phi)
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
        rpf = rpf_solve(phi)
        attained = entropy_rate(rpf.gibbs) + expectation(rpf.gibbs, phi)
        assert p == pytest.approx(attained, abs=1e-9)

    @pytest.mark.parametrize("k, memory", [(3, 3), (2, 4)])
    def test_gibbs_chain_attains_pressure_at_higher_memory(self, k, memory):
        # the equilibrium state is the only invariant measure with
        # h(mu) + mu(f) = P_L(f), so this pins down the whole chain
        rng = np.random.default_rng(17)
        phi = CylinderPotential(AprioriAlphabet(k), rng.normal(size=(k,) * memory))
        rpf = rpf_solve(phi)
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

    def test_uncertified_left_vector_names_the_potential(self, monkeypatch):
        # a -inf column: no state enters state 1, so the left Perron vector
        # vanishes there and the transposed solve cannot be certified
        phi = CylinderPotential(A2, [[0.3, -0.2], [1.5, 0.4]])
        log_b = log_transfer(phi)
        log_b[:, 1] = -np.inf
        monkeypatch.setattr(ruelle, "_log_transfer", lambda *args: log_b)
        with pytest.raises(ArithmeticError) as info:
            rpf_solve(phi)
        message = str(info.value)
        assert message.startswith("rpf_solve: memory-2 potential with sup-norm 1.5")
        assert "perron: Collatz-Wielandt bracket width" in message
        assert message.endswith("(left vector)")

    def test_gibbs_measure_invariant_under_potential_normalization(self):
        rng = np.random.default_rng(16)
        phi = CylinderPotential(A2, rng.normal(size=(2, 2)))
        rpf = rpf_solve(phi)
        rpf2 = rpf_solve(rpf.normalized_potential)
        assert rpf2.log_lambda == pytest.approx(0.0, abs=1e-9)
        assert rpf.gibbs.two_cylinder_tv(rpf2.gibbs) < 1e-8
