import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoflat.kernels import sample_state_paths
from thermoflat.measures import (
    AprioriAlphabet,
    CylinderPotential,
    MarkovMeasure,
    MixtureMeasure,
    entropy_rate,
    expectation,
    stationary_distribution,
)

A2 = AprioriAlphabet(2)


class TestAlphabet:
    def test_uniform_default(self):
        np.testing.assert_allclose(A2.weights, [0.5, 0.5])

    def test_rejects_small_or_degenerate(self):
        with pytest.raises(ValueError):
            AprioriAlphabet(1)
        with pytest.raises(ValueError):
            AprioriAlphabet(2, [1.0, 0.0])
        with pytest.raises(ValueError):
            AprioriAlphabet(2, [0.7, 0.7])


class TestPotential:
    def test_padding_broadcasts_on_trailing_symbols(self):
        phi = CylinderPotential(A2, [1.0, -1.0])
        padded = phi.padded(2)
        # value depends only on the leading symbol
        assert padded.table[0, 0] == padded.table[0, 1] == 1.0
        assert padded.table[1, 0] == padded.table[1, 1] == -1.0

    def test_algebra(self):
        phi = CylinderPotential(A2, [1.0, -1.0])
        psi = CylinderPotential(A2, [[0.0, 1.0], [1.0, 0.0]])
        total = 2.0 * phi + psi
        assert total.memory == 2
        assert total.table[0, 1] == pytest.approx(3.0)
        assert (-phi).table[0] == -1.0

    def test_sup_norm(self):
        assert CylinderPotential(A2, [3.0, -1.0]).sup_norm == 3.0

    def test_memory_cap(self):
        with pytest.raises(ValueError):
            CylinderPotential(A2, np.zeros((2,) * 5))


class TestStationary:
    def test_direct_solve_matches_eig(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.random((4, 4)) + 1e-3
            q /= q.sum(axis=1, keepdims=True)
            pi = stationary_distribution(q)
            np.testing.assert_allclose(pi @ q, pi, atol=1e-12)
            assert pi.sum() == pytest.approx(1.0)

    def test_rejects_reducible(self):
        with pytest.raises(ValueError, match="non-ergodic"):
            stationary_distribution(np.eye(2))

    def test_near_antiperiodic_chain(self):
        eps = 1e-9
        q = np.array([[eps, 1 - eps], [1 - eps, eps]])
        pi = stationary_distribution(q)
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)


class TestMarkovMeasure:
    def test_product_entropy(self):
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        assert entropy_rate(mu) == pytest.approx(0.0, abs=1e-15)
        mu2 = MarkovMeasure.product(A2, [0.9, 0.1])
        expected = -(0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5))
        assert entropy_rate(mu2) == pytest.approx(expected)

    def test_entropy_nonpositive(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = rng.dirichlet(np.ones(2))
            if p.min() < 1e-12:
                continue
            assert entropy_rate(MarkovMeasure.product(A2, p)) <= 1e-12

    def test_expectation_memoryone(self):
        mu = MarkovMeasure.product(A2, [0.7, 0.3])
        phi = CylinderPotential(A2, [1.0, -1.0])
        assert expectation(mu, phi) == pytest.approx(0.4)

    def test_markov_word_probs_consistency(self):
        q = np.array([[0.8, 0.2], [0.4, 0.6]])
        mu = MarkovMeasure.from_transitions(A2, q)
        w2 = mu.word_probs(2)
        w3 = mu.word_probs(3)
        # marginalizing the last symbol recovers the shorter block
        np.testing.assert_allclose(w3.sum(axis=2), w2, atol=1e-12)
        # and the first symbol, by shift invariance
        np.testing.assert_allclose(w3.sum(axis=0), w2, atol=1e-12)
        assert w2.sum() == pytest.approx(1.0)

    def test_markov_entropy_formula(self):
        q = np.array([[0.8, 0.2], [0.4, 0.6]])
        mu = MarkovMeasure.from_transitions(A2, q)
        pi = mu.stationary
        expected = -sum(
            pi[s] * q[s, a] * math.log(q[s, a] / 0.5)
            for s in range(2)
            for a in range(2)
        )
        assert entropy_rate(mu) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_stationary(self):
        q = np.array([[0.8, 0.2], [0.4, 0.6]])
        with pytest.raises(ValueError):
            MarkovMeasure(A2, 1, [0.5, 0.5], q)  # not invariant

    def test_order2_overlap_support(self):
        # order-2 chain on k=2: transitions only between overlapping words
        q = np.zeros((4, 4))
        # state ab -> bc
        for s in range(4):
            for c in range(2):
                q[s, (s % 2) * 2 + c] = 0.5
        mu = MarkovMeasure.from_transitions(A2, q, order=2)
        assert entropy_rate(mu) == pytest.approx(0.0, abs=1e-12)
        bad = np.full((4, 4), 0.25)
        with pytest.raises(ValueError):
            MarkovMeasure.from_transitions(A2, bad, order=2)

    def test_single_non_overlapping_transition_raises(self):
        # order-3 chain on k=2: state abc may only reach bcd
        n = 8
        q = np.zeros((n, n))
        for s in range(n):
            q[s, (s % 4) * 2 : (s % 4) * 2 + 2] = 0.5
        MarkovMeasure(A2, 3, np.full(n, 1.0 / n), q)
        q[5, 2], q[5, 6] = 0.0, 0.5  # 101 -> 110 drops the overlap 01
        with pytest.raises(ValueError, match="word overlap"):
            MarkovMeasure(A2, 3, np.full(n, 1.0 / n), q)

    def test_explicit_ergodic_flag_validated(self):
        q = np.eye(2)
        with pytest.raises(ValueError):
            MarkovMeasure(A2, 1, [0.5, 0.5], q, ergodic=True)


class TestSampling:
    def test_deterministic_given_seed(self):
        mu = MarkovMeasure.from_transitions(
            A2, np.array([[0.8, 0.2], [0.4, 0.6]])
        )
        a = mu.sample_paths(50, 200, seed=11)
        b = mu.sample_paths(50, 200, seed=11)
        np.testing.assert_array_equal(a, b)
        c = mu.sample_paths(50, 200, seed=12)
        assert not np.array_equal(a, c)

    def test_empirical_frequencies(self):
        mu = MarkovMeasure.product(A2, [0.75, 0.25])
        paths = mu.sample_paths(200, 2000, seed=5)
        freq = (paths == 0).mean()
        assert freq == pytest.approx(0.75, abs=0.01)

    def test_product_paths_match_the_tiled_chain(self):
        # an order-0 measure draws each symbol by one lookup in its
        # distribution: the same paths as the chain whose every row is that
        # distribution, over two chunks of the sample budget; symbols of
        # weight zero, first, inside or last, are never drawn
        n, num, seed = 40, 1500, 9
        for weights in ([0.2, 0.5, 0.3], [0.0, 0.5, 0.5], [0.4, 0.0, 0.6],
                        [0.3, 0.7, 0.0], [0.1, 0.3, 0.0, 0.4, 0.2]):
            k = len(weights)
            mu = MarkovMeasure.product(AprioriAlphabet(k), weights)
            start_cum = np.cumsum(mu.stationary)
            start_cum[-1] = 1.0
            trans_cum = np.tile(start_cum, (k, 1))
            chunks = []
            for ci, lo in enumerate(range(0, num, 1024)):
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
                )
                uniforms = rng.random((min(1024, num - lo), n))
                chunks.append(sample_state_paths(start_cum, trans_cum, uniforms))
            paths = mu.sample_paths(n, num, seed)
            np.testing.assert_array_equal(paths, np.vstack(chunks))
            drawn = np.bincount(paths.ravel(), minlength=k)
            np.testing.assert_array_equal(drawn == 0, np.asarray(weights) == 0)

    def test_a_larger_budget_only_appends_paths(self):
        # chunk ci draws from (seed, ci) alone: the first 1024 of 1500 paths
        # are the 1024 paths of the smaller budget
        mu = MarkovMeasure.from_transitions(
            AprioriAlphabet(3),
            np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.3, 0.3, 0.4]]))
        n = 60
        small, large = mu.sample_paths(n, 1024, 8), mu.sample_paths(n, 1500, 8)
        assert small.dtype == large.dtype == np.int64
        assert large.shape == (1500, n)
        np.testing.assert_array_equal(large[:1024], small)
        chunks = list(mu.path_chunks(n, 1500, 8))
        assert [(lo, block.shape, block.dtype) for lo, block in chunks] == [
            (0, (1024, n), np.uint8), (1024, (476, n), np.uint8)]
        np.testing.assert_array_equal(np.vstack([b for _, b in chunks]), large)

    def test_negative_sample_count_rejected_up_front(self):
        # at the call, before any chunk is drawn or output allocated
        mu = MarkovMeasure.from_transitions(A2, np.array([[0.9, 0.1], [0.3, 0.7]]))
        with pytest.raises(ValueError, match=r"num_samples must be >= 0, got -3"):
            mu.path_chunks(10, -3, seed=0)
        with pytest.raises(ValueError, match=r"num_samples must be >= 0, got -1"):
            mu.sample_paths(10, -1, seed=0)
        assert mu.sample_paths(10, 0, seed=0).shape == (0, 10)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_no_draw_takes_a_zero_probability_step(self, order, monkeypatch):
        # the product [0.34, 0.56, 0.1, 0.0] (as normalized), the row
        # [0.6, 0.3, 0.1, 0.0] and the block [0.7, 0.2, 0.1] sum to
        # 1 - 2**-53 in floating point, a value Generator.random can return;
        # a draw of it must stop at the last positive entry.  Every path
        # starts at state 0, then draws that value at every step.
        top = np.nextafter(1.0, 0.0)
        if order == 0:
            mu = MarkovMeasure.product(AprioriAlphabet(4), [0.34, 0.56, 0.1, 0.0])
        elif order == 1:
            q = np.full((4, 4), 0.25)
            q[0] = [0.6, 0.3, 0.1, 0.0]
            mu = MarkovMeasure.from_transitions(AprioriAlphabet(4), q)
        else:
            # state 3a + b may reach 3b + c; 02 may not reach 22, 12 may
            q = np.zeros((9, 9))
            for s in range(9):
                block = {2: [0.5, 0.5, 0.0], 5: [0.2, 0.3, 0.5],
                         8: [0.2, 0.3, 0.5]}.get(s, [0.7, 0.2, 0.1])
                tail = 3 * (s % 3)
                q[s, tail : tail + 3] = block
            mu = MarkovMeasure.from_transitions(AprioriAlphabet(3), q, order=2)

        class Draws:
            def __init__(self, bit_generator):
                pass

            def random(self, shape):
                u = np.full(shape, top)
                u[:, 0] = 0.0
                return u

        monkeypatch.setattr(np.random, "Generator", Draws)
        paths = mu.sample_paths(8, 2, seed=0)
        words = np.lib.stride_tricks.sliding_window_view(paths, order + 1, axis=1)
        probs = mu.word_probs(order + 1)
        assert (probs[tuple(np.moveaxis(words, -1, 0))] > 0).all()

    def test_markov_empirical_transitions(self):
        q = np.array([[0.9, 0.1], [0.3, 0.7]])
        mu = MarkovMeasure.from_transitions(A2, q)
        paths = mu.sample_paths(500, 400, seed=2)
        prev, nxt = paths[:, :-1].ravel(), paths[:, 1:].ravel()
        for s in range(2):
            est = (nxt[prev == s] == 1).mean()
            assert est == pytest.approx(q[s, 1], abs=0.02)


class TestMixture:
    def test_affine_entropy_and_expectation(self):
        mu1 = MarkovMeasure.product(A2, [0.9, 0.1])
        mu2 = MarkovMeasure.product(A2, [0.2, 0.8])
        mix = MixtureMeasure([(0.3, mu1), (0.7, mu2)])
        phi = CylinderPotential(A2, [1.0, -1.0])
        assert expectation(mix, phi) == pytest.approx(
            0.3 * expectation(mu1, phi) + 0.7 * expectation(mu2, phi)
        )
        assert entropy_rate(mix) == pytest.approx(
            0.3 * entropy_rate(mu1) + 0.7 * entropy_rate(mu2)
        )

    def test_weight_validation(self):
        mu = MarkovMeasure.product(A2, [0.5, 0.5])
        with pytest.raises(ValueError):
            MixtureMeasure([(0.5, mu), (0.6, mu)])
        with pytest.raises(ValueError):
            MixtureMeasure([(-0.1, mu), (1.1, mu)])

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=20, deadline=None)
    def test_entropy_concavity_vs_affinity(self, lam):
        # entropy of the mixture measure is affine, hence >= neither bound is
        # violated when compared with the component values
        mu1 = MarkovMeasure.product(A2, [0.9, 0.1])
        mu2 = MarkovMeasure.product(A2, [0.2, 0.8])
        mix = MixtureMeasure([(lam, mu1), (1 - lam, mu2)])
        e = entropy_rate(mix)
        assert min(entropy_rate(mu1), entropy_rate(mu2)) - 1e-12 <= e
        assert e <= max(entropy_rate(mu1), entropy_rate(mu2)) + 1e-12
