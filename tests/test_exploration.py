"""Exploration distribution: reduction identities, analytic values, sampling."""

import math

import numpy as np
import pytest

from marlab.errors import ConfigError, ContractError
from marlab.exploration import GREEDY, ExplorationConfig, action_distribution, select_action


def eps_greedy_reference(q, avail, epsilon):
    """Plain epsilon-greedy distribution, computed independently."""
    q = np.asarray(q, dtype=float)
    avail = np.asarray(avail, dtype=bool)
    p = np.zeros_like(q)
    p[avail] = epsilon / avail.sum()
    masked = np.where(avail, q, -np.inf)
    p[np.argmax(masked)] += 1.0 - epsilon
    return p


def random_case(gen, n_actions=6):
    q = gen.standard_normal(n_actions) * 3
    avail = gen.random(n_actions) < 0.7
    if not avail.any():
        avail[gen.integers(n_actions)] = True
    return q, avail


class TestDistribution:
    def test_k1_equals_eps_greedy_for_any_temperature(self):
        gen = np.random.default_rng(0)
        for _ in range(1000):
            q, avail = random_case(gen)
            eps = gen.random()
            tau = gen.random() * 2
            got = action_distribution(q, avail, ExplorationConfig(k=1, temperature=tau), eps)
            assert np.allclose(got, eps_greedy_reference(q, avail, eps), atol=1e-12)

    def test_zero_temperature_equals_eps_greedy_for_any_k(self):
        gen = np.random.default_rng(1)
        for _ in range(1000):
            q, avail = random_case(gen)
            eps = gen.random()
            k = int(gen.integers(1, 5))
            got = action_distribution(q, avail, ExplorationConfig(k=k, temperature=0.0), eps)
            assert np.allclose(got, eps_greedy_reference(q, avail, eps), atol=1e-12)

    def test_two_term_softmax_hand_case(self):
        # eps = 0, k = 2, tau = 1, q = [3, 1, 0]
        got = action_distribution([3.0, 1.0, 0.0], [True] * 3,
                                  ExplorationConfig(k=2, temperature=1.0), 0.0)
        z = math.exp(3.0) + math.exp(1.0)
        assert np.allclose(got, [math.exp(3.0) / z, math.exp(1.0) / z, 0.0])
        assert abs(got[0] - 0.8808) < 1e-4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("temperature", [1e-320, 5e-324])
    def test_tiny_temperature_is_finite_and_greedy_among_top_k(self, temperature):
        # q / temperature overflowed, and the distribution was NaN
        gen = np.random.default_rng(8)
        for _ in range(300):
            q, avail = random_case(gen)
            eps = float(gen.choice([0.0, gen.random()]))
            config = ExplorationConfig(k=int(gen.integers(2, 7)), temperature=temperature)
            got = action_distribution(q, avail, config, eps)
            assert np.isfinite(got).all() and abs(got.sum() - 1.0) < 1e-12
            assert np.allclose(got, eps_greedy_reference(q, avail, eps), rtol=0, atol=1e-15)

    def test_full_epsilon_is_uniform_over_available(self):
        q = np.array([5.0, -1.0, 2.0, 0.0])
        avail = np.array([True, False, True, True])
        got = action_distribution(q, avail, ExplorationConfig(k=2, temperature=0.5), 1.0)
        assert np.allclose(got, [1 / 3, 0.0, 1 / 3, 1 / 3])

    def test_probabilities_sum_to_one_and_respect_mask(self):
        gen = np.random.default_rng(2)
        for _ in range(500):
            q, avail = random_case(gen)
            eps = gen.random()
            cfg = ExplorationConfig(k=int(gen.integers(1, 7)), temperature=gen.random())
            p = action_distribution(q, avail, cfg, eps)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0.0)
            assert np.all(p[~avail] == 0.0)

    def test_top_action_probability_non_increasing_in_temperature(self):
        q = np.array([2.0, 1.0, -1.0])
        avail = np.ones(3, dtype=bool)
        taus = [0.01, 0.1, 0.33, 1.0, 4.0, 20.0]
        probs = [action_distribution(q, avail, ExplorationConfig(2, t), 0.0)[0]
                 for t in taus]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_k_larger_than_available_is_clamped(self):
        q = np.array([1.0, 2.0, 3.0])
        avail = np.array([True, True, False])
        p = action_distribution(q, avail, ExplorationConfig(k=5, temperature=1.0), 0.0)
        assert p[2] == 0.0 and abs(p.sum() - 1.0) < 1e-12

    def test_duplicate_values_cut_at_exactly_k_lowest_indices(self):
        q = np.array([1.0, 1.0, 1.0, 0.0])
        p = action_distribution(q, np.ones(4, bool), ExplorationConfig(2, 1.0), 0.0)
        # three tied actions at the top rank: exactly two (indices 0, 1) survive
        assert np.allclose(p, [0.5, 0.5, 0.0, 0.0])

    def test_no_available_action_raises(self):
        with pytest.raises(ContractError):
            action_distribution([1.0, 2.0], [False, False], GREEDY, 0.1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            action_distribution([1.0, 2.0], [True, True], GREEDY, 1.5)
        with pytest.raises(ConfigError):
            ExplorationConfig(k=0)
        with pytest.raises(ConfigError):
            ExplorationConfig(temperature=-0.1)


class TestSelectAction:
    def test_pure_greedy_always_argmax(self):
        gen = np.random.default_rng(3)
        cfg = ExplorationConfig(k=1, temperature=0.0)
        for _ in range(200):
            q, avail = random_case(gen)
            a = select_action(q, avail, cfg, 0.0, gen)
            masked = np.where(avail, q, -np.inf)
            assert a == int(np.argmax(masked))

    def test_argmax_restricted_to_available(self):
        q = np.array([10.0, 1.0, 2.0])
        avail = np.array([False, True, True])
        cfg = ExplorationConfig(k=1, temperature=0.0)
        a = select_action(q, avail, cfg, 0.0, np.random.default_rng(0))
        assert a == 2

    def test_monte_carlo_matches_analytic_distribution(self):
        q = np.array([1.0, 0.5, -0.2, 0.1])
        avail = np.array([True, True, True, False])
        cfg = ExplorationConfig(k=2, temperature=0.33)
        expected = action_distribution(q, avail, cfg, 0.1)
        gen = np.random.default_rng(4)
        samples = 100_000
        counts = np.bincount(
            [select_action(q, avail, cfg, 0.1, gen) for _ in range(samples)],
            minlength=4)
        freq = counts / samples
        assert np.abs(freq - expected).max() < 0.01

    def test_deterministic_given_stream(self):
        q = np.array([1.0, 0.9, 0.5])
        avail = np.ones(3, bool)
        cfg = ExplorationConfig(k=2, temperature=0.5)
        a = [select_action(q, avail, cfg, 0.3, np.random.default_rng(9)) for _ in range(5)]
        assert len(set(a)) == 1
