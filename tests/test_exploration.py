"""Exploration distribution: reduction identities, analytic values, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlab.errors import ConfigError, ContractError
from marlab.exploration import GREEDY, ExplorationConfig, action_distribution, sample_from


def eps_greedy_reference(q, avail, epsilon):
    """Plain epsilon-greedy distribution of one row, computed independently."""
    q = np.asarray(q, dtype=float)
    avail = np.asarray(avail, dtype=bool)
    p = np.zeros_like(q)
    p[avail] = epsilon / avail.sum()
    masked = np.where(avail, q, -np.inf)
    p.flat[np.argmax(masked)] += 1.0 - epsilon
    return p


def random_case(gen, n_actions=6):
    """One row of values and its action mask, as (1, n_actions) arrays."""
    q = gen.standard_normal((1, n_actions)) * 3
    avail = gen.random((1, n_actions)) < 0.7
    if not avail.any():
        avail[0, gen.integers(n_actions)] = True
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
        got = action_distribution([[3.0, 1.0, 0.0]], [[True] * 3],
                                  ExplorationConfig(k=2, temperature=1.0), 0.0)
        z = math.exp(3.0) + math.exp(1.0)
        assert np.allclose(got, [[math.exp(3.0) / z, math.exp(1.0) / z, 0.0]])
        assert abs(got[0, 0] - 0.8808) < 1e-4

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
        q = np.array([[5.0, -1.0, 2.0, 0.0]])
        avail = np.array([[True, False, True, True]])
        got = action_distribution(q, avail, ExplorationConfig(k=2, temperature=0.5), 1.0)
        assert np.allclose(got, [[1 / 3, 0.0, 1 / 3, 1 / 3]])

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
        q = np.array([[2.0, 1.0, -1.0]])
        avail = np.ones((1, 3), dtype=bool)
        taus = [0.01, 0.1, 0.33, 1.0, 4.0, 20.0]
        probs = [action_distribution(q, avail, ExplorationConfig(2, t), 0.0)[0, 0]
                 for t in taus]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_k_larger_than_available_is_clamped(self):
        q = np.array([[1.0, 2.0, 3.0]])
        avail = np.array([[True, True, False]])
        p = action_distribution(q, avail, ExplorationConfig(k=5, temperature=1.0), 0.0)
        assert p[0, 2] == 0.0 and abs(p.sum() - 1.0) < 1e-12

    def test_duplicate_values_cut_at_exactly_k_lowest_indices(self):
        q = np.array([[1.0, 1.0, 1.0, 0.0]])
        p = action_distribution(q, np.ones((1, 4), bool), ExplorationConfig(2, 1.0), 0.0)
        # three tied actions at the top rank: exactly two (indices 0, 1) survive
        assert np.allclose(p, [[0.5, 0.5, 0.0, 0.0]])

    def test_no_available_action_raises(self):
        with pytest.raises(ContractError, match="no available action"):
            action_distribution([[1.0, 2.0]], [[False, False]], GREEDY, 0.1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            action_distribution([[1.0, 2.0]], [[True, True]], GREEDY, 1.5)
        with pytest.raises(ConfigError):
            ExplorationConfig(k=0)
        with pytest.raises(ConfigError):
            ExplorationConfig(temperature=-0.1)


class TestSelectAction:
    """Drawing an action: sample_from over action_distribution's output."""

    def test_pure_greedy_always_argmax(self):
        gen = np.random.default_rng(3)
        cfg = ExplorationConfig(k=1, temperature=0.0)
        for _ in range(200):
            q, avail = random_case(gen)
            a = sample_from(action_distribution(q, avail, cfg, 0.0), [gen.random()])
            masked = np.where(avail, q, -np.inf)
            assert a[0] == int(np.argmax(masked))

    def test_argmax_restricted_to_available(self):
        q = np.array([[10.0, 1.0, 2.0]])
        avail = np.array([[False, True, True]])
        cfg = ExplorationConfig(k=1, temperature=0.0)
        probs = action_distribution(q, avail, cfg, 0.0)
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            assert sample_from(probs, [u])[0] == 2

    def test_monte_carlo_matches_analytic_distribution(self):
        q = np.array([[1.0, 0.5, -0.2, 0.1]])
        avail = np.array([[True, True, True, False]])
        cfg = ExplorationConfig(k=2, temperature=0.33)
        expected = action_distribution(q, avail, cfg, 0.1)
        samples = 100_000
        draws = sample_from(np.repeat(expected, samples, axis=0),
                            np.random.default_rng(4).random(samples))
        assert draws.shape == (samples,)
        freq = np.bincount(draws, minlength=4) / samples
        assert np.abs(freq - expected[0]).max() < 0.01

    def test_deterministic_given_stream(self):
        q = np.array([[1.0, 0.9, 0.5]])
        avail = np.ones((1, 3), bool)
        cfg = ExplorationConfig(k=2, temperature=0.5)
        a = [sample_from(action_distribution(q, avail, cfg, 0.3),
                         [np.random.default_rng(9).random()])[0] for _ in range(5)]
        assert len(set(a)) == 1

    def test_an_array_of_uniforms_draws_as_each_one_does(self):
        gen = np.random.default_rng(12)
        cfg = ExplorationConfig(k=3, temperature=0.7)
        for _ in range(50):
            q, avail = random_case(gen)
            probs = action_distribution(q, avail, cfg, 0.2)
            us = np.concatenate([gen.random(40), [0.0, np.nextafter(1.0, 0.0)]])
            assert np.array_equal(sample_from(np.repeat(probs, len(us), axis=0), us),
                                  [sample_from(probs, [u])[0] for u in us])

    def test_an_array_of_uniforms_equals_the_same_stream_drawn_one_at_a_time(self):
        probs = action_distribution(np.array([[0.8, 0.3, -0.5, 0.1]]), np.ones((1, 4), bool),
                                    ExplorationConfig(k=2, temperature=0.33), 0.1)
        one_at_a_time = np.random.default_rng(115)
        singles = [sample_from(probs, [one_at_a_time.random()])[0] for _ in range(500)]
        assert np.array_equal(sample_from(np.repeat(probs, 500, axis=0),
                                          np.random.default_rng(115).random(500)),
                              singles)

    def test_the_last_edge_never_draws_past_the_last_action(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25]]) * (1.0 - 1e-15)   # cumsum ends below 1
        assert sample_from(probs, [np.nextafter(1.0, 0.0)])[0] == 3
        assert np.array_equal(sample_from(np.repeat(probs, 3, axis=0),
                                          np.full(3, np.nextafter(1.0, 0.0))), [3, 3, 3])

    def test_one_dimensional_input_is_refused(self):
        with pytest.raises(ContractError, match="two dimensions"):
            action_distribution([1.0, 2.0], [True, True], GREEDY, 0.1)
        for u in (0.5, [0.5], [0.5, 0.5]):
            with pytest.raises(ContractError, match="two dimensions"):
                sample_from(np.array([0.5, 0.5]), u)


# The per-row forms of action_distribution and sample_from that the row-wise
# ones replaced, kept as their reference: every probability and every action
# must be the same.

def per_row_action_distribution(q, avail, config, epsilon):
    q = np.asarray(q, dtype=float).reshape(-1)
    avail = np.asarray(avail, dtype=bool).reshape(-1)
    avail_idx = np.flatnonzero(avail)
    order = avail_idx[np.argsort(-q[avail_idx], kind="stable")]
    top = order[: min(config.k, avail_idx.size)]
    boltzmann = np.zeros_like(q)
    if config.temperature == 0.0 or top.size == 1:
        boltzmann[top[0]] = 1.0
    else:
        with np.errstate(over="ignore"):
            weights = np.exp((q[top] - q[top[0]]) / config.temperature)
        boltzmann[top] = weights / weights.sum()
    uniform = np.zeros_like(q)
    uniform[avail_idx] = 1.0 / avail_idx.size
    return epsilon * uniform + (1.0 - epsilon) * boltzmann


def per_row_sample_from(probs, u):
    edges = np.cumsum(probs)
    return np.minimum(np.searchsorted(edges, u, side="right"), probs.size - 1)


@st.composite
def selection_cases(draw):
    rows, actions = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    # a few distinct values make ties, values near each other weigh alike in
    # the softmax, and any finite float32 makes the rest
    value = st.one_of(st.sampled_from([-1.0, 0.0, -0.0, 0.5, 2.0]),
                      st.floats(-4.0, 4.0, width=32),
                      st.floats(allow_nan=False, allow_infinity=False, width=32))
    q = np.array(draw(st.lists(value, min_size=rows * actions, max_size=rows * actions)),
                 dtype=np.float32).reshape(rows, actions)
    avail = np.array(draw(st.lists(st.booleans(), min_size=rows * actions,
                                   max_size=rows * actions))).reshape(rows, actions)
    avail[np.arange(rows), draw(st.lists(st.integers(0, actions - 1), min_size=rows,
                                         max_size=rows))] = True
    temperature = draw(st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-320, 1e-30, 0.33, 1.0]),
        st.floats(0.0, 100.0)))
    config = ExplorationConfig(k=draw(st.integers(1, actions)), temperature=temperature)
    epsilon = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    u = np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, float(np.nextafter(1.0, 0.0))]),
                  st.floats(0.0, float(np.nextafter(1.0, 0.0)))),
        min_size=rows, max_size=rows)))
    return q, avail, config, epsilon, u


@settings(max_examples=200, deadline=None)
@given(selection_cases())
def test_row_wise_selection_equals_the_per_row_form(case):
    q, avail, config, epsilon, u = case
    probs = action_distribution(q, avail, config, epsilon)
    expected = [per_row_action_distribution(q[r], avail[r], config, epsilon)
                for r in range(len(q))]
    assert probs.shape == q.shape
    for r, row in enumerate(expected):
        assert np.array_equal(probs[r], row)
        assert np.array_equal(action_distribution(q[r:r + 1], avail[r:r + 1], config,
                                                  epsilon), row[None])
    assert np.array_equal(sample_from(probs, u),
                          [per_row_sample_from(row, u_r) for row, u_r in zip(expected, u)])


def test_row_wise_sampling_needs_one_uniform_per_row():
    probs = np.full((3, 2), 0.5)
    with pytest.raises(ContractError, match="one uniform per row"):
        sample_from(probs, np.zeros(2))
