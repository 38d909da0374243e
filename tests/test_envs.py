"""Environment contracts and the exact planning oracles."""

import itertools

import numpy as np
import pytest

from marlab.envs import (
    CLIMBING_PAYOFF,
    CuePassing,
    Env,
    MatrixGame,
    TwoStepCoop,
    blind_optimum,
    make_env,
    value_iteration,
)
from marlab.errors import (
    CapacityError,
    ConfigError,
    ContractError,
    EpisodeOverError,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def cues_of(state, n_agents, num_cues):
    """The cues a CuePassing global state carries, one per agent."""
    block = state[: n_agents * num_cues].reshape(n_agents, num_cues)
    assert np.array_equal(block.sum(axis=1), np.ones(n_agents))
    return block.argmax(axis=1)


class TestMatrixGame:
    def test_climbing_optimum_action_pays_11_and_terminates(self):
        env = MatrixGame()
        env.reset(rng())
        reward, done, _, _ = env.step([0, 0])
        assert reward == 11.0 and done

    def test_climbing_structure_by_brute_force(self):
        table = CLIMBING_PAYOFF
        assert table.max() == 11.0 and table[0, 0] == 11.0

        def strict_nash(i, j):
            row_ok = all(table[d, j] < table[i, j] for d in range(3) if d != i)
            col_ok = all(table[i, d] < table[i, j] for d in range(3) if d != j)
            return row_ok and col_ok

        equilibria = {(i, j) for i in range(3) for j in range(3) if strict_nash(i, j)}
        assert equilibria == {(0, 0), (1, 1)}
        # under uniform opponent play, action 2 has the best expected payoff
        # for both players: the attractor that blind exploration falls into
        assert table.mean(axis=1).argmax() == 2
        assert table.mean(axis=0).argmax() == 2

    def test_value_iteration_finds_max_entry(self):
        v, policy, _ = value_iteration(MatrixGame(), gamma=0.99)
        assert v == 11.0
        assert policy["s0"] == (0, 0)

    def test_rectangular_table_masks_extra_actions(self):
        env = MatrixGame(payoff=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        avail = env.avail_actions()
        assert avail.shape == (2, 3)
        assert np.array_equal(avail[0], [True, True, False])
        assert np.array_equal(avail[1], [True, True, True])
        env.reset(rng())
        with pytest.raises(ContractError):
            env.step([2, 0])

    def test_step_after_terminal_raises(self):
        env = MatrixGame()
        env.reset(rng())
        env.step([0, 0])
        with pytest.raises(EpisodeOverError):
            env.step([0, 0])

    @pytest.mark.parametrize("actions", [[0.5, 0], [True, 0], [0, False],
                                         np.array([1.0, 0.0]), ["0", "1"]])
    def test_non_integer_actions_are_refused(self, actions):
        # a float or a bool is no action index, though numpy would cast it to one
        env = MatrixGame(payoff=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        env.reset(rng())
        with pytest.raises(ContractError, match="unavailable action"):
            env.step(actions)
        assert env.step(np.array([1, 2], dtype=np.uint8))[0] == 6.0   # still at the start

    @pytest.mark.parametrize("actions", [[[0], 1], [0, [1, 2]], [[0, 1], [2]]])
    def test_ragged_actions_are_refused(self, actions):
        env = MatrixGame(payoff=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        env.reset(rng())
        with pytest.raises(ContractError, match="need 2 actions, got a ragged"):
            env.step(actions)

    @pytest.mark.parametrize("actions", [[-1, 0], [0, 3], [2, 0]])
    def test_out_of_range_or_unavailable_actions_are_refused(self, actions):
        env = MatrixGame(payoff=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        env.reset(rng())
        with pytest.raises(ContractError, match="unavailable action"):
            env.step(actions)

    def test_model_step_is_handed_a_tuple_of_python_ints(self, monkeypatch):
        env = MatrixGame()
        seen = []
        monkeypatch.setattr(env, "model_step", lambda state, joint: (seen.append(joint), None))
        env.reset(rng())
        env.step(np.array([2, 1], dtype=np.int32))
        assert seen == [(2, 1)] and all(type(a) is int for a in seen[0])


class TestCuePassing:
    def test_correct_shifted_cues_pay_one(self):
        env = CuePassing(3, 3)
        _, state = env.reset(rng(1))
        env.step([0, 0, 0])
        targets = np.roll(cues_of(state, 3, 3), 1)
        reward, done, _, _ = env.step(targets)
        assert reward == 1.0 and done

    def test_any_wrong_action_pays_zero(self):
        env = CuePassing(3, 3)
        _, state = env.reset(rng(2))
        env.step([0, 0, 0])
        wrong = np.roll(cues_of(state, 3, 3), 1)
        wrong[1] = (wrong[1] + 1) % 3
        reward, done, _, _ = env.step(wrong)
        assert reward == 0.0 and done

    def test_observations_hide_other_cues(self):
        env = CuePassing(3, 4)
        obs, state = env.reset(rng(3))
        assert obs.shape == (3, 4 + 2)
        cues = cues_of(state, 3, 4)
        for i in range(3):
            onehot = np.zeros(4)
            onehot[cues[i]] = 1.0
            assert np.array_equal(obs[i, :4], onehot)
        # global state carries every cue
        assert state[: 3 * 4].sum() == 3.0

    def test_cheat_observations_reveal_all_cues(self):
        env = CuePassing(3, 3, cheat_obs=True)
        obs, state = env.reset(rng(4))
        for i in range(3):
            assert np.array_equal(obs[i, : 9], state[:9])

    def test_deterministic_given_seed(self):
        a = CuePassing(3, 3).reset(rng(7))
        b = CuePassing(3, 3).reset(rng(7))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestTwoStepCoop:
    def test_branch_selection_and_payoffs(self):
        env = TwoStepCoop()
        env.reset(rng())
        _, done, obs, state = env.step([1, 0])  # agent 0 picks branch B
        assert not done and state[2] == 1.0
        reward, done, _, _ = env.step([1, 1])
        assert reward == 8.0 and done

        env.reset(rng())
        env.step([0, 1])  # branch A pays flat regardless of second actions
        reward, done, _, _ = env.step([0, 1])
        assert reward == 7.0 and done

    def test_value_iteration_prefers_risky_branch(self):
        env = TwoStepCoop()
        v, policy, values = value_iteration(env, gamma=1.0)
        assert v == 8.0
        assert policy[0][0] == 1  # agent 0 chooses branch B
        assert values[1] == 7.0 and values[2] == 8.0

    def test_discounting_applies_to_second_step(self):
        v, _, _ = value_iteration(TwoStepCoop(), gamma=0.99)
        assert abs(v - 0.99 * 8.0) < 1e-12


class TestOracles:
    def test_cue_passing_full_information_value_is_one(self):
        v, _, _ = value_iteration(CuePassing(3, 3, cheat_obs=True), gamma=1.0)
        assert abs(v - 1.0) < 1e-9

    def test_capacity_error_on_large_instance(self):
        with pytest.raises(CapacityError):
            value_iteration(CuePassing(4, 10), gamma=1.0)

    def test_blind_optimum_enumerated_values(self):
        # cyclic policies beat independent guessing: the optimum is m^(1-n),
        # achieved e.g. by every agent announcing its own cue
        assert abs(blind_optimum(CuePassing(3, 3)) - 1.0 / 9.0) < 1e-12
        assert abs(blind_optimum(CuePassing(2, 2)) - 0.5) < 1e-12
        assert blind_optimum(CuePassing(3, 1)) == 1.0

    def test_blind_optimum_strictly_below_communicating_value(self):
        for n, m in [(2, 2), (3, 3), (2, 3)]:
            v, _, _ = value_iteration(CuePassing(n, m, cheat_obs=True), gamma=1.0)
            assert blind_optimum(CuePassing(n, m)) < v - 0.1

    def test_blind_optimum_capacity_guard(self):
        with pytest.raises(CapacityError):
            blind_optimum(CuePassing(3, 5))

    def test_blind_optimum_requires_cue_passing(self):
        with pytest.raises(ContractError):
            blind_optimum(MatrixGame())

    def test_blind_optimum_scores_the_envs_own_model(self):
        # a task whose model pays for announcing one's own cue needs no
        # communication: blind_optimum reads the rule from model_step
        class OwnCue(CuePassing):
            def model_step(self, state, joint_action):
                cues, t = state
                if t == 0:
                    return 0.0, (cues, 1)
                return float(tuple(joint_action) == cues), None

        assert blind_optimum(OwnCue(3, 3)) == 1.0
        assert blind_optimum(OwnCue(2, 2)) == 1.0


def test_make_env_dispatch():
    assert isinstance(make_env("matrix_game"), MatrixGame)
    assert isinstance(make_env("cue_passing", {"n_agents": 2, "num_cues": 2}), CuePassing)
    assert isinstance(make_env("two_step_coop"), TwoStepCoop)
    with pytest.raises(ConfigError):
        make_env("starcraft")


def test_env_determinism_given_action_sequence():
    def run(seed):
        env = CuePassing(3, 3)
        env.reset(rng(seed))
        trace = []
        gen = rng(seed + 1)
        done = False
        while not done:
            acts = gen.integers(0, 3, size=3)
            r, done, obs, state = env.step(acts)
            trace.append((r, obs.copy(), state.copy()))
        return trace

    for (r1, o1, s1), (r2, o2, s2) in zip(run(5), run(5)):
        assert r1 == r2 and np.array_equal(o1, o2) and np.array_equal(s1, s2)


class MaskedLater(Env):
    """Two agents, two steps, states 0 then 1.  Agent 0's action 1 would pay
    10 at the second step, but state 1 masks it, so the optimum is 1."""

    n_agents, n_actions, obs_dim, state_dim = 2, 2, 2, 2
    best_return = 1.0

    def _observe(self, state):
        onehot = np.eye(2)[state]
        return np.stack([onehot, onehot]), onehot

    def model_avail(self, state):
        avail = np.ones((2, 2), dtype=bool)
        avail[0, 1] = state == 0
        return avail

    def model_initial(self):
        return [(0, 1.0)]

    def model_step(self, state, joint_action):
        if state == 0:
            return 0.0, 1
        return (10.0 if joint_action[0] == 1 else 1.0), None


def brute_force_value(env, state, gamma):
    """The best return from state over every joint action in range whose every
    agent's action model_avail(state) allows, recursing without memory."""
    avail = env.model_avail(state)
    best = -np.inf
    for joint in itertools.product(range(env.n_actions), repeat=env.n_agents):
        if all(avail[i, a] for i, a in enumerate(joint)):
            reward, nxt = env.model_step(state, joint)
            best = max(best, reward if nxt is None else
                       reward + gamma * brute_force_value(env, nxt, gamma))
    return best


@pytest.mark.parametrize("gamma", [1.0, 0.9])
def test_availability_that_changes_with_the_state_is_read_from_model_avail(gamma):
    env = MaskedLater()
    # the planner enumerates each state's own mask
    v, policy, _ = value_iteration(env, gamma)
    assert v == brute_force_value(env, 0, gamma) == gamma * 1.0
    assert policy[1][0] == 0
    # acting checks the current state's mask and shows the mask of the state
    # it describes: after the last step, the final state's
    env.reset(rng())
    assert np.array_equal(env.avail_actions(), env.model_avail(0))
    env.step([1, 1])
    assert np.array_equal(env.avail_actions(), env.model_avail(1))
    with pytest.raises(ContractError, match="agent 0 took unavailable action 1"):
        env.step([1, 0])
    reward, done, _, _ = env.step([0, 1])
    assert (reward, done) == (1.0, True)
    assert np.array_equal(env.avail_actions(), env.model_avail(1))


PLANNED_ENVS = {
    "climbing": MatrixGame,
    "rectangular": lambda: MatrixGame(payoff=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])),
    "two_step_coop": TwoStepCoop,
    "cue_passing_2x2": lambda: CuePassing(2, 2),
    "cue_passing_3x2": lambda: CuePassing(3, 2),
    "masked_later": MaskedLater,
}


def model_states_by_global_state(env):
    """Every model state reachable from model_initial, keyed by its global state."""
    todo = [s for s, _ in env.model_initial()]
    seen = set(todo)
    while todo:
        s = todo.pop()
        for action in env.model_joint_actions(s):
            _, nxt = env.model_step(s, action)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    decode = {env._observe(s)[1].tobytes(): s for s in seen}
    assert len(decode) == len(seen), "two model states share a global state"
    return decode


@pytest.mark.parametrize("gamma", [1.0, 0.9])
@pytest.mark.parametrize("make", PLANNED_ENVS.values(), ids=PLANNED_ENVS.keys())
def test_planned_policy_earns_planned_value_through_step(make, gamma):
    env = make()
    _, policy, values = value_iteration(env, gamma)
    decode = model_states_by_global_state(env)
    starts = {s for s, p in env.model_initial() if p > 0}
    played = set()
    for seed in range(200):
        _, global_state = env.reset(rng(seed))
        start = s = decode[global_state.tobytes()]
        if start in played:
            continue
        played.add(start)
        total, discount, done = 0.0, 1.0, False
        while not done:
            reward, done, _, global_state = env.step(policy[s])
            total += discount * reward
            discount *= gamma
            if not done:
                s = decode[global_state.tobytes()]
        assert total == pytest.approx(values[start], abs=1e-12)
        if played == starts:
            break
    assert played == starts


@pytest.mark.parametrize("make", [*PLANNED_ENVS.values(), lambda: CuePassing(3, 3)],
                         ids=[*PLANNED_ENVS.keys(), "cue_passing_3x3"])
def test_reset_starts_only_in_model_initial_support(make):
    env = make()
    starts = {s for s, p in env.model_initial() if p > 0}
    decode = model_states_by_global_state(env)
    for seed in range(100):
        _, global_state = env.reset(rng(seed))
        assert decode[global_state.tobytes()] in starts


@pytest.mark.parametrize("make, best", [
    (MatrixGame, 11.0),
    (lambda: MatrixGame([[1.0, -2.0], [0.5, 3.5], [0.0, 2.0]]), 3.5),
    (lambda: CuePassing(3, 3), 1.0),
    (lambda: CuePassing(2, 2, cheat_obs=True), 1.0),
    (TwoStepCoop, 8.0),
])
def test_success_is_reaching_the_best_return(make, best):
    env = make()
    assert env.best_return == best
    assert env.is_success(best) and env.is_success(best + 1.0)
    assert env.is_success(best - 0.5e-9)   # within the 1e-9 tolerance
    assert not env.is_success(best - 2e-9)
    assert not env.is_success(np.nextafter(best - 1e-9, -np.inf))


@pytest.mark.parametrize("make", [MatrixGame, lambda: CuePassing(2, 2), TwoStepCoop])
def test_best_return_is_the_planners_optimum(make):
    env = make()
    assert value_iteration(env, gamma=1.0)[0] == env.best_return


@pytest.mark.parametrize("make, start, obs, state", [
    (MatrixGame, "s0", np.ones((2, 1)), np.ones(1)),
    (TwoStepCoop, 0, np.array([[1.0, 0.0, 0.0]] * 2), np.array([1.0, 0.0, 0.0])),
])
def test_a_model_with_one_start_resets_to_it_without_a_draw(make, start, obs, state):
    env, gen = make(), rng(3)
    before = gen.bit_generator.state
    got_obs, got_state = env.reset(gen)
    assert env._state == start and gen.bit_generator.state == before
    assert np.array_equal(got_obs, obs) and np.array_equal(got_state, state)


def test_a_model_with_several_starts_and_no_start_draw_is_refused_on_reset():
    class TwoStarts(TwoStepCoop):
        def model_initial(self):
            return [(0, 0.5), (1, 0.5)]

    with pytest.raises(ContractError, match="TwoStarts has several start states"):
        TwoStarts().reset(rng())
