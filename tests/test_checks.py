"""Invariant suite: the QMIX gradient check near the |.| kink, the checks of
the communication stack's claims catching what they claim to, each seeded
fault failing exactly its own check, four faults no check catches yet, and an
unknown fault refused."""

import types

import numpy as np
import pytest

import marlab.checks
import marlab.learner
from marlab.agents import TeamModel, build_inputs, make_team
from marlab.checks import (check_comm_param_count_team_size, check_deployment_equivalence,
                           check_gradient_qmix, run_checks)
from marlab.comm import CommSettings, CommStack
from marlab.errors import ConfigError
from marlab.learner import EpisodeRecord, pad_batch
from marlab.mixers import VdnMixer
from marlab.nn import Module, Tensor
from marlab.nn import tensor as T


def absolute_with_identity_backward(a):
    """|a| whose backward passes the gradient through unchanged (wrong for a < 0)."""
    def backward(g):
        T._accum(a._node, g)

    return T._result(np.abs(a.data), (a,), backward)


@pytest.mark.parametrize("seed", [115, 311])
def test_gradient_qmix_passes_where_a_weight_sits_at_the_kink(seed):
    # at these seeds the first state draw puts a pre-|.| weight within one
    # finite-difference step of 0; the check redraws that state
    ok, detail = check_gradient_qmix(seed, "none")
    assert ok, detail
    assert "state redraws 0" not in detail


@pytest.mark.parametrize("seed", [0, 115, 311])
def test_gradient_qmix_catches_a_wrong_absolute_backward(monkeypatch, seed):
    monkeypatch.setattr(T, "absolute", absolute_with_identity_backward)
    ok, detail = check_gradient_qmix(seed, "none")
    assert not ok, detail


@pytest.mark.parametrize("seed", [0, 115, 311])
def test_deployment_equivalence_catches_a_softmax_that_ignores_its_mask(monkeypatch, seed):
    assert check_deployment_equivalence(seed, "none")[0]
    masked_softmax = T._masked_softmax
    monkeypatch.setattr(T, "_masked_softmax",
                        lambda x, mask, what: masked_softmax(x, None, what))
    ok, detail = check_deployment_equivalence(seed, "none")
    assert not ok, detail


def test_comm_param_count_catches_a_parameter_added_by_a_forward(monkeypatch):
    # stacks of every team size grow alike, so only comparing one stack's
    # parameters before and after its forwards sees this
    assert check_comm_param_count_team_size(0, "none")[0]
    forward = CommStack.forward

    def growing(self, hidden, *args, **kwargs):
        self._param(np.zeros((1, 1)), f"comm.extra{len(self.parameters())}")
        return forward(self, hidden, *args, **kwargs)

    monkeypatch.setattr(CommStack, "forward", growing)
    ok, detail = check_comm_param_count_team_size(0, "none")
    assert not ok and "n = [2, 8, 27]" in detail, detail


def test_an_unknown_fault_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown fault 'qmix-unsigned'"):
        run_checks(0, "qmix-unsigned")


@pytest.mark.parametrize("seed", [0, 115, 311])
@pytest.mark.parametrize("fault, caught", [("qmix-signed", "qmix_monotonicity"),
                                           ("comm-hot-init", "comm_zero_init_passthrough")])
def test_each_seeded_fault_fails_exactly_its_own_check(seed, fault, caught):
    report = run_checks(seed, fault)
    failed = [name for name, result in report["checks"].items() if not result["passed"]]
    assert failed == [caught] and report["passed"] is False, failed


def attention_output():
    gen = np.random.default_rng(0)
    q, k, v = (Tensor(gen.standard_normal((4, 8))) for _ in range(3))
    return T.set_attention(q, k, v, heads=2, sets=1).data


# Four escapes: faults that pass every check today.  Each test asserts what a
# suite that caught the fault would report; once a check catches it, the
# strict xfail turns into a failure that asks for the mark to go.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no check sees attention scores left unscaled by 1/sqrt(d_k)")
def test_attention_without_its_scale_fails_a_check(monkeypatch):
    scaled = attention_output()
    monkeypatch.setattr(T, "math", types.SimpleNamespace(sqrt=lambda x: 1.0))
    if np.array_equal(attention_output(), scaled):
        pytest.fail("the patch left the attention output unchanged")
    assert run_checks(0)["passed"] is False


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no check sees a target network that is never synced")
def test_a_target_network_never_synced_fails_a_check(monkeypatch):
    monkeypatch.setattr(Module, "copy_from", lambda self, other: None)
    assert run_checks(0)["passed"] is False


def double_q_targets_of_one_episode():
    """marlab.learner.double_q_targets on an unterminated 2-step episode whose
    online and target values, drawn apart, pick different next actions."""
    gen = np.random.default_rng(0)
    batch = pad_batch([EpisodeRecord(
        obs=np.zeros((3, 2, 1)), states=np.zeros((3, 1)), avail=np.ones((3, 2, 3), dtype=bool),
        actions=np.zeros((2, 2), dtype=int), rewards=np.zeros(2), terminated=False)])
    online, target = ([Tensor(gen.standard_normal((2, 3))) for _ in range(2)] for _ in range(2))
    return marlab.learner.double_q_targets(batch, online, target, VdnMixer(2), 0.9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no check sees double Q picking the next action by the target values")
def test_double_q_picking_by_the_target_network_fails_a_check(monkeypatch):
    picked_online = double_q_targets_of_one_episode()
    double_q_targets = marlab.learner.double_q_targets

    def picked_by_target(batch, online_q, target_q, mixer, gamma):
        return double_q_targets(batch, target_q, target_q, mixer, gamma)

    for module in (marlab.learner, marlab.checks):
        monkeypatch.setattr(module, "double_q_targets", picked_by_target)
    if np.array_equal(double_q_targets_of_one_episode(), picked_online):
        pytest.fail("the patch left the targets unchanged")
    assert run_checks(0)["passed"] is False


def comm_team_q_values():
    """The Q values of one step of a 3-agent comm team whose stack's
    parameters are all drawn, so that its increment is not zero."""
    gen = np.random.default_rng(0)
    team = make_team(obs_dim=3, n_actions=2, n_agents=3, state_dim=4, hidden_dim=8,
                     mixer_kind="vdn", comm=CommSettings(enabled=True, ffn_dim=8, heads=2),
                     seed=0)
    for p in team.comm.parameters():
        p.data[...] = gen.standard_normal(p.data.shape)
    inputs = build_inputs(gen.standard_normal((3, 3)), None, 2, 3)
    return team.step(inputs, team.initial_hidden(3))[0].data


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no check sees a team step that drops the comm increment")
def test_a_team_step_without_its_comm_increment_fails_a_check(monkeypatch):
    with_increment = comm_team_q_values()
    step = TeamModel.step

    def without_increment(self, *args, **kwargs):   # h_tilde = h: the stack is skipped
        comm, self.comm = self.comm, None
        try:
            return step(self, *args, **kwargs)
        finally:
            self.comm = comm

    monkeypatch.setattr(TeamModel, "step", without_increment)
    if np.array_equal(comm_team_q_values(), with_increment):
        pytest.fail("the patch left the Q values unchanged")
    assert run_checks(0)["passed"] is False
