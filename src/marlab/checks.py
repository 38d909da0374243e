"""Self-contained invariant suite behind the `check` command.

Every check builds randomized instances, exercises one contract, and
returns a pass/fail verdict with a measured detail.  Fault injection swaps
in deliberately broken components so the suite can demonstrate it would
catch the corresponding defect:

  qmix-signed     monotonic mixer without the weight-positivity transform
  comm-hot-init   communication stack whose output projection is not zero

The three gradient checks compare backprop with central differences
(nn.gradcheck.max_gradient_error), and a central difference across the
kink of relu or |.| at 0 is not a derivative.  So each gradient check keeps
one kink rule: it redraws its inputs until no relu or |.| input, in one
no-grad evaluation of its loss, lies within KINK_MARGIN (100 finite-difference
steps) of 0, and its detail reports the number of redraws.
"""

from __future__ import annotations

import numpy as np

from .agents import make_team
from .comm import CommSettings, CommStack
from .config import check_seed
from .envs import CuePassing, TwoStepCoop, value_iteration
from .errors import ConfigError
from .exploration import ExplorationConfig, action_distribution, sample_from
from .learner import (
    EpisodeRecord,
    Learner,
    ReplayBuffer,
    TrainConfig,
    batch_major,
    double_q_targets,
    horizons,
    pad_batch,
    pad_steps,
    taken_joint_values,
    td_loss,
    unroll_team,
)
from .mixers import QmixMixer, VdnMixer, mix_values
from .netsim import Topology, centralized_traffic, distributed_traffic
from .nn import (
    Dense,
    EncoderLayer,
    GRUCell,
    MultiHeadSelfAttention,
    Parameter,
    Tensor,
    dropout_mask,
    no_grad,
)
from .nn import tensor as T
from .nn.gradcheck import FD_STEP, max_gradient_error
from .rng import stream

FAULTS = ("none", "qmix-signed", "comm-hot-init")
KINK_MARGIN = 100 * FD_STEP   # the kink rule's least distance of a relu or |.| input from 0


class _SignedQmix(QmixMixer):
    """Broken on purpose: mixing weights keep their sign."""

    def _positivity(self, t):
        return t


def _make_qmix(seed: int, fault: str) -> QmixMixer:
    cls = _SignedQmix if fault == "qmix-signed" else QmixMixer
    return cls(n_agents=3, state_dim=5, seed=seed)


def _make_comm(seed: int, fault: str, **kw) -> CommStack:
    settings = CommSettings(num_layers=kw.get("num_layers", 1), ffn_dim=32,
                            heads=4, dropout=0.1)
    stack = CommStack(settings, model_dim=16, seed=seed)
    if fault == "comm-hot-init":
        gen = stream(seed, "fault-hot-init")
        stack.out_proj.weight.data[...] = gen.standard_normal(
            stack.out_proj.weight.shape) * 0.1
    return stack


def _least_kink_input(loss_fn) -> float:
    """The least |input| of any relu or absolute in one no-grad evaluation of
    loss_fn, which T.relu and T.absolute record while it runs: every model
    calls them through T."""
    least = [np.inf]

    def recorded(op):
        def run(a):
            least[0] = min(least[0], float(np.abs(a.data).min()))
            return op(a)
        return run

    relu, absolute = T.relu, T.absolute
    T.relu, T.absolute = recorded(relu), recorded(absolute)
    try:
        with no_grad():
            loss_fn()
    finally:
        T.relu, T.absolute = relu, absolute
    return least[0]


def _kink_free(draw, loss_of):
    """Calls draw() until loss_of(*drawn) keeps the kink rule (module
    docstring); returns the last draw and the number of redraws."""
    drawn, redraws = draw(), 0
    while _least_kink_input(lambda: loss_of(*drawn)) < KINK_MARGIN:
        drawn, redraws = draw(), redraws + 1
    return drawn, redraws


def check_gradient_layers(seed: int, fault: str) -> tuple[bool, str]:
    gen = stream(seed, "grad-layers")
    worst, ok, redraws = {}, True, 0
    # each loss weights the layer's output by a drawn matrix, the last shape
    for name, make, shapes, bound in (
            ("dense", lambda: Dense(5, 4, gen, "fc"), [(3, 5), (3, 4)], 1e-4),
            ("gru", lambda: GRUCell(4, 6, gen, "gru"), [(3, 4), (3, 6), (3, 6)], 1e-4),
            ("attention", lambda: MultiHeadSelfAttention(8, 2, gen, "attn"),
             [(4, 8), (4, 8)], 1e-4),
            ("encoder", lambda: EncoderLayer(8, 2, 16, 0.0, gen, "enc"),
             [(4, 8), (4, 8)], 1e-3)):
        layer = make()

        def loss_of(*arrays, layer=layer):
            return T.tsum(T.mul(layer(*map(Tensor, arrays[:-1])), arrays[-1]))

        drawn, n = _kink_free(lambda: [gen.standard_normal(s) for s in shapes], loss_of)
        worst[name] = max_gradient_error(lambda: loss_of(*drawn), layer.parameters(), gen)
        ok, redraws = ok and worst[name] <= bound, redraws + n
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    return ok, f"{detail}, input redraws {redraws}"


def check_gradient_qmix(seed: int, fault: str) -> tuple[bool, str]:
    mixer = _make_qmix(seed, fault)
    gen = stream(seed, "grad-qmix")
    q = Parameter(gen.standard_normal((2, 3)), name="q")
    (s,), redraws = _kink_free(lambda: (Parameter(gen.standard_normal((2, 5)), name="s"),),
                               lambda s: T.tsum(mixer(q, s)))
    err = max_gradient_error(lambda: T.tsum(mixer(q, s)), mixer.parameters() + [q, s], gen)
    return err <= 1e-3, f"worst rel err {err:.2e}, state redraws {redraws}"


def check_gradient_end_to_end(seed: int, fault: str) -> tuple[bool, str]:
    """Finite differences through the full TD loss on a 2-agent batch."""
    comm = CommSettings(num_layers=1, ffn_dim=8, heads=2, dropout=0.0)
    team = make_team(obs_dim=3, n_actions=2, n_agents=2, state_dim=4,
                     hidden_dim=8, mixer_kind="vdn", comm=comm, seed=seed)
    # warm the comm projection so its gradient path is generic
    gen = stream(seed, "grad-e2e")
    team.comm.out_proj.weight.data[...] = gen.standard_normal((8, 8)) * 0.2

    def draw():
        batch = pad_batch([EpisodeRecord(
            obs=gen.standard_normal((3, 2, 3)),
            states=gen.standard_normal((3, 4)),
            avail=np.ones((3, 2, 2), dtype=bool),
            actions=gen.integers(0, 2, size=(2, 2)),
            rewards=gen.standard_normal(2)) for _ in range(2)])
        # freeze the targets first, from step 1 on (entry t after transition t):
        # they are detached from the online graph, so the probe must hold them fixed too
        with no_grad():
            next_q = batch_major(unroll_team(team, batch, first=1), batch)
        return batch, double_q_targets(batch, next_q, next_q, team.mixer, 0.9)

    def loss_of(batch, y):
        q_tot = taken_joint_values(team, unroll_team(team, batch), batch)
        return td_loss(q_tot, y, batch["lengths"])

    (batch, y), redraws = _kink_free(draw, loss_of)
    err = max_gradient_error(lambda: loss_of(batch, y), team.parameters(), gen)
    return err <= 1e-3, f"worst rel err {err:.2e}, episode redraws {redraws}"


def check_comm_zero_init_passthrough(seed: int, fault: str) -> tuple[bool, str]:
    stack = _make_comm(seed, fault)
    gen = stream(seed, "passthrough")
    worst = 0.0
    for _ in range(20):
        h = gen.standard_normal((4, 16))
        with no_grad():
            z = stack(Tensor(h)).data
        worst = max(worst, float(np.abs(z).max()))
    return worst == 0.0, f"max |increment| at init {worst:.2e}"


def check_comm_permutation_equivariance(seed: int, fault: str) -> tuple[bool, str]:
    stack = _make_comm(seed, "comm-hot-init")  # nonzero output on purpose
    gen = stream(seed, "equivariance")
    worst = 0.0
    for _ in range(25):
        h = gen.standard_normal((5, 16))
        perm = gen.permutation(5)
        with no_grad():
            z = stack(Tensor(h)).data
            zp = stack(Tensor(h[perm])).data
        worst = max(worst, float(np.abs(zp - z[perm]).max()))
    return worst <= 1e-6, f"max |perm mismatch| {worst:.2e}"


def check_comm_param_count_team_size(seed: int, fault: str) -> tuple[bool, str]:
    """One stack keeps its parameter names and shapes whatever team size it runs on."""
    stack = _make_comm(seed, "none")
    layout = [(p.name, p.shape) for p in stack.parameters()]
    changed = []
    for n in (2, 8, 27):
        with no_grad():
            stack(Tensor(np.zeros((n, 16))))
        if [(p.name, p.shape) for p in stack.parameters()] != layout:
            changed.append(n)
    return not changed, (f"{stack.param_count()} entries in {len(layout)} parameters, "
                         f"layout changed after n = {changed or 'none'}")


def check_vdn_exact_sum(seed: int, fault: str) -> tuple[bool, str]:
    gen = stream(seed, "vdn")
    mixer = VdnMixer(4)
    worst = 0.0
    for _ in range(100):
        q = gen.standard_normal((3, 4))
        out = mix_values(mixer, q, np.zeros((3, 1)))
        worst = max(worst, float(np.abs(out - q.sum(axis=1)).max()))
    return worst == 0.0, f"max |sum error| {worst:.2e}"


def check_qmix_monotonicity(seed: int, fault: str) -> tuple[bool, str]:
    mixer = _make_qmix(seed, fault)
    gen = stream(seed, "monotone")
    delta = 1e-4
    worst = np.inf
    for _ in range(1000):
        q = gen.standard_normal(3)
        s = gen.standard_normal(5)
        i = int(gen.integers(3))
        up, down = q.copy(), q.copy()
        up[i] += delta
        down[i] -= delta
        both = mix_values(mixer, np.stack([up, down]), np.stack([s, s]))
        worst = min(worst, float((both[0] - both[1]) / (2 * delta)))
    return worst >= -1e-6, f"min fd slope {worst:.3e}"


def check_deployment_equivalence(seed: int, fault: str) -> tuple[bool, str]:
    """Under Topology.isolate(n, j) the others get the increments of the stack
    run without agent j, and agent j those of the stack run on its row alone."""
    stack = _make_comm(seed, "comm-hot-init", num_layers=2)
    gen = stream(seed, "deploy")
    worst = 0.0
    for n in (2, 4, 6):
        h = gen.standard_normal((n, 16))
        j = int(gen.integers(n))
        others = np.arange(n) != j
        with no_grad():
            z = stack(Tensor(h), mask=Topology.isolate(n, j).reachable).data
            z_others = stack(Tensor(h[others])).data
            z_alone = stack(Tensor(h[j : j + 1])).data
        worst = max(worst, float(np.abs(z[others] - z_others).max()),
                    float(np.abs(z[j : j + 1] - z_alone).max()))
        if centralized_traffic(n, 16).floats_transferred != 2 * n * 16:
            return False, "centralized traffic formula violated"
        if distributed_traffic(Topology.full(n), 2, 16).messages != 2 * n * (n - 1):
            return False, "distributed message formula violated"
        if distributed_traffic(Topology.isolate(n, j), 2, 16).messages != 2 * (n - 1) * (n - 2):
            return False, "isolated message count violated"
    return worst <= 1e-6, f"max |isolated - separate run| {worst:.2e}"


def check_exploration_reductions(seed: int, fault: str) -> tuple[bool, str]:
    gen = stream(seed, "explore")
    worst = 0.0
    for _ in range(300):
        q = gen.standard_normal((1, 5))
        avail = gen.random((1, 5)) < 0.8
        if not avail.any():
            avail[0, 0] = True
        eps = float(gen.random())
        base = action_distribution(q, avail, ExplorationConfig(k=1, temperature=1.0), eps)
        k1 = action_distribution(
            q, avail, ExplorationConfig(k=int(gen.integers(1, 5)), temperature=0.0), eps)
        worst = max(worst, float(np.abs(base - k1).max()))
    sample_rng = stream(seed, "explore-mc")
    cfg = ExplorationConfig(k=2, temperature=0.33)
    q = np.array([[0.8, 0.3, -0.5, 0.1]])
    probs = action_distribution(q, np.ones((1, 4), dtype=bool), cfg, 0.1)
    trials = 20_000
    draws = sample_from(np.repeat(probs, trials, axis=0), sample_rng.random(trials))
    mc_gap = float(np.abs(np.bincount(draws, minlength=4) / trials - probs[0]).max())
    ok = worst <= 1e-12 and mc_gap < 0.015
    return ok, f"reduction gap {worst:.1e}, monte-carlo gap {mc_gap:.3f}"


def check_dropout_statistics(seed: int, fault: str) -> tuple[bool, str]:
    gen = stream(seed, "dropout")
    rate = 0.25
    out = T.dropout(Tensor(np.ones((200, 500))), dropout_mask((200, 500), rate, gen))
    frac = float((out.data == 0.0).mean())
    kept = out.data[out.data != 0.0]
    scale_ok = bool(np.allclose(kept, 1.0 / (1.0 - rate)))
    ok = abs(frac - rate) < 0.01 and scale_ok
    return ok, f"dropped fraction {frac:.4f}, survivor scaling ok={scale_ok}"


def check_oracle_learning_targets(seed: int, fault: str) -> tuple[bool, str]:
    """Exact planner sanity on both enumerable tasks."""
    v_two, _, _ = value_iteration(TwoStepCoop(), gamma=1.0)
    v_cue, _, _ = value_iteration(CuePassing(2, 2, cheat_obs=True), gamma=1.0)
    ok = v_two == 8.0 and abs(v_cue - 1.0) < 1e-9
    return ok, f"two-step optimum {v_two}, cue-passing optimum {v_cue:.4f}"


def check_double_q_targets(seed: int, fault: str) -> tuple[bool, str]:
    """double_q_targets against targets written out by hand on a float64 VDN
    batch of two 2-step episodes: episode 0 truncated (horizon 2), episode 1
    terminated (horizon 1).  The online and target next-step values, entry
    [episode, t, agent] for the step t + 1, pick apart, and agent 1's highest
    online value at episode 0's step 1 is unavailable."""
    online = np.array([[[[1., 5., 3.], [0., -1., 2.]], [[4., 0., 1.], [2., 3., 1.]]],
                       [[[0., 2., 1.], [6., 1., 2.]], [[7., 7., 7.], [7., 7., 7.]]]])
    target = np.array([[[[9., 2., 4.], [1., 7., 3.]], [[1., 6., 2.], [5., 0., 8.]]],
                       [[[3., 1., 5.], [2., 4., 9.]], [[50., 50., 50.], [50., 50., 50.]]]])
    avail = np.ones((2, 3, 2, 3), dtype=bool)
    avail[0, 1, 1, 2] = False
    rewards = stream(seed, "double-q").standard_normal((2, 2))
    batch = pad_batch([EpisodeRecord(obs=np.zeros((3, 2, 1)), states=np.zeros((3, 1)),
                                     avail=avail[b], actions=np.zeros((2, 2), dtype=int),
                                     rewards=rewards[b], terminated=bool(b)) for b in range(2)])
    gamma = 0.9
    # each agent's online argmax over its available actions, then its target value
    want = rewards + gamma * np.array([
        [target[0, 0, 0, 1] + target[0, 0, 1, 0],   # agent 1's action 2 is unavailable
         target[0, 1, 0, 0] + target[0, 1, 1, 1]],
        [target[1, 0, 0, 1] + target[1, 0, 1, 0],
         0.0]])                                     # past the horizon: the reward alone
    got = double_q_targets(batch, online, target, VdnMixer(2), gamma)
    err = float(np.abs(got - want).max())
    return err <= 1e-12, f"max |target - hand-written| {err:.2e}"


def check_target_sync(seed: int, fault: str) -> tuple[bool, str]:
    """A learner with target_update_interval 2 syncs its target network at the
    second train step, bit for bit, and its target values after the sync are
    each episode's own target unroll, not values cached before it."""
    gen = stream(seed, "target-sync")
    team = make_team(obs_dim=3, n_actions=2, n_agents=2, state_dim=4, hidden_dim=8,
                     mixer_kind="vdn", comm=CommSettings(enabled=False), seed=seed)
    learner = Learner(team, TrainConfig(batch_size=4, buffer_capacity=4, hidden_dim=8,
                                        target_update_interval=2), seed=seed)
    buffer = ReplayBuffer(4)
    for length in (1, 2, 3, 2):
        buffer.add(EpisodeRecord(
            obs=gen.standard_normal((length + 1, 2, 3)),
            states=gen.standard_normal((length + 1, 4)),
            avail=np.ones((length + 1, 2, 2), dtype=bool),
            actions=gen.integers(0, 2, size=(length, 2)),
            rewards=gen.standard_normal(length), terminated=bool(length % 2)))

    def differing():
        return sum(a.data.tobytes() != b.data.tobytes()
                   for a, b in zip(learner.target.parameters(), team.parameters()))

    learner.train_step(buffer)
    before = differing()
    learner.train_step(buffer)
    after = differing()
    episodes = buffer.episodes
    batch = pad_batch(episodes)
    alone = []
    for ep in episodes:
        one = pad_batch([ep])
        with no_grad():
            alone.append(batch_major(unroll_team(learner.target, one, first=1), one)[0])
    want = pad_steps(alone, int(horizons(batch).max()), 0, learner.target.dtype)
    stale = float(np.abs(learner.target_values(episodes, batch, buffer) - want).max())
    ok = before > 0 and after == 0 and stale == 0.0
    return ok, (f"{before} of {len(team.parameters())} target parameters differ after step 1, "
                f"{after} after the sync; max |target values - unrolled alone| {stale:.2e}")


CHECKS = [
    ("gradient_layers", check_gradient_layers),
    ("gradient_qmix", check_gradient_qmix),
    ("gradient_end_to_end", check_gradient_end_to_end),
    ("comm_zero_init_passthrough", check_comm_zero_init_passthrough),
    ("comm_permutation_equivariance", check_comm_permutation_equivariance),
    ("comm_param_count_team_size", check_comm_param_count_team_size),
    ("vdn_exact_sum", check_vdn_exact_sum),
    ("qmix_monotonicity", check_qmix_monotonicity),
    ("deployment_equivalence", check_deployment_equivalence),
    ("exploration_reductions", check_exploration_reductions),
    ("dropout_statistics", check_dropout_statistics),
    ("oracle_learning_targets", check_oracle_learning_targets),
    ("double_q_targets", check_double_q_targets),
    ("target_sync", check_target_sync),
]


def run_checks(seed: int = 0, fault: str = "none") -> dict:
    check_seed("seed", seed)
    if fault not in FAULTS:
        raise ConfigError(f"unknown fault {fault!r}; choose from {FAULTS}")
    results = {}
    for name, fn in CHECKS:
        passed, detail = fn(seed, fault)
        results[name] = {"passed": bool(passed), "detail": detail}
    return {
        "seed": seed,
        "fault": fault,
        "passed": all(r["passed"] for r in results.values()),
        "checks": results,
    }
