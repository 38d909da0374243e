"""Self-contained invariant suite behind the `check` command.

Every check builds randomized instances, exercises one contract, and
returns a pass/fail verdict with a measured detail.  Fault injection swaps
in deliberately broken components so the suite can demonstrate it would
catch the corresponding defect:

  qmix-signed     monotonic mixer without the weight-positivity transform
  comm-hot-init   communication stack whose output projection is not zero
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
    double_q_targets,
    pad_batch,
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


def check_gradient_layers(seed: int, fault: str) -> tuple[bool, str]:
    gen = stream(seed, "grad-layers")
    worst = {}

    dense = Dense(5, 4, gen, "fc")
    x = Tensor(gen.standard_normal((3, 5)))
    w = gen.standard_normal((3, 4))
    worst["dense"] = max_gradient_error(
        lambda: T.tsum(T.mul(dense(x), w)), dense.parameters())

    gru = GRUCell(4, 6, gen, "gru")
    gx = Tensor(gen.standard_normal((3, 4)))
    gh = Tensor(gen.standard_normal((3, 6)))
    gw = gen.standard_normal((3, 6))
    worst["gru"] = max_gradient_error(
        lambda: T.tsum(T.mul(gru(gx, gh), gw)), gru.parameters())

    attn = MultiHeadSelfAttention(8, 2, gen, "attn")
    ax = Tensor(gen.standard_normal((4, 8)))
    aw = gen.standard_normal((4, 8))
    worst["attention"] = max_gradient_error(
        lambda: T.tsum(T.mul(attn(ax), aw)), attn.parameters())

    single_ok = all(v <= 1e-4 for v in worst.values())

    enc = EncoderLayer(8, 2, 16, 0.0, gen, "enc")
    ex = Tensor(gen.standard_normal((4, 8)))
    ew = gen.standard_normal((4, 8))
    worst["encoder"] = max_gradient_error(
        lambda: T.tsum(T.mul(enc(ex), ew)), enc.parameters(), samples_per_param=40,
        rng=gen)
    ok = single_ok and worst["encoder"] <= 1e-3
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    return ok, detail


def check_gradient_qmix(seed: int, fault: str) -> tuple[bool, str]:
    mixer = _make_qmix(seed, fault)
    gen = stream(seed, "grad-qmix")
    q = Parameter(gen.standard_normal((2, 3)), name="q")
    # |.| has a kink at 0: a central difference across it is not a
    # derivative, so redraw the state until no pre-|.| weight is near 0
    redraws, margin = -1, 0.0
    while margin < 100 * FD_STEP:
        state = gen.standard_normal((2, 5))
        redraws += 1
        with no_grad():
            margin = min(float(np.abs(w.data).min())
                         for w in mixer.hyper_weights(Tensor(state)))
    s = Parameter(state, name="s")
    err = max_gradient_error(lambda: T.tsum(mixer(q, s)),
                             mixer.parameters() + [q, s], samples_per_param=25, rng=gen)
    return err <= 1e-3, f"worst rel err {err:.2e}, state redraws {redraws}"


def check_gradient_end_to_end(seed: int, fault: str) -> tuple[bool, str]:
    """Finite differences through the full TD loss on a 2-agent batch."""
    comm = CommSettings(num_layers=1, ffn_dim=8, heads=2, dropout=0.0)
    team = make_team(obs_dim=3, n_actions=2, n_agents=2, state_dim=4,
                     hidden_dim=8, mixer_kind="vdn", comm=comm, seed=seed)
    # warm the comm projection so its gradient path is generic
    gen = stream(seed, "grad-e2e")
    team.comm.out_proj.weight.data[...] = gen.standard_normal((8, 8)) * 0.2

    episodes = []
    for _ in range(2):
        episodes.append(EpisodeRecord(
            obs=gen.standard_normal((3, 2, 3)),
            states=gen.standard_normal((3, 4)),
            avail=np.ones((3, 2, 2), dtype=bool),
            actions=gen.integers(0, 2, size=(2, 2)),
            rewards=gen.standard_normal(2)))
    batch = pad_batch(episodes)

    # freeze the targets first, from step 1 on (entry t after transition t):
    # they are detached from the online graph, so the probe must hold them fixed too
    with no_grad():
        next_q = unroll_team(team, batch, first=1)
    y = double_q_targets(batch, next_q, next_q, team.mixer, 0.9)

    def loss():
        q_tot = taken_joint_values(team, unroll_team(team, batch), batch)
        return td_loss(q_tot, y, batch["lengths"])

    err = max_gradient_error(loss, team.parameters(), samples_per_param=12,
                             rng=gen)
    return err <= 1e-3, f"worst rel err {err:.2e}"


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
