#!/usr/bin/env python3
"""Walkthrough: value-decomposition mixers and the exploration scheme.

The additive mixer sums local values exactly; the monotonic mixer builds
its weights from the global state but can never flip the sign of a local
improvement.  Exploration blends epsilon-greedy with a softmax over each
agent's top-k actions.
"""

import numpy as np

from marlab.exploration import ExplorationConfig, action_distribution
from marlab.mixers import QmixMixer, VdnMixer, mix_values

rng = np.random.default_rng(7)

print("== additive mixing is an exact sum ==")
vdn = VdnMixer(3)
q = np.array([[1.0, 2.0, -0.5]])
print(f"locals {q[0]} -> joint {mix_values(vdn, q, np.zeros((1, 1)))[0]}")

print("\n== monotonic mixing: finite-difference slopes stay nonnegative ==")
qmix = QmixMixer(n_agents=3, state_dim=5, seed=0)
worst = np.inf
for _ in range(500):
    locals_ = rng.standard_normal(3)
    state = rng.standard_normal(5)
    i = rng.integers(3)
    up, down = locals_.copy(), locals_.copy()
    up[i] += 1e-4
    down[i] -= 1e-4
    hi, lo = mix_values(qmix, np.stack([up, down]), np.stack([state, state]))
    worst = min(worst, (hi - lo) / 2e-4)
print(f"minimum d(joint)/d(local) over 500 random probes: {worst:.4f}")
print("raising any agent's local value never lowers the joint value.")

print("\n== exploration: top-2 softmax on top of epsilon-greedy ==")
q_vals = np.array([[3.0, 1.0, 0.0]])   # one agent's row
avail = np.ones((1, 3), dtype=bool)
for tau in (0.0, 0.33, 1.0, 4.0):
    p = action_distribution(q_vals, avail, ExplorationConfig(k=2, temperature=tau), 0.1)[0]
    print(f"tau {tau:4.2f}: {np.round(p, 4)}")
print("tau 0 recovers plain epsilon-greedy; higher temperatures push more")
print("probability onto the runner-up, so pairs of agents try their")
print("second-best actions together instead of deviating alone.")

print("\n== k = 1 is exactly epsilon-greedy ==")
for eps in (0.0, 0.3, 1.0):
    a = action_distribution(q_vals, avail, ExplorationConfig(k=1, temperature=0.7), eps)[0]
    b = action_distribution(q_vals, avail, ExplorationConfig(k=3, temperature=0.0), eps)[0]
    print(f"eps {eps:.1f}: k=1 dist {np.round(a, 4)}  == tau=0 dist {np.round(b, 4)}")
