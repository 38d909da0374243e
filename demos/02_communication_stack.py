#!/usr/bin/env python3
"""Walkthrough: the inter-agent communication stack.

Three properties make the stack safe to bolt onto any value-decomposition
learner: it starts as an exact no-op (zero-initialized output projection),
it treats the team as a set (permutation equivariance), and its parameter
count never depends on how many agents use it.
"""

import numpy as np

from marlab.comm import CommSettings, CommStack
from marlab.nn import Tensor, no_grad

settings = CommSettings(num_layers=2, ffn_dim=64, heads=4, dropout=0.1)
stack = CommStack(settings, model_dim=32, seed=42)
rng = np.random.default_rng(0)

print("== exact passthrough at initialization ==")
h = rng.standard_normal((5, 32))
with no_grad():
    z = stack(Tensor(h)).data
print(f"max |increment| fresh from init: {np.abs(z).max()}  (exactly zero)")
print("so hidden + increment == hidden bit for bit: the learner behaves as")
print("if communication were absent until the output projection moves.")

print("\n== permutation equivariance ==")
stack.out_proj.weight.data[...] = rng.standard_normal((32, 32)) * 0.3  # pretend trained
perm = rng.permutation(5)
with no_grad():
    z = stack(Tensor(h)).data
    z_perm = stack(Tensor(h[perm])).data
print(f"permutation: {perm}")
print(f"max |communicate(perm(H)) - perm(communicate(H))| = "
      f"{np.abs(z_perm - z[perm]).max():.2e}")

print("\n== parameter count is a function of shape only ==")
for n in (2, 8, 27):
    with no_grad():
        stack(Tensor(rng.standard_normal((n, 32))))
    print(f"team of {n:2d} agents -> {stack.param_count()} parameters")

print("\n== masked attention: who hears whom ==")
mask = np.array([
    [True, True, False],
    [True, True, False],
    [False, False, True],
])
h3 = rng.standard_normal((3, 32))
with no_grad():
    z_masked = stack(Tensor(h3), mask=mask).data
    z_pair = stack(Tensor(h3[:2])).data
gap = np.abs(z_masked[:2] - z_pair).max()
print("agent 2 cut off from agents 0 and 1:")
print(f"rows 0-1 match a run on just the pair, max gap {gap:.2e}")
