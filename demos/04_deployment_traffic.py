#!/usr/bin/env python3
"""Walkthrough: deploying the communication step, centrally or peer-to-peer.

A central aggregation node costs 2n vector transfers per step regardless of
stack depth; the peer-to-peer variant exchanges rows once per encoder layer
and masks attention by reachability.  Under full connectivity the two are
numerically interchangeable.
"""

import numpy as np

from marlab.comm import CommSettings, CommStack
from marlab.netsim import Topology, centralized_round, distributed_round

stack = CommStack(CommSettings(num_layers=3, ffn_dim=64, heads=4, dropout=0.1),
                  model_dim=32, seed=1)
rng = np.random.default_rng(3)
stack.out_proj.weight.data[...] = rng.standard_normal((32, 32)) * 0.3

print("== traffic accounting ==")
print(f"{'agents':>7} {'central msgs':>13} {'central floats':>15} "
      f"{'p2p msgs':>9} {'p2p floats':>11} {'rounds':>7}")
for n in (2, 4, 8, 27):
    h = rng.standard_normal((n, 32))
    _, c = centralized_round(stack, h)
    _, d = distributed_round(stack, h, Topology.full(n))
    print(f"{n:7d} {c.messages:13d} {c.floats_transferred:15d} "
          f"{d.messages:9d} {d.floats_transferred:11d} {d.rounds:7d}")
print("central transfers grow linearly with the team; peer-to-peer pays")
print("layers * n * (n-1) directed sends.")

print("\n== the two modes agree under full connectivity ==")
h = rng.standard_normal((6, 32))
z_c, _ = centralized_round(stack, h)
z_d, _ = distributed_round(stack, h, Topology.full(6))
print(f"max |central - distributed| over a 6-agent round: "
      f"{np.abs(z_c - z_d).max():.2e}")

print("\n== losing contact ==")
topo = Topology.isolate(6, agent=5)
z_iso, stats = distributed_round(stack, h, topo)
z_rest, _ = centralized_round(stack, h[:5])
print(f"agent 5 out of range: messages drop to {stats.messages} "
      f"(full would be {3 * 6 * 5})")
print(f"the remaining five agents compute exactly what a 5-agent round "
      f"would: max gap {np.abs(z_iso[:5] - z_rest).max():.2e}")
print("the isolated agent still hears itself, so nothing degenerates.")
