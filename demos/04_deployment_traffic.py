#!/usr/bin/env python3
"""Walkthrough: deploying the communication step, centrally or peer-to-peer.

A central aggregation node runs the stack's forward, comm(h), and costs 2n
vector transfers per step regardless of stack depth.  The peer-to-peer
variant exchanges rows once per encoder layer; what each agent computes
from the rows it hears is the masked forward, comm(h, mask=reachable).
Under full connectivity the two are numerically interchangeable.
"""

import numpy as np

from marlab.comm import CommSettings, CommStack
from marlab.netsim import Topology, centralized_traffic, distributed_traffic
from marlab.nn import Tensor, no_grad

stack = CommStack(CommSettings(num_layers=3, ffn_dim=64, heads=4, dropout=0.1),
                  model_dim=32, seed=1)
rng = np.random.default_rng(3)
stack.out_proj.weight.data[...] = rng.standard_normal((32, 32)) * 0.3

print("== traffic accounting ==")
print(f"{'agents':>7} {'central msgs':>13} {'central floats':>15} "
      f"{'p2p msgs':>9} {'p2p floats':>11} {'rounds':>7}")
for n in (2, 4, 8, 27):
    c = centralized_traffic(n, 32)
    d = distributed_traffic(Topology.full(n), 3, 32)
    print(f"{n:7d} {c.messages:13d} {c.floats_transferred:15d} "
          f"{d.messages:9d} {d.floats_transferred:11d} {d.rounds:7d}")
print("central transfers grow linearly with the team; peer-to-peer pays")
print("layers * n * (n-1) directed sends.")

print("\n== the two modes agree under full connectivity ==")
h = rng.standard_normal((6, 32))
with no_grad():
    z_c = stack(Tensor(h)).data
    z_d = stack(Tensor(h), mask=Topology.full(6).reachable).data
print(f"max |central - distributed| over a 6-agent round: "
      f"{np.abs(z_c - z_d).max():.2e}")

print("\n== losing contact ==")
topo = Topology.isolate(6, agent=5)
with no_grad():
    z_iso = stack(Tensor(h), mask=topo.reachable).data
    z_rest = stack(Tensor(h[:5])).data
print(f"agent 5 out of range: messages drop to "
      f"{distributed_traffic(topo, 3, 32).messages} (full would be {3 * 6 * 5})")
print(f"the remaining five agents compute exactly what a 5-agent round "
      f"would: max gap {np.abs(z_iso[:5] - z_rest).max():.2e}")
print("the isolated agent still hears itself, so nothing degenerates.")
