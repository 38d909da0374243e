"""Deployment: reachability input, traffic arithmetic, and the masked forward.

The centralized node runs comm(h); the distributed computation is
comm(h, mask=reachable).
"""

import json

import numpy as np
import pytest

from marlab.comm import CommSettings, CommStack
from marlab.errors import ConfigError, ShapeError
from marlab.netsim import Topology, TrafficStats, centralized_traffic, distributed_traffic
from marlab.nn import Tensor, no_grad


def warmed_stack(layers=2, dim=8, seed=0):
    stack = CommStack(CommSettings(num_layers=layers, ffn_dim=16, heads=2, dropout=0.1),
                      model_dim=dim, seed=seed)
    gen = np.random.default_rng(seed + 50)
    stack.out_proj.weight.data[...] = gen.standard_normal(stack.out_proj.weight.shape) * 0.4
    stack.out_proj.bias.data[...] = gen.standard_normal(stack.out_proj.bias.shape) * 0.1
    return stack


def increments(stack, h, topology=None):
    """comm(h), or with a topology the masked forward that the peers compute."""
    mask = topology.reachable if topology is not None else None
    with no_grad():
        return stack(Tensor(h), mask=mask).data


class TestTopology:
    def test_missing_self_reach_rejected(self):
        reach = np.ones((3, 3), dtype=bool)
        reach[1, 1] = False
        with pytest.raises(ConfigError):
            Topology(reach)

    def test_directed_links_count(self):
        reach = np.eye(3, dtype=bool)
        reach[0, 1] = True
        assert Topology(reach).directed_links() == 1
        assert Topology.full(4).directed_links() == 12

    def test_json_roundtrip(self, tmp_path):
        topo = Topology.isolate(4, 2)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"n": 4, "reachable": topo.reachable.astype(int).tolist()}))
        loaded = Topology.from_json(path)
        assert np.array_equal(loaded.reachable, topo.reachable)

    @pytest.mark.parametrize("spec", [
        {"n": 2},                               # KeyError
        {"reachable": [[1, 0], [0]]},           # ragged rows
        {"reachable": [[1, 0, 1], [0, 1, 1]]},  # not square
        [[1, 0], [0, 1]],                       # not an object
        {"reachable": [[1, "no"], [0, 1]]},     # truthy string
        {"reachable": [[1, 0.5], [0, 1]]},      # fraction
        {"reachable": [[1.0, 0], [0, 1]]},      # float one
        {"reachable": [[1, 0], [-3, 1]]},       # negative integer
        {"reachable": [[1, 0], [None, 1]]},     # null
        {"reachable": 5},                       # not a list of rows
    ])
    def test_malformed_json_rejected(self, tmp_path, spec):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ConfigError, match="topo.json"):
            Topology.from_json(path)

    def test_json_booleans_accepted(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"reachable": [[True, False], [1, True]]}))
        assert Topology.from_json(path).reachable.tolist() == [[True, False], [True, True]]

    def test_asymmetric_reachability_allowed(self):
        reach = np.eye(2, dtype=bool)
        reach[0, 1] = True  # 0 hears 1, but 1 does not hear 0
        topo = Topology(reach)
        assert topo.reachable[0, 1] and not topo.reachable[1, 0]


class TestTrafficAccounting:
    def test_centralized_floats_formula(self):
        stats = centralized_traffic(8, 64)
        assert stats.floats_transferred == 2 * 8 * 64 == 1024
        assert stats.messages == 16 and stats.rounds == 1

    def test_centralized_stats_independent_of_depth(self):
        # the formula takes no depth: one round up and one back for any stack
        assert centralized_traffic(4, 8) == TrafficStats(messages=8, floats_transferred=64,
                                                         rounds=1)

    def test_distributed_full_connectivity_formula(self):
        stats = distributed_traffic(Topology.full(4), 3, 8)
        assert stats.messages == 3 * 4 * 3 == 36
        assert stats.floats_transferred == 36 * 8
        assert stats.rounds == 3

    def test_partial_topology_sends_fewer_messages(self):
        stats = distributed_traffic(Topology.isolate(4, 0), 2, 8)
        assert stats.messages == 2 * 3 * 2  # only the 3 connected agents talk


class TestModeEquivalence:
    def test_full_topology_matches_centralized(self):
        stack = warmed_stack(layers=2)
        gen = np.random.default_rng(4)
        for n in (1, 2, 5):
            h = gen.standard_normal((n, 8))
            z_c = increments(stack, h)
            z_d = increments(stack, h, Topology.full(n))
            assert np.abs(z_c - z_d).max() <= 1e-6

    def test_isolated_agent_leaves_others_as_subset_run(self):
        stack = warmed_stack(layers=2, seed=7)
        h = np.random.default_rng(6).standard_normal((4, 8))
        z_full = increments(stack, h, Topology.isolate(4, 3))
        z_sub = increments(stack, h[:3])
        assert np.allclose(z_full[:3], z_sub, atol=1e-12)

    def test_single_layer_increment_depends_only_on_in_neighborhood(self):
        # one exchange round: agent 0 hears only {0, 1}, so agent 2's state
        # cannot move agent 0's increment
        stack = warmed_stack(layers=1, seed=9)
        reach = np.eye(3, dtype=bool)
        reach[0, 1] = True
        reach[1, :] = True
        reach[2, :] = True
        topo = Topology(reach)
        gen = np.random.default_rng(7)
        h = gen.standard_normal((3, 8))
        h_mod = h.copy()
        h_mod[2] += gen.standard_normal(8)
        z_a = increments(stack, h, topo)
        z_b = increments(stack, h_mod, topo)
        assert np.array_equal(z_a[0], z_b[0])
        assert not np.allclose(z_a[1], z_b[1])

    def test_multi_layer_dependence_respects_reach_closure(self):
        # with several rounds, influence travels hop by hop: a group that is
        # closed under "who do I hear" stays unaffected by outsiders, even
        # when outsiders hear the group
        stack = warmed_stack(layers=2, seed=11)
        reach = np.eye(3, dtype=bool)
        reach[0, 1] = reach[1, 0] = True  # {0, 1} hear each other only
        reach[2, :] = True  # agent 2 listens to everyone
        topo = Topology(reach)
        gen = np.random.default_rng(8)
        h = gen.standard_normal((3, 8))
        h_mod = h.copy()
        h_mod[2] += gen.standard_normal(8)
        z_a = increments(stack, h, topo)
        z_b = increments(stack, h_mod, topo)
        assert np.array_equal(z_a[:2], z_b[:2])
        assert not np.allclose(z_a[2], z_b[2])

    def test_topology_size_mismatch_raises(self):
        stack = warmed_stack()
        with pytest.raises(ShapeError):
            increments(stack, np.zeros((3, 8)), Topology.full(4))

    def test_hidden_width_mismatch_raises_in_both_rounds(self):
        stack = warmed_stack(dim=8)
        with pytest.raises(ShapeError, match=r"gamma \(1, 8\)"):
            increments(stack, np.zeros((3, 6)))
        with pytest.raises(ShapeError, match=r"gamma \(1, 8\)"):
            increments(stack, np.zeros((3, 6)), Topology.full(3))
