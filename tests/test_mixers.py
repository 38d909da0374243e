"""Mixer contracts: additive exactness, monotonicity, gradients."""

import numpy as np
import pytest

from marlab.errors import ConfigError, ShapeError
from marlab.mixers import QmixMixer, VdnMixer, make_mixer, mix_values
from marlab.nn import Parameter, Tensor
from marlab.nn import tensor as T

from gradients import check_op


class TestVdn:
    def test_sum_is_exact(self):
        mixer = VdnMixer(3)
        out = mixer(Tensor([[1.0, 2.0, -0.5]]))
        assert out.data[0, 0] == 2.5

    def test_batch_rows_mix_independently(self):
        mixer = VdnMixer(2)
        q = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert np.array_equal(mix_values(mixer, q, np.zeros((2, 1))), [3.0, 2.0])

    def test_gradient_through_locals(self):
        mixer = VdnMixer(3)
        q = Parameter(np.random.default_rng(0).standard_normal((2, 3)), name="q")
        check_op(lambda: T.tsum(mixer(q)), [q], tol=1e-3)

    def test_wrong_width_raises(self):
        with pytest.raises(ShapeError):
            VdnMixer(3)(Tensor(np.zeros((1, 2))))


class TestQmix:
    def make(self, n=3, state_dim=5, seed=0):
        return QmixMixer(n, state_dim, seed=seed)

    def test_monotonic_in_every_local_q(self):
        mixer = self.make()
        gen = np.random.default_rng(1)
        delta = 1e-4
        for _ in range(1000):
            q = gen.standard_normal(3)
            s = gen.standard_normal(5)
            for i in range(3):
                up, down = q.copy(), q.copy()
                up[i] += delta
                down[i] -= delta
                hi = mix_values(mixer, up[None, :], s[None, :])[0]
                lo = mix_values(mixer, down[None, :], s[None, :])[0]
                assert (hi - lo) / (2 * delta) >= -1e-6

    def test_zeroed_hypernets_give_zero_output(self):
        mixer = self.make()
        for p in mixer.parameters():
            p.data[...] = 0.0
        q = np.random.default_rng(2).standard_normal((4, 3))
        s = np.random.default_rng(3).standard_normal((4, 5))
        assert np.all(mix_values(mixer, q, s) == 0.0)

    def test_gradients_match_finite_differences(self):
        mixer = self.make(seed=4)
        gen = np.random.default_rng(5)
        q = Parameter(gen.standard_normal((2, 3)), name="q")
        s = Parameter(gen.standard_normal((2, 5)), name="s")
        params = mixer.parameters() + [q, s]
        check_op(lambda: T.tsum(mixer(q, s)), params, tol=1e-3)

    def test_state_width_mismatch_raises(self):
        mixer = self.make()
        with pytest.raises(ShapeError, match=r"affine: input \(1, 4\) does not match"):
            mixer(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))


def test_make_mixer_dispatch():
    assert isinstance(make_mixer("vdn", 2, 3, 0), VdnMixer)
    assert isinstance(make_mixer("qmix", 2, 3, 0), QmixMixer)
    with pytest.raises(ConfigError):
        make_mixer("qplex", 2, 3, 0)
