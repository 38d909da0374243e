"""Layer contracts: algebraic edge cases, masking, determinism, gradients."""

import numpy as np
import pytest

from marlab.errors import ConfigError, MaskError, ShapeError
from marlab.nn import (
    Dense,
    EncoderLayer,
    GRUCell,
    MultiHeadSelfAttention,
    Tensor,
    TrainContext,
)
from marlab.nn.gradcheck import max_gradient_error
from marlab.nn import tensor as T


def rng(seed=0):
    return np.random.default_rng(seed)


def zero_params(module):
    for p in module.parameters():
        p.data[...] = 0.0


class TestDense:
    def test_zero_weights_give_zero_output(self):
        layer = Dense(4, 3, rng(), "fc")
        zero_params(layer)
        x = Tensor(rng(1).standard_normal((2, 4)))
        assert np.all(layer(x).data == 0.0)

    def test_identity_weights_pass_input_through(self):
        layer = Dense(4, 4, rng(), "fc")
        layer.weight.data[...] = np.eye(4)
        layer.bias.data[...] = 0.0
        x = Tensor(rng(2).standard_normal((3, 4)))
        assert np.array_equal(layer(x).data, x.data)

    def test_gradients_match_finite_differences(self):
        layer = Dense(4, 3, rng(3), "fc")
        x = Tensor(rng(4).standard_normal((2, 4)))
        w = rng(5).standard_normal((2, 3))
        err = max_gradient_error(lambda: T.tsum(T.mul(layer(x), w)), layer.parameters())
        assert err <= 1e-4

    def test_width_mismatch_raises(self):
        layer = Dense(4, 3, rng(), "fc")
        with pytest.raises(ShapeError, match="4"):
            layer(Tensor(np.zeros((2, 5))))


class TestGRUCell:
    def test_zero_weights_halve_hidden_state(self):
        cell = GRUCell(3, 5, rng(), "gru")
        zero_params(cell)
        h = Tensor(rng(1).standard_normal((2, 5)))
        x = Tensor(rng(2).standard_normal((2, 3)))
        out = cell(x, h)
        assert np.allclose(out.data, 0.5 * h.data)

    def test_zero_weights_zero_hidden_gives_zero(self):
        cell = GRUCell(3, 5, rng(), "gru")
        zero_params(cell)
        out = cell(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 5))))
        assert np.all(out.data == 0.0)

    def test_gradients_match_finite_differences(self):
        # checks weights plus both inputs by promoting the inputs to parameters
        from marlab.nn import Parameter

        cell = GRUCell(3, 4, rng(6), "gru")
        xin = Parameter(rng(7).standard_normal((2, 3)), name="x")
        hin = Parameter(rng(8).standard_normal((2, 4)), name="h")
        w = rng(9).standard_normal((2, 4))
        params = cell.parameters() + [xin, hin]
        err = max_gradient_error(lambda: T.tsum(T.mul(cell(xin, hin), w)), params)
        assert err <= 1e-4

    def test_hidden_width_mismatch_raises(self):
        cell = GRUCell(3, 5, rng(), "gru")
        with pytest.raises(ShapeError):
            cell(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestAttention:
    def test_single_row_weight_is_one(self):
        attn = MultiHeadSelfAttention(8, 2, rng(10), "attn")
        h = Tensor(rng(11).standard_normal((1, 8)))
        out, weights = attn(h, return_weights=True)
        assert np.array_equal(weights, np.ones((1, 2, 1, 1)))   # (sets, heads, n, n)
        # with the lone attention weight pinned at 1, output is OutProj(ValueProj(h))
        v = attn.v_proj(h)
        expect = attn.out_proj(v)
        assert np.allclose(out.data, expect.data)

    def test_identical_rows_give_identical_outputs(self):
        attn = MultiHeadSelfAttention(8, 4, rng(12), "attn")
        row = rng(13).standard_normal((1, 8))
        h = Tensor(np.repeat(row, 5, axis=0))
        out = attn(h).data
        assert np.allclose(out, out[0])

    def test_mask_rows_sum_to_one_over_allowed(self):
        attn = MultiHeadSelfAttention(8, 2, rng(14), "attn")
        h = Tensor(rng(15).standard_normal((3, 8)))
        mask = np.array([
            [True, True, False],
            [True, True, False],
            [True, True, True],
        ])
        _, weights = attn(h, mask=mask, return_weights=True)
        assert weights.shape == (1, 2, 3, 3)
        for w in weights[0]:
            assert np.all(w[~mask] == 0.0)
            assert np.allclose(w.sum(axis=1), 1.0)

    def test_masked_row_equals_subset_computation(self):
        # masking row 2 away from everyone must reproduce attention on rows 0..1
        attn = MultiHeadSelfAttention(8, 2, rng(16), "attn")
        h3 = rng(17).standard_normal((3, 8))
        mask = np.array([
            [True, True, False],
            [True, True, False],
            [False, False, True],
        ])
        full = attn(Tensor(h3), mask=mask).data
        sub = attn(Tensor(h3[:2])).data
        assert np.allclose(full[:2], sub, atol=1e-12)

    def test_fully_masked_query_raises(self):
        attn = MultiHeadSelfAttention(8, 2, rng(18), "attn")
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(MaskError):
            attn(Tensor(np.zeros((2, 8))), mask=mask)

    def test_dim_not_divisible_by_heads_raises(self):
        with pytest.raises(ConfigError):
            MultiHeadSelfAttention(10, 4, rng(), "attn")
        with pytest.raises(ConfigError, match="heads"):
            MultiHeadSelfAttention(0, 2, rng(), "attn")

    def test_wrong_input_width_raises_in_the_q_projection(self):
        attn = MultiHeadSelfAttention(8, 2, rng(), "attn")
        with pytest.raises(ShapeError, match=r"affine: input \(2, 6\) does not match weight \(8, 8\)"):
            attn(Tensor(np.zeros((2, 6))))

    def test_gradients_match_finite_differences(self):
        attn = MultiHeadSelfAttention(8, 2, rng(19), "attn")
        x = Tensor(rng(20).standard_normal((3, 8)))
        w = rng(21).standard_normal((3, 8))
        err = max_gradient_error(lambda: T.tsum(T.mul(attn(x), w)), attn.parameters())
        assert err <= 1e-4


class TestEncoderLayer:
    def make(self, seed=22, dropout=0.1):
        return EncoderLayer(8, 2, 16, dropout, rng(seed), "enc")

    def test_eval_mode_is_deterministic(self):
        layer = self.make()
        x = Tensor(rng(23).standard_normal((4, 8)))
        a = layer(x).data
        b = layer(x).data
        assert np.array_equal(a, b)

    def test_train_mode_dropout_changes_with_step(self):
        layer = self.make()
        x = Tensor(rng(24).standard_normal((4, 8)))
        a = layer(x, ctx=TrainContext(seed=1, step=0)).data
        b = layer(x, ctx=TrainContext(seed=1, step=1)).data
        c = layer(x, ctx=TrainContext(seed=1, step=0)).data
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_permuted_rows_permute_outputs(self):
        layer = self.make()
        x = rng(25).standard_normal((5, 8))
        perm = rng(26).permutation(5)
        out = layer(Tensor(x)).data
        out_perm = layer(Tensor(x[perm])).data
        assert np.allclose(out_perm, out[perm], atol=1e-10)

    def test_gradients_match_finite_differences(self):
        layer = self.make(dropout=0.0)
        x = Tensor(rng(27).standard_normal((3, 8)))
        w = rng(28).standard_normal((3, 8))
        err = max_gradient_error(lambda: T.tsum(T.mul(layer(x), w)), layer.parameters())
        assert err <= 1e-3
