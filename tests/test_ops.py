"""Tensor primitive tests: hand-computed examples plus finite-difference
gradient oracles for every backward pass."""

import numpy as np
import pytest

from brainalign import ops
from brainalign.errors import ConfigurationError
from brainalign.ops import ConvSpec

from helpers import numeric_grad, relerr


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

class TestConvForward:
    def test_one_by_one_kernel_scales(self):
        out = ops.conv2d_forward(np.ones((1, 1, 3, 3)), np.full((1, 1, 1, 1), 2.0),
                                 ConvSpec(1, 1, 1))
        assert out.shape == (1, 1, 3, 3)
        assert np.array_equal(out, np.full((1, 1, 3, 3), 2.0))

    def test_hand_multiply_accumulate(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        out = ops.conv2d_forward(x, w, ConvSpec(1, 1, 2))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 5.0

    def test_zero_input_gives_zeros(self, rng):
        w = rng.normal(size=(4, 2, 3, 3))
        out = ops.conv2d_forward(np.zeros((2, 2, 6, 6)), w, ConvSpec(2, 4, 3, padding=1))
        assert out.shape == (2, 4, 6, 6) and not out.any()

    def test_linearity(self, rng):
        spec = ConvSpec(3, 2, 3, padding=1)
        w = rng.normal(size=(2, 3, 3, 3))
        x, y = rng.normal(size=(2, 2, 3, 5, 5))
        lhs = ops.conv2d_forward(1.7 * x - 0.3 * y, w, spec)
        rhs = 1.7 * ops.conv2d_forward(x, w, spec) - 0.3 * ops.conv2d_forward(y, w, spec)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_output_shape_formula(self):
        spec = ConvSpec(1, 1, 3, stride=2, padding=1)
        out = ops.conv2d_forward(np.zeros((1, 1, 7, 7)), np.zeros((1, 1, 3, 3)), spec)
        assert out.shape[2] == (7 + 2 - 3) // 2 + 1

    def test_shape_mismatch_names_both_shapes(self, rng):
        spec = ConvSpec(3, 2, 3)
        with pytest.raises(ConfigurationError) as e:
            ops.conv2d_forward(np.zeros((1, 4, 5, 5)), rng.normal(size=(2, 3, 3, 3)), spec)
        assert "(1, 4, 5, 5)" in str(e.value)

    def test_capped_chunks_match_whole_batch_gemm(self, rng):
        # conv1 at 224 px: one image's im2col is larger than one block, so
        # each image is copied and multiplied in several runs of rows
        spec = ConvSpec(3, 32, 3, padding=1)
        assert ops._CONV_BLOCK_CELLS // (27 * 224) < 224
        x = rng.random(size=(2, 3, 224, 224))
        w = rng.normal(size=spec.weight_shape)
        assert np.array_equal(ops.conv2d_forward(x, w, spec), conv_forward_reference(x, w, spec))

    # (B, H, W, spec, blocks). Wo is a multiple of 8 and no block is small,
    # as at every layer of the network, so each block's GEMM sums each dot
    # product in the order the whole-batch GEMM does
    @pytest.mark.parametrize("B, H, W, spec, blocks", [
        (3, 8, 16, ConvSpec(3, 4, 3, padding=1), "one"),
        (2, 15, 32, ConvSpec(4, 6, 3, stride=2, padding=1), "one"),
        (3, 10, 18, ConvSpec(2, 5, 3, padding=0), "one"),
        (1, 12, 32, ConvSpec(3, 4, 2, stride=2), "one"),
        (2, 24, 112, ConvSpec(32, 64, 3, padding=1), "rows"),
        (1, 30, 114, ConvSpec(32, 64, 3, padding=0), "rows"),
        (1, 79, 111, ConvSpec(64, 128, 3, stride=2, padding=1), "rows"),
    ])
    def test_blocks_match_whole_batch_gemm(self, rng, B, H, W, spec, blocks):
        Ho, Wo = spec.out_size(H), spec.out_size(W)
        K = spec.in_channels * spec.kernel_size ** 2
        if blocks == "one":   # every image in one block
            assert B * K * Ho * Wo <= ops._CONV_BLOCK_CELLS
        else:                 # several runs of rows per image
            assert ops._CONV_BLOCK_CELLS // (K * Wo) < Ho
        x = rng.normal(size=(B, spec.in_channels, H, W))
        w = rng.normal(size=spec.weight_shape)
        assert np.array_equal(ops.conv2d_forward(x, w, spec), conv_forward_reference(x, w, spec))

    # a ragged Wo and a one-row last block: the BLAS may sum in another order
    @pytest.mark.parametrize("B, H, W, spec", [
        (3, 7, 5, ConvSpec(2, 3, 3, padding=1)),
        (2, 113, 13, ConvSpec(64, 4, 3, stride=2, padding=1)),
    ])
    def test_ragged_blocks_match_to_rounding(self, rng, B, H, W, spec):
        x = rng.normal(size=(B, spec.in_channels, H, W))
        w = rng.normal(size=spec.weight_shape)
        np.testing.assert_allclose(ops.conv2d_forward(x, w, spec),
                                   conv_forward_reference(x, w, spec), rtol=0, atol=1e-12)


def conv_forward_reference(x, w, spec):
    """The conv forward as one tensordot over the whole batch."""
    whole = np.tensordot(w, ops.conv_windows(x, spec), axes=([1, 2, 3], [1, 4, 5]))
    return whole.transpose(1, 0, 2, 3)


class TestConvBackward:
    def test_zero_grad_out(self, rng):
        spec = ConvSpec(2, 3, 3, padding=1)
        x = rng.normal(size=(2, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        g = np.zeros((2, 3, 4, 4))
        gx = ops.conv2d_input_grad(g, w, spec, x.shape[2:])
        gw = ops.conv2d_weight_grad(g, x, spec)
        assert not gx.any() and not gw.any()

    def test_scalar_case_product_rule(self):
        # 1x1 kernel on a 1x1 image: grad_w = grad_out * input
        spec = ConvSpec(1, 1, 1)
        x = np.full((1, 1, 1, 1), 3.0)
        w = np.full((1, 1, 1, 1), -2.0)
        g = np.full((1, 1, 1, 1), 5.0)
        gx = ops.conv2d_input_grad(g, w, spec, x.shape[2:])
        gw = ops.conv2d_weight_grad(g, x, spec)
        assert gw[0, 0, 0, 0] == 15.0
        assert gx[0, 0, 0, 0] == -10.0

    @pytest.mark.parametrize("spec,in_hw", [
        (ConvSpec(4, 3, 3, stride=1, padding=0), (5, 5)),
        (ConvSpec(4, 3, 3, stride=1, padding=1), (5, 5)),
        (ConvSpec(2, 2, 3, stride=2, padding=1), (7, 7)),
        (ConvSpec(1, 2, 2, stride=2, padding=0), (6, 6)),
        (ConvSpec(2, 3, 3, stride=2, padding=1), (7, 4)),
    ])
    def test_matches_finite_differences(self, rng, spec, in_hw):
        x = rng.normal(size=(2, spec.in_channels) + in_hw)
        w = rng.normal(size=spec.weight_shape)

        def loss(x, w):
            return float(np.sum(ops.conv2d_forward(x, w, spec) * proj))

        proj = rng.normal(size=ops.conv2d_forward(x, w, spec).shape)
        gx = ops.conv2d_input_grad(proj, w, spec, x.shape[2:])
        gw = ops.conv2d_weight_grad(proj, x, spec)
        assert relerr(gx, numeric_grad(lambda v: loss(v, w), x)) < 1e-4
        assert relerr(gw, numeric_grad(lambda v: loss(x, v), w)) < 1e-4


def direct_conv(x, w, spec, grad_out):
    """Direct-sum reference: each output position sums over its own padded
    window; the gradients scatter back through the same windows."""
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    Ho, Wo = grad_out.shape[2:]
    out = np.empty(grad_out.shape)
    gxp, gw = np.zeros(xp.shape), np.zeros(w.shape)
    for i in range(Ho):
        for j in range(Wo):
            rows, cols = slice(i * s, i * s + k), slice(j * s, j * s + k)
            out[:, :, i, j] = np.einsum("bcuv,ocuv->bo", xp[:, :, rows, cols], w)
            gxp[:, :, rows, cols] += np.einsum("bo,ocuv->bcuv", grad_out[:, :, i, j], w)
            gw += np.einsum("bo,bcuv->ocuv", grad_out[:, :, i, j], xp[:, :, rows, cols])
    return out, gxp[:, :, p : p + x.shape[2], p : p + x.shape[3]], gw


class TestConvOracle:
    @pytest.mark.parametrize("spec,shape", [
        (ConvSpec(3, 4, 3, padding=1), (2, 3, 7, 5)),             # H != W
        (ConvSpec(2, 3, 3, stride=2), (2, 2, 8, 7)),              # trailing row 7 unused
        (ConvSpec(2, 3, 2, padding=3), (1, 2, 4, 3)),             # padding >= k
        (ConvSpec(4, 6, 3, padding=1), (13, 4, 5, 6)),            # 7 chunks of 2, last of 1
    ])
    def test_matches_direct_sum(self, rng, spec, shape):
        x = rng.normal(size=shape)
        w = rng.normal(size=spec.weight_shape)
        Ho, Wo = spec.out_size(shape[2]), spec.out_size(shape[3])
        g = rng.normal(size=(shape[0], spec.out_channels, Ho, Wo))
        out, gx, gw = direct_conv(x, w, spec, g)
        np.testing.assert_allclose(ops.conv2d_forward(x, w, spec), out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ops.conv2d_input_grad(g, w, spec, shape[2:]), gx,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(ops.conv2d_weight_grad(g, x, spec), gw, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# maxpool 2x2
# ---------------------------------------------------------------------------

class TestMaxPool:
    def test_unique_max_routes_gradient(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = ops.maxpool2x2_forward(x)
        assert out[0, 0, 0, 0] == 4.0
        g = ops.maxpool2x2_backward(np.full((1, 1, 1, 1), 7.0), x, out)
        assert g[0, 0, 1, 1] == 7.0
        assert np.sum(g != 0) == 1

    def test_tie_break_first_in_scan_order(self):
        x = np.full((1, 1, 4, 4), 3.3)
        out = ops.maxpool2x2_forward(x)
        assert np.all(ops._pool_argmax(x, out) == 0)
        g = ops.maxpool2x2_backward(np.ones((1, 1, 2, 2)), x, out)
        # gradient lands on the top-left corner of every window
        assert np.array_equal(g[0, 0], np.array([[1, 0, 1, 0], [0, 0, 0, 0],
                                                 [1, 0, 1, 0], [0, 0, 0, 0]], dtype=float))

    def test_gradient_sum_conserved_exactly(self, rng):
        x = rng.normal(size=(3, 4, 8, 6))
        out = ops.maxpool2x2_forward(x)
        g_out = rng.normal(size=out.shape)
        g_in = ops.maxpool2x2_backward(g_out, x, out)
        assert np.sum(g_in) == np.sum(g_out)

    def test_odd_dims_truncated(self, rng):
        x = rng.normal(size=(1, 2, 5, 7))
        out = ops.maxpool2x2_forward(x)
        assert out.shape == (1, 2, 2, 3)
        g = ops.maxpool2x2_backward(np.ones_like(out), x, out)
        assert g.shape == x.shape
        assert not g[:, :, 4, :].any() and not g[:, :, :, 6].any()

    def test_finite_differences_no_ties(self, rng):
        x = rng.permutation(2 * 3 * 6 * 6).reshape(2, 3, 6, 6).astype(float)
        out = ops.maxpool2x2_forward(x)
        proj = rng.normal(size=out.shape)
        g = ops.maxpool2x2_backward(proj, x, out)
        num = numeric_grad(lambda v: float(np.sum(ops.maxpool2x2_forward(v) * proj)), x)
        assert relerr(g, num) < 1e-4

    @pytest.mark.parametrize("kind", ["integer_ties", "relu_zeros"])
    def test_matches_per_window_loop(self, rng, kind):
        shape = (2, 3, 7, 9)
        if kind == "integer_ties":
            x = rng.integers(0, 3, shape).astype(float)
        else:
            x = np.maximum(rng.normal(size=shape), 0.0)
        out = ops.maxpool2x2_forward(x)
        g_out = rng.normal(size=out.shape)
        g_in = ops.maxpool2x2_backward(g_out, x, out)
        want_out, want_idx = np.zeros(out.shape), np.zeros(out.shape, dtype=int)
        want_g = np.zeros(shape)
        for b, c, i, j in np.ndindex(out.shape):
            window = [x[b, c, 2 * i + di, 2 * j + dj] for di in (0, 1) for dj in (0, 1)]
            k = window.index(max(window))  # the first maximum in row-major order
            want_out[b, c, i, j], want_idx[b, c, i, j] = window[k], k
            want_g[b, c, 2 * i + k // 2, 2 * j + k % 2] = g_out[b, c, i, j]
        assert np.array_equal(out, want_out)
        assert np.array_equal(ops._pool_argmax(x, out), want_idx)
        assert np.array_equal(g_in, want_g)

    # below one block, runs of channels, and one plane per block
    @pytest.mark.parametrize("shape", [(5, 3, 7, 9), (2, 5, 101, 301), (1, 2, 401, 367)])
    def test_blocks_match_corner_max(self, rng, shape):
        x = rng.normal(size=shape)
        c0, c1, c2, c3 = (x[:, :, i : shape[2] - 1 : 2, j : shape[3] - 1 : 2]
                          for i in (0, 1) for j in (0, 1))
        out = ops.maxpool2x2_forward(x)
        assert np.array_equal(out, np.maximum(np.maximum(np.maximum(c0, c1), c2), c3))

    # odd and even sides, repeated values with +-inf, and a non-contiguous
    # input (every other channel of a larger map, transposed in H and W)
    @pytest.mark.parametrize("kind", ["normal", "repeats_and_inf", "non_contiguous"])
    @pytest.mark.parametrize("H", [2, 3, 5, 7])
    @pytest.mark.parametrize("W", [2, 3, 5, 7])
    def test_equals_max_of_corner_views(self, rng, kind, H, W):
        if kind == "normal":
            x = rng.normal(size=(2, 3, H, W))
        elif kind == "repeats_and_inf":
            x = rng.choice([-np.inf, -1.0, 0.0, 2.0, np.inf], size=(2, 3, H, W))
        else:
            x = rng.normal(size=(2, 6, W, H))[:, ::2].transpose(0, 1, 3, 2)
            assert not x.flags.c_contiguous
        before = x.copy()
        out = ops.maxpool2x2_forward(x)
        assert np.array_equal(out, np.maximum.reduce(ops._pool_corners(x)))
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("grad_shape, out_shape", [
        ((1, 2, 2, 3), (1, 2, 2, 2)), ((1, 2, 2, 2), (1, 2, 2, 3)), ((1, 2, 3, 3), (1, 2, 3, 3))])
    def test_backward_shape_mismatch_rejected(self, grad_shape, out_shape):
        # grad_out, out and the pooled shape of x [1,2,5,7] must all agree
        with pytest.raises(ConfigurationError, match="pooled shape"):
            ops.maxpool2x2_backward(np.ones(grad_shape), np.ones((1, 2, 5, 7)),
                                    np.ones(out_shape))

    def test_argmax_int8_nan_and_neg_inf_windows(self):
        nan, inf = np.nan, np.inf
        windows = [[nan, 1, 2, 3], [1, nan, 5, 0], [0, 0, 0, nan], [nan] * 4,
                   [-inf] * 4, [-inf, 2, -inf, 2]]
        # window k, corners in row-major order, at columns 2k, 2k+1
        x = np.array(windows).reshape(-1, 2, 2).transpose(1, 0, 2).reshape(1, 1, 2, -1)
        out = ops.maxpool2x2_forward(x)
        argmax = ops._pool_argmax(x, out)
        assert argmax.dtype == np.int8
        assert argmax.ravel().tolist() == [3, 3, 3, 3, 0, 1]
        assert np.array_equal(out.ravel(), [nan, nan, nan, nan, -inf, 2], equal_nan=True)


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------

class TestBatchNorm:
    def test_train_mode_normalizes(self, rng):
        x = rng.normal(2.0, 3.0, size=(8, 3, 6, 6))
        out, _ = ops.batchnorm_forward(x, np.ones(3), np.zeros(3),
                                       np.zeros(3), np.ones(3), "train")
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(out.var(axis=(0, 2, 3)) - 1).max() < 1e-4

    def test_gamma_zero_gives_beta(self, rng):
        x = rng.normal(size=(4, 2, 5, 5))
        beta = np.array([0.7, -0.2])
        out, _ = ops.batchnorm_forward(x, np.zeros(2), beta, np.zeros(2), np.ones(2), "train")
        assert np.allclose(out[:, 0], 0.7) and np.allclose(out[:, 1], -0.2)

    def test_train_mode_cancels_a_per_channel_constant(self, rng):
        # why a conv block has no bias: the batch mean absorbs one, and the
        # input gradient summed per channel, which a bias would receive, is 0
        z = rng.normal(size=(4, 3, 5, 5))
        c = rng.normal(scale=3.0, size=(1, 3, 1, 1))
        gamma, beta = rng.normal(1.0, 0.3, size=3), rng.normal(size=3)
        out, cache = ops.batchnorm_forward(z, gamma, beta, np.zeros(3), np.ones(3), "train")
        shifted, _ = ops.batchnorm_forward(z + c, gamma, beta, np.zeros(3), np.ones(3), "train")
        assert np.abs(shifted - out).max() < 1e-13
        grad_x, _, _ = ops.batchnorm_backward(rng.normal(size=z.shape), cache)
        assert np.abs(grad_x).max() > 0.1
        assert np.abs(grad_x.sum(axis=(0, 2, 3))).max() < 1e-13

    def test_running_stats_update_and_eval(self, rng):
        mean, var = np.zeros(2), np.ones(2)
        x = rng.normal(1.0, 2.0, size=(16, 2, 4, 4))
        ops.batchnorm_forward(x, np.ones(2), np.zeros(2), mean, var, "train")
        # momentum 0.1 from (0, 1) init
        mu = x.mean(axis=(0, 2, 3))
        assert np.allclose(mean, 0.1 * mu)
        out, cache = ops.batchnorm_forward(x, np.ones(2), np.zeros(2), mean, var, "eval")
        assert cache is None

    def test_eval_before_train_uses_init_stats(self, rng):
        # the warning for it is logged per network (test_network.py)
        x = rng.normal(size=(4, 2, 3, 3))
        want = x / np.sqrt(1 + ops.BN_EPS)
        out, _ = ops.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                       np.zeros(2), np.ones(2), "eval")
        assert np.allclose(out, want)

    @pytest.mark.parametrize("layout", ["contiguous", "reversed_rows"])
    def test_train_matches_reference_expressions(self, rng, layout):
        x = rng.normal(1.5, 2.0, size=(6, 3, 5, 7))
        if layout == "reversed_rows":
            x = x[:, :, ::-1]
        gamma, beta = rng.normal(1.0, 0.3, size=3), rng.normal(size=3)
        mean, var = np.full(3, 0.2), np.full(3, 1.5)
        want_mean, want_var = mean.copy(), var.copy()
        out, cache = ops.batchnorm_forward(x, gamma, beta, mean, var, "train")
        c = (1, 3, 1, 1)
        n = x.shape[0] * x.shape[2] * x.shape[3]
        mu, batch_var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(batch_var + ops.BN_EPS)
        xhat = (x - mu.reshape(c)) * inv_std.reshape(c)
        want_mean += ops.BN_MOMENTUM * (mu - want_mean)
        want_var += ops.BN_MOMENTUM * (batch_var * (n / (n - 1)) - want_var)
        assert np.array_equal(cache.inv_std, inv_std)
        assert np.array_equal(cache.xhat, xhat)
        assert np.array_equal(out, gamma.reshape(c) * xhat + beta.reshape(c))
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(var, want_var)

    def test_eval_matches_reference_expression(self, rng):
        x = rng.normal(1.5, 2.0, size=(4, 3, 5, 5))
        gamma, beta = rng.normal(1.0, 0.3, size=3), rng.normal(size=3)
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2, size=3)
        c = (1, 3, 1, 1)
        inv_std = 1.0 / np.sqrt(var + ops.BN_EPS)
        want = gamma.reshape(c) * ((x - mean.reshape(c)) * inv_std.reshape(c)) + beta.reshape(c)
        out, _ = ops.batchnorm_forward(x, gamma, beta, mean, var, "eval")
        assert np.array_equal(out, want)

    # below one block, runs of channels, and one plane per block; a
    # strided input is normalised in place through the view
    @pytest.mark.parametrize("shape", [(4, 3, 5, 5), (3, 5, 100, 300), (2, 2, 370, 370)])
    @pytest.mark.parametrize("strided", [False, True])
    def test_eval_blocks_match_reference_expression(self, rng, shape, strided):
        C = shape[1]
        x = rng.normal(1.5, 2.0, size=shape)
        if strided:
            x = x[:, :, ::-1]
        gamma, beta = rng.normal(1.0, 0.3, size=C), rng.normal(size=C)
        mean, var = rng.normal(size=C), rng.uniform(0.5, 2, size=C)
        c = (1, C, 1, 1)
        inv_std = 1.0 / np.sqrt(var + ops.BN_EPS)
        want = gamma.reshape(c) * ((x - mean.reshape(c)) * inv_std.reshape(c)) + beta.reshape(c)
        out, _ = ops.batchnorm_forward(x, gamma, beta, mean, var, "eval")
        assert out is x and np.array_equal(x, want)

    def test_eval_out_is_filled_in_place(self, rng):
        x = rng.normal(1.5, 2.0, size=(4, 3, 5, 5))
        gamma, beta = rng.normal(1.0, 0.3, size=3), rng.normal(size=3)
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2, size=3)
        fresh, _ = ops.batchnorm_forward(x.copy(), gamma, beta, mean, var, "eval")
        out, cache = ops.batchnorm_forward(x, gamma, beta, mean, var, "eval")
        assert out is x and cache is None
        assert np.array_equal(x, fresh)

    def test_train_output_does_not_alias_cached_xhat(self, rng):
        # forward_cached rectifies the output in place, and the backward
        # then reads xhat
        x = rng.normal(size=(4, 2, 5, 5))
        out, cache = ops.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                           np.zeros(2), np.ones(2), "train")
        xhat = cache.xhat.copy()
        assert not np.shares_memory(out, cache.xhat)
        np.maximum(out, 0.0, out=out)
        assert np.array_equal(cache.xhat, xhat)

    def test_backward_matches_finite_differences(self, rng):
        x = rng.normal(size=(5, 3, 4, 4))
        gamma = rng.normal(1.0, 0.3, size=3)
        beta = rng.normal(size=3)
        proj = rng.normal(size=x.shape)

        def fwd(v, g=gamma, b=beta):
            out, _ = ops.batchnorm_forward(v, g, b, np.zeros(3), np.ones(3), "train")
            return float(np.sum(out * proj))

        out, cache = ops.batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3), "train")
        gx, gg, gb = ops.batchnorm_backward(proj, cache)
        assert relerr(gx, numeric_grad(fwd, x)) < 1e-4
        assert relerr(gg, numeric_grad(lambda v: fwd(x, g=v), gamma)) < 1e-4
        assert relerr(gb, numeric_grad(lambda v: fwd(x, b=v), beta)) < 1e-4

    @pytest.mark.parametrize("layout", ["contiguous", "reversed_rows"])
    def test_backward_matches_reference_expression(self, rng, layout):
        x = rng.normal(1.5, 2.0, size=(6, 3, 5, 7))
        gamma = rng.normal(1.0, 0.3, size=3)
        _, cache = ops.batchnorm_forward(x, gamma, rng.normal(size=3),
                                         np.zeros(3), np.ones(3), "train")
        grad_out = rng.normal(size=x.shape)
        if layout == "reversed_rows":
            grad_out = grad_out[:, :, ::-1]
        before = grad_out.tobytes(), cache.xhat.tobytes(), cache.inv_std.tobytes()
        gx, gg, gb = ops.batchnorm_backward(grad_out, cache)
        assert (grad_out.tobytes(), cache.xhat.tobytes(), cache.inv_std.tobytes()) == before
        c, xhat, axes = (1, 3, 1, 1), cache.xhat, (0, 2, 3)
        dxhat = grad_out * gamma.reshape(c)
        want = cache.inv_std.reshape(c) * (
            dxhat - dxhat.mean(axis=axes).reshape(c)
            - xhat * (dxhat * xhat).mean(axis=axes).reshape(c))
        assert np.array_equal(gx, want)
        assert np.array_equal(gg, (grad_out * xhat).sum(axis=axes))
        assert np.array_equal(gb, grad_out.sum(axis=axes))
        assert not any(np.shares_memory(g, a) for g in (gx, gg, gb)
                       for a in (grad_out, xhat))


# eval-mode BN normalises its input in place (test_eval_out_is_filled_in_place)
@pytest.mark.parametrize("op", ["conv", "bn_train", "pool"])
def test_forward_leaves_input_unchanged_and_unshared(rng, op):
    x = rng.normal(size=(2, 3, 6, 6))
    before = x.tobytes()
    if op == "conv":
        results = [ops.conv2d_forward(x, rng.normal(size=(4, 3, 3, 3)),
                                      ConvSpec(3, 4, 3, padding=1))]
    elif op == "pool":
        out = ops.maxpool2x2_forward(x)
        results = [out, ops._pool_argmax(x, out)]
    else:
        out, cache = ops.batchnorm_forward(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3),
                                           "train")
        results = [out, cache.xhat]
    assert x.tobytes() == before
    for r in results:
        assert not np.shares_memory(r, x)


# ---------------------------------------------------------------------------
# relu / affine / gap / softmax cross-entropy
# ---------------------------------------------------------------------------

class TestSmallOps:
    def test_relu(self, rng):
        x = rng.normal(size=(4, 7))
        out = ops.relu_forward(x)
        assert np.array_equal(out, np.maximum(x, 0))
        g = ops.relu_backward(np.ones_like(x), x)
        assert np.array_equal(g, (x > 0).astype(float))

    def test_affine_finite_differences(self, rng):
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(6, 3))
        b = rng.normal(size=3)
        proj = rng.normal(size=(4, 3))
        gx, gw, gb = ops.affine_backward(proj, x, w)
        assert relerr(gx, numeric_grad(
            lambda v: float(np.sum(ops.affine_forward(v, w, b) * proj)), x)) < 1e-4
        assert relerr(gw, numeric_grad(
            lambda v: float(np.sum(ops.affine_forward(x, v, b) * proj)), w)) < 1e-4
        assert relerr(gb, numeric_grad(
            lambda v: float(np.sum(ops.affine_forward(x, w, v) * proj)), b)) < 1e-4

    def test_gap_is_spatial_mean(self, rng):
        x = rng.normal(size=(3, 5, 4, 6))
        feat = ops.global_avg_pool(x)
        oracle = np.array([[x[b, c].mean() for c in range(5)] for b in range(3)])
        assert np.abs(feat - oracle).max() < 1e-12
        g = ops.global_avg_pool_backward(np.ones((3, 5)), x.shape)
        assert np.allclose(g, 1.0 / 24)

    def test_uniform_logits_loss_is_log_k(self):
        loss, grad = ops.softmax_xent(np.zeros((6, 10)), np.arange(6))
        assert loss == pytest.approx(np.log(10), abs=1e-12)

    def test_confident_logits_drive_loss_to_zero(self):
        losses = []
        for margin in (5.0, 20.0, 50.0):
            logits = np.zeros((1, 4))
            logits[0, 2] = margin
            losses.append(ops.softmax_xent(logits, np.array([2]))[0])
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-10

    def test_xent_grad_matches_finite_differences(self, rng):
        logits = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        loss, grad = ops.softmax_xent(logits, labels)
        num = numeric_grad(lambda v: ops.softmax_xent(v, labels)[0], logits)
        assert relerr(grad, num) < 1e-4

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            ops.softmax_xent(np.zeros((2, 3)), np.array([0, 3]))

    def test_grad_is_softmax_minus_onehot_over_batch(self, rng):
        logits = rng.normal(size=(4, 5))
        labels = np.array([1, 0, 4, 2])
        _, grad = ops.softmax_xent(logits, labels)
        sm = ops.softmax(logits)
        onehot = np.zeros_like(sm)
        onehot[np.arange(4), labels] = 1
        assert np.abs(grad - (sm - onehot) / 4).max() < 1e-12
