"""Dense tensor primitives for the small CNN.

Everything operates on float64 numpy arrays (NCHW layout for images and
feature maps) and every forward operation has a matching hand-written
backward pass. Backwards are exact gradients of the forwards; the test
suite checks them against central finite differences.

Convolution is cross-correlation (no kernel flip, the deep learning
convention), in three kernels: the forward, the input gradient (which is
also the transposed convolution) and the weight gradient; the bias
gradient is a plain sum, taken by the caller. The forward copies
conv_windows into im2col blocks of at most _CONV_BLOCK_CELLS, whole
images or, for a large image, runs of its output rows, and each block's
GEMM writes straight into its slice of the output, where the bias is
added. Max pooling takes the max of four strided corner views of the
input into one array; the backward takes the pool's input and output
and derives the argmax from them as an int8 corner index, breaks ties
towards the first corner in row-major window order and truncates a
trailing odd row or column. Batch norm (eps BN_EPS, running-stat
momentum BN_MOMENTUM) writes eval mode into a given `out` (the input
itself, say) or one fresh full-size output, and train mode allocates
that output plus the cached xhat; its backward allocates two full-size
buffers, one of which it returns. The pool and eval batch norm run their
ufunc chains one cache-sized block of (images, channels) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# Cells of one conv im2col block: 2 MiB of float64, so the block is still
# in cache when its GEMM reads it (best of 2^15..2^20 at 32 and 224 px).
_CONV_BLOCK_CELLS = 1 << 18
# Input cells of one block of eval batch norm or the pool: 1 MiB of
# float64, so each ufunc of the chain reads the last one's result from
# cache (best of 2^13..2^19 at 32 to 224 px).
_MAP_BLOCK_CELLS = 1 << 17


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one 2D convolution."""

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.kernel_size < 1:
            raise ConfigurationError(f"kernel_size must be >= 1, got {self.kernel_size}")
        if self.stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ConfigurationError(f"padding must be >= 0, got {self.padding}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigurationError(
                f"channel counts must be >= 1, got in={self.in_channels} out={self.out_channels}"
            )

    def out_size(self, in_size: int) -> int:
        out = (in_size + 2 * self.padding - self.kernel_size) // self.stride + 1
        if out < 1:
            raise ConfigurationError(
                f"convolution output size collapses to {out} for input {in_size} under {self}"
            )
        return out

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels, self.kernel_size, self.kernel_size)


def _check_weights(w, spec: ConvSpec):
    if w.shape != spec.weight_shape:
        raise ConfigurationError(
            f"conv2d weights {w.shape} do not match spec shape {spec.weight_shape}"
        )


def conv_windows(x, spec: ConvSpec) -> np.ndarray:
    """The package's im2col: a read-only [B,C,Ho,Wo,k,k] view of `x`
    [B,C,H,W], zero-padded, holding the k x k input window under each
    output position. Every convolution contracts against it."""
    if x.ndim != 4 or x.shape[1] != spec.in_channels:
        raise ConfigurationError(
            f"conv2d expects a 4D input with {spec.in_channels} channels, got {x.shape}"
        )
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    Ho, Wo = spec.out_size(x.shape[2]), spec.out_size(x.shape[3])
    if p:
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    windows = sliding_window_view(x, (k, k), axis=(2, 3))
    return windows[:, :, : s * Ho : s, : s * Wo : s]


def conv2d_forward(x, w, b, spec: ConvSpec) -> np.ndarray:
    """Cross-correlate `x` [B,C,H,W] with `w` [O,C,k,k] plus bias `b` [O].

    The windows are copied into im2col blocks [b, C*k^2, rows*Wo] of at
    most _CONV_BLOCK_CELLS: whole images while one image fits, else runs
    of one image's output rows (at least one). Each block is one GEMM per
    image, weights on the left, written into that image's rows of the
    output, and the bias is added there in place.

    Each output element is the same dot product over C*k^2 as in one GEMM
    over the whole batch. A BLAS may sum it in another order when the GEMM
    shape changes: OpenBLAS 0.3.31 does for a ragged tail of 1-4 columns,
    and in its small-matrix kernel once C*k^2 spans more than one of its K
    blocks. So the bits are the whole-batch GEMM's when Wo is a multiple
    of 8 and no block is small, as at every layer of the network at its
    default widths, at 32 and 224 px; elsewhere they may differ by rounding.
    """
    _check_weights(w, spec)
    windows = conv_windows(x, spec)
    B, C, Ho, Wo, k, _ = windows.shape
    O, K = spec.out_channels, C * k * k
    out = np.empty((B, O, Ho, Wo))
    out_cols = out.reshape(B, O, Ho * Wo)   # a view: `out` is contiguous
    w_rows = w.reshape(O, K)
    bias = np.asarray(b).reshape(-1, 1)
    rows = min(Ho, max(1, _CONV_BLOCK_CELLS // (K * Wo)))
    images = max(1, _CONV_BLOCK_CELLS // (K * Ho * Wo)) if rows == Ho else 1
    buf = np.empty(min(B, images) * K * rows * Wo)
    for b0 in range(0, B, images):
        for r0 in range(0, Ho, rows):
            win = windows[b0 : b0 + images, :, r0 : r0 + rows]   # [b,C,r,Wo,k,k]
            nb, nr = win.shape[0], win.shape[2]
            cols = buf[: nb * K * nr * Wo].reshape(nb, C, k, k, nr, Wo)
            np.copyto(cols, win.transpose(0, 1, 4, 5, 2, 3))
            dst = out_cols[b0 : b0 + nb, :, r0 * Wo : (r0 + nr) * Wo]
            np.matmul(w_rows, cols.reshape(nb, K, nr * Wo), out=dst)
            dst += bias
    return out


def conv2d_input_grad(grad_out, w, spec: ConvSpec, in_hw) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. its input; equally, a transposed
    convolution of `grad_out` by `w` onto an `in_hw`-sized grid.

    One GEMM gives every window's gradient; col2im, the adjoint of
    conv_windows, scatter-adds them back onto the padded input grid.
    """
    _check_weights(w, spec)
    B, O, Ho, Wo = grad_out.shape
    if O != spec.out_channels:
        raise ConfigurationError(
            f"grad_out {grad_out.shape} has {O} channels, spec expects {spec.out_channels}"
        )
    H, W = in_hw
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    # [O,C,k,k] x [B,O,Ho,Wo] summed over O -> [C,k,k,B,Ho,Wo]
    cols = np.tensordot(w, grad_out, axes=([0], [1]))
    gxp = np.zeros((B, spec.in_channels, H + 2 * p, W + 2 * p))
    for ki in range(k):
        for kj in range(k):
            gxp[:, :, ki : ki + s * Ho : s, kj : kj + s * Wo : s] += (
                cols[:, ki, kj].transpose(1, 0, 2, 3))
    return np.ascontiguousarray(gxp[:, :, p : p + H, p : p + W])


def conv2d_weight_grad(grad_out, x, spec: ConvSpec) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. the weights: one GEMM of
    `grad_out` against the input windows."""
    # [B,O,Ho,Wo] x [B,C,Ho,Wo,k,k] summed over B,Ho,Wo -> [O,C,k,k]
    return np.tensordot(grad_out, conv_windows(x, spec), axes=([0, 2, 3], [0, 2, 3]))


# ---------------------------------------------------------------------------
# 2x2 max pooling
# ---------------------------------------------------------------------------

def _map_blocks(shape):
    """Index tuples covering a [B,C,H,W] map in blocks of at most
    _MAP_BLOCK_CELLS cells (at least one H x W plane): runs of channels of
    one image while a whole image does not fit, else runs of whole images."""
    B, C, H, W = shape
    plane = max(1, H * W)   # an empty map still gets its (empty) blocks
    channels = min(C, max(1, _MAP_BLOCK_CELLS // plane))
    images = max(1, _MAP_BLOCK_CELLS // (C * plane)) if channels == C else 1
    for b0 in range(0, B, images):
        for c0 in range(0, C, channels):
            yield slice(b0, b0 + images), slice(c0, c0 + channels)


def _pool_corners(x):
    """The four strided [B,C,Ho,Wo] views of the 2x2 windows' corners, in
    row-major window order; a trailing odd row or column is in none."""
    Ho, Wo = x.shape[2] // 2, x.shape[3] // 2
    return [x[:, :, i : 2 * Ho : 2, j : 2 * Wo : 2] for i in (0, 1) for j in (0, 1)]


def _pool_argmax(x, out):
    """[B,C,Ho,Wo] int8 corner 0..3 in row-major window order of the pool
    of `x` whose output is `out`: the count of leading corners that differ
    from the max, so the first corner equal to it (the row-major first-max
    tie-break this package guarantees), and 3 for a window whose max is NaN."""
    c0, c1, c2, _ = _pool_corners(x)
    run = c0 != out   # True while every corner so far differs from the max
    idx = run.view(np.int8).copy()
    for corner in (c1, c2):
        run &= corner != out
        idx += run.view(np.int8)
    return idx


def maxpool2x2_forward(x):
    """Max over non-overlapping 2x2 windows. Odd trailing rows/cols are dropped.

    The output is an elementwise max of the four corner views, taken into
    one array block by block (_map_blocks). No argmax is computed here: the
    backward derives it from this input and output.
    """
    if x.ndim != 4:
        raise ConfigurationError(f"maxpool2x2 expects a 4D tensor, got {x.shape}")
    B, C, H, W = x.shape
    out = np.empty((B, C, H // 2, W // 2), dtype=x.dtype)
    for images, channels in _map_blocks(x.shape):
        c0, c1, c2, c3 = _pool_corners(x[images, channels])
        o = out[images, channels]
        np.maximum(c0, c1, out=o)
        np.maximum(o, c2, out=o)
        np.maximum(o, c3, out=o)
    return out


def maxpool2x2_backward(grad_out, x, out):
    """Route each window's gradient to its argmax corner; zeros elsewhere,
    the dropped odd edge included. `x` and `out` are the forward's own
    input and output, unwritten since: the argmax is derived from them
    once per call."""
    pooled = x.shape[:2] + tuple(n // 2 for n in x.shape[2:])
    if x.ndim != 4 or not grad_out.shape == out.shape == pooled:
        raise ConfigurationError(f"maxpool backward grad {grad_out.shape} and output "
                                 f"{out.shape} must both be the pooled shape {pooled} "
                                 f"of input {x.shape}")
    argmax = _pool_argmax(x, out)
    grad_x = np.zeros(x.shape)
    for k, corner in enumerate(_pool_corners(grad_x)):
        np.copyto(corner, grad_out, where=argmax == k)
    return grad_x


# ---------------------------------------------------------------------------
# Batch normalisation
# ---------------------------------------------------------------------------

@dataclass
class RunningStats:
    """Per-channel running mean/variance, mutated by train-mode forwards."""

    mean: np.ndarray
    var: np.ndarray
    batches_seen: int = 0

    @classmethod
    def fresh(cls, channels: int) -> "RunningStats":
        return cls(mean=np.zeros(channels), var=np.ones(channels), batches_seen=0)


class BnCache(NamedTuple):
    xhat: np.ndarray
    inv_std: np.ndarray   # [C]
    gamma: np.ndarray


def batchnorm_forward(x, gamma, beta, stats: RunningStats, mode: str, out=None):
    """Per-channel batch norm over a [B,C,H,W] tensor, with BN_EPS added to
    the variance.

    Train mode normalises by batch statistics and updates `stats` in place
    (momentum BN_MOMENTUM, unbiased variance for the running estimate,
    matching the common framework default). Eval mode normalises by the
    running stats.

    `out` follows numpy's convention, in eval mode only: the result is
    written into it, and it may be `x` itself. Without `out` the input is
    never written. Train mode raises ConfigurationError if given `out`.
    Eval mode runs its ufunc chain block by block (_map_blocks).

    Returns (output, BnCache) in train mode and (output, None) in eval mode.
    """
    if x.ndim != 4:
        raise ConfigurationError(f"batchnorm expects a 4D tensor, got {x.shape}")
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ConfigurationError(
            f"batchnorm params gamma {gamma.shape} / beta {beta.shape} do not match {C} channels"
        )
    # Each branch fills one array with in-place ufuncs, in the order of
    # (x - mean) * inv_std * gamma + beta, so no full-size temporary is made.
    if mode == "train":
        if out is not None:
            raise ConfigurationError("batchnorm train mode takes no `out`: its output "
                                     "must not alias the input or the cached xhat")
        n = x.shape[0] * x.shape[2] * x.shape[3]
        mu = x.mean(axis=(0, 2, 3))
        xhat = x - mu.reshape(1, C, 1, 1)
        # np.var's own steps: the squared deviations from the mean, summed, / n
        out = np.square(xhat)
        var = out.sum(axis=(0, 2, 3)) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std.reshape(1, C, 1, 1)
        var_unbiased = var * (n / (n - 1)) if n > 1 else var
        stats.mean += BN_MOMENTUM * (mu - stats.mean)
        stats.var += BN_MOMENTUM * (var_unbiased - stats.var)
        stats.batches_seen += 1
        # `out` reuses the squares' buffer; it must never alias the cached
        # xhat, because callers rectify it in place before the backward.
        np.multiply(xhat, gamma.reshape(1, C, 1, 1), out=out)
        out += beta.reshape(1, C, 1, 1)
        return out, BnCache(xhat=xhat, inv_std=inv_std, gamma=gamma)
    if mode == "eval":
        inv_std = 1.0 / np.sqrt(stats.var + BN_EPS)
        if out is None:
            out = np.empty(x.shape)
        mean, inv_std, gamma, beta = (a.reshape(1, C, 1, 1)
                                      for a in (stats.mean, inv_std, gamma, beta))
        for images, channels in _map_blocks(x.shape):
            o = out[images, channels]
            np.subtract(x[images, channels], mean[:, channels], out=o)
            o *= inv_std[:, channels]
            o *= gamma[:, channels]
            o += beta[:, channels]
        return out, None
    raise ConfigurationError(f"batchnorm mode must be 'train' or 'eval', got {mode!r}")


def batchnorm_backward(grad_out, cache: BnCache):
    """Gradients of train-mode batchnorm: (grad_input, grad_gamma, grad_beta).

    grad_x = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
    dxhat = grad_out * gamma. In-place ufuncs run those operations in that
    order in two full-size buffers, so the result is bit for bit the plain
    expression's: `prod` holds each product in turn and `dxhat` becomes
    grad_x. Neither grad_out nor the cached xhat is written.
    """
    xhat, inv_std, gamma = cache
    C = xhat.shape[1]
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    prod = grad_out * xhat
    grad_gamma = prod.sum(axis=(0, 2, 3))
    dxhat = grad_out * gamma.reshape(1, C, 1, 1)
    mean_dxhat = dxhat.mean(axis=(0, 2, 3)).reshape(1, C, 1, 1)
    np.multiply(dxhat, xhat, out=prod)
    mean_dxhat_xhat = prod.mean(axis=(0, 2, 3)).reshape(1, C, 1, 1)
    np.multiply(xhat, mean_dxhat_xhat, out=prod)
    dxhat -= mean_dxhat
    dxhat -= prod
    dxhat *= inv_std.reshape(1, C, 1, 1)
    return dxhat, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# ReLU / affine / global average pool / softmax cross-entropy
# ---------------------------------------------------------------------------

def relu_forward(x):
    return np.maximum(x, 0.0)


def relu_backward(grad_out, cached_input):
    return grad_out * (cached_input > 0)


def affine_forward(x, w, b):
    """x [B,in] @ w [in,out] + b [out]."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ConfigurationError(f"affine: input {x.shape} incompatible with weights {w.shape}")
    return x @ w + b


def affine_backward(grad_out, cached_input, w):
    grad_x = grad_out @ w.T
    grad_w = cached_input.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def global_avg_pool(x):
    """Spatial mean of a [B,C,H,W] map -> [B,C]."""
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(grad_out, in_shape):
    B, C, H, W = in_shape
    return np.broadcast_to(grad_out[:, :, None, None], in_shape) / (H * W)


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_xent(logits, labels):
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    grad = (softmax - onehot) / B.
    """
    labels = np.asarray(labels)
    B, K = logits.shape
    if labels.shape != (B,):
        raise ConfigurationError(f"labels {labels.shape} do not match logits batch {B}")
    if labels.min() < 0 or labels.max() >= K:
        bad = labels[(labels < 0) | (labels >= K)][0]
        raise ConfigurationError(f"label {bad} out of range [0, {K})")
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(log_norm - z[np.arange(B), labels]))
    grad = softmax(logits)
    grad[np.arange(B), labels] -= 1.0
    grad /= B
    return loss, grad
