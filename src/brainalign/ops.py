"""Dense tensor primitives for the small CNN.

Everything operates on float64 numpy arrays (NCHW layout for images and
feature maps) and every forward operation has a matching hand-written
backward pass. Backwards are exact gradients of the forwards; the test
suite checks them against central finite differences.

Convolution is cross-correlation (no kernel flip, the deep learning
convention), one GEMM per bounded batch chunk against conv_windows, with
the bias added as each GEMM chunk is copied into the output. Max pooling
takes the max of four strided corner views of the input into one array
and keeps the input and output; the backward derives the argmax from
them as an int8 corner index, breaks ties towards the first corner in
row-major window order and truncates a trailing odd row or column. Batch
norm (eps 1e-5, running-stat momentum 0.1) writes eval mode into a given
`out` (the input itself, say) or one fresh full-size output, and train
mode allocates that output plus the cached xhat; its backward allocates
two full-size buffers, one of which it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# Cells of one conv GEMM chunk's result: 16 MiB of float64. At 224 px it
# bounds conv1 to one image per GEMM; at 32 px it never binds for the
# default channels at batch sizes up to 64.
_CONV_CHUNK_CELLS = 1 << 21


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
    output position. Every convolution is one tensordot against it."""
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

    One GEMM per batch chunk, weights on the left: a windows-on-the-left
    GEMM makes OpenBLAS pack large panels of the long B*Ho*Wo side. The
    chunk holds at most B*O // (C*k^2) images, so the im2col copy that
    tensordot makes is never larger than the output, and at most
    _CONV_CHUNK_CELLS // (O*Ho*Wo), so one GEMM result stays within
    16 MiB; it holds at least one image.
    """
    _check_weights(w, spec)
    windows = conv_windows(x, spec)
    B, _, Ho, Wo = windows.shape[:4]
    O, C, k = spec.out_channels, spec.in_channels, spec.kernel_size
    out = np.empty((B, O, Ho, Wo))
    bias = np.asarray(b).reshape(-1, 1, 1)
    chunk = max(1, min(B * O // (C * k * k), _CONV_CHUNK_CELLS // (O * Ho * Wo)))
    for b0 in range(0, B, chunk):
        # [O,C,k,k] x [b,C,Ho,Wo,k,k] summed over C,k,k -> [O,b,Ho,Wo]
        cols = np.tensordot(w, windows[b0 : b0 + chunk], axes=([1, 2, 3], [1, 4, 5]))
        np.add(cols.transpose(1, 0, 2, 3), bias, out=out[b0 : b0 + chunk])
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


def conv2d_backward(grad_out, cached_input, w, spec: ConvSpec):
    """All three gradients of conv2d_forward: (grad_input, grad_weights, grad_bias)."""
    if grad_out.shape[0] != cached_input.shape[0]:
        raise ConfigurationError(
            f"grad_out batch {grad_out.shape} does not match input {cached_input.shape}"
        )
    grad_b = grad_out.sum(axis=(0, 2, 3))
    grad_w = conv2d_weight_grad(grad_out, cached_input, spec)
    grad_x = conv2d_input_grad(grad_out, w, spec, cached_input.shape[2:])
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# 2x2 max pooling
# ---------------------------------------------------------------------------

def _pool_corners(x):
    """The four strided [B,C,Ho,Wo] views of the 2x2 windows' corners, in
    row-major window order; a trailing odd row or column is in none."""
    Ho, Wo = x.shape[2] // 2, x.shape[3] // 2
    return [x[:, :, i : 2 * Ho : 2, j : 2 * Wo : 2] for i in (0, 1) for j in (0, 1)]


class PoolIndices(NamedTuple):
    """What maxpool2x2_backward needs from the forward: the pooled input and
    output themselves, not copies. Nobody may write either of them between
    the forward and the backward, or the argmax read from them is wrong:
    network.backward only reads the block maps, and pc_inference moves
    copies of the block outputs."""

    x: np.ndarray     # pooled input [B,C,H,W] (before odd-edge truncation)
    out: np.ndarray   # pooled output [B,C,Ho,Wo]

    @property
    def in_shape(self) -> tuple[int, ...]:
        return self.x.shape

    @property
    def argmax(self) -> np.ndarray:
        """[B,C,Ho,Wo] int8 corner 0..3 in row-major window order: the count
        of leading corners that differ from the max, so the first corner
        equal to it (the row-major first-max tie-break this package
        guarantees), and 3 for a window whose max is NaN. Computed anew on
        each read."""
        c0, c1, c2, _ = _pool_corners(self.x)
        run = c0 != self.out   # True while every corner so far differs from the max
        idx = run.view(np.int8).copy()
        for corner in (c1, c2):
            run &= corner != self.out
            idx += run.view(np.int8)
        return idx


def maxpool2x2_forward(x):
    """Max over non-overlapping 2x2 windows. Odd trailing rows/cols are dropped.

    Returns (output, PoolIndices). The output is an elementwise max of the
    four corner views, taken into one array. No argmax is computed here:
    the PoolIndices keep `x` and the output, and the backward derives it.
    """
    if x.ndim != 4:
        raise ConfigurationError(f"maxpool2x2 expects a 4D tensor, got {x.shape}")
    c0, c1, c2, c3 = _pool_corners(x)
    out = np.maximum(c0, c1)
    np.maximum(out, c2, out=out)
    np.maximum(out, c3, out=out)
    return out, PoolIndices(x=x, out=out)


def maxpool2x2_backward(grad_out, indices: PoolIndices):
    """Route each window's gradient to its argmax corner; zeros elsewhere,
    the dropped odd edge included. The argmax is derived once per call."""
    if grad_out.shape != indices.out.shape:
        raise ConfigurationError(f"maxpool backward grad {grad_out.shape} does not match "
                                 f"pooled shape {indices.out.shape}")
    argmax = indices.argmax
    grad_x = np.zeros(indices.in_shape)
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

    def copy(self) -> "RunningStats":
        return RunningStats(self.mean.copy(), self.var.copy(), self.batches_seen)


class BnCache(NamedTuple):
    xhat: np.ndarray
    inv_std: np.ndarray   # [C]
    gamma: np.ndarray


def batchnorm_forward(x, gamma, beta, stats: RunningStats, mode: str,
                      eps: float = BN_EPS, momentum: float = BN_MOMENTUM, out=None):
    """Per-channel batch norm over a [B,C,H,W] tensor.

    Train mode normalises by batch statistics and updates `stats` in place
    (momentum 0.1, unbiased variance for the running estimate, matching the
    common framework default). Eval mode normalises by the running stats.

    `out` follows numpy's convention, in eval mode only: the result is
    written into it, and it may be `x` itself. Without `out` the input is
    never written. Train mode raises ConfigurationError if given `out`.

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
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std.reshape(1, C, 1, 1)
        var_unbiased = var * (n / (n - 1)) if n > 1 else var
        stats.mean += momentum * (mu - stats.mean)
        stats.var += momentum * (var_unbiased - stats.var)
        stats.batches_seen += 1
        # `out` reuses the squares' buffer; it must never alias the cached
        # xhat, because callers rectify it in place before the backward.
        np.multiply(xhat, gamma.reshape(1, C, 1, 1), out=out)
        out += beta.reshape(1, C, 1, 1)
        return out, BnCache(xhat=xhat, inv_std=inv_std, gamma=gamma)
    if mode == "eval":
        inv_std = 1.0 / np.sqrt(stats.var + eps)
        out = np.subtract(x, stats.mean.reshape(1, C, 1, 1), out=out)
        out *= inv_std.reshape(1, C, 1, 1)
        out *= gamma.reshape(1, C, 1, 1)
        out += beta.reshape(1, C, 1, 1)
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
