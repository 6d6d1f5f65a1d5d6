"""The fixed five-layer CNN: three conv blocks (conv -> BN -> ReLU -> 2x2
max-pool) followed by a global average pool, FC1 (512 units, ReLU) and a
linear FC2 readout.

Global average pooling sits between conv3 and FC1, so the classifier head
is resolution-independent: the same parameters run at 32x32 (training) and
224x224 (feature extraction). Activation taps are named conv1/conv2/conv3
(post-pool), fc1 (post-ReLU) and fc2 (logits).
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import ops
from .errors import ConfigurationError, DataFormatError
from .ops import ConvSpec, RunningStats
from .seeding import named_rng

log = logging.getLogger(__name__)

TAPS = ("conv1", "conv2", "conv3", "fc1", "fc2")
CONV_TAPS = ("conv1", "conv2", "conv3")
SUPPORTED_RESOLUTIONS = (32, 224)
DEFAULT_CHANNELS = (32, 64, 128)
FC1_WIDTH = 512
CHECKPOINT_MAGIC = "PLRSA-CKPT-v1"


@dataclass
class ConvBlock:
    spec: ConvSpec
    w: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    stats: RunningStats


@dataclass
class AffineLayer:
    w: np.ndarray
    b: np.ndarray


@dataclass
class NetworkState:
    """All parameters plus BN running statistics of the five-layer net."""

    conv1: ConvBlock
    conv2: ConvBlock
    conv3: ConvBlock
    fc1: AffineLayer
    fc2: AffineLayer
    rng_seed: int
    in_channels: int = 3
    num_classes: int = 10
    _warned_fresh_eval: bool = field(default=False, repr=False, compare=False)

    @property
    def channels(self) -> tuple[int, int, int]:
        return (self.conv1.spec.out_channels, self.conv2.spec.out_channels,
                self.conv3.spec.out_channels)

    def conv_blocks(self) -> tuple[ConvBlock, ConvBlock, ConvBlock]:
        return (self.conv1, self.conv2, self.conv3)

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of every parameter and BN running stat."""
        out: dict[str, np.ndarray] = {}
        for name, block in zip(CONV_TAPS, self.conv_blocks()):
            out[f"{name}.w"] = block.w
            out[f"{name}.b"] = block.b
            out[f"{name}.gamma"] = block.gamma
            out[f"{name}.beta"] = block.beta
            out[f"{name}.running_mean"] = block.stats.mean
            out[f"{name}.running_var"] = block.stats.var
        out["fc1.w"] = self.fc1.w
        out["fc1.b"] = self.fc1.b
        out["fc2.w"] = self.fc2.w
        out["fc2.b"] = self.fc2.b
        return out


def init_he_normal(seed: int, channels=DEFAULT_CHANNELS, num_classes: int = 10,
                   in_channels: int = 3) -> NetworkState:
    """He-normal weights (std sqrt(2/fan_in)), zero biases, BN gamma=1 beta=0.

    Deterministic per seed: the same seed always yields a bitwise-identical
    state.
    """
    if len(channels) != 3:
        raise ConfigurationError(f"exactly three conv widths expected, got {channels}")
    rng = named_rng(seed, "init")
    blocks = []
    c_in = in_channels
    for c_out in channels:
        spec = ConvSpec(c_in, c_out, kernel_size=3, stride=1, padding=1)
        fan_in = c_in * spec.kernel_size ** 2
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=spec.weight_shape)
        blocks.append(ConvBlock(
            spec=spec, w=w, b=np.zeros(c_out),
            gamma=np.ones(c_out), beta=np.zeros(c_out),
            stats=RunningStats.fresh(c_out),
        ))
        c_in = c_out
    fc1 = AffineLayer(
        w=rng.normal(0.0, np.sqrt(2.0 / channels[-1]), size=(channels[-1], FC1_WIDTH)),
        b=np.zeros(FC1_WIDTH),
    )
    fc2 = AffineLayer(
        w=rng.normal(0.0, np.sqrt(2.0 / FC1_WIDTH), size=(FC1_WIDTH, num_classes)),
        b=np.zeros(num_classes),
    )
    return NetworkState(blocks[0], blocks[1], blocks[2], fc1, fc2,
                        rng_seed=int(seed), in_channels=in_channels,
                        num_classes=num_classes)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

class BlockCache(NamedTuple):
    """One conv block's forward record. An eval-mode record keeps only
    `out`; the other fields, which only a backward reads, are None.
    `post_relu` and `out` are the pool's input and output, from which its
    backward derives the argmax, so nothing may write them in between."""

    out: np.ndarray                      # post-pool block output
    x: np.ndarray | None = None          # block input
    bn_cache: ops.BnCache | None = None
    post_relu: np.ndarray | None = None  # post-BN, post-ReLU, pre-pool


class ForwardCache(NamedTuple):
    blocks: tuple[BlockCache, BlockCache, BlockCache]
    gap: np.ndarray           # [B, C3] input to fc1
    fc1_act: np.ndarray       # post-ReLU; > 0 is the ReLU mask
    logits: np.ndarray


def _check_batch(state: NetworkState, batch):
    if batch.ndim != 4 or batch.shape[1] != state.in_channels:
        raise ConfigurationError(
            f"batch must be [B,{state.in_channels},H,W], got {batch.shape}"
        )
    _, _, H, W = batch.shape
    if H != W or H not in SUPPORTED_RESOLUTIONS:
        raise ConfigurationError(
            f"unsupported resolution {H}x{W}; supported: "
            + ", ".join(f"{r}x{r}" for r in SUPPORTED_RESOLUTIONS)
        )


def _block_forward(block: ConvBlock, x, mode: str) -> BlockCache:
    """conv -> BN -> ReLU -> pool, keeping one full-size map: the BN
    output is rectified in place. Train mode's BN output is a fresh array;
    eval mode's BN overwrites the conv output, and its record keeps only
    the pooled output, so the full-size map is freed when this returns."""
    z = ops.conv2d_forward(x, block.w, block.b, block.spec)
    act, bn_cache = ops.batchnorm_forward(z, block.gamma, block.beta, block.stats, mode,
                                          out=z if mode == "eval" else None)
    del z
    np.maximum(act, 0.0, out=act)
    out = ops.maxpool2x2_forward(act)
    if mode == "eval":
        return BlockCache(out)
    return BlockCache(out, x, bn_cache, act)


def forward_cached(state: NetworkState, batch, mode: str = "train") -> ForwardCache:
    """Full forward pass; in train mode it keeps every intermediate a
    backward needs.

    An eval-mode cache keeps only each block's `out`, the rest of every
    BlockCache is None: `forward` reads nothing else, and every backward
    caller (bp, fa, pc, stdp) runs a train-mode pass. An eval pass through
    a network with an untrained BN block logs one warning per network, not
    one per block or batch.
    """
    _check_batch(state, batch)
    if (mode == "eval" and not state._warned_fresh_eval
            and any(b.stats.batches_seen == 0 for b in state.conv_blocks())):
        log.warning("batchnorm eval before any train step: using init stats (mean 0, var 1)")
        state._warned_fresh_eval = True
    x = batch
    caches = []
    for block in state.conv_blocks():
        c = _block_forward(block, x, mode)
        caches.append(c)
        x = c.out
    return fc_forward(state, ops.global_avg_pool(x))._replace(blocks=tuple(caches))


def fc_forward(state: NetworkState, gap) -> ForwardCache:
    """FC1 -> ReLU -> FC2 on [B, C3] features; the cache has no conv blocks."""
    fc1_act = ops.relu_forward(ops.affine_forward(gap, state.fc1.w, state.fc1.b))
    logits = ops.affine_forward(fc1_act, state.fc2.w, state.fc2.b)
    return ForwardCache(blocks=(), gap=gap, fc1_act=fc1_act, logits=logits)


def forward(state: NetworkState, batch, mode: str = "eval"):
    """Forward pass returning (logits, tap activations).

    Conv taps are the post-ReLU, post-pool maps; fc1 is post-ReLU; fc2 is
    the raw logits. Eval mode is a pure function of (state, batch).
    """
    cache = forward_cached(state, batch, mode)
    taps = dict(zip(CONV_TAPS, (c.out for c in cache.blocks)))
    return cache.logits, {**taps, "fc1": cache.fc1_act, "fc2": cache.logits}


def backward(state: NetworkState, cache: ForwardCache, grad_logits,
             feedback=None) -> dict[str, np.ndarray]:
    """Backward pass from a logits gradient down to every parameter.

    Returns name -> gradient for every trained parameter, keyed like
    `parameter_arrays` (the BN running stats have none). The error travels
    between layers through the transport weights: `feedback` (FA's fixed
    random tensors, see rules) when given, else the forward weights, which
    makes this exact backpropagation. Transport is the only difference: BN
    parameter gradients and pool/ReLU routing stay local either way.
    """
    transport = feedback or state.parameter_arrays()
    delta, grads = fc_backward(cache, grad_logits, transport)
    delta = ops.global_avg_pool_backward(delta, cache.blocks[2].out.shape)
    # Conv blocks, deepest first
    for i in (2, 1, 0):
        name, block, c = CONV_TAPS[i], state.conv_blocks()[i], cache.blocks[i]
        # The ReLU mask at pooled resolution: each window's argmax is `out`.
        delta = ops.maxpool2x2_backward(ops.relu_backward(delta, c.out), c.post_relu, c.out)
        delta, grads[f"{name}.gamma"], grads[f"{name}.beta"] = ops.batchnorm_backward(
            delta, c.bn_cache)
        grads[f"{name}.w"] = ops.conv2d_weight_grad(delta, c.x, block.spec)
        grads[f"{name}.b"] = delta.sum(axis=(0, 2, 3))
        if i > 0:
            delta = ops.conv2d_input_grad(delta, transport[f"{name}.w"], block.spec,
                                          c.x.shape[2:])
    return grads


def fc_backward(cache: ForwardCache, grad_logits, transport):
    """Backward through FC2 -> ReLU -> FC1 from a logits gradient.

    The error travels down through `transport["fc2.w"]` and
    `transport["fc1.w"]`, each in its forward weight's shape. Returns
    (gradient w.r.t. `cache.gap`, {"fc1.w", "fc1.b", "fc2.w", "fc2.b"}
    gradients).
    """
    grads = {}
    delta, grads["fc2.w"], grads["fc2.b"] = ops.affine_backward(
        grad_logits, cache.fc1_act, transport["fc2.w"])
    delta = ops.relu_backward(delta, cache.fc1_act)
    delta, grads["fc1.w"], grads["fc1.b"] = ops.affine_backward(
        delta, cache.gap, transport["fc1.w"])
    return delta, grads


def apply_sgd(state: NetworkState, grads: dict[str, np.ndarray], lr: float) -> None:
    """One plain SGD step, in place, on every parameter `grads` names.

    Updates run in `parameter_arrays` order, not in `backward`'s fc2-first
    order: the order in which the `lr * g` temporaries are freed steers the
    allocator (likely glibc's dynamic mmap threshold), and fc2-first raised
    the peak RSS of a later 224 px extraction by 4.7 MiB."""
    for name, p in state.parameter_arrays().items():
        if name in grads:
            p -= lr * grads[name]


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def _extraction_batch_size(resolution: int) -> int:
    # An eval forward_cached keeps only the pooled block outputs, 4.2 MB per
    # image at 224 px with the input, and frees each block's full-size map
    # (12.8 MB per image for conv1) as the block returns. The batch sizes
    # stay as they are because the benchmark's reference pins the
    # forward_cached and conv call counts they produce.
    return 64 if resolution <= 32 else 8


def extract_all_taps(state: NetworkState, stimuli) -> dict[str, np.ndarray]:
    """Eval-mode features at every tap in one pass over a StimulusSet, as
    tap -> [num_stimuli, feature_dim] array, in batches of
    _extraction_batch_size(resolution).

    Conv taps are averaged over spatial positions (global average pooling);
    fc taps are stored as-is. Rows follow the stimulus order.
    """
    images = stimuli.images
    batch_size = _extraction_batch_size(images.shape[-1])
    chunks: dict[str, list[np.ndarray]] = {t: [] for t in TAPS}
    for start in range(0, images.shape[0], batch_size):
        _, taps = forward(state, images[start : start + batch_size], mode="eval")
        for t in TAPS:
            a = taps[t]
            chunks[t].append(ops.global_avg_pool(a) if a.ndim == 4 else a)
    return {t: np.concatenate(chunks[t], axis=0) for t in TAPS}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(state: NetworkState, path, rule: str = "") -> None:
    """Write a versioned binary checkpoint: header, JSON manifest, raw float64.

    The file is written to `<path>.tmp` and renamed onto `path`, so a save
    that fails leaves any checkpoint already at `path` as it was.
    """
    arrays = state.parameter_arrays()
    manifest = {
        "rule": rule,
        "seed": state.rng_seed,
        "in_channels": state.in_channels,
        "channels": list(state.channels),
        "num_classes": state.num_classes,
        "bn_batches_seen": [b.stats.batches_seen for b in state.conv_blocks()],
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
    }
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write((CHECKPOINT_MAGIC + "\n").encode("ascii"))
            f.write((json.dumps(manifest, sort_keys=True) + "\n").encode("ascii"))
            for v in arrays.values():
                f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (NetworkState, rule tag). The manifest must
    list exactly the network's arrays, each with its exact shape, and the
    file must end after the last array."""
    with open(path, "rb") as f:
        magic = f.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: bad checkpoint header {magic!r}")
        try:
            manifest = json.loads(f.readline().decode("ascii"))
            state = init_he_normal(manifest["seed"], channels=tuple(manifest["channels"]),
                                   num_classes=manifest["num_classes"],
                                   in_channels=manifest["in_channels"])
            entries = [(str(e["name"]), tuple(int(d) for d in e["shape"]))
                       for e in manifest["arrays"]]
            seen = manifest["bn_batches_seen"]
            if (not isinstance(seen, list) or len(seen) != 3
                    or any(type(n) is not int or n < 0 for n in seen)):
                raise DataFormatError(
                    f"{path}: bn_batches_seen must be 3 integers >= 0, got {seen!r}")
            for block, n in zip(state.conv_blocks(), seen):
                block.stats.batches_seen = n
            rule = manifest["rule"]
        except (ValueError, KeyError, TypeError, ConfigurationError) as e:
            raise DataFormatError(f"{path}: bad checkpoint manifest ({e!r})") from None
        arrays = state.parameter_arrays()
        expected = [(name, a.shape) for name, a in arrays.items()]
        if sorted(entries) != sorted(expected):
            raise DataFormatError(f"{path}: checkpoint arrays differ from the network's in "
                                  f"{sorted(set(entries) ^ set(expected))}")
        for name, shape in entries:
            buf = f.read(8 * arrays[name].size)
            if len(buf) != 8 * arrays[name].size:
                raise DataFormatError(f"{path}: truncated checkpoint at array {name!r}")
            arrays[name][...] = np.frombuffer(buf, dtype="<f8").reshape(shape)
        if f.read(1):
            raise DataFormatError(f"{path}: trailing bytes after the last checkpoint array")
    return state, rule
