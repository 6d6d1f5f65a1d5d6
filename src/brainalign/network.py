"""The fixed five-layer CNN: three conv blocks (conv -> BN -> ReLU -> 2x2
max-pool; eval mode pools first, with the same bits) followed by a global
average pool, FC1 (512 units, ReLU) and a linear FC2 readout.

Global average pooling sits between conv3 and FC1, so the classifier head
is resolution-independent: the same parameters run at 32x32 (training) and
224x224 (feature extraction). Activation taps are named conv1/conv2/conv3
(post-pool), fc1 (post-ReLU) and fc2 (logits). Every pass, train or eval,
is one `forward_cached` record that its caller reads by tap name.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigurationError, DataFormatError
from .ops import ConvSpec
from .seeding import named_rng

log = logging.getLogger(__name__)

TAPS = ("conv1", "conv2", "conv3", "fc1", "fc2")
CONV_TAPS = ("conv1", "conv2", "conv3")
LEVELS = ("input",) + CONV_TAPS  # record keys of PC's r_0..r_3; conv block i reads LEVELS[i]
SUPPORTED_RESOLUTIONS = (32, 224)
DEFAULT_CHANNELS = (32, 64, 128)
FC1_WIDTH = 512
CHECKPOINT_MAGIC = "PLRSA-CKPT-v1"


@dataclass
class NetworkState:
    """The five-layer net as one name -> array map, laid out by
    `array_shapes`, beside the seed that drew it. The arrays are the whole
    record: every layer's geometry is read from its weights."""

    arrays: dict[str, np.ndarray]
    rng_seed: int
    _warned_fresh_eval: bool = field(default=False, repr=False, compare=False)

    @property
    def channels(self) -> tuple[int, int, int]:
        return tuple(self.arrays[f"{tap}.w"].shape[0] for tap in CONV_TAPS)

    @property
    def in_channels(self) -> int:
        return self.arrays["conv1.w"].shape[1]

    @property
    def num_classes(self) -> int:
        return self.arrays["fc2.w"].shape[1]

    def conv_spec(self, tap: str) -> ConvSpec:
        """Conv block `tap`'s geometry: stride 1 and padding 1, so its 3x3
        kernel keeps the map size for the pool to halve."""
        return ConvSpec.for_weights(self.arrays[f"{tap}.w"], stride=1, padding=1)


def array_shapes(in_channels: int, channels, num_classes: int) -> dict[str, tuple[int, ...]]:
    """Every array's name -> shape in `NetworkState.arrays` order, which is
    the checkpoint's array order and `apply_sgd`'s update order: per conv
    block "<tap>.w", ".gamma", ".beta", ".running_mean" and ".running_var",
    then "fc1.w", "fc1.b", "fc2.w" and "fc2.b". A conv block has no bias:
    the train-mode BN after it subtracts the batch mean, cancelling one."""
    if len(channels) != 3 or min(in_channels, num_classes, *channels) < 1:
        raise ConfigurationError(f"three conv widths >= 1 on >= 1 input channels and >= 1 "
                                 f"classes expected, got {channels} on {in_channels} for "
                                 f"{num_classes}")
    shapes, c_in = {}, in_channels
    for tap, c_out in zip(CONV_TAPS, channels):
        shapes[f"{tap}.w"] = (c_out, c_in, 3, 3)
        for name in ("gamma", "beta", "running_mean", "running_var"):
            shapes[f"{tap}.{name}"] = (c_out,)
        c_in = c_out
    shapes.update({"fc1.w": (c_in, FC1_WIDTH), "fc1.b": (FC1_WIDTH,),
                   "fc2.w": (FC1_WIDTH, num_classes), "fc2.b": (num_classes,)})
    return shapes


def init_he_normal(seed: int, channels=DEFAULT_CHANNELS, num_classes: int = 10,
                   in_channels: int = 3) -> NetworkState:
    """He-normal weights (std sqrt(2/fan_in), drawn in layout order), zero
    FC biases, BN gamma=1 beta=0, running mean 0 and var 1. The same seed
    always yields a bitwise-identical state."""
    rng = named_rng(seed, "init")
    arrays = {}
    for name, shape in array_shapes(in_channels, channels, num_classes).items():
        if name.endswith(".w"):
            fan_in = np.prod(shape[1:]) if len(shape) == 4 else shape[0]
            arrays[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        elif name.endswith((".gamma", ".running_var")):
            arrays[name] = np.ones(shape)
        else:
            arrays[name] = np.zeros(shape)
    return NetworkState(arrays, int(seed))


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

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


def forward_cached(state: NetworkState, batch, mode: str) -> dict:
    """Full forward pass as one name -> array record: "input" (the batch),
    each conv tap "conv1".."conv3" (the pooled block output, which is block
    i + 1's input), "gap", "fc1" (post-ReLU; > 0 is its ReLU mask) and
    "fc2" (the logits).

    Train mode runs each block in the order it is defined: conv, BN (a
    fresh array; moves the block's running stats), ReLU in place, pool.
    The record adds "<tap>.relu" (that post-BN, post-ReLU map, the pool's
    input) and "<tap>.bn" (the `ops.BnCache`). The pool's backward derives
    its argmax from "<tap>.relu" and "<tap>", so nothing may write either
    before it runs.

    Eval mode pools first: conv, pool, then BN and ReLU in place on the
    pooled map, a quarter of the size, with the same bits. After the GEMM,
    each step is one rounded per-channel map t -> round(t - mean),
    round(t * inv_std), round(t * gamma), round(t + beta), max(t, 0), and
    rounding keeps each monotone: non-decreasing, except round(t * gamma)
    for gamma < 0, which is non-increasing. A non-decreasing map commutes
    with max, so for gamma >= 0 the window max of the block output is the
    map of the window max of the conv output; for gamma < 0 it is the map
    of the window min, taken exactly as -max(-z) by negating those
    channels in place before and after the pool. For finite conv outputs
    the two orders give equal values, and equal bits unless a zero's sign
    differs, which needs a beta of -0 (init and SGD never make one). The
    full-size conv output is freed once pooled, so an eval record holds no
    full-size map: its callers (evaluation, feature extraction) read only
    the taps, and every backward caller (bp, fa, pc, stdp) runs a
    train-mode pass. An eval record is a pure function of (state, batch).

    An eval pass through a network with a BN block whose running stats
    are still their init values (mean all 0, var all 1), which no
    train-mode batch has moved, logs one warning per network, not one per
    block or batch.
    """
    _check_batch(state, batch)
    a = state.arrays
    if mode == "eval" and not state._warned_fresh_eval and any(
            not a[f"{tap}.running_mean"].any() and (a[f"{tap}.running_var"] == 1.0).all()
            for tap in CONV_TAPS):
        log.warning("batchnorm eval before any train step: using init stats (mean 0, var 1)")
        state._warned_fresh_eval = True
    record = {"input": batch}
    x = batch
    for tap in CONV_TAPS:
        z = ops.conv2d_forward(x, a[f"{tap}.w"], state.conv_spec(tap))
        bn_args = (a[f"{tap}.gamma"], a[f"{tap}.beta"], a[f"{tap}.running_mean"],
                   a[f"{tap}.running_var"], mode)
        if mode == "train":
            act, record[f"{tap}.bn"] = ops.batchnorm_forward(z, *bn_args)
            np.maximum(act, 0.0, out=act)
            x = record[tap] = ops.maxpool2x2_forward(act)
            record[f"{tap}.relu"] = act
        else:
            flipped = np.flatnonzero(a[f"{tap}.gamma"] < 0)
            for c in flipped:
                z[:, c] *= -1.0
            x = ops.maxpool2x2_forward(z)
            for c in flipped:
                x[:, c] *= -1.0
            ops.batchnorm_forward(x, *bn_args)
            record[tap] = np.maximum(x, 0.0, out=x)
        del z
    record.update(fc_forward(state, ops.global_avg_pool(x)))
    return record


def fc_forward(state: NetworkState, gap) -> dict:
    """FC1 -> ReLU -> FC2 on [B, C3] features: the record's "gap", "fc1"
    and "fc2"."""
    a = state.arrays
    fc1 = ops.relu_forward(ops.affine_forward(gap, a["fc1.w"], a["fc1.b"]))
    return {"gap": gap, "fc1": fc1, "fc2": ops.affine_forward(fc1, a["fc2.w"], a["fc2.b"])}


def backward(state: NetworkState, record: dict, grad_logits,
             feedback=None) -> dict[str, np.ndarray]:
    """Backward pass through a train-mode `forward_cached` record from a
    logits gradient down to every parameter.

    Returns name -> gradient for every trained parameter, keyed like
    `state.arrays` (the BN running stats have none). The error travels
    between layers through the transport weights: `feedback` (FA's fixed
    random tensors, see rules) when given, else the forward weights, which
    makes this exact backpropagation. Transport is the only difference: BN
    parameter gradients and pool/ReLU routing stay local either way.
    """
    transport = feedback or state.arrays
    delta, grads = fc_backward(record, grad_logits, transport)
    delta = ops.global_avg_pool_backward(delta, record["conv3"].shape)
    # Conv blocks, deepest first; block i's input is the level below it
    for i in (2, 1, 0):
        tap = CONV_TAPS[i]
        x, out, spec = record[LEVELS[i]], record[tap], state.conv_spec(tap)
        # The ReLU mask at pooled resolution: each window's argmax is `out`.
        delta = ops.maxpool2x2_backward(ops.relu_backward(delta, out), record[f"{tap}.relu"], out)
        delta, grads[f"{tap}.gamma"], grads[f"{tap}.beta"] = ops.batchnorm_backward(
            delta, record[f"{tap}.bn"])
        grads[f"{tap}.w"] = ops.conv2d_weight_grad(delta, x, spec)
        if i > 0:
            delta = ops.conv2d_input_grad(delta, transport[f"{tap}.w"], spec, x.shape[2:])
    return grads


def fc_backward(record: dict, grad_logits, transport):
    """Backward through FC2 -> ReLU -> FC1 from a logits gradient.

    The error travels down through `transport["fc2.w"]` and
    `transport["fc1.w"]`, each in its forward weight's shape. Returns
    (gradient w.r.t. `record["gap"]`, {"fc1.w", "fc1.b", "fc2.w", "fc2.b"}
    gradients).
    """
    grads = {}
    delta, grads["fc2.w"], grads["fc2.b"] = ops.affine_backward(
        grad_logits, record["fc1"], transport["fc2.w"])
    delta = ops.relu_backward(delta, record["fc1"])
    delta, grads["fc1.w"], grads["fc1.b"] = ops.affine_backward(
        delta, record["gap"], transport["fc1.w"])
    return delta, grads


def apply_sgd(state: NetworkState, grads: dict[str, np.ndarray], lr: float) -> None:
    """One plain SGD step, in place, on every parameter `grads` names.

    Updates run in `state.arrays` order, not in `backward`'s fc2-first
    order: the order in which the `lr * g` temporaries are freed steers the
    allocator (likely glibc's dynamic mmap threshold), and fc2-first raised
    the peak RSS of a later 224 px extraction by 4.7 MiB."""
    for name, p in state.arrays.items():
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
    # forward_cached and conv call counts they produce. Conv-tap features
    # are bit for bit the same at any batch size, but fc1 and fc2 are not:
    # the BLAS sums an FC GEMM of another row count in another order, so
    # changing these sizes changes fc-tap values at rounding level.
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
    chunks = [_tap_features(forward_cached(state, images[start : start + batch_size], "eval"))
              for start in range(0, images.shape[0], batch_size)]
    return {t: np.concatenate([c[t] for c in chunks], axis=0) for t in TAPS}


def _tap_features(record: dict) -> dict[str, np.ndarray]:
    """One eval record's feature rows at every tap. Its caller passes the
    record as a temporary, freed when this returns, so no batch's maps are
    alive during the next batch's forward."""
    return {t: ops.global_avg_pool(record[t]) if t in CONV_TAPS else record[t] for t in TAPS}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(state: NetworkState, path, rule: str = "") -> None:
    """Write a versioned binary checkpoint: header, JSON manifest, raw float64.

    The manifest holds the rule tag, the seed and each array's name and
    shape; the network's geometry is read back from those shapes. The file
    is written to `<path>.tmp` and renamed onto `path`, so a save that
    fails leaves any checkpoint already at `path` as it was.
    """
    arrays = state.arrays
    manifest = {"rule": rule, "seed": state.rng_seed,
                "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()]}
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
    """Read a checkpoint; returns (NetworkState, rule tag). The manifest's
    rule must be a string, its seed an integer >= 0, each shape a list of
    integers >= 0, and its arrays exactly the layout their conv<i>.w and
    fc2.w shapes imply, each listed once, checked before any array is read;
    other keys are ignored. Every array must be finite, and the file must
    end after the last array."""
    with open(path, "rb") as f:
        magic = f.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: bad checkpoint header {magic!r}")
        try:
            manifest = json.loads(f.readline().decode("ascii"))
            rule, seed = manifest["rule"], manifest["seed"]
            entries = []
            for e in manifest["arrays"]:
                name, shape = str(e["name"]), e["shape"]
                if type(shape) is not list or any(type(d) is not int or d < 0 for d in shape):
                    raise ValueError(f"{name!r} shape {shape!r} is not a list of integers >= 0")
                entries.append((name, tuple(shape)))
            shapes = dict(entries)
            expected = array_shapes(shapes["conv1.w"][1],
                                    tuple(shapes[f"{tap}.w"][0] for tap in CONV_TAPS),
                                    shapes["fc2.w"][1])
        except (ValueError, KeyError, TypeError, IndexError, ConfigurationError) as e:
            raise DataFormatError(f"{path}: bad checkpoint manifest ({e!r})") from None
        if not isinstance(rule, str) or type(seed) is not int or seed < 0:
            raise DataFormatError(f"{path}: checkpoint rule must be a string and seed an "
                                  f"integer >= 0, got rule {rule!r} and seed {seed!r}")
        if len(shapes) < len(entries):
            names = [name for name, _ in entries]
            raise DataFormatError(f"{path}: checkpoint arrays differ from the network's: "
                                  f"{sorted({n for n in names if names.count(n) > 1})} "
                                  f"listed more than once")
        if sorted(entries) != sorted(expected.items()):
            raise DataFormatError(f"{path}: checkpoint arrays differ from the network's in "
                                  f"{sorted(set(entries) ^ set(expected.items()))}")
        arrays = {name: np.empty(shape) for name, shape in expected.items()}
        for name, shape in entries:
            buf = f.read(8 * arrays[name].size)
            if len(buf) != 8 * arrays[name].size:
                raise DataFormatError(f"{path}: truncated checkpoint at array {name!r}")
            arrays[name][...] = np.frombuffer(buf, dtype="<f8").reshape(shape)
            if not np.isfinite(arrays[name]).all():
                raise DataFormatError(f"{path}: non-finite value in checkpoint array {name!r}")
        if f.read(1):
            raise DataFormatError(f"{path}: trailing bytes after the last checkpoint array")
    return NetworkState(arrays, seed), rule
