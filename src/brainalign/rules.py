"""The five training conditions for the fixed CNN.

random  : He-normal init, never trained (the architecture baseline).
bp      : plain SGD on softmax cross-entropy with exact gradients.
fa      : backprop with error transport through fixed random feedback
          tensors instead of the transposed forward weights. FC transport
          is a matrix product with B; conv transport is the transposed
          convolution with a fixed random filter bank of the forward
          kernel's shape. The loss gradient at the output is untouched,
          and BN/ReLU/pool routing stays local, so setting B to the
          forward weights reproduces BP exactly.
pc      : hierarchical predictive coding on the conv stack. Each level
          keeps a representation r_l on the post-block (post-pool) grid;
          learned prediction weights (transposed convolutions, stride 2)
          generate top-down predictions r_hat_{l-1} from r_l. Errors
          eps_l = r_l - r_hat_l define the energy F = sum_l ||eps_l||^2;
          inference runs T_inf explicit gradient-descent steps on F over
          the representations with the input clamped, then conv weights
          update Hebbian-style from (error, lower representation) pairs.
          FC1/FC2 are a backprop-trained readout on the settled top
          representation.
stdp    : activations become Bernoulli spike trains over T timesteps;
          each conv synapse updates from the first-spike timing
          difference of its pre/post units through the exponential
          LTP/LTD kernel, averaged over batch items and shared spatial
          positions. FC1/FC2 are again a backprop-trained readout.

`train(rule, params, dataset, seed)` runs one condition under any
RuleParams, so an ExperimentConfig goes in as it is; the pc and stdp
steps read their hyperparameters from the same RuleParams. All rules are
deterministic given (seed, params, dataset order): RNG use is split into
named streams (init / order / spikes / feedback / pc_init) so enabling
one consumer cannot perturb another.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import ops
from .data import write_csv
from .errors import ConfigurationError, TrainingDivergedError
from .network import (
    CONV_TAPS,
    DEFAULT_CHANNELS,
    LEVELS,
    NetworkState,
    apply_sgd,
    backward,
    fc_backward,
    fc_forward,
    forward,
    forward_cached,
    init_he_normal,
)
from .ops import ConvSpec
from .seeding import named_rng

log = logging.getLogger(__name__)

RULES = ("random", "bp", "fa", "pc", "stdp")
EVAL_BATCH_SIZE = 256


@dataclass(frozen=True)
class RuleParams:
    """Training length and the hyperparameters of every rule, declared once:
    `train` takes any RuleParams, and an ExperimentConfig is one."""

    epochs: int = 40
    batch_size: int = 64
    lr: float = 0.01            # BP/FA steps and every BP-trained readout
    pc_t_inf: int = 10
    pc_alpha: float = 0.02
    pc_eta_w: float = 1e-4
    stdp_t: int = 10
    stdp_tau_plus_ms: float = 20.0
    stdp_tau_minus_ms: float = 20.0
    stdp_a_plus: float = 0.003
    stdp_a_minus: float = 0.003
    stdp_lr: float = 5e-4
    stdp_timestep_ms: float = 2.0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigurationError(
                f"epochs must be >= 0 and batch_size >= 1, got {self.epochs}/{self.batch_size}"
            )
        if self.pc_t_inf < 1:
            raise ConfigurationError(f"pc_t_inf must be >= 1, got {self.pc_t_inf}")
        if not 1 <= self.stdp_t <= np.iinfo(np.int16).max:   # spike steps are int16
            raise ConfigurationError(f"stdp_t must be in [1, 32767], got {self.stdp_t}")
        for name in ("lr", "pc_alpha", "pc_eta_w", "stdp_tau_plus_ms", "stdp_tau_minus_ms",
                     "stdp_a_plus", "stdp_a_minus", "stdp_lr", "stdp_timestep_ms"):
            value = getattr(self, name)
            if not 0 < value < np.inf:   # NaN fails too
                raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


# ---------------------------------------------------------------------------
# Backprop / feedback alignment
# ---------------------------------------------------------------------------

def bp_step(state: NetworkState, batch, labels, lr: float):
    """One SGD step on softmax cross-entropy. Mutates `state`; returns (loss, logits)."""
    record = forward_cached(state, batch, mode="train")
    loss, grad_logits = ops.softmax_xent(record["fc2"], labels)
    grads = backward(state, record, grad_logits)
    apply_sgd(state, grads, lr)
    return loss, record["fc2"]


def make_feedback_weights(state: NetworkState, seed: int) -> dict[str, np.ndarray]:
    """Draw the run's fixed feedback tensors, He-scaled like the forward
    layers, as name -> array in each forward weight's shape ("conv1.w" ...
    "fc2.w"). conv1's exists for symmetry: no error travels below conv1.
    The FC tensors are drawn in [out, in] order and stored as transposed
    views: the draw order defines the feedback stream, and the views'
    memory layout the transport GEMM's rounding."""
    rng = named_rng(seed, "feedback")
    feedback = {}
    for name, w in state.arrays.items():
        if w.ndim == 4:  # conv kernel [out, in, k, k]
            feedback[name] = rng.normal(0.0, np.sqrt(2.0 / np.prod(w.shape[1:])), size=w.shape)
        elif name.endswith(".w"):  # FC [in, out]
            feedback[name] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape[::-1]).T
    return feedback


def feedback_from_transposes(state: NetworkState) -> dict[str, np.ndarray]:
    """Feedback tensors equal to (copies of) the forward weights, under
    which the FA backward is BP, bit for bit: `backward` transports the
    error through the forward weights when it is given no feedback."""
    return {name: a.copy() for name, a in state.arrays.items() if name.endswith(".w")}


def fa_step(state: NetworkState, feedback: dict[str, np.ndarray], batch, labels, lr: float):
    """One feedback-alignment step: BP's update rule with B-transported deltas."""
    expected = {n: a.shape for n, a in state.arrays.items() if n.endswith(".w")}
    got = {n: b.shape for n, b in feedback.items()}
    if got != expected:
        raise ConfigurationError(
            f"feedback shapes {got} do not match the forward weights' {expected}")
    record = forward_cached(state, batch, mode="train")
    loss, grad_logits = ops.softmax_xent(record["fc2"], labels)
    grads = backward(state, record, grad_logits, feedback=feedback)
    apply_sgd(state, grads, lr)
    return loss, record["fc2"]


# ---------------------------------------------------------------------------
# Predictive coding
# ---------------------------------------------------------------------------

def init_pc_state(state: NetworkState, seed: int) -> list[np.ndarray]:
    """Prediction weights of the generative (top-down) pathway: pc[i]
    [C_{i+1}, C_i, 2, 2] predicts level i from level i+1 through the
    transposed convolution of its _pc_spec."""
    rng = named_rng(seed, "pc_init")
    dims = (state.in_channels,) + state.channels
    pc = []
    for c_in, c_out in zip(dims, dims[1:]):
        shape = (c_out, c_in, 2, 2)
        pc.append(rng.normal(0.0, np.sqrt(2.0 / (c_out * 2 * 2)), size=shape))
    return pc


def _pc_spec(p) -> ConvSpec:
    """The forward-direction geometry of prediction weights `p` (level i
    grid -> level i+1 grid): stride 2, no padding."""
    return ConvSpec.for_weights(p, stride=2)


def pc_errors(pc, reps):
    """Top-down predictions and errors eps_l = r_l - r_hat_l for every
    predicted level (all but the top)."""
    eps = []
    for i, p in enumerate(pc):
        r_hat = ops.conv2d_input_grad(reps[i + 1], p, _pc_spec(p), reps[i].shape[2:])
        eps.append(reps[i] - r_hat)
    return eps


def pc_energy(eps) -> float:
    return float(sum(np.sum(e * e) for e in eps))


def pc_representation_grads(pc, eps):
    """dF/dr_l for the free levels l = 1..L, with F = sum_l ||eps_l||^2.

    Level l feels its own error (2*eps_l, absent at the top) minus the
    back-projected error of the level it predicts (the adjoint of the
    transposed convolution is the forward convolution).
    """
    top = len(pc)
    grads = []
    for l in range(1, top + 1):
        p = pc[l - 1]
        g = -2.0 * ops.conv2d_forward(eps[l - 1], p, _pc_spec(p))
        if l < top:
            g = g + 2.0 * eps[l]
        grads.append(g)
    return grads


def pc_inference(pc, reps, t_inf: int, alpha: float):
    """Run t_inf gradient-descent steps on F over r_1..r_3 (input clamped).

    Returns (settled representations, final errors, energy trace). The
    trace has t_inf + 1 entries: the energy before any step and after each
    step. Aborts if the energy becomes non-finite.
    """
    reps = [reps[0]] + [r.copy() for r in reps[1:]]
    eps = pc_errors(pc, reps)
    energies = [pc_energy(eps)]
    for _ in range(t_inf):
        grads = pc_representation_grads(pc, eps)
        for l, g in enumerate(grads, start=1):
            reps[l] = reps[l] - alpha * g
        eps = pc_errors(pc, reps)
        f = pc_energy(eps)
        if not np.isfinite(f):
            raise TrainingDivergedError("predictive-coding energy became non-finite")
        energies.append(f)
    return reps, eps, energies


def pc_infer_and_learn(state: NetworkState, pc, batch, labels, cfg: RuleParams):
    """One predictive-coding pass over a batch. Mutates state and pc.

    (a) feedforward pass initialises the representations (train-mode BN,
        so running stats keep tracking the data);
    (b) T_inf inference steps settle r_1..r_3 under clamped input;
    (c) conv weights update from (eps_l, r_{l-1}) pairs at rate pc_eta_w,
        with the error routed through the block's pooling argmax; the top
        conv block has no top-down error and receives no update;
        prediction weights update from the matching (eps_{l-1}, r_l) pairs;
    (d) the FC readout takes one BP step on the settled top representation.

    Returns (readout loss, logits, energy trace).
    """
    record = forward_cached(state, batch, mode="train")
    reps, eps, energies = pc_inference(pc, [record[level] for level in LEVELS],
                                       cfg.pc_t_inf, cfg.pc_alpha)
    B = batch.shape[0]

    for l in (1, 2):  # eps_3 does not exist: conv3 keeps its weights
        tap = CONV_TAPS[l - 1]
        routed = ops.maxpool2x2_backward(eps[l], record[f"{tap}.relu"], record[tap])
        dw = ops.conv2d_weight_grad(routed, reps[l - 1], state.conv_spec(tap)) / B
        state.arrays[f"{tap}.w"] += cfg.pc_eta_w * dw
    for i, p in enumerate(pc):
        dp = ops.conv2d_weight_grad(reps[i + 1], eps[i], _pc_spec(p)) / B
        p += cfg.pc_eta_w * dp

    feats = ops.global_avg_pool(reps[3])
    loss, logits = _readout_step(state, feats, labels, cfg.lr)
    return loss, logits, energies


# ---------------------------------------------------------------------------
# STDP
# ---------------------------------------------------------------------------

def stdp_kernel(dt_ms, a_plus=RuleParams.stdp_a_plus, a_minus=RuleParams.stdp_a_minus,
                tau_plus_ms=RuleParams.stdp_tau_plus_ms,
                tau_minus_ms=RuleParams.stdp_tau_minus_ms):
    """Exponential LTP/LTD kernel of the timing difference dt = t_post - t_pre.

    dt > 0 -> +a_plus * exp(-dt/tau_plus); dt < 0 -> -a_minus * exp(dt/tau_minus);
    dt == 0 -> 0.
    """
    dt = np.asarray(dt_ms, dtype=float)
    out = np.zeros_like(dt)
    pos, neg = dt > 0, dt < 0
    out[pos] = a_plus * np.exp(-dt[pos] / tau_plus_ms)
    out[neg] = -a_minus * np.exp(dt[neg] / tau_minus_ms)
    return out if out.ndim else float(out)


def first_spike_times(rates, t_steps: int, rng) -> np.ndarray:
    """Sample Bernoulli spike trains over t_steps and return each unit's
    first spike step; units that never spike get the sentinel t_steps."""
    t = np.full(rates.shape, t_steps, dtype=np.int16)
    for step in range(t_steps):
        spikes = rng.random(rates.shape) < rates
        np.copyto(t, step, where=(t == t_steps) & spikes)
    return t


def _pair_kernel_table(cfg: RuleParams) -> np.ndarray:
    """K[t_post, t_pre] for steps 0..T-1 plus the never-spiked sentinel T."""
    T = cfg.stdp_t
    table = np.zeros((T + 1, T + 1))
    steps = np.arange(T)
    dt = (steps[:, None] - steps[None, :]) * cfg.stdp_timestep_ms
    table[:T, :T] = stdp_kernel(dt, cfg.stdp_a_plus, cfg.stdp_a_minus,
                                cfg.stdp_tau_plus_ms, cfg.stdp_tau_minus_ms)
    return table


def stdp_conv_delta(t_pre, t_post, spec: ConvSpec, cfg: RuleParams) -> np.ndarray:
    """Per-kernel-weight timing update, averaged over batch items and all
    shared spatial positions (never-spiked pairs contribute zero): per step
    tau, one conv weight-grad of table[t_post, tau] against the pre-units
    that first spike at tau.

    One int16 im2col of t_pre - T, laid out [B*Ho*Wo, C*k*k], holds every
    window's pre-unit steps, 0 meaning "never", so zero padding never
    spikes. For each tau in order its one-hot (== tau - T) fills one reused
    float64 buffer, and one GEMM adds table[t_post, tau], gathered as
    [O, B*Ho*Wo], against it: the operands of a tensordot over (B, Ho, Wo)
    in its own layout, so the sums are bit for bit that tensordot's.
    """
    B, O, Ho, Wo = t_post.shape
    T = cfg.stdp_t
    table = _pair_kernel_table(cfg)
    windows = ops.conv_windows(t_pre - T, spec)   # [B,C,Ho,Wo,k,k], int16
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(B * Ho * Wo, -1)
    post = t_post.transpose(1, 0, 2, 3).reshape(O, -1).astype(np.intp)
    onehot = np.empty(cols.shape)
    total = np.zeros((O, cols.shape[1]))
    for tau in range(T):
        np.equal(cols, tau - T, out=onehot)
        total += table[:, tau].take(post) @ onehot
    return total.reshape(spec.weight_shape) / (B * Ho * Wo)


def stdp_step(state: NetworkState, batch, labels, cfg: RuleParams, spike_rng):
    """One STDP pass over a batch: spike-timing updates for every conv
    kernel, then a BP readout step on the cached features. Mutates state."""
    record = forward_cached(state, batch, mode="train")
    for below, tap in zip(LEVELS, CONV_TAPS):
        pre, post = record[below], record[f"{tap}.relu"]
        p_pre = pre / max(float(pre.max()), 1e-8)
        p_post = post / max(float(post.max()), 1e-8)
        t_pre = first_spike_times(p_pre, cfg.stdp_t, spike_rng)
        t_post = first_spike_times(p_post, cfg.stdp_t, spike_rng)
        state.arrays[f"{tap}.w"] += cfg.stdp_lr * stdp_conv_delta(
            t_pre, t_post, state.conv_spec(tap), cfg)
    loss, logits = _readout_step(state, record["gap"], labels, cfg.lr)
    return loss, logits


# ---------------------------------------------------------------------------
# Shared readout, evaluation, training loop
# ---------------------------------------------------------------------------

def _readout_step(state: NetworkState, feats, labels, lr: float):
    """BP/SGD step on FC1+FC2 only, from fixed [B, C3] features."""
    record = fc_forward(state, feats)
    loss, grad_logits = ops.softmax_xent(record["fc2"], labels)
    _, grads = fc_backward(record, grad_logits, state.arrays)
    apply_sgd(state, grads, lr)  # FC gradients only: the conv blocks stay as they are
    return loss, record["fc2"]


def evaluate_accuracy(state: NetworkState, images, labels) -> float:
    """Eval-mode classification accuracy, in batches of EVAL_BATCH_SIZE."""
    correct = 0
    for start in range(0, images.shape[0], EVAL_BATCH_SIZE):
        batch = slice(start, start + EVAL_BATCH_SIZE)
        logits, _ = forward(state, images[batch])
        correct += int(np.sum(np.argmax(logits, axis=1) == labels[batch]))
    return correct / images.shape[0]


def train(rule: str, params: RuleParams, dataset, seed: int, eval_set=None,
          metrics_path=None, channels=DEFAULT_CHANNELS):
    """Train condition `rule` under `params` (an ExperimentConfig is one) on
    a LabeledImageSet; returns the final NetworkState, whose input channels
    and class count are the dataset's.

    rule="random" returns the He init untouched. Per-epoch loss/accuracy is
    logged and optionally written to a fresh metrics CSV. Raises
    ConfigurationError for an unknown rule and TrainingDivergedError (with
    the epoch index) if the loss goes non-finite.
    """
    if rule not in RULES:
        raise ConfigurationError(f"unknown rule {rule!r}; known rules: {RULES}")
    images, labels = dataset.images, dataset.labels
    if images.shape[0] == 0:
        raise ConfigurationError("training dataset is empty")
    state = init_he_normal(seed, channels=channels, num_classes=dataset.num_classes,
                           in_channels=images.shape[1])
    if rule == "random":
        log.info("rule=random: returning untrained He init (seed %d)", seed)
        return state

    feedback = make_feedback_weights(state, seed) if rule == "fa" else None
    pc = init_pc_state(state, seed) if rule == "pc" else None
    spike_rng = named_rng(seed, "spikes") if rule == "stdp" else None
    order_rng = named_rng(seed, "order")

    n = images.shape[0]
    history = []
    for epoch in range(params.epochs):
        perm = order_rng.permutation(n)
        total_loss, correct = 0.0, 0
        for start in range(0, n, params.batch_size):
            idx = perm[start : start + params.batch_size]
            xb, yb = images[idx], labels[idx]
            if rule == "bp":
                loss, logits = bp_step(state, xb, yb, params.lr)
            elif rule == "fa":
                loss, logits = fa_step(state, feedback, xb, yb, params.lr)
            elif rule == "pc":
                try:
                    loss, logits, _ = pc_infer_and_learn(state, pc, xb, yb, params)
                except TrainingDivergedError as e:
                    raise TrainingDivergedError(f"{e} (epoch {epoch})", epoch=epoch) from None
            else:  # stdp
                loss, logits = stdp_step(state, xb, yb, params, spike_rng)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became non-finite at epoch {epoch}", epoch=epoch)
            total_loss += loss * len(idx)
            correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        mean_loss, train_acc = total_loss / n, correct / n
        test_acc = (evaluate_accuracy(state, eval_set.images, eval_set.labels)
                    if eval_set is not None else "")
        history.append([epoch, mean_loss, train_acc, test_acc, rule, seed])
        log.info("rule=%s seed=%d epoch=%d loss=%.4f train_acc=%.3f",
                 rule, seed, epoch, mean_loss, train_acc)
    if metrics_path is not None:
        write_csv(metrics_path, ["epoch", "loss", "train_acc", "test_acc", "rule", "seed"],
                  history)
    return state
