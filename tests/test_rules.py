"""Learning-rule tests: BP step arithmetic, the FA reduction and hand
oracles, PC inference dynamics against finite differences, the STDP
kernel and its aggregation against a brute-force loop, and the training
loop contracts (determinism, random condition, divergence)."""

import copy

import numpy as np
import pytest

from brainalign import ops
from brainalign.data import LabeledImageSet, SynthSpec, synth_dataset
from brainalign.errors import ConfigurationError, TrainingDivergedError
from brainalign.network import CONV_TAPS, forward_cached, init_he_normal
from brainalign.ops import ConvSpec
from brainalign.rules import (
    EVAL_BATCH_SIZE,
    RuleParams,
    _pair_kernel_table,
    _readout_step,
    bp_step,
    evaluate_accuracy,
    fa_step,
    feedback_from_transposes,
    first_spike_times,
    init_pc_state,
    make_feedback_weights,
    pc_energy,
    pc_errors,
    pc_infer_and_learn,
    pc_inference,
    stdp_conv_delta,
    stdp_kernel,
    stdp_step,
    train,
)
from brainalign.seeding import named_rng

from helpers import traced_peak

SMALL = (4, 6, 8)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def small_batch(rng, n=4):
    return rng.normal(0.5, 0.2, size=(n, 3, 32, 32)).clip(0, 1), rng.integers(0, 10, n)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

class TestConfig:
    def test_unknown_rule(self):
        with pytest.raises(ConfigurationError, match="unknown rule"):
            train("adam", RuleParams(), blob_set(n=16), seed=0)

    @pytest.mark.parametrize("kw", [
        {"lr": 0.0}, {"pc_alpha": -1.0}, {"pc_t_inf": 0}, {"stdp_t": 0},
        {"stdp_a_plus": 0.0}, {"batch_size": 0}, {"lr": np.nan}, {"pc_alpha": np.inf},
        {"stdp_timestep_ms": np.inf},
    ])
    def test_bad_values(self, kw):
        with pytest.raises(ConfigurationError):
            RuleParams(**kw)

    def test_stdp_t_fits_int16_spike_steps(self):
        assert RuleParams(stdp_t=32767).stdp_t == 32767
        with pytest.raises(ConfigurationError, match=r"stdp_t must be in \[1, 32767\], got 32768"):
            RuleParams(stdp_t=32768)


# ---------------------------------------------------------------------------
# BP
# ---------------------------------------------------------------------------

class TestBp:
    def test_zero_lr_leaves_weights(self, rng):
        state = init_he_normal(0, channels=SMALL)
        before = {k: v.copy() for k, v in state.arrays.items()
                  if "running" not in k}
        xb, yb = small_batch(rng)
        bp_step(state, xb, yb, lr=0.0)
        for k, v in before.items():
            assert np.array_equal(state.arrays[k], v), k

    def test_fc2_update_matches_closed_form(self, rng):
        # the readout layer update is (softmax - onehot) x^T / B, computable by hand
        state = init_he_normal(1, channels=SMALL)
        xb, yb = small_batch(rng)
        record = forward_cached(copy.deepcopy(state), xb, "train")
        sm = ops.softmax(record["fc2"])
        onehot = np.zeros_like(sm)
        onehot[np.arange(len(yb)), yb] = 1
        expected_gw = record["fc1"].T @ ((sm - onehot) / len(yb))
        w_before = state.arrays["fc2.w"].copy()
        bp_step(state, xb, yb, lr=0.5)
        assert np.abs((w_before - state.arrays["fc2.w"]) - 0.5 * expected_gw).max() < 1e-12

    def test_descent_for_small_lr(self, rng):
        state = init_he_normal(2, channels=SMALL)
        xb, yb = small_batch(rng, n=8)
        record = forward_cached(copy.deepcopy(state), xb, "train")
        loss_before, _ = ops.softmax_xent(record["fc2"], yb)
        bp_step(state, xb, yb, lr=1e-3)
        record2 = forward_cached(state, xb, "train")
        loss_after, _ = ops.softmax_xent(record2["fc2"], yb)
        assert loss_after < loss_before

    def test_readout_step_is_the_bp_fc_head(self, rng):
        # the PC/STDP readout on fixed features must update fc1/fc2 exactly
        # as the FC part of a BP step on the same batch and state
        state = init_he_normal(3, channels=SMALL)
        xb, yb = small_batch(rng)
        gap = forward_cached(copy.deepcopy(state), xb, "train")["gap"]
        bp, readout = copy.deepcopy(state), copy.deepcopy(state)
        bp_step(bp, xb, yb, lr=0.1)
        _readout_step(readout, gap, yb, lr=0.1)
        for name in ("fc1.w", "fc1.b", "fc2.w", "fc2.b"):
            assert np.array_equal(bp.arrays[name], readout.arrays[name]), name


# ---------------------------------------------------------------------------
# FA
# ---------------------------------------------------------------------------

class TestFa:
    def test_reduces_to_bp_with_transposed_feedback(self, rng):
        sA = init_he_normal(5, channels=SMALL)
        sB = init_he_normal(5, channels=SMALL)
        for _ in range(2):
            xb, yb = small_batch(rng)
            bp_step(sA, xb, yb, 0.01)
            fa_step(sB, feedback_from_transposes(sB), xb, yb, 0.01)
        for (k, a), (_, b) in zip(sA.arrays.items(), sB.arrays.items()):
            assert np.abs(a - b).max() < 1e-12, k

    def test_transposed_feedback_is_bp_bit_for_bit(self, rng):
        # BP is FA with B = W: both transport the error through one path
        sA = init_he_normal(5, channels=SMALL)
        sB = init_he_normal(5, channels=SMALL)
        for _ in range(3):
            xb, yb = small_batch(rng)
            bp_step(sA, xb, yb, 0.01)
            fa_step(sB, feedback_from_transposes(sB), xb, yb, 0.01)
        for (k, a), (_, b) in zip(sA.arrays.items(), sB.arrays.items()):
            assert np.array_equal(a, b), k

    def test_output_layer_grads_equal_bp(self, rng):
        # feedback replaces transport only: the fc2 update must match BP exactly
        sA = init_he_normal(6, channels=SMALL)
        sB = init_he_normal(6, channels=SMALL)
        xb, yb = small_batch(rng)
        bp_step(sA, xb, yb, 0.1)
        fa_step(sB, make_feedback_weights(sB, seed=99), xb, yb, 0.1)
        assert np.array_equal(sA.arrays["fc2.w"], sB.arrays["fc2.w"])
        assert np.array_equal(sA.arrays["fc2.b"], sB.arrays["fc2.b"])

    def test_fc1_grad_matches_hand_transport_formula(self, rng):
        # pencil-and-paper check of delta = f'(z1) * (B delta2) at the FC level
        state = init_he_normal(7, channels=SMALL)
        fb = make_feedback_weights(state, seed=123)
        xb, yb = small_batch(rng)
        record = forward_cached(copy.deepcopy(state), xb, "train")
        loss, grad_logits = ops.softmax_xent(record["fc2"], yb)
        delta = (grad_logits @ fb["fc2.w"].T) * (record["fc1"] > 0)
        expected_gw1 = record["gap"].T @ delta
        w_before = state.arrays["fc1.w"].copy()
        fa_step(state, fb, xb, yb, lr=1.0)
        assert np.abs((w_before - state.arrays["fc1.w"]) - expected_gw1).max() < 1e-12

    def test_shape_mismatch_rejected(self, rng):
        state = init_he_normal(0, channels=SMALL)
        fb = make_feedback_weights(state, seed=0)
        fb["fc1.w"] = fb["fc1.w"][:-1]
        xb, yb = small_batch(rng)
        with pytest.raises(ConfigurationError, match="feedback"):
            fa_step(state, fb, xb, yb, 0.01)

    def test_feedback_fixed_per_seed(self):
        state = init_he_normal(0, channels=SMALL)
        f1 = make_feedback_weights(state, seed=4)
        f2 = make_feedback_weights(state, seed=4)
        assert np.array_equal(f1["fc1.w"], f2["fc1.w"])
        assert np.array_equal(f1["conv3.w"], f2["conv3.w"])


# ---------------------------------------------------------------------------
# PC
# ---------------------------------------------------------------------------

class TestPc:
    def test_zero_error_zero_conv_update(self):
        # zero input -> all representations, predictions and errors are zero
        state = init_he_normal(0, channels=SMALL)
        pc = init_pc_state(state, 0)
        w_before = {t: state.arrays[f"{t}.w"].copy() for t in CONV_TAPS}
        cfg = RuleParams()
        pc_infer_and_learn(state, pc, np.zeros((2, 3, 32, 32)), np.array([0, 1]), cfg)
        for t, w in w_before.items():
            assert np.array_equal(state.arrays[f"{t}.w"], w)

    def test_energy_non_increasing(self, rng):
        violations = 0
        for trial in range(10):
            state = init_he_normal(trial, channels=SMALL)
            pc = init_pc_state(state, trial)
            xb = rng.normal(0.5, 0.25, size=(2, 3, 32, 32)).clip(0, 1)
            record = forward_cached(state, xb, "train")
            _, _, energies = pc_inference(
                pc, [xb] + [record[t] for t in CONV_TAPS], t_inf=10, alpha=0.02)
            if np.any(np.diff(energies) > 1e-9):
                violations += 1
        assert violations == 0

    def test_inference_gradient_matches_finite_differences(self, rng):
        state = init_he_normal(3, channels=SMALL)
        pc = init_pc_state(state, 3)
        xb = rng.normal(0.5, 0.2, size=(1, 3, 32, 32)).clip(0, 1)
        record = forward_cached(state, xb, "train")
        reps = [xb] + [record[t] for t in CONV_TAPS]
        eps = pc_errors(pc, reps)
        from brainalign.rules import pc_representation_grads
        grads = pc_representation_grads(pc, eps)
        for level in (1, 2, 3):
            r = reps[level].copy()
            sel = tuple(rng.integers(0, s, 8) for s in r.shape)
            num = np.empty(8)
            for k in range(8):
                i = tuple(ix[k] for ix in sel)
                orig = r[i]
                rr = list(reps)
                r[i] = orig + 1e-5
                rr[level] = r
                fp = pc_energy(pc_errors(pc, rr))
                r[i] = orig - 1e-5
                fm = pc_energy(pc_errors(pc, rr))
                r[i] = orig
                num[k] = (fp - fm) / 2e-5
            assert np.linalg.norm(grads[level - 1][sel] - num) / np.linalg.norm(num) < 1e-4

    def test_single_level_scalar_step_matches_hand_arithmetic(self):
        # one 2x2 input level predicted from one scalar top unit
        p = np.array([[[[0.5, -0.3], [0.2, 0.1]]]])
        pc = [p]
        r0 = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        r1 = np.array([[[[0.7]]]])
        eps0_hand = r0[0, 0] - r1[0, 0, 0, 0] * p[0, 0]
        f_hand = float(np.sum(eps0_hand**2))
        df_dr1 = -2.0 * float(np.sum(p[0, 0] * eps0_hand))
        reps, _, energies = pc_inference(pc, [r0, r1], t_inf=1, alpha=0.02)
        assert energies[0] == pytest.approx(f_hand, abs=1e-12)
        assert reps[1][0, 0, 0, 0] == pytest.approx(0.7 - 0.02 * df_dr1, abs=1e-12)

    def test_readout_updates_fc_only_plus_conv12(self, rng):
        state = init_he_normal(4, channels=SMALL)
        pc = init_pc_state(state, 4)
        cfg = RuleParams()
        xb, yb = small_batch(rng)
        fc2_before = state.arrays["fc2.w"].copy()
        conv3_before = state.arrays["conv3.w"].copy()
        conv1_before = state.arrays["conv1.w"].copy()
        pc_infer_and_learn(state, pc, xb, yb, cfg)
        assert not np.array_equal(state.arrays["fc2.w"], fc2_before)      # readout learned
        assert not np.array_equal(state.arrays["conv1.w"], conv1_before)  # error-driven update
        assert np.array_equal(state.arrays["conv3.w"], conv3_before)      # top of hierarchy


# ---------------------------------------------------------------------------
# STDP
# ---------------------------------------------------------------------------

class TestStdpKernel:
    def test_plus_20ms(self):
        assert stdp_kernel(20.0) == pytest.approx(0.003 * np.exp(-1.0), abs=1e-12)

    def test_minus_20ms(self):
        assert stdp_kernel(-20.0) == pytest.approx(-0.003 * np.exp(-1.0), abs=1e-12)

    def test_limit_at_zero_plus(self):
        assert stdp_kernel(1e-9) == pytest.approx(0.003, abs=1e-11)
        assert stdp_kernel(0.0) == 0.0

    def test_odd_symmetry_exact(self):
        grid = np.linspace(-40.0, 40.0, 81)
        assert np.array_equal(stdp_kernel(grid), -stdp_kernel(-grid))


class TestStdpMachinery:
    def test_first_spike_extremes(self):
        r = np.random.default_rng(0)
        assert np.all(first_spike_times(np.ones((3, 3)), 10, r) == 0)
        assert np.all(first_spike_times(np.zeros((3, 3)), 10, r) == 10)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            named_rng(-1, "spikes")

    def test_first_spike_deterministic_per_stream(self):
        p = np.full((4, 4), 0.3)
        a = first_spike_times(p, 10, named_rng(1, "spikes"))
        b = first_spike_times(p, 10, named_rng(1, "spikes"))
        assert np.array_equal(a, b)

    def test_conv_delta_matches_brute_force(self, rng):
        cfg = RuleParams()
        spec = ConvSpec(2, 3, 3, stride=1, padding=1)
        B, H, W = 2, 5, 5
        t_pre = rng.integers(0, 11, size=(B, 2, H, W)).astype(np.int16)
        t_post = rng.integers(0, 11, size=(B, 3, H, W)).astype(np.int16)
        dw = stdp_conv_delta(t_pre, t_post, spec, cfg)

        T, ms = cfg.stdp_t, cfg.stdp_timestep_ms
        pad = np.full((B, 2, H + 2, W + 2), T, dtype=np.int16)
        pad[:, :, 1:-1, 1:-1] = t_pre
        oracle = np.zeros(spec.weight_shape)
        for o in range(3):
            for c in range(2):
                for ki in range(3):
                    for kj in range(3):
                        total = 0.0
                        for b in range(B):
                            for i in range(H):
                                for j in range(W):
                                    tp = t_post[b, o, i, j]
                                    tq = pad[b, c, i + ki, j + kj]
                                    if tp == T or tq == T:
                                        continue
                                    total += stdp_kernel((tp - tq) * ms)
                        oracle[o, c, ki, kj] = total / (B * H * W)
        assert np.abs(dw - oracle).max() < 1e-15

    @pytest.mark.parametrize("case", ["random", "never", "step0", "t200", "stride2", "conv2"])
    def test_conv_delta_matches_tensordot_form(self, rng, case):
        cfg = RuleParams(stdp_t=200 if case == "t200" else 10)
        spec = ConvSpec(3, 5, 3, stride=2 if case == "stride2" else 1, padding=1)
        B, H, W = 4, 9, 7
        if case == "conv2":   # the network's conv2 at 32 px
            spec, B, H, W = ConvSpec(32, 64, 3, padding=1), 8, 16, 16
        T = cfg.stdp_t
        t_pre = rng.integers(0, T + 1, size=(B, spec.in_channels, H, W)).astype(np.int16)
        if case == "never":
            t_pre[:] = T
        elif case == "step0":
            t_pre[:] = 0
        Ho, Wo = spec.out_size(H), spec.out_size(W)
        t_post = rng.integers(0, T + 1, size=(B, spec.out_channels, Ho, Wo)).astype(np.int16)
        dw = stdp_conv_delta(t_pre, t_post, spec, cfg)
        assert np.array_equal(dw, stdp_delta_reference(t_pre, t_post, spec, cfg))
        assert dw.any() == (case != "never")

    def test_never_spiking_pairs_contribute_zero(self):
        cfg = RuleParams()
        spec = ConvSpec(1, 1, 1, stride=1, padding=0)
        t_pre = np.full((1, 1, 2, 2), cfg.stdp_t, dtype=np.int16)   # silent
        t_post = np.zeros((1, 1, 2, 2), dtype=np.int16)
        assert not stdp_conv_delta(t_pre, t_post, spec, cfg).any()

    def test_step_updates_conv_and_readout(self, rng):
        state = init_he_normal(8, channels=SMALL)
        cfg = RuleParams()
        xb, yb = small_batch(rng)
        conv_before = state.arrays["conv1.w"].copy()
        fc_before = state.arrays["fc1.w"].copy()
        stdp_step(state, xb, yb, cfg, named_rng(8, "spikes"))
        assert not np.array_equal(state.arrays["conv1.w"], conv_before)
        assert not np.array_equal(state.arrays["fc1.w"], fc_before)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def stdp_delta_reference(t_pre, t_post, spec, cfg):
    """The STDP update as one tensordot per spike step tau: a conv weight
    grad of table[t_post, tau] against the pre-units that spike at tau."""
    B, _, Ho, Wo = t_post.shape
    table = _pair_kernel_table(cfg)
    total = np.zeros(spec.weight_shape)
    for tau in range(cfg.stdp_t):
        total += np.tensordot(table[t_post, tau], ops.conv_windows(t_pre == tau, spec),
                              axes=([0, 2, 3], [0, 2, 3]))
    return total / (B * Ho * Wo)


def blob_set(seed=0, n=120, classes=4):
    spec = SynthSpec(num_train=n, num_test=0, num_classes=classes, num_stimuli=4,
                     extraction_resolution=32, channels=SMALL)
    labeled, _, _ = synth_dataset(spec, seed)
    return labeled.subset(slice(0, n))


class TestTrain:
    def test_random_rule_equals_he_init(self):
        ds = blob_set()
        state = train("random", RuleParams(epochs=3), ds, seed=9, channels=SMALL)
        init = init_he_normal(9, channels=SMALL, num_classes=4)
        for (k, a), (_, b) in zip(state.arrays.items(), init.arrays.items()):
            assert np.array_equal(a, b), k

    def test_bp_learns_separable_set(self):
        ds = blob_set(n=160, classes=2)
        params = RuleParams(epochs=6, batch_size=32, lr=0.02)
        state = train("bp", params, ds, seed=0, channels=SMALL)
        assert evaluate_accuracy(state, ds.images, ds.labels) > 0.9

    def test_evaluation_releases_each_batch(self):
        # three eval batches peak where one does: each batch's record is
        # released before the next batch's forward runs
        state = init_he_normal(0)
        rng = np.random.default_rng(5)
        images = rng.random(size=(3 * EVAL_BATCH_SIZE, 3, 32, 32))
        labels = rng.integers(0, 10, images.shape[0])
        one_batch = (images[:EVAL_BATCH_SIZE], labels[:EVAL_BATCH_SIZE])
        evaluate_accuracy(state, *one_batch)  # BN warning, first-call setup
        _, one = traced_peak(evaluate_accuracy, state, *one_batch)
        _, three = traced_peak(evaluate_accuracy, state, images, labels)
        assert three < 1.1 * one

    @pytest.mark.parametrize("rule", ["bp", "fa", "pc", "stdp"])
    def test_deterministic_per_seed(self, rule):
        ds = blob_set(n=48)
        params = RuleParams(epochs=1, batch_size=16)
        s1 = train(rule, params, ds, seed=1, channels=SMALL)
        s2 = train(rule, params, ds, seed=1, channels=SMALL)
        for (k, a), (_, b) in zip(s1.arrays.items(), s2.arrays.items()):
            assert np.array_equal(a, b), (rule, k)

    def test_metrics_csv_written(self, tmp_path):
        ds = blob_set(n=32)
        path = tmp_path / "metrics.csv"
        train("bp", RuleParams(epochs=2, batch_size=16), ds, seed=0,
              metrics_path=path, channels=SMALL)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,train_acc,test_acc,rule,seed"
        assert len(lines) == 3
        assert lines[1].endswith("bp,0")

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_aborts_with_epoch(self):
        # batch norm makes plain SGD hard to blow up, so force the overflow
        # through the input scale: conv sums overflow to +/-inf, the batch
        # mean of +/-inf is NaN, and the loss follows
        images = np.full((32, 3, 32, 32), 1e308)
        images[::2] = -1e308
        ds = LabeledImageSet(images, np.zeros(32, dtype=np.int64))
        params = RuleParams(epochs=2, batch_size=16)
        with pytest.raises(TrainingDivergedError) as e:
            train("bp", params, ds, seed=0, channels=SMALL)
        assert e.value.epoch == 0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_pc_energy_divergence_aborts(self, rng):
        # gradient ascent overshoot: an absurd inference rate explodes F
        ds = blob_set(n=16)
        params = RuleParams(epochs=1, batch_size=16, pc_alpha=1e40)
        with pytest.raises(TrainingDivergedError) as e:
            train("pc", params, ds, seed=0, channels=SMALL)
        assert e.value.epoch == 0

    def test_empty_dataset_rejected(self):
        empty = LabeledImageSet(np.zeros((0, 3, 32, 32)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ConfigurationError, match="empty"):
            train("bp", RuleParams(), empty, seed=0)
