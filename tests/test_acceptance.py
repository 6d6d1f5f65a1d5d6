"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they happen).

Criterion 9 (the full-scale CIFAR-10 directional run) is skipped unless
RUN_FULL_SCALE=1 and CIFAR10_DIR point at the binary batch files; it
takes hours.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as ss

from brainalign import network, ops, stats
from brainalign.data import (
    SynthSpec,
    read_cifar10_binary,
    read_rdm_csv,
    write_rdm_csv,
    write_synth_dataset,
)
from brainalign.network import CONV_TAPS, forward_cached, init_he_normal
from brainalign.ops import ConvSpec
from brainalign.pipeline import ExperimentConfig, run_experiment
from brainalign.rdm import pairs, rdm_from_features
from brainalign.rules import (
    RuleParams,
    bp_step,
    fa_step,
    feedback_from_transposes,
    init_pc_state,
    pc_inference,
    stdp_kernel,
    train,
)

from helpers import numeric_grad, relerr, stim_ids, treehash

SMALL = (4, 6, 8)


def _report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Gradient correctness on 20 random instances per op, under 60 s
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0

    for _ in range(20):  # conv2d
        spec = ConvSpec(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                        int(rng.integers(1, 4)), stride=int(rng.integers(1, 3)),
                        padding=int(rng.integers(0, 2)))
        h = int(rng.integers(spec.kernel_size, spec.kernel_size + 4))
        x = rng.normal(size=(2, spec.in_channels, h, h))
        w = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=spec.out_channels)
        proj = rng.normal(size=ops.conv2d_forward(x, w, spec).shape)

        def loss(x, w, b):
            return float(np.sum((ops.conv2d_forward(x, w, spec) + b.reshape(1, -1, 1, 1)) * proj))

        gx = ops.conv2d_input_grad(proj, w, spec, x.shape[2:])
        gw, gb = ops.conv2d_weight_grad(proj, x, spec), proj.sum(axis=(0, 2, 3))
        worst = max(worst, relerr(gx, numeric_grad(lambda v: loss(v, w, b), x)))
        worst = max(worst, relerr(gw, numeric_grad(lambda v: loss(x, v, b), w)))
        worst = max(worst, relerr(gb, numeric_grad(lambda v: loss(x, w, v), b)))

    for _ in range(20):  # maxpool (tie-free inputs)
        h = 2 * int(rng.integers(1, 4))
        x = rng.permutation(2 * 2 * h * h).reshape(2, 2, h, h).astype(float)
        out = ops.maxpool2x2_forward(x)
        proj = rng.normal(size=out.shape)
        g = ops.maxpool2x2_backward(proj, x, out)
        worst = max(worst, relerr(g, numeric_grad(
            lambda v: float(np.sum(ops.maxpool2x2_forward(v) * proj)), x)))

    for _ in range(20):  # batchnorm (through the batch statistics)
        c = int(rng.integers(1, 4))
        x = rng.normal(size=(3, c, 3, 3))
        gamma = rng.normal(1.0, 0.3, size=c)
        beta = rng.normal(size=c)
        proj = rng.normal(size=x.shape)

        def f(v, g=gamma, b=beta):
            o, _ = ops.batchnorm_forward(v, g, b, np.zeros(c), np.ones(c), "train")
            return float(np.sum(o * proj))

        _, cache = ops.batchnorm_forward(x, gamma, beta, np.zeros(c), np.ones(c), "train")
        gx, gg, gb = ops.batchnorm_backward(proj, cache)
        worst = max(worst, relerr(gx, numeric_grad(f, x)))
        worst = max(worst, relerr(gg, numeric_grad(lambda v: f(x, g=v), gamma)))
        worst = max(worst, relerr(gb, numeric_grad(lambda v: f(x, b=v), beta)))

    for _ in range(20):  # affine
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        proj = rng.normal(size=(3, 3))
        gx, gw, gb = ops.affine_backward(proj, x, w)
        worst = max(worst, relerr(gx, numeric_grad(
            lambda v: float(np.sum(ops.affine_forward(v, w, b) * proj)), x)))
        worst = max(worst, relerr(gw, numeric_grad(
            lambda v: float(np.sum(ops.affine_forward(x, v, b) * proj)), w)))

    for _ in range(20):  # softmax cross-entropy
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        _, grad = ops.softmax_xent(logits, labels)
        worst = max(worst, relerr(grad, numeric_grad(
            lambda v: ops.softmax_xent(v, labels)[0], logits)))

    # Full network: loss gradient w.r.t. sampled entries of every tensor.
    # ReLU and max-pool are only piecewise smooth, so entries whose
    # perturbation flips a routing decision are skipped (FD is undefined at
    # a kink), and the error gets a small absolute floor because BN absorbs
    # conv biases (their true gradient is exactly zero, FD returns noise).
    def routing(record):
        sig = []
        for tap in CONV_TAPS:
            sig.append(ops._pool_argmax(record[f"{tap}.relu"], record[tap]))
            sig.append(record[f"{tap}.relu"] > 0)
        sig.append(record["fc1"] > 0)
        return sig

    def floored_relerr(a, n):
        return np.linalg.norm(a - n) / max(np.linalg.norm(n), np.linalg.norm(a), 1e-5)

    checked = skipped = 0
    for trial in range(20):
        st = init_he_normal(trial, channels=(2, 3, 4))
        batch = rng.normal(0.5, 0.2, size=(2, 3, 32, 32)).clip(0, 1)
        labels = rng.integers(0, 10, size=2)
        record = forward_cached(st, batch, "train")
        _, grad_logits = ops.softmax_xent(record["fc2"], labels)
        grads = network.backward(st, record, grad_logits)
        params = st.arrays
        for name in ("conv1.w", "conv2.gamma", "conv3.b", "fc1.w", "fc2.w"):
            tensor, analytic = params[name], grads[name]
            sel = tuple(rng.integers(0, s, 4) for s in tensor.shape)
            nums, anas = [], []
            for k in range(4):
                i = tuple(ix[k] for ix in sel)
                orig = tensor[i]
                tensor[i] = orig + 1e-5
                record_p = forward_cached(st, batch, "train")
                fp = ops.softmax_xent(record_p["fc2"], labels)[0]
                tensor[i] = orig - 1e-5
                record_m = forward_cached(st, batch, "train")
                fm = ops.softmax_xent(record_m["fc2"], labels)[0]
                tensor[i] = orig
                stable = all(np.array_equal(a, b) for a, b in
                             zip(routing(record_p), routing(record_m)))
                if not stable:
                    skipped += 1
                    continue
                nums.append((fp - fm) / 2e-5)
                anas.append(analytic[i])
                checked += 1
            if nums:
                worst = max(worst, floored_relerr(np.array(anas), np.array(nums)))

    elapsed = time.time() - t0
    _report(1, "gradient correctness",
            worst < 1e-4 and elapsed < 60 and checked > 300,
            f"worst rel err {worst:.2e}, {checked} net entries "
            f"({skipped} at kinks skipped), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. FA reduces to BP with transposed feedback
# ---------------------------------------------------------------------------

def test_criterion_02_fa_bp_reduction():
    rng = np.random.default_rng(102)
    s_bp = init_he_normal(5, channels=SMALL)
    s_fa = init_he_normal(5, channels=SMALL)
    for _ in range(3):
        xb = rng.normal(0.5, 0.2, size=(4, 3, 32, 32)).clip(0, 1)
        yb = rng.integers(0, 10, size=4)
        bp_step(s_bp, xb, yb, 0.01)
        fa_step(s_fa, feedback_from_transposes(s_fa), xb, yb, 0.01)
    worst = max(np.abs(a - b).max() for (_, a), (_, b) in
                zip(s_bp.arrays.items(), s_fa.arrays.items()))
    _report(2, "FA->BP reduction", worst < 1e-10, f"max param diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. STDP kernel values and odd symmetry
# ---------------------------------------------------------------------------

def test_criterion_03_stdp_kernel():
    ok_plus = abs(stdp_kernel(20.0) - 0.003 * math.exp(-1.0)) < 1e-12
    ok_minus = abs(stdp_kernel(-20.0) + 0.003 * math.exp(-1.0)) < 1e-12
    grid = np.linspace(-50.0, 50.0, 101)
    ok_odd = np.array_equal(stdp_kernel(grid), -stdp_kernel(-grid))
    _report(3, "STDP kernel", ok_plus and ok_minus and ok_odd,
            f"K(+20ms)={stdp_kernel(20.0):.10f}")


# ---------------------------------------------------------------------------
# 4. PC energy descent at alpha = 0.02 on 100 random batches
# ---------------------------------------------------------------------------

def test_criterion_04_pc_energy_descent():
    rng = np.random.default_rng(104)
    alpha = 0.02
    violations = 0
    for trial in range(100):
        st = init_he_normal(trial % 17, channels=SMALL)
        pc = init_pc_state(st, trial)
        xb = rng.normal(0.5, 0.25, size=(2, 3, 32, 32)).clip(0, 1)
        record = forward_cached(st, xb, "train")
        _, _, energies = pc_inference(pc, [xb] + [record[t] for t in CONV_TAPS],
                                      t_inf=10, alpha=alpha)
        if np.any(np.diff(energies) > 1e-9 * max(energies)):
            violations += 1
    _report(4, "PC energy descent", violations == 0,
            f"alpha={alpha}, violations {violations}/100")


# ---------------------------------------------------------------------------
# 5. Statistical oracles vs brute-force implementations
# ---------------------------------------------------------------------------

def _spearman_oracle(x, y):
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return np.array(r)

    return float(np.corrcoef(ranks(list(x)), ranks(list(y)))[0, 1])


def _bh_oracle(p, alpha):
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    best = 0
    for k in range(1, m + 1):
        if p[order[k - 1]] <= k * alpha / m:
            best = k
    flags = [False] * m
    for i in range(best):
        flags[order[i]] = True
    return flags


def test_criterion_05_statistical_oracles():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 40))
        x = rng.integers(0, 6, n).astype(float) if rng.random() < 0.5 else rng.normal(size=n)
        y = rng.normal(size=n)
        if np.ptp(x) == 0:
            continue
        worst = max(worst, abs(stats.spearman(x, y) - _spearman_oracle(x, y)))

    fdr_ok = True
    for _ in range(200):
        m = int(rng.integers(1, 13))
        p = rng.random(m).clip(1e-9, 1.0).tolist()
        alpha = float(rng.choice([0.01, 0.05, 0.1]))
        fdr_ok &= stats.fdr_bh(p, alpha) == _bh_oracle(p, alpha)

    for _ in range(200):
        n = int(rng.integers(10, 80))
        mvec, bvec, cvec = rng.normal(size=(3, n))
        rm, rb, rc = (ss.rankdata(v) for v in (mvec, bvec, cvec))
        em = rm - np.polyval(np.polyfit(rc, rm, 1), rc)
        eb = rb - np.polyval(np.polyfit(rc, rb, 1), rc)
        oracle = float(np.corrcoef(em, eb)[0, 1])
        worst = max(worst, abs(stats.partial_spearman(mvec, bvec, cvec)["rho"] - oracle))

    ut_ok = True  # the RDM vector's pair order
    for n in range(2, 15):
        mine = list(zip(*(k.tolist() for k in pairs(n))))
        ut_ok &= mine == [(i, j) for i in range(n) for j in range(i + 1, n)]

    _report(5, "statistical oracles", worst < 1e-10 and fdr_ok and ut_ok,
            f"worst numeric diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. Permutation calibration under an independent null
# ---------------------------------------------------------------------------

def test_criterion_06_permutation_calibration():
    ps = []
    ids = stim_ids(25)
    for i in range(500):
        rng = np.random.default_rng(20_000 + i)
        va = rdm_from_features(rng.normal(size=(25, 12)), ids)
        vb = rdm_from_features(rng.normal(size=(25, 12)), ids)
        vbrain = rdm_from_features(rng.normal(size=(25, 12)), ids)
        ps.append(stats.permutation_test(va, vb, vbrain, n_perm=400, seed=i)["p_value"])
    ps = np.array(ps)
    ks = ss.kstest(ps, "uniform").statistic
    fpr = float(np.mean(ps <= 0.05))
    _report(6, "permutation calibration", ks < 0.1 and 0.03 <= fpr <= 0.07,
            f"KS {ks:.3f}, FPR {fpr:.3f}")


# ---------------------------------------------------------------------------
# 7. Bootstrap coverage at known population Spearman 0.3
# ---------------------------------------------------------------------------

def test_criterion_07_bootstrap_coverage():
    rho_s = 0.3
    rho_pearson = 2 * math.sin(math.pi * rho_s / 6)  # Gaussian copula inverse
    cov = [[1.0, rho_pearson], [rho_pearson, 1.0]]
    hits = 0
    for i in range(200):
        rng = np.random.default_rng(30_000 + i)
        z = rng.multivariate_normal([0.0, 0.0], cov, size=500)
        lo, hi = stats.bootstrap_ci(z[:, 0], z[:, 1], n_boot=500, seed=i)
        hits += lo <= rho_s <= hi
    coverage = hits / 200
    _report(7, "bootstrap coverage", 0.90 <= coverage <= 1.0,
            f"coverage {coverage:.3f} for true rho {rho_s}")


# ---------------------------------------------------------------------------
# 8. Pipeline recovery at desk scale (200 stimuli, 2 seeds, < 5 min)
# ---------------------------------------------------------------------------

def test_criterion_08_pipeline_recovery(tmp_path):
    t0 = time.time()
    channels = (8, 16, 32)
    spec = SynthSpec(num_train=256, num_test=64, num_classes=4, num_stimuli=200,
                     stimulus_size=64, extraction_resolution=224,
                     noise_amplitude=0.08, channels=channels)
    paths = write_synth_dataset(spec, 0, tmp_path / "data")
    cfg = ExperimentConfig(
        train_data=(str(paths["train"]),), test_data=(),
        stimuli_dir=str(paths["stimuli"]), brain_rdm_dir=str(paths["brain"]),
        out_dir=str(tmp_path / "run"), rules=("random", "bp"), seeds=(0, 1),
        epochs=2, batch_size=32, train_limit=256, resolution=224,
        channels=channels, num_classes=4, n_boot=200, n_perm=500,
        noise_ceiling_splits=5,
    )
    report = run_experiment(cfg)
    elapsed = time.time() - t0

    v1 = report["rois"]["V1"]["conditions"]
    reference_highest = v1["random"]["rho"] == max(c["rho"] for c in v1.values())
    pair = next(r for r in report["pairwise_tests"]
                if r["roi"] == "V1" and {"random", "bp"} == {r["a"], r["b"]})
    sweep_ok = report["best_layer"]["random"]["best_tap"]["V1"] == "conv1"
    ok = (reference_highest and pair["p_value"] <= 0.01 and sweep_ok
          and not report["failures"] and elapsed < 300)
    _report(8, "pipeline recovery", ok,
            f"V1 rho random {v1['random']['rho']:.3f} vs bp {v1['bp']['rho']:.3f}, "
            f"p {pair['p_value']:.4f}, argmax {report['best_layer']['random']['best_tap']['V1']}, "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. Full-scale directional accuracy ordering (optional, hours)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(os.environ.get("RUN_FULL_SCALE") != "1"
                    or "CIFAR10_DIR" not in os.environ,
                    reason="extended run: set RUN_FULL_SCALE=1 and CIFAR10_DIR "
                           "to the directory holding data_batch_*.bin")
def test_criterion_09_full_scale_accuracy_ordering():
    cifar = sorted(Path(os.environ["CIFAR10_DIR"]).glob("data_batch_*.bin"))
    test_files = sorted(Path(os.environ["CIFAR10_DIR"]).glob("test_batch.bin"))
    train_set = read_cifar10_binary(cifar, limit=8000)
    test_set = read_cifar10_binary(test_files, limit=2000)
    from brainalign.rules import evaluate_accuracy

    acc = {}
    for rule in ("random", "bp", "fa", "stdp"):
        state = train(rule, RuleParams(epochs=40, batch_size=64), train_set, seed=0)
        acc[rule] = evaluate_accuracy(state, test_set.images, test_set.labels)
    ok = (acc["bp"] > acc["stdp"] and acc["bp"] > acc["fa"] > 0.1
          and abs(acc["random"] - 0.10) <= 0.02)
    _report(9, "full-scale accuracy ordering", ok, str(acc))


# ---------------------------------------------------------------------------
# 10. Determinism: verb reruns are byte-identical
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    from brainalign.cli import main

    rc = main(["synth", "--out", str(tmp_path / "data"), "--seed", "3",
               "--train", "64", "--test", "16", "--classes", "4",
               "--stimuli", "16", "--stim-size", "24", "--resolution", "32",
               "--noise", "0.05", "--channels", "4,6,8"])
    assert rc == 0
    cfg = str(tmp_path / "data" / "synth.cfg")
    report_args = ["report", "--config", cfg, "--out", str(tmp_path / "run"),
                   "--rules", "random,bp", "--seeds", "0", "--epochs", "1"]
    assert main(report_args) == 0
    h1 = treehash(tmp_path / "run")
    assert main(report_args) == 0
    h2 = treehash(tmp_path / "run")

    train_args = ["train", "--config", cfg, "--rule", "bp", "--seed", "0",
                  "--epochs", "1", "--ckpt", str(tmp_path / "a.ckpt")]
    assert main(train_args) == 0
    b1 = (tmp_path / "a.ckpt").read_bytes()
    assert main(train_args) == 0
    b2 = (tmp_path / "a.ckpt").read_bytes()
    _report(10, "determinism", h1 == h2 and b1 == b2,
            f"report tree {h1[:12]}..., checkpoint {len(b1)} bytes")


# ---------------------------------------------------------------------------
# 11. Format fidelity: CIFAR bit-exact, RDM CSV lossless
# ---------------------------------------------------------------------------

def test_criterion_11_format_fidelity(tmp_path):
    # hand-crafted CIFAR records: label byte + channel-major pixels
    rng = np.random.default_rng(111)
    pixels = rng.integers(0, 256, size=(3, 3, 32, 32), dtype=np.uint8)
    labels = [7, 0, 9]
    raw = b"".join(bytes([l]) + p.tobytes() for l, p in zip(labels, pixels))
    (tmp_path / "batch.bin").write_bytes(raw)
    ds = read_cifar10_binary([tmp_path / "batch.bin"])
    cifar_ok = (ds.labels.tolist() == labels
                and np.array_equal(ds.images, pixels.astype(np.float64) / 255.0))

    # RDM CSV round trip with awkward float values
    n = 7
    vals = rng.random(size=(n, n))
    vals[0, 1] = vals[1, 0] = 0.1
    vals[0, 2] = vals[2, 0] = 1.0 / 3.0
    vals[1, 2] = vals[2, 1] = 1e-300
    vals = np.clip((vals + vals.T) / 2, 0, 2)
    np.fill_diagonal(vals, 0.0)
    ids = tuple(f"s{i}" for i in range(n))
    vec = vals[np.triu_indices(n, k=1)]
    write_rdm_csv(vec, ids, tmp_path / "sub-01_V1.csv")
    back, back_ids = read_rdm_csv(tmp_path / "sub-01_V1.csv")
    rdm_ok = np.array_equal(back, vec) and back_ids == ids

    _report(11, "format fidelity", cifar_ok and rdm_ok,
            f"cifar bit-exact {cifar_ok}, rdm lossless {rdm_ok}")
