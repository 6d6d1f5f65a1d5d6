"""
Five training conditions on one fixed CNN
=========================================

Trains the same small architecture under random (untrained), BP, FA, PC
and STDP on a synthetic blob dataset, and prints the resulting train
accuracies. Also shows two structural facts: feedback alignment with
feedback equal to the forward weights reproduces backprop exactly, and
the STDP kernel is odd-symmetric with the documented time constants.
"""

import numpy as np

from brainalign.data import SynthSpec, synth_dataset
from brainalign.network import init_he_normal
from brainalign.rules import (
    RuleParams,
    bp_step,
    evaluate_accuracy,
    fa_step,
    feedback_from_transposes,
    stdp_kernel,
    train,
)

CHANNELS = (8, 12, 16)

spec = SynthSpec(num_train=240, num_test=80, num_classes=4, num_stimuli=8,
                 extraction_resolution=32, channels=CHANNELS)
labeled, _, _ = synth_dataset(spec, seed=0)
train_set = labeled.subset(slice(0, 240))
test_set = labeled.subset(slice(240, None))

print(f"{'rule':<8} {'train acc':>10} {'test acc':>10}")
# one RuleParams for every condition, as in the paper; an ExperimentConfig
# is a RuleParams too, so a run's config can be passed as it is
params = RuleParams(epochs=3, batch_size=32, lr=0.02)
for rule in ("random", "bp", "fa", "pc", "stdp"):
    state = train(rule, params, train_set, seed=0, channels=CHANNELS)
    tr = evaluate_accuracy(state, train_set.images, train_set.labels)
    te = evaluate_accuracy(state, test_set.images, test_set.labels)
    print(f"{rule:<8} {tr:>10.3f} {te:>10.3f}")

# FA collapses to BP when the feedback tensors equal the forward weights
rng = np.random.default_rng(1)
s_bp = init_he_normal(7, channels=CHANNELS, num_classes=4)
s_fa = init_he_normal(7, channels=CHANNELS, num_classes=4)
for _ in range(3):
    xb = rng.random(size=(8, 3, 32, 32))
    yb = rng.integers(0, 4, size=8)
    bp_step(s_bp, xb, yb, 0.01)
    fa_step(s_fa, feedback_from_transposes(s_fa), xb, yb, 0.01)
diff = max(np.abs(a - b).max() for a, b in zip(
    s_bp.arrays.values(), s_fa.arrays.values()))
print("\nFA with B = W vs BP, max parameter difference:", diff)

# The timing kernel: potentiation for post-after-pre, depression otherwise
for dt in (2.0, 10.0, 20.0, -20.0):
    print(f"STDP kernel at dt = {dt:+.0f} ms: {stdp_kernel(dt):+.7f}")
