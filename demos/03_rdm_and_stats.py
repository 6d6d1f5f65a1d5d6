"""
RDMs and the alignment statistics
=================================

Builds correlation-distance RDMs from network features and pixel values,
each held as its upper-triangle vector, then walks the statistical toolbox: Spearman scores, bootstrap confidence
intervals, a permutation test on a condition difference, FDR correction,
the split-half noise ceiling, partial correlation against a pixel
control, and paired Cohen's d.
"""

import numpy as np

from brainalign.data import SynthSpec, synth_dataset
from brainalign.network import extract_all_taps, init_he_normal
from brainalign.rdm import pixel_rdm, rdm_from_features
from brainalign.stats import (
    bootstrap_ci,
    cohens_d_paired,
    fdr_bh,
    noise_ceiling,
    partial_spearman,
    permutation_test,
    spearman,
)

CHANNELS = (4, 6, 8)

# Synthetic stimuli plus three noisy "subjects" per ROI, derived from a
# reference network's conv1 geometry
spec = SynthSpec(num_train=8, num_test=0, num_classes=2, num_stimuli=40,
                 extraction_resolution=32, noise_amplitude=0.15,
                 channels=CHANNELS)
_, stimuli, brain = synth_dataset(spec, seed=0)
v1_subjects = list(brain["V1"].values())  # brain: ROI -> {subject: vector}
brain_vec = np.mean(v1_subjects, axis=0)

# Model RDMs: an untrained network vs a differently seeded one
feats_a = extract_all_taps(init_he_normal(0, channels=CHANNELS), stimuli)
feats_b = extract_all_taps(init_he_normal(1, channels=CHANNELS), stimuli)
vec_a = rdm_from_features(feats_a["conv1"], stimuli.ids)
vec_b = rdm_from_features(feats_b["fc1"], stimuli.ids)

rho_a = spearman(vec_a, brain_vec)
rho_b = spearman(vec_b, brain_vec)
print(f"conv1 (net A) vs mean brain: rho = {rho_a:+.3f}")
print(f"fc1   (net B) vs mean brain: rho = {rho_b:+.3f}")

lo, hi = bootstrap_ci(vec_a, brain_vec, n_boot=1000, seed=0)
print(f"bootstrap 95% CI for net A: [{lo:+.3f}, {hi:+.3f}]")

test = permutation_test(vec_a, vec_b, brain_vec, n_perm=999, seed=0)
print(f"difference {test['delta_rho']:+.3f}, permutation p = {test['p_value']:.4f}")

flags = fdr_bh([test["p_value"], 0.03, 0.2, 0.8], alpha=0.05)
print("FDR flags over a small p-value family:", flags)

nc = noise_ceiling(v1_subjects, seed=0)
print(f"noise ceiling at V1: lower {nc['lower']:.3f}, upper {nc['upper']:.3f}")

control = pixel_rdm(stimuli)
part = partial_spearman(vec_a, brain_vec, control)
print(f"partial rho after pixel control: {part['rho']:+.3f} "
      f"(plain {rho_a:+.3f}, degenerate={part['degenerate']})")

per_subject_a = [spearman(vec_a, v) for v in v1_subjects]
per_subject_b = [spearman(vec_b, v) for v in v1_subjects]
d = cohens_d_paired(per_subject_a, per_subject_b)
print(f"paired Cohen's d over subjects: {d['d']:+.2f}")
