"""
First-layer filter structure via FFT peakedness
===============================================

The peakedness score is the ratio of the largest to the mean non-DC
Fourier magnitude of a kernel. Oriented periodic structure (a grating)
scores near the theoretical maximum; white noise scores in the low
single digits. He-initialized conv1 filters behave like white noise.
"""

import numpy as np

from brainalign.filters import gabor_peakedness, summarize_filters
from brainalign.network import init_he_normal

rng = np.random.default_rng(0)

# A pure grating concentrates all energy in two conjugate bins
k = 8
i, j = np.mgrid[0:k, 0:k]
grating = np.cos(2 * np.pi * (i + 2 * j) / k)
print(f"grating {k}x{k}: score {gabor_peakedness(grating)['score']:.2f} "
      f"(theory {(k * k - 1) / 2:.1f})")

# White noise spreads energy across all bins
noise_scores = [gabor_peakedness(rng.normal(size=(3, 3)))["score"] for _ in range(500)]
print(f"white noise 3x3: mean {np.mean(noise_scores):.2f} "
      f"+/- {np.std(noise_scores):.2f}")

# He-initialized conv1 kernels are statistically white
summary = summarize_filters(init_he_normal(0, channels=(32, 4, 4)), rule="random")
print(f"untrained conv1: mean {summary['mean']:.2f} +/- {summary['std']:.2f} "
      f"over {len(summary['scores'])} filters")
print("export grid shape (first 16 filters, min-max normalized):", summary["grid"].shape)
print("grid value range:", summary["grid"].min(), "to", summary["grid"].max())
