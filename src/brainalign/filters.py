"""Conv1 filter inspection: spectral peakedness and a plot-ready grid.

Peakedness is the ratio of the largest to the mean non-DC 2D Fourier
magnitude of the (channel-averaged, mean-subtracted) kernel. Oriented
periodic structure concentrates energy in few bins and scores high;
unstructured noise scores in the low single digits.
"""

from __future__ import annotations

import numpy as np

from .data import write_csv
from .errors import ConfigurationError


def gabor_peakedness(filt) -> dict:
    """Spectral peak-to-mean ratio of one [C,k,k] (or [k,k]) kernel, as
    {"score", "degenerate"}.

    Channels are averaged to a single map and the mean (DC) is removed
    before the FFT; the DC bin is excluded from both max and mean. A
    constant filter has no non-DC energy and scores 1.0 with the
    degenerate flag set.
    """
    f = np.asarray(filt, dtype=np.float64)
    if f.ndim == 3:
        f = f.mean(axis=0)
    if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] < 2:
        raise ConfigurationError(f"filter must be [C,k,k] or [k,k] with k >= 2, got {f.shape}")
    f = f - f.mean()
    mag = np.abs(np.fft.fft2(f)).ravel()
    non_dc = mag[1:]  # bin (0,0) is ravel index 0
    mean = non_dc.mean()
    if mean == 0.0:
        return {"score": 1.0, "degenerate": True}
    return {"score": float(non_dc.max() / mean), "degenerate": False}


def _minmax_grid(filters: np.ndarray) -> np.ndarray:
    grid = np.empty_like(filters)
    for i, f in enumerate(filters):
        lo, hi = f.min(), f.max()
        grid[i] = (f - lo) / (hi - lo) if hi > lo else np.full_like(f, 0.5)
    return grid


def summarize_filters(state, rule: str = "") -> dict:
    """Score every conv1 filter of a NetworkState and export the first 16
    as a min-max normalized grid for external plotting.

    Returns {"rule", "scores" [num_filters], "mean", "std" (sample, ddof=1),
    "degenerate" [num_filters] bool, "grid" [min(16, num_filters), C, k, k]
    in [0, 1]}.
    """
    weights = state.arrays["conv1.w"]
    results = [gabor_peakedness(w) for w in weights]
    scores = np.array([r["score"] for r in results])
    std = float(np.std(scores, ddof=1)) if scores.size > 1 else 0.0
    return {"rule": rule, "scores": scores, "mean": float(scores.mean()), "std": std,
            "degenerate": np.array([r["degenerate"] for r in results]),
            "grid": _minmax_grid(weights[:16])}


def write_filter_scores_csv(summary: dict, path) -> None:
    rule = summary["rule"]
    rows = [[rule, i, s, int(d)]
            for i, (s, d) in enumerate(zip(summary["scores"], summary["degenerate"]))]
    rows += [[rule, "mean", summary["mean"], ""], [rule, "std", summary["std"], ""]]
    write_csv(path, ["rule", "filter", "peakedness", "degenerate"], rows)


def write_filter_grid_csv(summary: dict, path) -> None:
    """One row per exported filter: index then the [C,k,k] values flattened
    row-major."""
    grid = summary["grid"]
    c, k = grid.shape[1], grid.shape[2]
    write_csv(path, ["filter"] + [f"v{j}" for j in range(c * k * k)],
              [[i] + g.ravel().tolist() for i, g in enumerate(grid)])
