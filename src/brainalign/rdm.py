"""Representational dissimilarity matrices, held as vectors.

An RDM over N stimuli is a symmetric N x N matrix of correlation
distances (1 - Pearson r, range [0, 2]) with an exactly zero diagonal.
The package holds only its strict upper triangle, in row-major order:
the float vector of the N(N-1)/2 pairs (0,1), (0,2), ..., (0,N-1),
(1,2), ..., whose rows and columns `pairs(N)` gives. The ordered
stimulus ids travel beside the vector. Only RDM CSV files hold the
square matrix (data.write_rdm_csv / data.read_rdm_csv).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataFormatError

CLAMP_GUARD = 1e-12


def pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the RDM vector's entries for n stimuli."""
    return np.triu_indices(n, k=1)


def _clamp(vec: np.ndarray) -> np.ndarray:
    """A rounding-only clamp to [0, 2]: values may be pulled in by at most
    1e-12, never further."""
    if vec.size and (vec.min() < -CLAMP_GUARD or vec.max() > 2.0 + CLAMP_GUARD):
        raise ConfigurationError(
            f"distance out of [0, 2] beyond rounding: min {vec.min()!r} max {vec.max()!r}")
    return np.clip(vec, 0.0, 2.0)


def _correlation_distance(matrix: np.ndarray, ids) -> np.ndarray:
    x = np.asarray(matrix, dtype=np.float64)
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    # a NaN or inf value, or a sum of squares that overflows, gives a
    # non-finite norm, and then a NaN distance
    for bad, what in ((~np.isfinite(norms), "non-finite"), (norms == 0, "zero-variance")):
        rows = np.flatnonzero(bad)
        if rows.size:
            names = [ids[i] for i in rows[:10]]
            raise DataFormatError(f"{what} feature rows for stimuli {names}"
                                  + (" ..." if rows.size > 10 else ""))
    dist = 1.0 - (centered @ centered.T) / np.outer(norms, norms)
    i, j = pairs(len(dist))
    return _clamp((dist[i, j] + dist[j, i]) / 2.0)  # exactly symmetric


def rdm_from_features(matrix, ids=None) -> np.ndarray:
    """Correlation-distance RDM vector from a [num_stimuli, feature_dim]
    matrix. Rows with zero variance or a non-finite norm are an error naming
    their `ids`."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] < 2:
        raise ConfigurationError(
            f"feature matrix must be [N, D>=2], got {matrix.shape}")
    if ids is None:
        ids = tuple(f"row-{i:04d}" for i in range(matrix.shape[0]))
    return _correlation_distance(matrix, ids)


def pixel_rdm(stimuli) -> np.ndarray:
    """Correlation-distance RDM vector between the flattened images of a
    StimulusSet."""
    images = stimuli.images
    return _correlation_distance(images.reshape(images.shape[0], -1), stimuli.ids)


def average_rdms(vecs) -> np.ndarray:
    """Entrywise mean of RDM vectors over one stimulus ordering."""
    vecs = list(vecs)
    if not vecs:
        raise ConfigurationError("average_rdms needs at least one RDM")
    return _clamp(np.mean(vecs, axis=0))
