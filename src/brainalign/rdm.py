"""Representational dissimilarity matrices.

An RDM is a symmetric stimulus-by-stimulus matrix of correlation
distances (1 - Pearson r, range [0, 2]) with an exactly zero diagonal,
keyed to an ordered tuple of stimulus ids. All statistics downstream
consume the strict upper triangle in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataFormatError

CLAMP_GUARD = 1e-12


@dataclass
class RDM:
    values: np.ndarray       # [N, N]
    ids: tuple[str, ...]

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DataFormatError(f"RDM must be square, got {v.shape}")
        if len(self.ids) != v.shape[0]:
            raise DataFormatError(
                f"RDM of size {v.shape[0]} has {len(self.ids)} stimulus ids")

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _finalize(values: np.ndarray) -> np.ndarray:
    """Exact symmetry, exact zero diagonal, and a rounding-only clamp to
    [0, 2]: values may be pulled in by at most 1e-12, never further."""
    v = (values + values.T) / 2.0
    np.fill_diagonal(v, 0.0)
    if v.size and (v.min() < -CLAMP_GUARD or v.max() > 2.0 + CLAMP_GUARD):
        raise ConfigurationError(
            f"distance out of [0, 2] beyond rounding: min {v.min()!r} max {v.max()!r}")
    return np.clip(v, 0.0, 2.0)


def _correlation_distance(matrix: np.ndarray, ids) -> RDM:
    x = np.asarray(matrix, dtype=np.float64)
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    flat = np.nonzero(norms == 0)[0]
    if flat.size:
        names = [ids[i] for i in flat[:10]]
        raise DataFormatError(
            f"zero-variance feature rows for stimuli {names}"
            + (" ..." if flat.size > 10 else ""))
    corr = (centered @ centered.T) / np.outer(norms, norms)
    return RDM(values=_finalize(1.0 - corr), ids=tuple(ids))


def rdm_from_features(matrix, ids=None) -> RDM:
    """Correlation-distance RDM from a [num_stimuli, feature_dim] matrix.
    Rows with zero variance are an error."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] < 2:
        raise ConfigurationError(
            f"feature matrix must be [N, D>=2], got {matrix.shape}")
    if ids is None:
        ids = tuple(f"row-{i:04d}" for i in range(matrix.shape[0]))
    return _correlation_distance(matrix, ids)


def pixel_rdm(stimuli) -> RDM:
    """Correlation-distance RDM between the flattened images of a StimulusSet."""
    images = stimuli.images
    return _correlation_distance(images.reshape(images.shape[0], -1), stimuli.ids)


def average_rdms(rdms) -> RDM:
    """Entrywise mean of RDMs sharing one id ordering (never reordered)."""
    rdms = list(rdms)
    if not rdms:
        raise ConfigurationError("average_rdms needs at least one RDM")
    ids = rdms[0].ids
    for r in rdms[1:]:
        if r.ids != ids:
            raise DataFormatError(
                "RDM stimulus id orders differ; refusing to silently reorder")
    mean = np.mean([r.values for r in rdms], axis=0)
    return RDM(values=_finalize(mean), ids=ids)


def upper_triangle(rdm) -> np.ndarray:
    """Strict upper triangle in row-major order: (0,1), (0,2), ..., (1,2), ...

    This fixed ordering is shared by every statistic in the package."""
    v = rdm.values if hasattr(rdm, "values") else np.asarray(rdm)
    iu = np.triu_indices(v.shape[0], k=1)
    return v[iu].copy()

