"""The RSA statistical pipeline: Spearman scores, bootstrap confidence
intervals, permutation tests on condition differences, Benjamini-Hochberg
FDR, rank-based partial correlation, split-half noise ceilings, and
paired Cohen's d.

Conventions shared by everything here:

* Ties get average (fractional) ranks. A vector is ranked with one
  unstable sort: a tie run's average rank does not depend on the order
  inside it, so the ranks are bit for bit those of a stable sort. That
  sort's order and tie runs come back with the ranks, and the bootstrap
  reads them instead of sorting again.
* Permutation p-values use the (b + 1) / (N + 1) estimator, so the
  smallest representable p at N permutations is 1 / (N + 1).
* Bootstrap CIs are percentile intervals with linear interpolation. No
  resample is sorted: each vector is ranked once, and a resample's ranks
  come from a cumulative sum of its per-pair draw counts in that fixed
  sort order. Below about 2e5 pairs every CI is bit for bit the one that
  ranking each resample gives.
* Inputs must be finite: ranks assume a total order, which NaN breaks
  (and an unstable sort would place NaNs arbitrarily among themselves).
* Every stochastic routine is deterministic given its seed and does not
  depend on thread count (there is none).
"""

from __future__ import annotations

import logging
import math
import warnings
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, UndefinedStatisticError

log = logging.getLogger(__name__)

_BOOT_CHUNK = 256
# Resample draws scored at a time, so that a block's float64 temporaries
# (256 KiB each) stay in a core's L2 cache: whole-chunk blocks were 1.7x
# slower at 4950 pairs and 2.8x at 19900.
_BOOT_BLOCK_CELLS = 1 << 15
_PERM_CHUNK = 128
_PERM_CHUNK_CELLS = 1 << 20


# ---------------------------------------------------------------------------
# Ranks and Spearman
# ---------------------------------------------------------------------------

def rank_rows(v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average (fractional) 1-based ranks of a 1D vector, with the one sort
    they come from: (ranks, order, bounds), where v[order] is sorted and tie
    run k fills sorted positions bounds[k] .. bounds[k + 1] - 1 (the last
    bound is len(v)).

    The vector is sorted once, by numpy's default (unstable) argsort. The
    ranks are bit-identical to those of a stable sort: a tie run at sorted
    positions start .. stop - 1 gets (start + stop + 1) / 2 whatever the
    order inside it, and 0.0 ties -0.0 because the runs split on `!=`.
    Values must be finite: NaN has no place in the order. (The name is
    older than the one-vector form; perfbench traces it as
    `stats.rank_rows`.)
    """
    v = np.asarray(v, dtype=np.float64)
    order = np.argsort(v)
    s = v[order]
    n = s.shape[0]
    starts = np.ones(n + 1, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=starts[1:n])
    bounds = np.flatnonzero(starts)
    ranks = np.empty(n)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0, np.diff(bounds))
    return ranks, order, bounds


def _check_vector_pair(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ConfigurationError(f"vectors must be 1D and matched, got {x.shape}/{y.shape}")
    if x.shape[0] < 3:
        raise ConfigurationError(f"need at least 3 entries, got {x.shape[0]}")
    for name, v in (("first", x), ("second", y)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ConfigurationError(
                f"{name} vector has a non-finite value at index {bad[0]}: {float(v[bad[0]])}")
    return x, y


def _zranks(x) -> np.ndarray:
    """Centered, unit-norm ranks: corr(x, y) == zranks(x) @ zranks(y)."""
    r = rank_rows(x)[0]
    r -= r.mean()
    norm = np.sqrt(r @ r)
    if norm == 0:
        raise UndefinedStatisticError("correlation undefined for a constant vector")
    return r / norm


def spearman(x, y) -> float:
    """Spearman's rho: Pearson correlation of average-tie ranks."""
    x, y = _check_vector_pair(x, y)
    return float(_zranks(x) @ _zranks(y))


# ---------------------------------------------------------------------------
# Bootstrap confidence interval
# ---------------------------------------------------------------------------

def _tie_layout(v):
    """(order, below, through): a sort order of v and, per element, how many
    elements sort strictly below its tie group and how many sort below or
    in it, i.e. the bounds of its tie run."""
    _, order, bounds = rank_rows(v)
    size = np.diff(bounds)
    below = np.empty(order.shape, dtype=np.intp)
    below[order] = np.repeat(bounds[:-1], size)
    through = np.empty_like(below)
    through[order] = np.repeat(bounds[1:], size)
    return order, below, through


def _constant_rows(v, idx) -> np.ndarray:
    """np.ptp(v[idx], axis=1) == 0. A row whose first two draws differ
    varies, so only rows whose first two draws tie are scanned in full."""
    constant = v[idx[:, 0]] == v[idx[:, 1]]
    suspects = np.flatnonzero(constant)
    constant[suspects] = np.ptp(v[idx[suspects]], axis=1) == 0
    return constant


def _resample_ranks(counts, layout) -> np.ndarray:
    """Doubled, centered average ranks 2 * rank - (n + 1) of every pair in
    every resample, from the resamples' per-pair counts [rows, n].

    The draws of one tie group fill resample positions below + 1 .. through
    (counted in draws), so their average rank is (below + through + 1) / 2.
    """
    order, below, through = layout
    rows, n = counts.shape
    cum = np.zeros((rows, n + 1))
    np.cumsum(np.take(counts, order, axis=1), axis=1, out=cum[:, 1:])
    ranks = np.take(cum, below, axis=1)
    ranks += np.take(cum, through, axis=1)
    ranks -= n
    return ranks


def _count_spearman(draws, x_layout, y_layout) -> np.ndarray:
    """Spearman rho of x[row], y[row] for each row of resample indices,
    as the count-weighted Pearson correlation of their resample ranks.

    Every term is an integer and every sum is below n**3, so up to about
    2e5 pairs (n**3 < 2**53) the sums are exact and rho is bit for bit that
    of ranking the expanded resample: doubling the ranks scales the
    numerator and the denominator by exactly 4.
    """
    rows, n = draws.shape
    counts = np.bincount((draws + np.arange(0, rows * n, n)[:, None]).ravel(),
                         minlength=rows * n).reshape(rows, n).astype(np.float64)
    a = _resample_ranks(counts, x_layout)
    b = _resample_ranks(counts, y_layout)
    ca = counts * a
    num = np.einsum("ij,ij->i", ca, b)
    aa = np.einsum("ij,ij->i", ca, a)
    b *= b
    bb = np.einsum("ij,ij->i", counts, b)
    return num / np.sqrt(aa * bb)


def bootstrap_ci(model_vec, brain_vec, n_boot: int = 10000, level: float = 0.95,
                 seed: int = 0):
    """Percentile bootstrap CI for the Spearman score of two matched
    upper-triangle vectors.

    Resamples pair indices with replacement and recomputes Spearman each
    time. Degenerate resamples (either vector constant) are skipped and
    redrawn; more than 1% of n_boot degenerates among the draws up to the
    n_boot-th kept one is an error. Returns (lo, hi), deterministic per
    seed.

    No resample is sorted. A resample changes only how many times each
    pair appears, never the order of the values, so x and y are ranked
    once; each resample's ranks then come from a cumulative sum of its
    per-pair counts in that fixed order, and rho is the count-weighted
    Pearson correlation of those ranks (see _count_spearman).
    """
    x, y = _check_vector_pair(model_vec, brain_vec)
    if not 0 < level < 1:
        raise ConfigurationError(f"level must be in (0,1), got {level}")
    if n_boot < 1:
        raise ConfigurationError(f"n_boot must be >= 1, got {n_boot}")
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    x_layout, y_layout = _tie_layout(x), _tie_layout(y)
    block = max(1, _BOOT_BLOCK_CELLS // n)
    cap = max(1, int(0.01 * n_boot))
    rhos = np.empty(n_boot)
    filled = degenerate = 0
    while filled < n_boot:
        # int32 indices are the int64 draws, bit for bit, at half the memory
        idx = rng.integers(0, n, size=(_BOOT_CHUNK, n), dtype=np.int32)
        ok = ~(_constant_rows(x, idx) | _constant_rows(y, idx))
        kept = np.flatnonzero(ok)[: n_boot - filled]
        # only the draws up to the one that completes n_boot are used
        used = kept[-1] + 1 if filled + kept.size == n_boot else _BOOT_CHUNK
        degenerate += used - kept.size
        if degenerate > cap:
            raise UndefinedStatisticError(
                f"more than {cap} degenerate bootstrap resamples; data too close to constant")
        for start in range(0, kept.size, block):
            rows = kept[start : start + block]
            rhos[filled : filled + rows.size] = _count_spearman(idx[rows], x_layout, y_layout)
            filled += rows.size
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(rhos, [100 * alpha, 100 * (1 - alpha)], method="linear")
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# Permutation test
# ---------------------------------------------------------------------------

def permutation_test(model_a_vec, model_b_vec, brain_vec, n_perm: int = 1000,
                     seed: int = 0) -> dict:
    """Two-sided permutation test of delta_rho = rho(A, brain) - rho(B, brain).
    Returns {"rho_a", "rho_b", "delta_rho", "p_value"}.

    Each permutation shuffles the brain vector once and recomputes delta
    against both models with the same shuffled vector. Two calls with the
    same seed share the same permutations, so tests at one ROI can share a
    null stream by sharing a seed. p = (count(|null| >= |observed|) + 1) /
    (n_perm + 1).
    """
    a, brain = _check_vector_pair(model_a_vec, brain_vec)
    b, _ = _check_vector_pair(model_b_vec, brain_vec)
    if n_perm < 1:
        raise ConfigurationError(f"n_perm must be >= 1, got {n_perm}")
    za, zb, zbr = _zranks(a), _zranks(b), _zranks(brain)
    rho_a = float(za @ zbr)
    rho_b = float(zb @ zbr)
    delta_obs = rho_a - rho_b
    contrast = za - zb
    rng = np.random.default_rng(seed)
    # Each row is shuffled from one copy of the brain's z-ranks: the same
    # draws as shuffling indices and gathering, without the gather.
    # permuted shuffles row by row, so the chunk size (at most 8 MiB of
    # rows) does not change the stream. Each null value is the sum of its
    # own row, kept contiguous in `rows`, and so does not depend on the
    # chunk's row count either; a GEMV with the contrast, or a row sum over
    # the column-major array permuted returns, rounds differently by it.
    chunk = max(1, min(_PERM_CHUNK, _PERM_CHUNK_CELLS // brain.shape[0]))
    brain_rows = np.broadcast_to(zbr, (chunk, brain.shape[0]))
    rows = np.empty(brain_rows.shape)
    exceed = 0
    done = 0
    while done < n_perm:
        take = min(chunk, n_perm - done)
        null = rng.permuted(brain_rows[:take], axis=1, out=rows[:take])
        null *= contrast
        exceed += int(np.count_nonzero(np.abs(null.sum(axis=1)) >= abs(delta_obs)))
        done += take
    p = (exceed + 1) / (n_perm + 1)
    return {"rho_a": rho_a, "rho_b": rho_b, "delta_rho": delta_obs, "p_value": p}


# ---------------------------------------------------------------------------
# Benjamini-Hochberg FDR
# ---------------------------------------------------------------------------

def fdr_bh(p_values, alpha: float = 0.05) -> list[bool]:
    """Step-up BH: sort p ascending, find the largest k with
    p_(k) <= k * alpha / m, reject ranks 1..k. Flags in input order."""
    p = np.asarray(list(p_values), dtype=np.float64)
    if p.size == 0:
        return []
    if np.any(p <= 0) or np.any(p > 1):
        bad = int(np.nonzero((p <= 0) | (p > 1))[0][0])
        raise ConfigurationError(f"p-value out of (0,1] at index {bad}: {p[bad]!r}")
    m = p.size
    order = np.argsort(p, kind="stable")
    thresh = (np.arange(1, m + 1) * alpha) / m
    passed = np.nonzero(p[order] <= thresh)[0]
    flags = np.zeros(m, dtype=bool)
    if passed.size:
        flags[order[: passed[-1] + 1]] = True
    return flags.tolist()


# ---------------------------------------------------------------------------
# Partial Spearman
# ---------------------------------------------------------------------------

def partial_spearman(model_vec, brain_vec, control_vec) -> dict:
    """Spearman between model and brain after residualizing both against a
    control vector via rank-based linear regression. Returns {"rho",
    "degenerate"}.

    A constant control falls back to the plain Spearman (with a warning).
    If residualizing annihilates a vector (model == control, say), rho is
    0.0 with the degenerate flag set.
    """
    model, brain = _check_vector_pair(model_vec, brain_vec)
    control, _ = _check_vector_pair(control_vec, brain_vec)
    if np.ptp(control) == 0:
        warnings.warn("constant control vector: partial Spearman falls back to "
                      "plain Spearman", stacklevel=2)
        return {"rho": spearman(model, brain), "degenerate": False}
    rm = rank_rows(model)[0]
    rb = rank_rows(brain)[0]
    rc = rank_rows(control)[0]
    rc = rc - rc.mean()
    vc = rc @ rc

    def residual(r):
        centered = r - r.mean()
        return centered - ((centered @ rc) / vc) * rc, np.sqrt(centered @ centered)

    em, scale_m = residual(rm)
    eb, scale_b = residual(rb)
    if scale_m == 0 or scale_b == 0:
        raise UndefinedStatisticError("correlation undefined for a constant vector")
    nm, nb = np.sqrt(em @ em), np.sqrt(eb @ eb)
    if nm <= 1e-10 * scale_m or nb <= 1e-10 * scale_b:
        return {"rho": 0.0, "degenerate": True}
    return {"rho": float((em @ eb) / (nm * nb)), "degenerate": False}


# ---------------------------------------------------------------------------
# Noise ceiling
# ---------------------------------------------------------------------------

def _split_halves(n_subjects: int, n_splits: int, rng):
    half = (n_subjects + 1) // 2
    # even S: a split and its complement are one split, so keep those with
    # subject 0; odd S: complements differ in size, so keep every subset
    all_splits = [s for s in combinations(range(n_subjects), half)
                  if n_subjects % 2 or 0 in s]
    if len(all_splits) <= n_splits:
        return all_splits
    chosen = rng.choice(len(all_splits), size=n_splits, replace=False)
    return [all_splits[i] for i in sorted(chosen)]


def noise_ceiling(subject_vecs, n_splits: int = 100, seed: int = 0) -> dict:
    """Split-half reliability of the subjects' upper-triangle RDM vectors
    with Spearman-Brown correction.

    Subjects are split into halves of size ceil(S/2) / floor(S/2); the
    Spearman correlation r between half-mean RDM vectors gives the lower
    bound, and r_sb = 2r / (1 + r) the upper bound, each averaged over
    splits and clamped to [-1, 1]. With few subjects all distinct splits
    are enumerated (three 1-vs-2 splits for S = 3); otherwise n_splits
    random splits are drawn. Returns {"lower", "upper"}; a negative
    split-half reliability flattens upper to lower.
    """
    vecs = [np.asarray(v, dtype=np.float64) for v in subject_vecs]
    s = len(vecs)
    if s < 2:
        raise UndefinedStatisticError("noise ceiling needs at least 2 subjects")
    if n_splits < 1:
        raise ConfigurationError(f"n_splits must be >= 1, got {n_splits}")
    rng = np.random.default_rng(seed)
    rs, rs_sb = [], []
    for half in _split_halves(s, n_splits, rng):
        rest = [i for i in range(s) if i not in half]
        m1 = np.mean([vecs[i] for i in half], axis=0)
        m2 = np.mean([vecs[i] for i in rest], axis=0)
        r = spearman(m1, m2)
        rs.append(r)
        rs_sb.append(np.clip(2 * r / (1 + r) if r > -1 else -1.0, -1.0, 1.0))
    lower = float(np.clip(np.mean(rs), -1.0, 1.0))
    upper = float(np.clip(np.mean(rs_sb), -1.0, 1.0))
    if upper < lower:  # possible only with negative split reliability
        log.warning("negative split-half reliability (%.3g): flattening noise "
                    "ceiling to the lower bound", lower)
        upper = lower
    return {"lower": lower, "upper": upper}


# ---------------------------------------------------------------------------
# Cohen's d (paired)
# ---------------------------------------------------------------------------

def cohens_d_paired(scores_a, scores_b) -> dict:
    """d = mean(a - b) / sd(a - b), sample sd (n-1 denominator). Returns
    {"d", "degenerate"}.

    Zero sd of differences yields a signed-infinity sentinel with the
    degenerate flag set.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 2:
        raise ConfigurationError(
            f"paired score lists must match with length >= 2, got {a.shape}/{b.shape}")
    diff = a - b
    sd = float(np.std(diff, ddof=1))
    mean = float(diff.mean())
    if sd == 0:
        return {"d": math.copysign(math.inf, mean) if mean != 0 else math.inf,
                "degenerate": True}
    return {"d": mean / sd, "degenerate": False}
