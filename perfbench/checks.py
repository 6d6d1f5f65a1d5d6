"""Output checks on a finished run directory.

Each function returns a list of (check name, passed, detail) tuples; every
failed check counts as one failed operation.

Tolerances are fixed here, before any run:
  * ORACLE_ATOL: a headline rho recomputed from the run's own RDM CSVs
    with scipy agrees with the report to float64 rounding of a Pearson
    correlation of 4950 ranks, far below any real difference.
  * REFERENCE_ATOL: at the reference seed, rho, the CIs and the p-values
    agree with the values recorded from the baseline commit. Reassociated
    float sums move these by ~1e-13; a wrong number moves them by far
    more than 1e-6 (one permutation count moves a p-value by 1e-3).
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

ORACLE_ATOL = 1e-10
REFERENCE_ATOL = 1e-6


def tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and the total bytes."""
    h = hashlib.sha256()
    total = 0
    for p in sorted(root.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            total += len(data)
            h.update(str(p.relative_to(root)).encode() + b"\0" + data)
    return h.hexdigest(), total


def read_rdm_csv(path) -> np.ndarray:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def _upper(m: np.ndarray) -> np.ndarray:
    return m[np.triu_indices(m.shape[0], k=1)]


def _mean_brain(brain_dir: Path, roi: str) -> np.ndarray:
    mats = [read_rdm_csv(p) for p in sorted(brain_dir.glob(f"*_{roi}.csv"))]
    mats = [(m + m.T) / 2.0 for m in mats]
    for m in mats:
        np.fill_diagonal(m, 0.0)
    mean = np.mean(mats, axis=0)
    mean = (mean + mean.T) / 2.0
    np.fill_diagonal(mean, 0.0)
    return np.clip(mean, 0.0, 2.0)


def oracle_rho(run_dir: Path, brain_dir: Path, report: dict) -> list[tuple[str, bool, str]]:
    """Each headline rho against scipy's Spearman on the run's own per-seed
    RDM CSVs and the mean of the brain CSVs."""
    from scipy.stats import spearmanr

    results = []
    for roi, entry in report["rois"].items():
        brain = _upper(_mean_brain(brain_dir, roi))
        for rule, cond in entry["conditions"].items():
            expected = [
                float(spearmanr(_upper(read_rdm_csv(
                    run_dir / "rdms" / f"{rule}_seed{seed}_{entry['layer']}.csv")),
                    brain).statistic)
                for seed in report["seeds"]]
            err = max(abs(a - b) for a, b in zip(expected, cond["per_seed"]))
            err = max(err, abs(float(np.mean(expected)) - cond["rho"]))
            results.append((f"oracle rho {rule}/{roi}", err <= ORACLE_ATOL,
                            f"max |diff| {err:.3g}"))
    return results


def headline_numbers(report: dict) -> dict:
    """The numbers the reference pins: rho, CI and p vs random per
    (rule, ROI), and every pairwise test's delta and p-value."""
    cells = {}
    for roi, entry in report["rois"].items():
        for rule, cond in entry["conditions"].items():
            cells[f"{rule}/{roi}"] = [cond["rho"], *cond["ci"], cond["p_vs_random"]]
    for t in report["pairwise_tests"]:
        cells[f"{t['a']}-{t['b']}/{t['roi']}"] = [t["delta_rho"], t["p_value"]]
    return cells


def _diff(a, b) -> float:
    """|a - b|, where None (no p-value vs itself for random) matches only None."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    return abs(a - b)


def against_reference(report: dict, reference: dict) -> list[tuple[str, bool, str]]:
    got = headline_numbers(report)
    results = []
    for key, want in sorted(reference.items()):
        have = got.get(key)
        if have is None or len(have) != len(want):
            results.append((f"reference {key}", False, "missing from report"))
            continue
        err = max(map(_diff, have, want))
        results.append((f"reference {key}", err <= REFERENCE_ATOL, f"max |diff| {err:.3g}"))
    extra = sorted(set(got) - set(reference))
    if extra:
        results.append(("reference keys", False, f"not in reference: {extra}"))
    return results
