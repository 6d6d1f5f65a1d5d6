"""Config-driven experiment orchestration.

run_experiment covers train -> checkpoint -> extract -> RDM -> RSA ->
statistics -> report for every (rule, seed) cell, then writes one run
directory containing checkpoints, per-epoch metrics, features, RDMs,
result tables (CSV), a JSON report, and a manifest. Reruns with the same
config produce byte-identical outputs.

Brain RDMs arrive as upper-triangle vectors, and one pass over the ROI
map takes every per-ROI statistic. Headline scores are per-seed RSA then
averaged (with the seed std reported); every other statistic uses the
seed-averaged model RDM. Permutation tests at one ROI share a null
stream, so every pair at that ROI sees the same permutations.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import io
import json
import logging
import shutil
import zlib
from dataclasses import dataclass, fields, replace
from itertools import combinations, product
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import stats
from .data import (
    DEFAULT_ROI_MAP,
    ROIS,
    LabeledImageSet,
    check_unique_ids,
    load_brain_by_roi,
    load_stimulus_dir,
    read_cifar10_binary,
    read_lines,
    write_csv,
    write_rdm_csv,
)
from .errors import ConfigurationError, DataFormatError
from .filters import summarize_filters, write_filter_grid_csv, write_filter_scores_csv
from .network import (
    DEFAULT_CHANNELS,
    SUPPORTED_RESOLUTIONS,
    TAPS,
    extract_all_taps,
    load_checkpoint,
    save_checkpoint,
)
from .rdm import average_rdms, pixel_rdm, rdm_from_features
from .rules import RULES, RuleParams, evaluate_accuracy, train

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig(RuleParams):
    """Everything a run needs: the RuleParams every cell trains with, plus
    the fields below. Round-trips losslessly through the flat sectioned
    key=value file format (see to_text/from_text)."""

    # data
    train_data: tuple[str, ...] = ()
    test_data: tuple[str, ...] = ()
    stimuli_dir: str = ""
    brain_rdm_dir: str = ""
    out_dir: str = "run"
    # experiment
    rules: tuple[str, ...] = RULES
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    train_limit: int = 8000
    resolution: int = 224
    # network
    channels: tuple[int, int, int] = DEFAULT_CHANNELS
    num_classes: int = 10
    # layer-to-ROI mapping
    roi_map: tuple[tuple[str, str], ...] = DEFAULT_ROI_MAP
    # statistics
    n_boot: int = 10000
    n_perm: int = 1000
    alpha: float = 0.05
    ci_level: float = 0.95
    stats_seed: int = 0
    noise_ceiling_splits: int = 100

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be one or more integers >= 0, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"duplicate seeds in {self.seeds}")
        if not self.rules:
            raise ConfigurationError("rules must name one or more conditions")
        if len(set(self.rules)) != len(self.rules):
            raise ConfigurationError(f"duplicate rules in {self.rules}")
        for r in self.rules:
            if r not in RULES:
                raise ConfigurationError(f"unknown rule {r!r}; known rules: {RULES}")
        rois = [roi for roi, _ in self.roi_map]
        if len(set(rois)) != len(rois):
            raise ConfigurationError(f"duplicate ROIs in roi_map {self.roi_map}")
        for roi, tap in self.roi_map:
            if tap not in TAPS:
                raise ConfigurationError(f"ROI map {roi}->{tap!r}: unknown tap; taps: {TAPS}")
            if roi not in ROIS:
                raise ConfigurationError(f"unknown ROI {roi!r}; known ROIs: {ROIS}")
        if not 0 < self.alpha < 1 or not 0 < self.ci_level < 1:
            raise ConfigurationError(
                f"alpha/ci_level must be in (0,1), got {self.alpha}/{self.ci_level}")
        for name in ("train_limit", "num_classes", "n_boot", "n_perm", "noise_ceiling_splits"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(self.channels) != 3 or any(c != int(c) or c < 1 for c in self.channels):
            raise ConfigurationError(f"channels must be three integers >= 1, got {self.channels}")
        if self.resolution not in SUPPORTED_RESOLUTIONS:
            raise ConfigurationError(
                f"resolution must be one of {SUPPORTED_RESOLUTIONS}, got {self.resolution}")
        super().__post_init__()

    # -- serialization ------------------------------------------------------

    _SECTIONS = {
        "data": ("train_data", "test_data", "stimuli_dir", "brain_rdm_dir", "out_dir"),
        "experiment": ("rules", "seeds", "epochs", "batch_size", "train_limit", "resolution"),
        "network": ("channels", "num_classes"),
        "rule_params": tuple(f.name for f in fields(RuleParams)
                             if f.name not in ("epochs", "batch_size")),
        "stats": ("n_boot", "n_perm", "alpha", "ci_level", "stats_seed",
                  "noise_ceiling_splits"),
    }

    def to_text(self) -> str:
        def fmt(v):
            if isinstance(v, tuple):
                return ",".join(str(x) for x in v)
            if isinstance(v, float):
                return repr(v)
            return str(v)

        parser = configparser.ConfigParser(interpolation=None)
        for section, keys in self._SECTIONS.items():
            parser[section] = {k: fmt(getattr(self, k)) for k in keys}
        parser["roi_map"] = {roi: tap for roi, tap in self.roi_map}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def to_file(self, path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
            sections = {name: parser.items(name) for name in parser.sections()}
        except configparser.Error as e:
            raise ConfigurationError(f"malformed config: {e}") from None
        kwargs = {}
        for section, items in sections.items():
            if section == "roi_map":
                # configparser lowercases keys; ROI names are canonically upper
                kwargs["roi_map"] = tuple((roi.upper(), tap) for roi, tap in items)
                continue
            if section not in cls._SECTIONS:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key, raw in items:
                if key not in cls._SECTIONS[section]:
                    raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
                kwargs[key] = cls.parse_value(key, raw)
        return cls(**kwargs)

    @classmethod
    def parse_value(cls, key: str, raw: str):
        """Field `key`'s value from its text, parsed by the field's declared
        type: a tuple of ints or strs is a comma list with empty items
        dropped, an int or float parses as one, anything else is a string.
        Config files and CLI flags both read values through here."""
        hint = _field_types(cls)[key]
        try:
            if get_origin(hint) is tuple and get_args(hint)[0] in (int, str):
                item = get_args(hint)[0]
                return tuple(item(x.strip()) for x in raw.split(",") if x.strip())
            return hint(raw.strip()) if hint in (int, float) else raw.strip()
        except ValueError as e:
            raise ConfigurationError(f"config key {key!r}: {e}") from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigurationError(f"cannot read config {path}: {e}") from None
        return cls.from_text(text)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


@functools.cache
def _field_types(cls) -> dict:
    return get_type_hints(cls)  # evaluates the annotation strings once


def _derived_seed(stats_seed: int, purpose: str) -> int:
    return zlib.crc32(f"{stats_seed}|{purpose}".encode("utf-8"))


# ---------------------------------------------------------------------------
# Analyses. Every model and brain RDM is its upper-triangle vector (see rdm).
# ---------------------------------------------------------------------------

def score_conditions(conditions, brain_vec, roi: str, config) -> dict[str, dict]:
    """Headline scores at one ROI for `report` (name = rule) and `rsa`
    (name = model CSV stem). `conditions` maps a name to (per-seed vectors,
    None for a seed whose cell failed, and the seed-mean vector). Returns
    name -> {rho: mean Spearman over the seeds that have a vector,
    seed_std: their sample std (0 for one), per_seed: one Spearman per
    seed, None where it has no vector, ci: bootstrap CI of the seed-mean
    vector, seeded by (stats_seed, name, roi) alone}.
    """
    scores = {}
    for name, (seed_vecs, mean_vec) in conditions.items():
        per_seed = [None if v is None else stats.spearman(v, brain_vec) for v in seed_vecs]
        rhos = [r for r in per_seed if r is not None]
        scores[name] = {
            "rho": float(np.mean(rhos)),
            "seed_std": float(np.std(rhos, ddof=1)) if len(rhos) > 1 else 0.0,
            "per_seed": per_seed,
            "ci": list(stats.bootstrap_ci(
                mean_vec, brain_vec, n_boot=config.n_boot, level=config.ci_level,
                seed=_derived_seed(config.stats_seed, f"boot|{name}|{roi}"))),
        }
    return scores


def best_layer_sweep(model_by_tap, brain_by_roi) -> dict:
    """Spearman rho for every tap x ROI combination plus the argmax tap per
    ROI. `model_by_tap` maps tap -> vector; `brain_by_roi` maps ROI -> vector.
    Returns the report's best_layer entry: {"matrix": [taps][rois] rho lists,
    "taps", "rois", "best_tap": roi -> tap with the highest rho}."""
    taps = [t for t in TAPS if t in model_by_tap]
    rois = [r for r in ROIS if r in brain_by_roi]
    matrix = [[stats.spearman(model_by_tap[tap], brain_by_roi[roi]) for roi in rois]
              for tap in taps]
    best = {roi: taps[int(np.argmax([row[j] for row in matrix]))] for j, roi in enumerate(rois)}
    return {"matrix": matrix, "taps": taps, "rois": rois, "best_tap": best}


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

def read_labeled_set(paths, limit, num_classes: int) -> LabeledImageSet:
    """The first `limit` (None: all) CIFAR-10 records of `paths` as a set of
    `num_classes` classes. An empty set, or a label the network has no
    output for, is a data error naming the files."""
    dataset = read_cifar10_binary(list(paths), limit=limit)
    where = ", ".join(paths) or "no data files"
    if not dataset.labels.size:
        raise DataFormatError(f"{where}: no images")
    try:
        return replace(dataset, num_classes=num_classes)  # LabeledImageSet checks the labels
    except DataFormatError as e:
        raise DataFormatError(f"{where}: {e}") from None


def save_features(features: dict[str, np.ndarray], ids, out_dir: Path) -> None:
    """Write a feature directory: features_<tap>.npy plus stimulus_ids.txt."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for tap, matrix in features.items():
        np.save(out_dir / f"features_{tap}.npy", matrix)
    (out_dir / "stimulus_ids.txt").write_text("\n".join(ids) + "\n")


def load_features_dir(directory) -> tuple[dict[str, np.ndarray], tuple[str, ...]]:
    directory = Path(directory)
    ids_path = directory / "stimulus_ids.txt"
    if not ids_path.exists():
        raise DataFormatError(f"{directory}: missing stimulus_ids.txt")
    ids = tuple(read_lines(ids_path))
    check_unique_ids(ids, ids_path)
    feats = {}
    for tap in TAPS:
        p = directory / f"features_{tap}.npy"
        if not p.exists():
            continue
        try:
            matrix = np.load(p)
        except (OSError, ValueError, EOFError) as e:
            raise DataFormatError(f"{p}: unreadable feature matrix: {e}") from None
        if matrix.ndim != 2 or matrix.shape[0] != len(ids) or matrix.dtype.kind != "f":
            raise DataFormatError(f"{p}: expected a float matrix with {len(ids)} rows, one "
                                  f"per stimulus id, got {matrix.dtype} {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise DataFormatError(f"{p}: non-finite feature value")
        feats[tap] = matrix
    if not feats:
        raise DataFormatError(f"{directory}: no features_<tap>.npy files")
    return feats, ids


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the full pipeline for every (rule, seed) cell and write the
    run directory. Returns the report dict (also written as report.json).

    A failing cell is flagged in the report, leaves no file or accuracy
    behind, and the run continues.
    """
    train_set = read_labeled_set(config.train_data, config.train_limit, config.num_classes)
    test_set = (read_labeled_set(config.test_data, None, config.num_classes)
                if config.test_data else None)
    stimuli = load_stimulus_dir(config.stimuli_dir, resolution=config.resolution)
    by_roi, mean_brain = load_brain_by_roi(config.brain_rdm_dir, stimuli.ids)
    roi_map = {roi: tap for roi, tap in config.roi_map if roi in by_roi}
    for roi, _ in config.roi_map:
        if roi not in by_roi:
            log.warning("no brain RDMs for ROI %s; skipping it", roi)
        elif len(by_roi[roi]) < 2:
            raise DataFormatError(
                f"{config.brain_rdm_dir}: ROI {roi} has 1 subject RDM; its noise "
                "ceiling needs at least 2 subjects")

    out = Path(config.out_dir)
    for sub in ("checkpoints", "metrics", "features", "rdms", "tables"):
        shutil.rmtree(out / sub, ignore_errors=True)  # inputs are valid: drop the last run
        (out / sub).mkdir(parents=True)

    # The run's one record: each result goes in as it is computed, and
    # report.json and every table are rendered from it.
    report = {
        "config_hash": config.config_hash(),
        "seeds": list(config.seeds),
        "notes": [
            "rho is the mean of per-seed scores; seed_std is their sample std",
            "bootstrap CIs, pairwise permutation tests, per-subject scores, "
            "sweeps and partial RSA are computed on the seed-averaged model RDM",
            "permutation tests at one ROI share a single permutation stream",
        ],
        "rois": {},
        "pairwise_tests": [],
        "cohens_d": [],
        "best_layer": {},
        "accuracy": {},
        "filters": {},
        "failures": [],
    }
    # model RDM vectors: rule -> seed (config order) -> tap -> vector
    cell_vecs: dict[str, dict[int, dict[str, np.ndarray]]] = {r: {} for r in config.rules}
    states_path: dict[str, Path] = {}

    for rule in config.rules:
        for seed in config.seeds:
            cell = f"{rule}_seed{seed}"
            ckpt = out / "checkpoints" / f"{cell}.ckpt"
            metrics = out / "metrics" / f"{cell}.csv"
            rdm_paths = {tap: out / "rdms" / f"{cell}_{tap}.csv" for tap in TAPS}
            try:
                state = train(rule, config, train_set, seed, eval_set=test_set,
                              metrics_path=metrics, channels=config.channels)
                save_checkpoint(state, ckpt, rule=rule)
                accuracy = (evaluate_accuracy(state, test_set.images, test_set.labels)
                            if test_set is not None else None)
                feats = extract_all_taps(state, stimuli)
                save_features(feats, stimuli.ids, out / "features" / cell)
                vecs = {tap: rdm_from_features(feats[tap], stimuli.ids) for tap in TAPS}
                for tap, vec in vecs.items():
                    write_rdm_csv(vec, stimuli.ids, rdm_paths[tap])
            except Exception as e:  # flagged, not fatal: the run continues
                log.exception("cell %s failed", cell)
                report["failures"].append(
                    {"rule": rule, "seed": seed, "error": f"{type(e).__name__}: {e}"})
                for path in (ckpt, metrics, *rdm_paths.values()):  # leave nothing behind
                    path.unlink(missing_ok=True)
                shutil.rmtree(out / "features" / cell, ignore_errors=True)
                continue
            cell_vecs[rule][seed] = vecs
            states_path.setdefault(rule, ckpt)
            if accuracy is not None:
                report["accuracy"].setdefault(rule, {})[str(seed)] = accuracy

    # Seed-averaged model RDMs per condition and tap
    conditions = report["conditions"] = [r for r in config.rules if cell_vecs[r]]
    mean_vecs: dict[str, dict[str, np.ndarray]] = {rule: {} for rule in conditions}
    for rule, tap in product(conditions, TAPS):
        by_seed = cell_vecs[rule]
        mean = mean_vecs[rule][tap] = average_rdms(
            [by_seed[s][tap] for s in sorted(by_seed)])  # listing-order free
        write_rdm_csv(mean, stimuli.ids, out / "rdms" / f"{rule}_mean_{tap}.csv")
    control = pixel_rdm(stimuli)

    # One pass per ROI takes every statistic at that ROI: noise ceiling,
    # headline scores with bootstrap CIs, per condition the per-subject
    # scores and partial RSA with the pixel control, then per pair a
    # permutation test on the ROI's shared stream and a paired Cohen's d
    # over subjects
    subject_rhos: dict[str, dict[str, list[float]]] = {}
    report["partial_rsa"] = {}
    for roi, tap in roi_map.items():
        brain_vec, subjects = mean_brain[roi], by_roi[roi]  # 2 or more, sorted on load
        ceiling = stats.noise_ceiling(subjects.values(),
                                      n_splits=config.noise_ceiling_splits,
                                      seed=_derived_seed(config.stats_seed, f"ceiling|{roi}"))
        scores = score_conditions(
            {rule: ([cell_vecs[rule][s][tap] if s in cell_vecs[rule] else None
                     for s in config.seeds], mean_vecs[rule][tap])
             for rule in conditions}, brain_vec, roi, config)
        for score in scores.values():
            score.update(p_vs_random=None, fdr_significant_vs_random=None)
        report["rois"][roi] = {"layer": tap, "noise_ceiling": ceiling,
                               "conditions": scores}
        rhos = subject_rhos[roi] = {}
        rows = report["partial_rsa"][roi] = []
        for rule in conditions:
            model_vec = mean_vecs[rule][tap]
            rhos[rule] = [stats.spearman(model_vec, vec) for vec in subjects.values()]
            rho_std = stats.spearman(model_vec, brain_vec)
            partial = stats.partial_spearman(model_vec, brain_vec, control)
            rows.append({"condition": rule, "rho_std": rho_std,
                         "rho_partial": partial["rho"], "delta": partial["rho"] - rho_std,
                         "degenerate": partial["degenerate"]})
        roi_seed = _derived_seed(config.stats_seed, f"perm|{roi}")
        for a, b in combinations(conditions, 2):
            report["pairwise_tests"].append(
                {"roi": roi, "a": a, "b": b,
                 **stats.permutation_test(mean_vecs[a][tap], mean_vecs[b][tap], brain_vec,
                                          n_perm=config.n_perm, seed=roi_seed)})
            report["cohens_d"].append(
                {"roi": roi, "a": a, "b": b, **stats.cohens_d_paired(rhos[a], rhos[b])})
    report["per_subject"] = [
        {"condition": rule, "subject": subject, "roi": roi, "rho": rho}
        for rule in conditions for roi in roi_map
        for subject, rho in zip(by_roi[roi], subject_rhos[roi][rule])]

    pairwise = report["pairwise_tests"]
    flags = stats.fdr_bh([t["p_value"] for t in pairwise], alpha=config.alpha) if pairwise else []
    for row, flag in zip(pairwise, flags):
        row["fdr_significant"] = bool(flag)
        if "random" in (row["a"], row["b"]):
            other = row["b"] if row["a"] == "random" else row["a"]
            report["rois"][row["roi"]]["conditions"][other].update(
                p_vs_random=row["p_value"], fdr_significant_vs_random=row["fdr_significant"])

    # Best-layer sweep per condition
    for rule in conditions:
        report["best_layer"][rule] = best_layer_sweep(mean_vecs[rule], mean_brain)

    # Conv1 filter summaries (the checkpoint of the first seed whose cell succeeded)
    for rule in conditions:
        state, _ = load_checkpoint(states_path[rule])
        summary = summarize_filters(state, rule=rule)
        write_filter_scores_csv(summary, out / "tables" / f"filters_{rule}.csv")
        write_filter_grid_csv(summary, out / "tables" / f"filter_grid_{rule}.csv")
        report["filters"][rule] = {"mean": summary["mean"], "std": summary["std"]}

    _write_tables(out / "tables", report)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    config.to_file(out / "config.cfg")
    _write_manifest(out, config)
    return report


def _write_tables(tables: Path, report: dict) -> None:
    """Render the result tables from the report alone, so each CSV is a
    view of report.json: ROIs in roi_map order, conditions in rule order."""
    rois = report["rois"]
    write_csv(tables / "rsa_results.csv",
              ["condition", "roi", "tap", "rho", "seed_std", "ci_low", "ci_high",
               "p_vs_random", "fdr_significant", "n_seeds"],
              [[rule, roi, entry["layer"], c["rho"], c["seed_std"], *c["ci"], c["p_vs_random"],
                "" if c["fdr_significant_vs_random"] is None
                else int(c["fdr_significant_vs_random"]),
                sum(r is not None for r in c["per_seed"])]
               for roi, entry in rois.items() for rule, c in entry["conditions"].items()])

    write_csv(tables / "pairwise_tests.csv",
              ["roi", "condition_a", "condition_b", "rho_a", "rho_b",
               "delta_rho", "p_value", "fdr_significant"],
              [[r["roi"], r["a"], r["b"], r["rho_a"], r["rho_b"], r["delta_rho"],
                r["p_value"], int(r["fdr_significant"])] for r in report["pairwise_tests"]])

    write_csv(tables / "per_subject.csv", ["condition", "subject", "roi", "rho"],
              [[r["condition"], r["subject"], r["roi"], r["rho"]]
               for r in report["per_subject"]])

    write_csv(tables / "cohens_d.csv",
              ["roi", "condition_a", "condition_b", "d", "degenerate"],
              [[r["roi"], r["a"], r["b"], r["d"], int(r["degenerate"])]
               for r in report["cohens_d"]])

    write_csv(tables / "noise_ceiling.csv", ["roi", "lower", "upper"],
              [[roi, entry["noise_ceiling"]["lower"], entry["noise_ceiling"]["upper"]]
               for roi, entry in rois.items()])

    for rule, sweep in report["best_layer"].items():
        write_csv(tables / f"sweep_{rule}.csv", ["tap"] + sweep["rois"],
                  [[tap] + row for tap, row in zip(sweep["taps"], sweep["matrix"])])

    for roi, rows in report["partial_rsa"].items():
        write_csv(tables / f"partial_rsa_{roi}.csv",
                  ["condition", "rho_std", "rho_partial", "delta"],
                  [[r["condition"], r["rho_std"], r["rho_partial"], r["delta"]]
                   for r in rows])


def _write_manifest(out: Path, config: ExperimentConfig) -> None:
    artifacts = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
    manifest = {
        "config_hash": config.config_hash(),
        "inputs": {
            "train_data": list(config.train_data),
            "test_data": list(config.test_data),
            "stimuli_dir": config.stimuli_dir,
            "brain_rdm_dir": config.brain_rdm_dir,
        },
        "artifacts": artifacts,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
