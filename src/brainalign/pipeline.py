"""Config-driven experiment orchestration.

run_experiment covers train -> checkpoint -> extract -> RDM -> RSA ->
statistics -> report for every (rule, seed) cell, then writes one run
directory containing checkpoints, per-epoch metrics, features, RDMs,
result tables (CSV), a JSON report, and a manifest. Reruns with the same
config produce byte-identical outputs.

Aggregation follows two routes on purpose: headline scores are per-seed
RSA then averaged (with the seed std reported), while bootstrap CIs,
permutation tests, per-subject scores, sweeps and partial RSA all use the
seed-averaged model RDM. Permutation tests at one ROI share a null
stream, so every pair at that ROI sees the same permutations.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import logging
import shutil
import zlib
from dataclasses import asdict, dataclass, fields
from itertools import combinations, product
from pathlib import Path

import numpy as np

from . import stats
from .data import (
    DEFAULT_ROI_MAP,
    ROIS,
    group_by_roi,
    load_brain_rdm_dir,
    load_stimulus_dir,
    read_cifar10_binary,
    write_rdm_csv,
)
from .errors import ConfigurationError, DataFormatError
from .filters import summarize_filters, write_filter_grid_csv, write_filter_scores_csv
from .network import (
    DEFAULT_CHANNELS,
    SUPPORTED_RESOLUTIONS,
    TAPS,
    LayerFeatures,
    extract_all_taps,
    load_checkpoint,
    save_checkpoint,
)
from .rdm import RDM, average_rdms, pixel_rdm, rdm_from_features, upper_triangle
from .rules import RULES, LearningRuleConfig, evaluate_accuracy, train

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs. Round-trips losslessly through the flat
    sectioned key=value file format (see to_text/from_text)."""

    # data
    train_data: tuple[str, ...] = ()
    test_data: tuple[str, ...] = ()
    stimuli_dir: str = ""
    brain_rdm_dir: str = ""
    out_dir: str = "run"
    # experiment
    rules: tuple[str, ...] = RULES
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    epochs: int = 40
    batch_size: int = 64
    train_limit: int = 8000
    resolution: int = 224
    # network
    channels: tuple[int, int, int] = DEFAULT_CHANNELS
    num_classes: int = 10
    # learning-rule hyperparameters
    lr: float = 0.01
    pc_t_inf: int = 10
    pc_alpha: float = 0.02
    pc_eta_w: float = 1e-4
    stdp_t: int = 10
    stdp_tau_plus_ms: float = 20.0
    stdp_tau_minus_ms: float = 20.0
    stdp_a_plus: float = 0.003
    stdp_a_minus: float = 0.003
    stdp_lr: float = 5e-4
    stdp_timestep_ms: float = 2.0
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
        if len(set(self.rules)) != len(self.rules):
            raise ConfigurationError(f"duplicate rules in {self.rules}")
        for r in self.rules:
            if r not in RULES:
                raise ConfigurationError(f"unknown rule {r!r}; known rules: {RULES}")
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
        self.rule_config("random")  # LearningRuleConfig checks the rule hyperparameters

    @property
    def roi_map_dict(self) -> dict[str, str]:
        return dict(self.roi_map)

    def rule_config(self, rule: str) -> LearningRuleConfig:
        params = {f.name: getattr(self, f.name)
                  for f in fields(LearningRuleConfig) if f.name != "rule"}
        return LearningRuleConfig(rule=rule, **params)

    # -- serialization ------------------------------------------------------

    _SECTIONS = {
        "data": ("train_data", "test_data", "stimuli_dir", "brain_rdm_dir", "out_dir"),
        "experiment": ("rules", "seeds", "epochs", "batch_size", "train_limit", "resolution"),
        "network": ("channels", "num_classes"),
        "rule_params": ("lr", "pc_t_inf", "pc_alpha", "pc_eta_w", "stdp_t",
                        "stdp_tau_plus_ms", "stdp_tau_minus_ms", "stdp_a_plus",
                        "stdp_a_minus", "stdp_lr", "stdp_timestep_ms"),
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

        parser = configparser.ConfigParser()
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
        parser = configparser.ConfigParser()
        parser.read_string(text)
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for section in parser.sections():
            if section == "roi_map":
                # configparser lowercases keys; ROI names are canonically upper
                kwargs["roi_map"] = tuple(
                    (roi.upper(), tap) for roi, tap in parser.items(section))
                continue
            if section not in cls._SECTIONS:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in cls._SECTIONS[section]:
                    raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
                kwargs[key] = _parse_field(key, raw, types[key])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise ConfigurationError(f"cannot read config {path}: {e}") from None
        return cls.from_text(text)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


def _parse_field(key, raw, ftype):
    raw = raw.strip()
    try:
        if ftype in ("int", int):
            return int(raw)
        if ftype in ("float", float):
            return float(raw)
        if key in ("seeds",):
            return tuple(int(x) for x in raw.split(",") if x.strip() != "")
        if key in ("channels",):
            vals = tuple(int(x) for x in raw.split(","))
            return vals
        # string tuples (paths, rules)
        if key in ("train_data", "test_data", "rules"):
            return tuple(x.strip() for x in raw.split(",") if x.strip() != "")
        return raw
    except ValueError as e:
        raise ConfigurationError(f"config key {key!r}: {e}") from None


def _derived_seed(stats_seed: int, purpose: str) -> int:
    return zlib.crc32(f"{stats_seed}|{purpose}".encode("utf-8"))


def bootstrap_seed(stats_seed: int, model: str, roi: str) -> int:
    """Seed of the bootstrap CI of one model RDM at one ROI, shared by
    `report` (model = rule) and `rsa` (model = CSV stem)."""
    return _derived_seed(stats_seed, f"boot|{model}|{roi}")


# ---------------------------------------------------------------------------
# Standalone analyses
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    taps: tuple[str, ...]
    rois: tuple[str, ...]
    matrix: np.ndarray          # [len(taps), len(rois)] Spearman rho
    best_tap: dict              # roi -> tap with the highest rho


def best_layer_sweep(model_by_tap, brain_by_roi) -> SweepResult:
    """Spearman rho for every tap x ROI combination plus the argmax tap per
    ROI. `model_by_tap` maps tap -> RDM or LayerFeatures; `brain_by_roi`
    maps ROI -> RDM."""
    taps = tuple(t for t in TAPS if t in model_by_tap)
    rois = tuple(r for r in ROIS if r in brain_by_roi)
    brain_vecs = {r: upper_triangle(brain_by_roi[r]) for r in rois}
    matrix = np.empty((len(taps), len(rois)))
    for i, tap in enumerate(taps):
        model = model_by_tap[tap]
        if isinstance(model, LayerFeatures):
            ids = brain_by_roi[rois[0]].ids if rois else None
            model = rdm_from_features(model.matrix, ids)
        vec = upper_triangle(model)
        for j, roi in enumerate(rois):
            matrix[i, j] = stats.spearman(vec, brain_vecs[roi])
    best = {roi: taps[int(np.argmax(matrix[:, j]))] for j, roi in enumerate(rois)}
    return SweepResult(taps=taps, rois=rois, matrix=matrix, best_tap=best)


def per_subject_analysis(model_rdms, brain_files, roi_map) -> list[dict]:
    """RSA of each condition against each subject's RDM separately.

    `model_rdms` maps condition -> {tap: RDM}; returns rows of
    {condition, subject, roi, rho}, ordered by (condition, roi, subject).
    Missing subject x ROI data simply yields no row (the caller flags gaps).
    Brain RDMs keyed to another stimulus order than the model RDMs raise.
    """
    rows = []
    for condition, rdms in model_rdms.items():
        by_roi = group_by_roi(brain_files, next(iter(rdms.values())).ids)
        for roi, tap in roi_map.items():
            if roi not in by_roi or tap not in rdms:
                continue
            vec = upper_triangle(rdms[tap])
            for b in by_roi[roi]:
                rows.append({
                    "condition": condition, "subject": b.subject, "roi": roi,
                    "rho": stats.spearman(vec, upper_triangle(b.rdm)),
                })
    return rows


def partial_rsa_report(model_rdms, brain_by_roi, stimuli, roi_map) -> dict[str, list[dict]]:
    """Standard vs partial RSA per ROI with the pixel RDM as control.

    `model_rdms` maps condition -> {tap: RDM} built from seed-averaged
    features. Returns {roi: [{condition, rho_std, rho_partial, delta,
    degenerate}]}.
    """
    control = upper_triangle(pixel_rdm(stimuli))
    out: dict[str, list[dict]] = {}
    for roi, tap in roi_map.items():
        if roi not in brain_by_roi:
            continue
        brain_vec = upper_triangle(brain_by_roi[roi])
        rows = []
        for condition, rdms in model_rdms.items():
            if tap not in rdms:
                continue
            vec = upper_triangle(rdms[tap])
            rho_std = stats.spearman(vec, brain_vec)
            partial = stats.partial_spearman(vec, brain_vec, control)
            rows.append({
                "condition": condition,
                "rho_std": rho_std,
                "rho_partial": partial.rho,
                "delta": partial.rho - rho_std,
                "degenerate": partial.degenerate,
            })
        out[roi] = rows
    return out


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def save_features(features: dict[str, LayerFeatures], ids, out_dir: Path) -> None:
    """Write a feature directory: features_<tap>.npy plus stimulus_ids.txt."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for tap, feat in features.items():
        np.save(out_dir / f"features_{tap}.npy", feat.matrix)
    (out_dir / "stimulus_ids.txt").write_text("\n".join(ids) + "\n")


def load_features_dir(directory) -> tuple[dict[str, LayerFeatures], tuple[str, ...]]:
    directory = Path(directory)
    ids_path = directory / "stimulus_ids.txt"
    if not ids_path.exists():
        raise DataFormatError(f"{directory}: missing stimulus_ids.txt")
    ids = tuple(ids_path.read_text().splitlines())
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
        feats[tap] = LayerFeatures(tap=tap, matrix=matrix)
    if not feats:
        raise DataFormatError(f"{directory}: no features_<tap>.npy files")
    return feats, ids


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the full pipeline for every (rule, seed) cell and write the
    run directory. Returns the report dict (also written as report.json).

    A failing cell is flagged in the report and the run continues.
    """
    train_set = read_cifar10_binary(list(config.train_data), limit=config.train_limit)
    test_set = (read_cifar10_binary(list(config.test_data))
                if config.test_data else None)
    stimuli = load_stimulus_dir(config.stimuli_dir, resolution=config.resolution)
    brain_files = load_brain_rdm_dir(config.brain_rdm_dir)
    by_roi = group_by_roi(brain_files, stimuli.ids)
    roi_map = {roi: tap for roi, tap in config.roi_map if roi in by_roi}
    for roi in config.roi_map_dict:
        if roi not in by_roi:
            log.warning("no brain RDMs for ROI %s; skipping it", roi)

    mean_brain = {roi: average_rdms([b.rdm for b in files])
                  for roi, files in by_roi.items()}

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
    seed_rdms: dict[str, dict[int, dict[str, RDM]]] = {r: {} for r in config.rules}
    states_path: dict[str, Path] = {}

    for rule in config.rules:
        for seed in config.seeds:
            cell = f"{rule}_seed{seed}"
            try:
                state = train(config.rule_config(rule), train_set, seed, eval_set=test_set,
                              metrics_path=out / "metrics" / f"{cell}.csv",
                              channels=config.channels,
                              num_classes=config.num_classes)
                ckpt = out / "checkpoints" / f"{cell}.ckpt"
                save_checkpoint(state, ckpt, rule=rule)
                states_path.setdefault(rule, ckpt)
                if test_set is not None:
                    report["accuracy"].setdefault(rule, {})[str(seed)] = evaluate_accuracy(
                        state, test_set.images, test_set.labels)
                feats = extract_all_taps(state, stimuli)
                save_features(feats, stimuli.ids, out / "features" / cell)
                rdms = {tap: rdm_from_features(feats[tap].matrix, stimuli.ids)
                        for tap in TAPS}
                for tap, r in rdms.items():
                    write_rdm_csv(r, out / "rdms" / f"{cell}_{tap}.csv")
                seed_rdms[rule][seed] = rdms
            except Exception as e:  # flagged, not fatal: the run continues
                log.exception("cell %s failed", cell)
                report["failures"].append(
                    {"rule": rule, "seed": seed, "error": f"{type(e).__name__}: {e}"})

    # Seed-averaged model RDMs per condition
    conditions = report["conditions"] = [r for r in config.rules if seed_rdms[r]]
    mean_rdms: dict[str, dict[str, RDM]] = {rule: {} for rule in conditions}
    for rule, tap in product(conditions, TAPS):
        mean_rdms[rule][tap] = average_rdms(
            [seed_rdms[rule][s][tap] for s in sorted(seed_rdms[rule])])
        write_rdm_csv(mean_rdms[rule][tap], out / "rdms" / f"{rule}_mean_{tap}.csv")

    # Per ROI: noise ceiling, per-seed RSA and its seed mean (headline scores),
    # bootstrap CIs, then pairwise permutation tests on one shared stream
    for roi, tap in roi_map.items():
        brain_vec = upper_triangle(mean_brain[roi])
        ceiling = stats.noise_ceiling(by_roi[roi], n_splits=config.noise_ceiling_splits,
                                      seed=_derived_seed(config.stats_seed, f"ceiling|{roi}"))
        entry = report["rois"][roi] = {"layer": tap, "noise_ceiling": asdict(ceiling),
                                       "conditions": {}}
        for rule in conditions:
            rhos = [stats.spearman(upper_triangle(seed_rdms[rule][seed][tap]), brain_vec)
                    for seed in sorted(seed_rdms[rule])]
            entry["conditions"][rule] = {
                "rho": float(np.mean(rhos)),
                "seed_std": float(np.std(rhos, ddof=1)) if len(rhos) > 1 else 0.0,
                "per_seed": rhos,
                "ci": list(stats.bootstrap_ci(
                    upper_triangle(mean_rdms[rule][tap]), brain_vec, n_boot=config.n_boot,
                    level=config.ci_level, seed=bootstrap_seed(config.stats_seed, rule, roi))),
                "p_vs_random": None,
                "fdr_significant_vs_random": None,
            }
        roi_seed = _derived_seed(config.stats_seed, f"perm|{roi}")
        for a, b in combinations(conditions, 2):
            t = stats.permutation_test(
                upper_triangle(mean_rdms[a][tap]), upper_triangle(mean_rdms[b][tap]),
                brain_vec, n_perm=config.n_perm, seed=roi_seed, pair=(a, b))
            report["pairwise_tests"].append(
                {"roi": roi, "a": a, "b": b, "rho_a": t.rho_a, "rho_b": t.rho_b,
                 "delta_rho": t.delta_rho, "p_value": t.p_value})

    pairwise = report["pairwise_tests"]
    flags = stats.fdr_bh([t["p_value"] for t in pairwise], alpha=config.alpha) if pairwise else []
    for row, flag in zip(pairwise, flags):
        row["fdr_significant"] = bool(flag)
        if "random" in (row["a"], row["b"]):
            other = row["b"] if row["a"] == "random" else row["a"]
            report["rois"][row["roi"]]["conditions"][other].update(
                p_vs_random=row["p_value"], fdr_significant_vs_random=row["fdr_significant"])

    # Per-subject scores and paired Cohen's d
    subject_rows = report["per_subject"] = per_subject_analysis(mean_rdms, brain_files, roi_map)
    for roi in roi_map:
        subjects = sorted({b.subject for b in by_roi[roi]})
        if len(subjects) < 2:
            continue
        score = {(r["condition"], r["subject"]): r["rho"]
                 for r in subject_rows if r["roi"] == roi}
        for a, b in combinations(conditions, 2):
            d = stats.cohens_d_paired([score[(a, s)] for s in subjects],
                                      [score[(b, s)] for s in subjects])
            report["cohens_d"].append({"roi": roi, "a": a, "b": b, "d": d.d,
                                       "degenerate": d.degenerate})

    # Best-layer sweep per condition
    for rule in conditions:
        sweep = best_layer_sweep(mean_rdms[rule], mean_brain)
        report["best_layer"][rule] = {"matrix": sweep.matrix.tolist(), "taps": list(sweep.taps),
                                      "rois": list(sweep.rois), "best_tap": sweep.best_tap}

    report["partial_rsa"] = partial_rsa_report(mean_rdms, mean_brain, stimuli, roi_map)

    # Conv1 filter summaries (first available seed's checkpoint per rule)
    for rule in conditions:
        state, _ = load_checkpoint(states_path[rule])
        summary = summarize_filters(state, rule=rule)
        write_filter_scores_csv(summary, out / "tables" / f"filters_{rule}.csv")
        write_filter_grid_csv(summary, out / "tables" / f"filter_grid_{rule}.csv")
        report["filters"][rule] = {"mean": summary.mean, "std": summary.std}

    _write_tables(out / "tables", report)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    config.to_file(out / "config.cfg")
    _write_manifest(out, config)
    return report


def _write_tables(tables: Path, report: dict) -> None:
    """Render the result tables from the report alone, so each CSV is a
    view of report.json: ROIs in roi_map order, conditions in rule order."""
    rois = report["rois"]
    _write_csv(tables / "rsa_results.csv",
               ["condition", "roi", "tap", "rho", "seed_std", "ci_low", "ci_high",
                "p_vs_random", "fdr_significant", "n_seeds"],
               [[rule, roi, entry["layer"], c["rho"], c["seed_std"], *c["ci"], c["p_vs_random"],
                 "" if c["fdr_significant_vs_random"] is None
                 else int(c["fdr_significant_vs_random"]),
                 len(c["per_seed"])]
                for roi, entry in rois.items() for rule, c in entry["conditions"].items()])

    _write_csv(tables / "pairwise_tests.csv",
               ["roi", "condition_a", "condition_b", "rho_a", "rho_b",
                "delta_rho", "p_value", "fdr_significant"],
               [[r["roi"], r["a"], r["b"], r["rho_a"], r["rho_b"], r["delta_rho"],
                 r["p_value"], int(r["fdr_significant"])] for r in report["pairwise_tests"]])

    _write_csv(tables / "per_subject.csv", ["condition", "subject", "roi", "rho"],
               [[r["condition"], r["subject"], r["roi"], r["rho"]]
                for r in report["per_subject"]])

    _write_csv(tables / "cohens_d.csv",
               ["roi", "condition_a", "condition_b", "d", "degenerate"],
               [[r["roi"], r["a"], r["b"], r["d"], int(r["degenerate"])]
                for r in report["cohens_d"]])

    _write_csv(tables / "noise_ceiling.csv", ["roi", "lower", "upper"],
               [[roi, entry["noise_ceiling"]["lower"], entry["noise_ceiling"]["upper"]]
                for roi, entry in rois.items()])

    for rule, sweep in report["best_layer"].items():
        _write_csv(tables / f"sweep_{rule}.csv", ["tap"] + sweep["rois"],
                   [[tap] + row for tap, row in zip(sweep["taps"], sweep["matrix"])])

    for roi, rows in report["partial_rsa"].items():
        _write_csv(tables / f"partial_rsa_{roi}.csv",
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
