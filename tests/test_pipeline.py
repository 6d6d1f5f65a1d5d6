"""Pipeline tests: config round trips, the full run_experiment contract
(report structure, pairwise-test count, failure flagging, byte-identical
reruns, per-ROI statistics against the run's own CSVs), and the
standalone sweep."""

import csv
import hashlib
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from brainalign.data import (
    SynthSpec,
    load_stimulus_dir,
    read_rdm_csv,
    synth_dataset,
    write_csv,
    write_synth_dataset,
)
from brainalign.errors import ConfigurationError, DataFormatError
from brainalign.filters import summarize_filters
from brainalign.network import extract_all_taps, init_he_normal, load_checkpoint
from brainalign.pipeline import ExperimentConfig, best_layer_sweep, run_experiment
from brainalign.rdm import average_rdms, pixel_rdm, rdm_from_features
from brainalign.rules import RULES, RuleParams
from brainalign.stats import cohens_d_paired, partial_spearman, spearman

from helpers import treehash

SMALL = (4, 6, 8)


def tiny_config(tmp_path, **overrides):
    spec = SynthSpec(num_train=96, num_test=32, num_classes=4, num_stimuli=20,
                     stimulus_size=24, extraction_resolution=32,
                     noise_amplitude=0.05, channels=SMALL)
    paths = write_synth_dataset(spec, 0, tmp_path / "data")
    base = dict(
        train_data=(str(paths["train"]),), test_data=(str(paths["test"]),),
        stimuli_dir=str(paths["stimuli"]), brain_rdm_dir=str(paths["brain"]),
        out_dir=str(tmp_path / "run"), rules=("random", "bp"), seeds=(0, 1),
        epochs=1, batch_size=32, train_limit=96, resolution=32,
        channels=SMALL, num_classes=4, n_boot=100, n_perm=100,
        noise_ceiling_splits=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_text_round_trip_lossless(self, tmp_path):
        cfg = tiny_config(tmp_path, lr=0.012345678901234567, alpha=0.025)
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg.to_file(tmp_path / "c.cfg")
        assert ExperimentConfig.from_file(tmp_path / "c.cfg") == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            ExperimentConfig.from_text("[experiment]\nbogus = 1\n")

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown rule"):
            ExperimentConfig(rules=("sgd",))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentConfig(seeds=())

    def test_roi_map_validated(self):
        with pytest.raises(ConfigurationError, match="unknown tap"):
            ExperimentConfig(roi_map=(("V1", "conv9"),))

    @pytest.mark.parametrize("field, value", [
        ("n_boot", 0), ("n_perm", 0), ("noise_ceiling_splits", 0), ("train_limit", 0),
        ("num_classes", 0), ("seeds", (0, -1)),
        ("epochs", -1), ("batch_size", 0), ("lr", 0.0), ("pc_t_inf", 0),
        ("channels", (4, 6)), ("channels", (4, 0, 8)), ("resolution", 0), ("resolution", 64),
        ("stdp_t", 0), ("pc_alpha", 0.0), ("stdp_lr", -1.0), ("seeds", (0, 1, 0)),
        ("rules", ()), ("lr", float("nan")), ("lr", float("inf")), ("pc_alpha", float("nan")),
        ("stdp_timestep_ms", float("inf")),
        # a ROI mapped twice: to_text would keep only the last mapping
        ("roi_map", (("V1", "conv1"), ("V1", "conv3"))),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(**{field: value})

    def test_percent_in_a_value_round_trips(self, tmp_path):
        # values are literal text: no %-interpolation on write or read
        cfg = tiny_config(tmp_path, out_dir=str(tmp_path / "run%1"),
                          stimuli_dir="a%%b%(x)s")
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg
        assert cfg.config_hash() == ExperimentConfig.from_text(cfg.to_text()).config_hash()

    def test_config_hash_stable(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert cfg.config_hash() == ExperimentConfig.from_text(cfg.to_text()).config_hash()

    def test_default_text_pinned(self):
        # config_hash of every run hashes this text: a field move must not change it
        text = ExperimentConfig().to_text().encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == (
            "f6340d08294338f05a44a853aae8edcd47a59521aff3e51eb6f676ec5b3a06ce")

    @pytest.mark.parametrize("text", [
        "n_perm = 10\n",
        "[stats]\nn_perm = 10\n[stats]\nn_boot = 10\n",
        "[stats]\nn_perm = 10\nn_perm = 20\n",
    ], ids=["no_section_header", "duplicate_section", "duplicate_key"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ConfigurationError, match="malformed config"):
            ExperimentConfig.from_text(text)

    def test_non_utf8_file_rejected(self, tmp_path):
        (tmp_path / "c.cfg").write_bytes(b"[data]\nout_dir = r\xe9sultats\n")
        with pytest.raises(ConfigurationError, match="cannot read config"):
            ExperimentConfig.from_file(tmp_path / "c.cfg")

    @pytest.mark.parametrize("rule", RULES)
    def test_rule_config_defaults_are_the_rule_defaults(self, rule):
        # an ExperimentConfig goes to train as it is: every RuleParams field
        # must default to the rule's own default
        cfg = ExperimentConfig(rules=(rule,))
        assert {f.name: getattr(cfg, f.name) for f in fields(RuleParams)} == asdict(RuleParams())

    @pytest.mark.parametrize("key, raw, value", [
        ("rules", " bp,,fa, ", ("bp", "fa")), ("seeds", "0, 1,", (0, 1)),
        ("channels", "4,6,8", (4, 6, 8)), ("train_data", "a.bin,b.bin", ("a.bin", "b.bin")),
        ("epochs", " 3 ", 3), ("lr", "0.012345678901234567", 0.012345678901234567),
        ("out_dir", " run ", "run"),
    ])
    def test_parse_value_by_declared_type(self, key, raw, value):
        parsed = ExperimentConfig.parse_value(key, raw)
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("key, raw", [("seeds", "0,x"), ("channels", "4,x,8"),
                                          ("n_boot", "1.5"), ("alpha", "x")])
    def test_parse_value_rejects_bad_text(self, key, raw):
        with pytest.raises(ConfigurationError, match=key):
            ExperimentConfig.parse_value(key, raw)


class TestRunExperiment:
    def test_smallest_run_has_four_roi_rows(self, tmp_path):
        cfg = tiny_config(tmp_path, rules=("random",), seeds=(0,), n_boot=50, n_perm=50)
        report = run_experiment(cfg)
        assert sorted(report["rois"].keys()) == ["IT", "LOC", "V1", "V2"]
        for roi in report["rois"].values():
            assert set(roi["conditions"].keys()) == {"random"}
        assert report["pairwise_tests"] == []
        assert report["failures"] == []
        out = tmp_path / "run"
        assert (out / "tables" / "rsa_results.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()

    def test_five_conditions_yield_forty_pairwise_tests(self, tmp_path):
        cfg = tiny_config(tmp_path, rules=("random", "bp", "fa", "pc", "stdp"),
                          seeds=(0,), epochs=1, n_boot=50, n_perm=50)
        report = run_experiment(cfg)
        assert len(report["pairwise_tests"]) == 40  # 10 pairs x 4 ROIs
        rows = (tmp_path / "run" / "tables" / "pairwise_tests.csv").read_text().splitlines()
        assert len(rows) == 41

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path, n_boot=60, n_perm=60)
        run_experiment(cfg)
        h1 = treehash(tmp_path / "run")
        run_experiment(cfg)
        assert treehash(tmp_path / "run") == h1

    def test_rerun_with_fewer_rules_leaves_no_stale_artifacts(self, tmp_path):
        run_experiment(tiny_config(tmp_path, rules=("random", "bp"), seeds=(0,)))
        run_experiment(tiny_config(tmp_path, rules=("random",), seeds=(0,)))
        out = tmp_path / "run"
        assert not list(out.rglob("*bp*"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert not [a for a in manifest["artifacts"] if "bp" in a]
        # a run whose inputs fail to load leaves the last run's directory as it was
        h = treehash(out)
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataFormatError, match="no brain RDM"):
            run_experiment(tiny_config(tmp_path, brain_rdm_dir=str(tmp_path / "empty")))
        assert treehash(out) == h

    def test_seed_mean_equals_reported_rho(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = run_experiment(cfg)
        for roi in report["rois"].values():
            for entry in roi["conditions"].values():
                assert entry["rho"] == pytest.approx(
                    float(np.mean(entry["per_seed"])), abs=1e-12)

    def test_per_seed_scores_follow_the_config_seed_order(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(1, 0), n_boot=50, n_perm=50)
        report = run_experiment(cfg)
        assert report["seeds"] == [1, 0]
        brain = Path(cfg.brain_rdm_dir)
        for roi, entry in report["rois"].items():
            mean_brain = average_rdms(
                [read_rdm_csv(p)[0] for p in sorted(brain.glob(f"*_{roi}.csv"))])
            for rule, cond in entry["conditions"].items():
                assert cond["per_seed"] == [
                    spearman(read_rdm_csv(
                        tmp_path / "run" / "rdms" / f"{rule}_seed{s}_{entry['layer']}.csv")[0],
                        mean_brain)
                    for s in report["seeds"]]

    def test_removing_condition_leaves_other_rows_unchanged(self, tmp_path):
        cfg = tiny_config(tmp_path, rules=("random", "bp"), out_dir=str(tmp_path / "r1"))
        rep_both = run_experiment(cfg)
        cfg_one = tiny_config(tmp_path, rules=("random",), out_dir=str(tmp_path / "r2"))
        rep_one = run_experiment(cfg_one)
        for roi in rep_one["rois"]:
            a = rep_one["rois"][roi]["conditions"]["random"]
            b = rep_both["rois"][roi]["conditions"]["random"]
            assert a["per_seed"] == b["per_seed"]
            assert a["ci"] == b["ci"]

    def test_failed_cell_flagged_and_run_continues(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, rules=("random", "bp"), seeds=(0,))
        import brainalign.pipeline as pl

        real_train = pl.train

        def failing_train(rule, *args, **kwargs):
            if rule == "bp":
                raise RuntimeError("boom")
            return real_train(rule, *args, **kwargs)

        monkeypatch.setattr(pl, "train", failing_train)
        report = run_experiment(cfg)
        assert report["failures"] == [{"rule": "bp", "seed": 0,
                                       "error": "RuntimeError: boom"}]
        assert report["conditions"] == ["random"]
        assert set(report["rois"]["V1"]["conditions"]) == {"random"}

    def test_failed_seed_keeps_its_place_in_per_seed(self, tmp_path, monkeypatch):
        # bp fails at seed 0 only: its seed-1 score stays under seed 1
        cfg = tiny_config(tmp_path, rules=("random", "bp"), seeds=(0, 1))
        import brainalign.pipeline as pl

        real_train = pl.train

        def failing_train(rule, params, dataset, seed, **kwargs):
            if (rule, seed) == ("bp", 0):
                raise RuntimeError("boom")
            return real_train(rule, params, dataset, seed, **kwargs)

        monkeypatch.setattr(pl, "train", failing_train)
        report = run_experiment(cfg)
        assert report["failures"] == [{"rule": "bp", "seed": 0,
                                       "error": "RuntimeError: boom"}]
        brain = Path(cfg.brain_rdm_dir)
        with open(tmp_path / "run" / "tables" / "rsa_results.csv", newline="") as f:
            n_seeds = {(r["condition"], r["roi"]): r["n_seeds"] for r in csv.DictReader(f)}
        for roi, entry in report["rois"].items():
            mean_brain = average_rdms(
                [read_rdm_csv(p)[0] for p in sorted(brain.glob(f"*_{roi}.csv"))])
            rho1 = spearman(read_rdm_csv(
                tmp_path / "run" / "rdms" / f"bp_seed1_{entry['layer']}.csv")[0], mean_brain)
            bp = entry["conditions"]["bp"]
            assert bp["per_seed"] == [None, rho1]
            assert bp["rho"] == rho1 and bp["seed_std"] == 0.0
            assert n_seeds[("bp", roi)] == "1" and n_seeds[("random", roi)] == "2"

    def test_filters_come_from_the_first_seed_whose_cell_succeeded(self, tmp_path,
                                                                   monkeypatch):
        # bp seed 0 saves a checkpoint with a NaN conv1 weight, then fails at its RDM
        cfg = tiny_config(tmp_path, rules=("random", "bp"), seeds=(0, 1))
        import brainalign.pipeline as pl

        real_train = pl.train

        def nan_train(rule, params, dataset, seed, **kwargs):
            state = real_train(rule, params, dataset, seed, **kwargs)
            if (rule, seed) == ("bp", 0):
                state.arrays["conv1.w"][0, 0, 0, 0] = np.nan
            return state

        monkeypatch.setattr(pl, "train", nan_train)
        report = run_experiment(cfg)
        assert [(f["rule"], f["seed"]) for f in report["failures"]] == [("bp", 0)]
        state, _ = load_checkpoint(tmp_path / "run" / "checkpoints" / "bp_seed1.ckpt")
        summary = summarize_filters(state)
        assert report["filters"]["bp"] == {"mean": summary["mean"], "std": summary["std"]}

    def test_failed_cell_leaves_no_accuracy_or_files(self, tmp_path, monkeypatch):
        # three of four cells fail at their RDM, after training, metrics,
        # checkpoint, accuracy and features: only bp seed 0 keeps an accuracy
        # and files
        cfg = tiny_config(tmp_path, rules=("bp", "random"), seeds=(0, 1))
        import brainalign.pipeline as pl

        real_rdm = pl.rdm_from_features
        calls = []

        def failing_rdm(features, ids):
            calls.append(1)
            if len(calls) > len(pl.TAPS):  # every cell after the first
                raise RuntimeError("boom")
            return real_rdm(features, ids)

        monkeypatch.setattr(pl, "rdm_from_features", failing_rdm)
        report = run_experiment(cfg)
        assert [(f["rule"], f["seed"]) for f in report["failures"]] == [
            ("bp", 1), ("random", 0), ("random", 1)]
        assert report["accuracy"] == {"bp": {"0": report["accuracy"]["bp"]["0"]}}
        run = tmp_path / "run"
        for sub, cell_files in (("checkpoints", ["bp_seed0.ckpt"]),
                                ("metrics", ["bp_seed0.csv"]),
                                ("features", ["bp_seed0"]),
                                ("rdms", sorted([f"bp_seed0_{t}.csv" for t in pl.TAPS]
                                                + [f"bp_mean_{t}.csv" for t in pl.TAPS]))):
            assert sorted(p.name for p in (run / sub).iterdir()) == cell_files

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_features_flag_the_cell(self, tmp_path, monkeypatch):
        # features that overflowed to inf at seed 1 fail those cells, not the run
        cfg = tiny_config(tmp_path, rules=("random", "bp"), seeds=(0, 1))
        import brainalign.pipeline as pl

        real_extract = pl.extract_all_taps

        def overflowing_extract(state, stimuli):
            feats = real_extract(state, stimuli)
            if state.rng_seed == 1:
                feats["conv1"][0] = np.inf
            return feats

        monkeypatch.setattr(pl, "extract_all_taps", overflowing_extract)
        report = run_experiment(cfg)
        first = load_stimulus_dir(cfg.stimuli_dir, resolution=32).ids[0]
        error = f"DataFormatError: non-finite feature rows for stimuli ['{first}']"
        assert report["failures"] == [{"rule": r, "seed": 1, "error": error}
                                      for r in ("random", "bp")]
        assert report["conditions"] == ["random", "bp"]

    def test_every_table_is_a_view_of_report_json(self, tmp_path):
        # ROIs mapped out of the brain files' filename order (IT LOC V1 V2), LOC unmapped
        roi_map = (("V2", "conv2"), ("IT", "fc1"), ("V1", "conv1"))
        cfg = tiny_config(tmp_path, rules=("bp", "random", "fa"), seeds=(0, 1),
                          n_boot=50, n_perm=50, roi_map=roi_map)
        run_experiment(cfg)
        out = tmp_path / "run"
        report = json.loads((out / "report.json").read_text())
        rois = [roi for roi, _ in roi_map]
        assert sorted(report["rois"]) == sorted(rois)

        def cell(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return str(int(v))
            return repr(v) if isinstance(v, float) else str(v)

        expected = {
            "rsa_results": [[c, roi, report["rois"][roi]["layer"], e["rho"], e["seed_std"],
                             *e["ci"], e["p_vs_random"], e["fdr_significant_vs_random"],
                             len(e["per_seed"])]
                            for roi in rois for c in report["conditions"]
                            for e in [report["rois"][roi]["conditions"][c]]],
            "pairwise_tests": [[t["roi"], t["a"], t["b"], t["rho_a"], t["rho_b"],
                                t["delta_rho"], t["p_value"], t["fdr_significant"]]
                               for t in report["pairwise_tests"]],
            "per_subject": [[r["condition"], r["subject"], r["roi"], r["rho"]]
                            for r in report["per_subject"]],
            "cohens_d": [[r["roi"], r["a"], r["b"], r["d"], r["degenerate"]]
                         for r in report["cohens_d"]],
            "noise_ceiling": [[roi, report["rois"][roi]["noise_ceiling"]["lower"],
                               report["rois"][roi]["noise_ceiling"]["upper"]] for roi in rois],
        }
        for c in report["conditions"]:
            sweep = report["best_layer"][c]
            expected[f"sweep_{c}"] = [[tap, *row] for tap, row in
                                      zip(sweep["taps"], sweep["matrix"])]
        for roi in rois:
            expected[f"partial_rsa_{roi}"] = [
                [r["condition"], r["rho_std"], r["rho_partial"], r["delta"]]
                for r in report["partial_rsa"][roi]]
        # the conv1 filter tables come from the checkpoints, not the report
        tables = {p.stem for p in (out / "tables").glob("*.csv")
                  if not p.stem.startswith("filter")}
        assert tables == set(expected)
        for name, rows in expected.items():
            with open(out / "tables" / f"{name}.csv", newline="") as f:
                got = list(csv.reader(f))[1:]
            assert got == [[cell(v) for v in row] for row in rows], name

    def test_per_roi_statistics_match_the_run_csvs(self, tmp_path):
        # per-subject, Cohen's d and partial RSA rows, recomputed from the
        # seed-mean model RDMs and brain RDMs on disk; LOC left unmapped
        roi_map = (("V2", "conv2"), ("IT", "fc1"), ("V1", "conv1"))
        cfg = tiny_config(tmp_path, rules=("bp", "random", "fa"), seeds=(0, 1),
                          n_boot=50, n_perm=50, roi_map=roi_map)
        run_experiment(cfg)
        out, brain = tmp_path / "run", Path(cfg.brain_rdm_dir)

        def table(name):
            with open(out / "tables" / f"{name}.csv", newline="") as f:
                return list(csv.DictReader(f))

        def model(cond, tap):
            return read_rdm_csv(out / "rdms" / f"{cond}_mean_{tap}.csv")[0]

        subjects = sorted(p.stem.rsplit("_", 1)[0] for p in brain.glob("*_V1.csv"))
        assert len(subjects) == 3
        brain_rdms = {(s, roi): read_rdm_csv(brain / f"{s}_{roi}.csv")[0]
                      for s in subjects for roi, _ in roi_map}
        per_subject = table("per_subject")
        assert [(r["condition"], r["roi"], r["subject"]) for r in per_subject] == [
            (c, roi, s) for c in cfg.rules for roi, _ in roi_map for s in subjects]
        rho = {}
        for r in per_subject:
            tap = dict(roi_map)[r["roi"]]
            key = (r["condition"], r["roi"], r["subject"])
            rho[key] = float(r["rho"])
            assert rho[key] == spearman(model(r["condition"], tap),
                                        brain_rdms[r["subject"], r["roi"]])

        cohens = table("cohens_d")
        assert len(cohens) == 3 * len(roi_map)  # 3 pairs per ROI
        for r in cohens:
            d = cohens_d_paired([rho[r["condition_a"], r["roi"], s] for s in subjects],
                                [rho[r["condition_b"], r["roi"], s] for s in subjects])
            assert (float(r["d"]), int(r["degenerate"])) == (d["d"], int(d["degenerate"]))

        control = pixel_rdm(load_stimulus_dir(cfg.stimuli_dir, resolution=cfg.resolution))
        for roi, tap in roi_map:
            mean_brain = average_rdms([brain_rdms[s, roi] for s in subjects])
            rows = table(f"partial_rsa_{roi}")
            assert [r["condition"] for r in rows] == list(cfg.rules)
            for r in rows:
                rho_std = spearman(model(r["condition"], tap), mean_brain)
                partial = partial_spearman(model(r["condition"], tap), mean_brain, control)
                assert float(r["rho_std"]) == rho_std
                assert float(r["rho_partial"]) == partial["rho"]
                assert float(r["delta"]) == partial["rho"] - rho_std
        assert not (out / "tables" / "partial_rsa_LOC.csv").exists()

    def test_report_json_matches_returned_report(self, tmp_path):
        cfg = tiny_config(tmp_path, rules=("random",), seeds=(0,), n_boot=50, n_perm=50)
        report = run_experiment(cfg)
        on_disk = json.loads((tmp_path / "run" / "report.json").read_text())
        assert on_disk == json.loads(json.dumps(report))

    def test_metrics_csv_and_accuracy_present(self, tmp_path):
        cfg = tiny_config(tmp_path, rules=("bp",), seeds=(0,), epochs=2)
        report = run_experiment(cfg)
        metrics = (tmp_path / "run" / "metrics" / "bp_seed0.csv").read_text().splitlines()
        assert len(metrics) == 3  # header + 2 epochs
        assert "bp" in report["accuracy"] and "0" in report["accuracy"]["bp"]

    def test_brain_rdm_id_order_mismatch_rejected(self, tmp_path):
        # stimulus ordering must be preserved end to end; a brain RDM keyed
        # to a different ordering is an error, never silently reordered
        from brainalign.data import write_rdm_csv
        from brainalign.errors import DataFormatError

        cfg = tiny_config(tmp_path, rules=("random",), seeds=(0,))
        brain_dir = Path(cfg.brain_rdm_dir)
        victim = sorted(brain_dir.glob("*.csv"))[0]
        vec, ids = read_rdm_csv(victim)
        write_rdm_csv(vec, tuple(reversed(ids)), victim)
        with pytest.raises(DataFormatError, match="ordering"):
            run_experiment(cfg)


def reference_setup(rng, n_stim=16):
    """The stimuli and a reference net's tap -> RDM vector."""
    spec = SynthSpec(num_train=8, num_test=0, num_classes=2, num_stimuli=n_stim,
                     stimulus_size=24, extraction_resolution=32,
                     noise_amplitude=0.0, channels=SMALL)
    _, stim, _ = synth_dataset(spec, 0)
    state = init_he_normal(42, channels=SMALL)
    feats = extract_all_taps(state, stim)
    return stim, {t: rdm_from_features(feats[t], stim.ids) for t in feats}


class TestSweep:
    def test_matrix_shape_and_argmax_recovery(self, rng=np.random.default_rng(1)):
        stim, vecs = reference_setup(rng)
        brain = {roi: vecs["conv1"] for roi in ("V1", "V2")}
        brain["LOC"] = vecs["conv3"]
        brain["IT"] = vecs["fc1"]
        sweep = best_layer_sweep(vecs, brain)
        assert np.shape(sweep["matrix"]) == (5, 4)
        assert sweep["best_tap"]["V1"] == "conv1"
        assert sweep["best_tap"]["LOC"] == "conv3"
        assert sweep["best_tap"]["IT"] == "fc1"

    def test_noise_brain_gives_weak_correlations(self):
        rng = np.random.default_rng(3)
        stim, vecs = reference_setup(rng, n_stim=40)
        worst = 0.0
        for draw in range(20):
            n = rng.normal(size=(40, 40))
            vals = np.clip(1 + 0.3 * (n + n.T) / 2, 0, 2)
            np.fill_diagonal(vals, 0)
            brain = {"V1": vals[np.triu_indices(40, k=1)]}
            sweep = best_layer_sweep(vecs, brain)
            worst = max(worst, np.abs(sweep["matrix"]).max())
        assert worst < 0.25  # 780 pairs of pure noise stay weak


class TestReportFormatFixture:
    """The result tables must carry externally supplied score values
    losslessly. Real fMRI data is out of reach here, so fixture rows with
    representative magnitudes stand in for genuine results."""

    FIXTURE_ROWS = [
        # condition, rho_std, rho_partial, delta
        ("random", 0.078, 0.074, -0.004),
        ("stdp", 0.067, 0.061, -0.005),
        ("pc", 0.058, 0.054, -0.004),
        ("bp", 0.034, 0.026, -0.008),
        ("fa", 0.012, 0.005, -0.007),
    ]

    def test_partial_table_renders_fixture_exactly(self, tmp_path):
        path = tmp_path / "partial_rsa_V1.csv"
        write_csv(path, ["condition", "rho_std", "rho_partial", "delta"],
                  [list(r) for r in self.FIXTURE_ROWS])
        lines = path.read_text().splitlines()
        assert lines[0] == "condition,rho_std,rho_partial,delta"
        for line, row in zip(lines[1:], self.FIXTURE_ROWS):
            cond, *vals = line.split(",")
            assert cond == row[0]
            assert tuple(float(v) for v in vals) == row[1:]

    def test_rsa_row_renders_ci_and_p_exactly(self, tmp_path):
        path = tmp_path / "rsa_results.csv"
        row = ["random", "V1", "conv1", 0.076, 0.003, 0.072, 0.080,
               repr(0.000999000999000999), 1, 5]
        write_csv(path, ["condition", "roi", "tap", "rho", "seed_std",
                         "ci_low", "ci_high", "p_vs_random",
                         "fdr_significant", "n_seeds"], [row])
        got = path.read_text().splitlines()[1].split(",")
        assert float(got[3]) == 0.076
        assert float(got[7]) == 0.000999000999000999
