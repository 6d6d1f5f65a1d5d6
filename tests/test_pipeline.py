"""Pipeline tests: config round trips, the full run_experiment contract
(report structure, pairwise-test count, failure flagging, byte-identical
reruns), and the standalone sweep / per-subject / partial analyses."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from brainalign.data import BrainRdmFile, SynthSpec, synth_dataset, write_synth_dataset
from brainalign.errors import ConfigurationError, DataFormatError
from brainalign.network import extract_all_taps, init_he_normal
from brainalign.pipeline import (
    ExperimentConfig,
    best_layer_sweep,
    partial_rsa_report,
    per_subject_analysis,
    run_experiment,
)
from brainalign.rdm import RDM, average_rdms, rdm_from_features, upper_triangle
from brainalign.stats import spearman

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
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(**{field: value})

    def test_config_hash_stable(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert cfg.config_hash() == ExperimentConfig.from_text(cfg.to_text()).config_hash()


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

        def failing_train(rule_cfg, *args, **kwargs):
            if rule_cfg.rule == "bp":
                raise RuntimeError("boom")
            return real_train(rule_cfg, *args, **kwargs)

        monkeypatch.setattr(pl, "train", failing_train)
        report = run_experiment(cfg)
        assert report["failures"] == [{"rule": "bp", "seed": 0,
                                       "error": "RuntimeError: boom"}]
        assert report["conditions"] == ["random"]
        assert set(report["rois"]["V1"]["conditions"]) == {"random"}

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
        from brainalign.data import read_brain_rdm_csv

        bf = read_brain_rdm_csv(victim)
        shuffled = tuple(reversed(bf.rdm.ids))
        write_rdm_csv(RDM(values=bf.rdm.values, ids=shuffled), victim)
        with pytest.raises(DataFormatError, match="ordering"):
            run_experiment(cfg)


def reference_setup(rng, n_stim=16):
    """A reference net, its tap RDMs, and brain RDMs built from conv1."""
    spec = SynthSpec(num_train=8, num_test=0, num_classes=2, num_stimuli=n_stim,
                     stimulus_size=24, extraction_resolution=32,
                     noise_amplitude=0.0, channels=SMALL)
    _, stim, _ = synth_dataset(spec, 0)
    state = init_he_normal(42, channels=SMALL)
    feats = extract_all_taps(state, stim)
    rdms = {t: rdm_from_features(feats[t].matrix, stim.ids) for t in feats}
    return stim, rdms


class TestSweep:
    def test_matrix_shape_and_argmax_recovery(self, rng=np.random.default_rng(1)):
        stim, rdms = reference_setup(rng)
        brain = {roi: rdms["conv1"] for roi in ("V1", "V2")}
        brain["LOC"] = rdms["conv3"]
        brain["IT"] = rdms["fc1"]
        sweep = best_layer_sweep(rdms, brain)
        assert sweep.matrix.shape == (5, 4)
        assert sweep.best_tap["V1"] == "conv1"
        assert sweep.best_tap["LOC"] == "conv3"
        assert sweep.best_tap["IT"] == "fc1"

    def test_noise_brain_gives_weak_correlations(self):
        rng = np.random.default_rng(3)
        stim, rdms = reference_setup(rng, n_stim=40)
        worst = 0.0
        for draw in range(20):
            n = rng.normal(size=(40, 40))
            vals = np.clip(1 + 0.3 * (n + n.T) / 2, 0, 2)
            np.fill_diagonal(vals, 0)
            brain = {"V1": RDM(values=vals, ids=stim.ids)}
            sweep = best_layer_sweep(rdms, brain)
            worst = max(worst, np.abs(sweep.matrix).max())
        assert worst < 0.25  # 780 pairs of pure noise stay weak


class TestPerSubject:
    def test_single_subject_equals_mean_brain_table(self):
        rng = np.random.default_rng(5)
        stim, rdms = reference_setup(rng)
        sub = BrainRdmFile(subject="sub-01", roi="V1", rdm=rdms["conv1"])
        rows = per_subject_analysis({"random": rdms}, [sub], {"V1": "conv1"})
        mean_rho = spearman(upper_triangle(rdms["conv1"]),
                            upper_triangle(average_rdms([sub.rdm])))
        assert len(rows) == 1
        assert rows[0]["rho"] == pytest.approx(mean_rho, abs=1e-12)

    def test_duplicate_subjects_identical_rows(self):
        rng = np.random.default_rng(6)
        stim, rdms = reference_setup(rng)
        subs = [BrainRdmFile(subject=f"sub-0{i}", roi="V1", rdm=rdms["conv1"])
                for i in (1, 2)]
        rows = per_subject_analysis({"random": rdms}, subs, {"V1": "conv1"})
        assert rows[0]["rho"] == rows[1]["rho"]

    def test_noisier_subjects_score_lower(self):
        rng = np.random.default_rng(7)
        stim, rdms = reference_setup(rng, n_stim=30)
        base = rdms["conv1"].values
        subs = []
        for i, amp in enumerate((0.01, 0.2, 1.5)):
            n = rng.normal(size=base.shape)
            vals = np.clip(base + amp * (n + n.T) / 2, 0, 2)
            np.fill_diagonal(vals, 0)
            subs.append(BrainRdmFile(subject=f"sub-0{i}", roi="V1",
                                     rdm=RDM(values=vals, ids=stim.ids)))
        rows = per_subject_analysis({"random": rdms}, subs, {"V1": "conv1"})
        rhos = [r["rho"] for r in sorted(rows, key=lambda r: r["subject"])]
        assert rhos[0] > rhos[1] > rhos[2]


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
        from brainalign.pipeline import _write_csv

        path = tmp_path / "partial_rsa_V1.csv"
        _write_csv(path, ["condition", "rho_std", "rho_partial", "delta"],
                   [list(r) for r in self.FIXTURE_ROWS])
        lines = path.read_text().splitlines()
        assert lines[0] == "condition,rho_std,rho_partial,delta"
        for line, row in zip(lines[1:], self.FIXTURE_ROWS):
            cond, *vals = line.split(",")
            assert cond == row[0]
            assert tuple(float(v) for v in vals) == row[1:]

    def test_rsa_row_renders_ci_and_p_exactly(self, tmp_path):
        from brainalign.pipeline import _write_csv

        path = tmp_path / "rsa_results.csv"
        row = ["random", "V1", "conv1", 0.076, 0.003, 0.072, 0.080,
               repr(0.000999000999000999), 1, 5]
        _write_csv(path, ["condition", "roi", "tap", "rho", "seed_std",
                          "ci_low", "ci_high", "p_vs_random",
                          "fdr_significant", "n_seeds"], [row])
        got = path.read_text().splitlines()[1].split(",")
        assert float(got[3]) == 0.076
        assert float(got[7]) == 0.000999000999000999


class TestPartialReport:
    def test_columns_and_self_control_flag(self, tmp_path):
        rng = np.random.default_rng(8)
        stim, rdms = reference_setup(rng, n_stim=20)
        from brainalign.rdm import pixel_rdm

        pix = pixel_rdm(stim)
        brain = {"V1": rdms["conv1"]}
        # a model identical to the pixel control must be annihilated
        models = {"pixelclone": {"conv1": pix}, "reference": {"conv1": rdms["conv1"]}}
        out = partial_rsa_report(models, brain, stim, {"V1": "conv1"})
        rows = out["V1"]
        assert {r["condition"] for r in rows} == {"pixelclone", "reference"}
        clone = next(r for r in rows if r["condition"] == "pixelclone")
        assert clone["degenerate"] and clone["rho_partial"] == 0.0
        for r in rows:
            assert set(r) == {"condition", "rho_std", "rho_partial", "delta", "degenerate"}
            assert r["delta"] == pytest.approx(r["rho_partial"] - r["rho_std"], abs=1e-12)
