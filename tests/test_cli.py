"""CLI tests: every verb end to end on synthetic artifacts, flag
overrides, rerun determinism, and the exit-code contract."""

import json
import shutil

import numpy as np
import pytest

from brainalign.cli import main
from brainalign.data import read_rdm_csv, write_rdm_csv
from brainalign.network import LayerFeatures
from brainalign.pipeline import save_features
from brainalign.rdm import RDM

from helpers import treehash


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["synth", "--out", str(root / "data"), "--seed", "0",
               "--train", "96", "--test", "32", "--classes", "4",
               "--stimuli", "16", "--stim-size", "24", "--resolution", "32",
               "--noise", "0.05", "--channels", "4,6,8"])
    assert rc == 0
    return root


class TestVerbs:
    def test_stagewise_run(self, synth_dir, tmp_path):
        cfg = str(synth_dir / "data" / "synth.cfg")
        assert main(["train", "--config", cfg, "--rule", "bp", "--seed", "0",
                     "--epochs", "1", "--ckpt", str(tmp_path / "bp.ckpt"),
                     "--metrics", str(tmp_path / "m.csv")]) == 0
        assert (tmp_path / "bp.ckpt").exists()
        assert (tmp_path / "m.csv").read_text().startswith("epoch,loss")

        assert main(["extract", "--ckpt", str(tmp_path / "bp.ckpt"),
                     "--stimuli", str(synth_dir / "data" / "stimuli"),
                     "--resolution", "32", "--out", str(tmp_path / "feats")]) == 0
        assert (tmp_path / "feats" / "features_conv1.npy").exists()

        assert main(["rdm", "--features", str(tmp_path / "feats"),
                     "--out", str(tmp_path / "rdms")]) == 0
        assert (tmp_path / "rdms" / "fc1.csv").exists()

        assert main(["rsa", "--config", cfg,
                     "--model-rdm", str(tmp_path / "rdms" / "conv1.csv"),
                     "--brain-dir", str(synth_dir / "data" / "brain"),
                     "--out", str(tmp_path / "rsa.csv")]) == 0
        lines = (tmp_path / "rsa.csv").read_text().splitlines()
        assert lines[0] == "model,roi,rho,ci_low,ci_high,n_pairs"
        assert len(lines) == 5  # 4 ROIs

        assert main(["sweep", "--rdm-dir", str(tmp_path / "rdms"),
                     "--brain-dir", str(synth_dir / "data" / "brain"),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        sweep = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 1 + 5 + 1  # header + 5 taps + best row

        assert main(["filters", "--ckpt", str(tmp_path / "bp.ckpt"),
                     "--out-scores", str(tmp_path / "fs.csv"),
                     "--out-grid", str(tmp_path / "fg.csv")]) == 0
        assert (tmp_path / "fs.csv").exists() and (tmp_path / "fg.csv").exists()

    def test_report_verb_with_overrides(self, synth_dir, tmp_path):
        cfg = str(synth_dir / "data" / "synth.cfg")
        args = ["report", "--config", cfg, "--out", str(tmp_path / "run"),
                "--rules", "random", "--seeds", "0", "--epochs", "1"]
        assert main(args) == 0
        h1 = treehash(tmp_path / "run")
        assert main(args) == 0
        assert treehash(tmp_path / "run") == h1  # verb rerun is byte-identical

    def test_rsa_reproduces_report_ci(self, synth_dir, tmp_path):
        # rsa on <rule>.csv seeds its bootstrap exactly as report does for that rule
        run = tmp_path / "run"
        assert main(["report", "--config", str(synth_dir / "data" / "synth.cfg"),
                     "--out", str(run), "--rules", "bp", "--seeds", "0", "--epochs", "1"]) == 0
        shutil.copy(run / "rdms" / "bp_mean_conv1.csv", tmp_path / "bp.csv")
        assert main(["rsa", "--config", str(run / "config.cfg"),
                     "--model-rdm", str(tmp_path / "bp.csv"),
                     "--brain-dir", str(synth_dir / "data" / "brain"),
                     "--out", str(tmp_path / "rsa.csv")]) == 0
        v1 = next(line.split(",") for line in (tmp_path / "rsa.csv").read_text().splitlines()
                  if line.startswith("bp,V1,"))
        report = json.loads((run / "report.json").read_text())
        assert [float(v1[3]), float(v1[4])] == report["rois"]["V1"]["conditions"]["bp"]["ci"]

    def test_extract_rejects_unsupported_resolution(self, synth_dir, tmp_path):
        cfg = str(synth_dir / "data" / "synth.cfg")
        main(["train", "--config", cfg, "--rule", "random", "--seed", "1",
              "--ckpt", str(tmp_path / "r.ckpt")])
        for resolution in ("48", "0"):
            rc = main(["extract", "--ckpt", str(tmp_path / "r.ckpt"),
                       "--stimuli", str(synth_dir / "data" / "stimuli"),
                       "--resolution", resolution, "--out", str(tmp_path / "f")])
            assert rc == 2, resolution


class TestExitCodes:
    def test_missing_config_is_2(self):
        assert main(["report", "--config", "/nonexistent.cfg"]) == 2

    def test_unknown_rule_is_2(self, synth_dir):
        cfg = str(synth_dir / "data" / "synth.cfg")
        assert main(["train", "--config", cfg, "--rule", "adamw", "--seed", "0"]) == 2

    def test_zero_bootstrap_resamples_is_2(self, synth_dir, tmp_path, capsys):
        text = (synth_dir / "data" / "synth.cfg").read_text()
        assert "n_boot = 10000" in text
        (tmp_path / "bad.cfg").write_text(text.replace("n_boot = 10000", "n_boot = 0"))
        assert main(["rsa", "--config", str(tmp_path / "bad.cfg"),
                     "--model-rdm", str(synth_dir / "data" / "brain" / "sub-01_V1.csv"),
                     "--brain-dir", str(synth_dir / "data" / "brain"),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "n_boot must be >= 1, got 0" in capsys.readouterr().err

    def test_missing_data_is_3(self, tmp_path):
        assert main(["rsa", "--model-rdm", "/no/such.csv", "--brain-dir", "/no",
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_bad_checkpoint_is_3(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage\n")
        assert main(["filters", "--ckpt", str(bad),
                     "--out-scores", str(tmp_path / "s.csv"),
                     "--out-grid", str(tmp_path / "g.csv")]) == 3

    def test_truncated_checkpoint_manifest_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b'PLRSA-CKPT-v1\n{"arrays": [{"name": "conv1.w", "sha')
        assert main(["filters", "--ckpt", str(bad),
                     "--out-scores", str(tmp_path / "s.csv"),
                     "--out-grid", str(tmp_path / "g.csv")]) == 3
        assert "bad checkpoint manifest" in capsys.readouterr().err

    def test_ragged_model_rdm_is_3(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "data" / "brain" / "sub-01_V1.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]  # data row 2 loses its last value
        ragged = tmp_path / "model.csv"
        ragged.write_text("\n".join(lines) + "\n")
        assert main(["rsa", "--model-rdm", str(ragged),
                     "--brain-dir", str(synth_dir / "data" / "brain"),
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "row 2 ('stim-0002') has 15 values" in capsys.readouterr().err

    def test_nan_brain_rdm_is_3(self, synth_dir, tmp_path, capsys):
        brain = tmp_path / "brain"
        shutil.copytree(synth_dir / "data" / "brain", brain)
        rdm = read_rdm_csv(brain / "sub-01_V1.csv")
        values = rdm.values.copy()
        values[1, 4] = values[4, 1] = np.nan
        write_rdm_csv(RDM(values=values, ids=rdm.ids), brain / "sub-01_V1.csv")
        assert main(["rsa", "--model-rdm", str(synth_dir / "data" / "brain" / "sub-02_V1.csv"),
                     "--brain-dir", str(brain), "--out", str(tmp_path / "x.csv")]) == 3
        assert "non-finite value nan at (stim-0001, stim-0004)" in capsys.readouterr().err

    def test_one_subject_report_is_3_and_keeps_last_run(self, synth_dir, tmp_path, capsys):
        brain = synth_dir / "data" / "brain"
        one = tmp_path / "one_subject"
        one.mkdir()
        for path in brain.glob("sub-01_*.csv"):
            shutil.copy(path, one / path.name)
        cfg = (synth_dir / "data" / "synth.cfg").read_text()
        assert f"brain_rdm_dir = {brain}\n" in cfg
        (tmp_path / "one.cfg").write_text(cfg.replace(f"brain_rdm_dir = {brain}\n",
                                                      f"brain_rdm_dir = {one}\n"))
        run = ["--out", str(tmp_path / "run"), "--rules", "random", "--seeds", "0"]
        assert main(["report", "--config", str(synth_dir / "data" / "synth.cfg")] + run) == 0
        before = treehash(tmp_path / "run")
        capsys.readouterr()
        assert main(["report", "--config", str(tmp_path / "one.cfg")] + run) == 3
        assert "ROI V1 has 1 subject RDM" in capsys.readouterr().err
        assert treehash(tmp_path / "run") == before

    def test_duplicate_subject_report_is_3_and_keeps_last_run(self, synth_dir, tmp_path,
                                                               capsys):
        brain = synth_dir / "data" / "brain"
        dup = tmp_path / "dup_subject"
        shutil.copytree(brain, dup)
        shutil.copy(dup / "sub-01_V1.csv", dup / "sub-01_v1.csv")
        cfg = (synth_dir / "data" / "synth.cfg").read_text()
        assert f"brain_rdm_dir = {brain}\n" in cfg
        (tmp_path / "dup.cfg").write_text(cfg.replace(f"brain_rdm_dir = {brain}\n",
                                                      f"brain_rdm_dir = {dup}\n"))
        run = ["--out", str(tmp_path / "run"), "--rules", "random", "--seeds", "0"]
        assert main(["report", "--config", str(synth_dir / "data" / "synth.cfg")] + run) == 0
        before = treehash(tmp_path / "run")
        capsys.readouterr()
        assert main(["report", "--config", str(tmp_path / "dup.cfg")] + run) == 3
        assert "subject sub-01 has more than one brain RDM for ROI V1" in capsys.readouterr().err
        assert treehash(tmp_path / "run") == before

    def test_constant_model_rdm_is_3(self, synth_dir, tmp_path, capsys):
        ids = read_rdm_csv(synth_dir / "data" / "brain" / "sub-01_V1.csv").ids
        values = np.ones((len(ids), len(ids)))
        np.fill_diagonal(values, 0.0)
        write_rdm_csv(RDM(values=values, ids=ids), tmp_path / "flat.csv")
        assert main(["rsa", "--model-rdm", str(tmp_path / "flat.csv"),
                     "--brain-dir", str(synth_dir / "data" / "brain"),
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "correlation undefined for a constant vector" in capsys.readouterr().err

    def test_reordered_model_rdm_is_3(self, synth_dir, tmp_path):
        # a model RDM keyed to another stimulus order is an error, never scored
        brain = synth_dir / "data" / "brain"
        rdm = read_rdm_csv(brain / "sub-01_V1.csv")
        rev = np.arange(rdm.size)[::-1]
        reordered = RDM(values=rdm.values[np.ix_(rev, rev)],
                        ids=tuple(rdm.ids[i] for i in rev))
        alone, mixed = tmp_path / "alone", tmp_path / "mixed"
        alone.mkdir()
        mixed.mkdir()
        write_rdm_csv(reordered, alone / "conv1.csv")
        write_rdm_csv(rdm, mixed / "conv1.csv")
        write_rdm_csv(reordered, mixed / "conv2.csv")
        for model_dir in (alone, mixed):
            for verb, flag in (("rsa", "--model-rdm"), ("sweep", "--rdm-dir")):
                assert main([verb, flag, str(model_dir), "--brain-dir", str(brain),
                             "--out", str(tmp_path / f"{verb}.csv")]) == 3, (verb, model_dir)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-40])


def _drop_a_row(path):
    np.save(path, np.load(path)[1:])


def _nan_value(path):
    m = np.load(path)
    m[2, 1] = np.nan
    np.save(path, m)


@pytest.mark.parametrize("corrupt, message", [
    (_truncate, "unreadable feature matrix"),
    (_drop_a_row, "expected a float matrix with 6 rows"),
    (_nan_value, "non-finite feature value"),
])
def test_corrupt_feature_dir_is_3(tmp_path, capsys, corrupt, message):
    ids = tuple(f"stim-{i}" for i in range(6))
    feats = {tap: LayerFeatures(tap=tap, matrix=np.random.default_rng(0).normal(size=(6, 5)))
             for tap in ("conv1", "fc1")}
    save_features(feats, ids, tmp_path / "feats")
    corrupt(tmp_path / "feats" / "features_fc1.npy")
    assert main(["rdm", "--features", str(tmp_path / "feats"),
                 "--out", str(tmp_path / "rdms")]) == 3
    err = capsys.readouterr().err
    assert "features_fc1.npy" in err and message in err
