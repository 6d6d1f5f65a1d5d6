"""CLI tests: every verb end to end on synthetic artifacts, flag
overrides, rerun determinism, and the exit-code contract."""

import json
import shutil

import numpy as np
import pytest

from brainalign.cli import build_parser, main
from brainalign.data import read_rdm_csv, write_rdm_csv
from brainalign.errors import DataFormatError
from brainalign.network import NetworkState, load_checkpoint, save_checkpoint
from brainalign.pipeline import save_features

from helpers import square, treehash


def edited_config(synth_dir, path, old, new) -> str:
    """synth.cfg with the text `old` replaced by `new`, written to `path`."""
    text = (synth_dir / "data" / "synth.cfg").read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return str(path)


def exit_code(argv) -> int:
    """main's return code, or the code argparse exits with on a bad flag."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["synth", "--out", str(root / "data"), "--seed", "0",
               "--train", "96", "--test", "32", "--classes", "4",
               "--stimuli", "16", "--stim-size", "24", "--resolution", "32",
               "--noise", "0.05", "--channels", "4,6,8"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def random_ckpt(synth_dir):
    ckpt = synth_dir / "random.ckpt"
    assert main(["train", "--config", str(synth_dir / "data" / "synth.cfg"),
                 "--rule", "random", "--seed", "0", "--ckpt", str(ckpt)]) == 0
    return ckpt


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

    def test_train_metrics_rerun_is_byte_identical(self, synth_dir, tmp_path):
        args = ["train", "--config", str(synth_dir / "data" / "synth.cfg"), "--rule", "bp",
                "--seed", "0", "--epochs", "2", "--ckpt", str(tmp_path / "bp.ckpt"),
                "--metrics", str(tmp_path / "m.csv")]
        assert main(args) == 0
        first = (tmp_path / "m.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "m.csv").read_bytes() == first
        assert len(first.splitlines()) == 3  # header and two epochs

    def test_train_makes_missing_output_directories(self, synth_dir, tmp_path):
        ckpt, metrics = tmp_path / "new" / "bp.ckpt", tmp_path / "m" / "m.csv"
        assert main(["train", "--config", str(synth_dir / "data" / "synth.cfg"),
                     "--rule", "bp", "--seed", "0", "--epochs", "1",
                     "--ckpt", str(ckpt), "--metrics", str(metrics)]) == 0
        assert ckpt.exists() and metrics.read_text().startswith("epoch,loss")

    def test_rsa_reproduces_report_ci(self, synth_dir, tmp_path):
        # rsa on <rule>.csv scores it exactly as report does for that rule: the
        # same rho and the same bootstrap seed, at V1 and at V2 (both on conv1)
        run = tmp_path / "run"
        assert main(["report", "--config", str(synth_dir / "data" / "synth.cfg"),
                     "--out", str(run), "--rules", "bp", "--seeds", "0", "--epochs", "1"]) == 0
        shutil.copy(run / "rdms" / "bp_mean_conv1.csv", tmp_path / "bp.csv")
        assert main(["rsa", "--config", str(run / "config.cfg"),
                     "--model-rdm", str(tmp_path / "bp.csv"),
                     "--brain-dir", str(synth_dir / "data" / "brain"),
                     "--out", str(tmp_path / "rsa.csv")]) == 0
        rows = {line.split(",")[1]: line.split(",")
                for line in (tmp_path / "rsa.csv").read_text().splitlines()[1:]}
        report = json.loads((run / "report.json").read_text())
        for roi in ("V1", "V2"):
            assert report["rois"][roi]["layer"] == "conv1"
            scored = report["rois"][roi]["conditions"]["bp"]
            assert float(rows[roi][2]) == scored["rho"]
            assert [float(rows[roi][3]), float(rows[roi][4])] == scored["ci"]

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

    def test_bad_seeds_flag_is_2(self, synth_dir, capsys):
        cfg = str(synth_dir / "data" / "synth.cfg")
        assert exit_code(["report", "--config", cfg, "--seeds", "0,x"]) == 2
        assert "argument --seeds: config key 'seeds'" in capsys.readouterr().err

    def test_flags_parse_as_config_values(self):
        args = build_parser().parse_args(["report", "--config", "c.cfg", "--out", "r",
                                          "--rules", "bp,,fa", "--seeds", "0, 2"])
        assert (args.out_dir, args.rules, args.seeds) == ("r", ("bp", "fa"), (0, 2))

    @pytest.mark.parametrize("flags", [("--channels", "4,x"), ("--stimuli", "0"),
                                       ("--classes", "0"), ("--classes", "11"),
                                       ("--channels", "4,6"), ("--resolution", "64")])
    def test_bad_synth_flag_is_2_and_writes_nothing(self, tmp_path, flags):
        assert exit_code(["synth", "--out", str(tmp_path / "s"), *flags]) == 2
        assert not (tmp_path / "s").exists()

    def test_malformed_config_is_2(self, synth_dir, tmp_path, capsys):
        text = (synth_dir / "data" / "synth.cfg").read_text()
        (tmp_path / "dup.cfg").write_text(text.replace("n_perm = 1000",
                                                       "n_perm = 1000\nn_perm = 10"))
        assert main(["report", "--config", str(tmp_path / "dup.cfg")]) == 2
        assert "malformed config" in capsys.readouterr().err

    def test_negative_seed_is_2(self, synth_dir, tmp_path):
        assert main(["train", "--config", str(synth_dir / "data" / "synth.cfg"),
                     "--rule", "bp", "--seed", "-1", "--ckpt", str(tmp_path / "c.ckpt"),
                     "--metrics", str(tmp_path / "new" / "m.csv")]) == 2
        assert not (tmp_path / "c.ckpt").exists()
        assert not (tmp_path / "new").exists()
        assert main(["synth", "--out", str(tmp_path / "s"), "--seed", "-1"]) == 2
        assert not (tmp_path / "s").exists()

    def test_unknown_rule_is_2(self, synth_dir, tmp_path, capsys):
        cfg = str(synth_dir / "data" / "synth.cfg")
        assert main(["train", "--config", cfg, "--rule", "adamw", "--seed", "0",
                     "--ckpt", str(tmp_path / "new" / "c.ckpt")]) == 2
        assert "unknown rule 'adamw'" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_zero_bootstrap_resamples_is_2(self, synth_dir, tmp_path, capsys):
        text = (synth_dir / "data" / "synth.cfg").read_text()
        assert "n_boot = 10000" in text
        (tmp_path / "bad.cfg").write_text(text.replace("n_boot = 10000", "n_boot = 0"))
        assert main(["rsa", "--config", str(tmp_path / "bad.cfg"),
                     "--model-rdm", str(synth_dir / "data" / "brain" / "sub-01_V1.csv"),
                     "--brain-dir", str(synth_dir / "data" / "brain"),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "n_boot must be >= 1, got 0" in capsys.readouterr().err

    def test_stdp_t_past_int16_is_2(self, synth_dir, tmp_path, capsys):
        text = (synth_dir / "data" / "synth.cfg").read_text()
        assert "stdp_t = 10" in text
        (tmp_path / "bad.cfg").write_text(text.replace("stdp_t = 10", "stdp_t = 40000"))
        assert main(["train", "--config", str(tmp_path / "bad.cfg"), "--rule", "stdp",
                     "--seed", "0", "--epochs", "1", "--ckpt", str(tmp_path / "s.ckpt")]) == 2
        assert "stdp_t must be in [1, 32767], got 40000" in capsys.readouterr().err
        assert not (tmp_path / "s.ckpt").exists()

    def test_missing_data_is_3(self, tmp_path):
        assert main(["rsa", "--model-rdm", "/no/such.csv", "--brain-dir", "/no",
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_checkpoint_directory_is_3(self, synth_dir, tmp_path):
        assert main(["extract", "--ckpt", str(tmp_path), "--resolution", "32",
                     "--stimuli", str(synth_dir / "data" / "stimuli"),
                     "--out", str(tmp_path / "f")]) == 3

    def test_stimuli_file_is_3(self, random_ckpt, tmp_path):
        assert main(["extract", "--ckpt", str(random_ckpt), "--resolution", "32",
                     "--stimuli", str(random_ckpt), "--out", str(tmp_path / "f")]) == 3

    @pytest.mark.parametrize("header", [b"P6\nab 2\n255\n", b"P6\n0 3\n255\n"],
                             ids=["letters", "zero-width"])
    def test_malformed_stimulus_is_3(self, random_ckpt, tmp_path, capsys, header):
        (tmp_path / "stimuli").mkdir()
        (tmp_path / "stimuli" / "bad.ppm").write_bytes(header)
        assert main(["extract", "--ckpt", str(random_ckpt), "--resolution", "32",
                     "--stimuli", str(tmp_path / "stimuli"), "--out", str(tmp_path / "f")]) == 3
        assert "bad.ppm" in capsys.readouterr().err

    def test_train_data_directory_report_is_3_and_writes_nothing(self, synth_dir, tmp_path):
        train = synth_dir / "data" / "train.bin"
        cfg = edited_config(synth_dir, tmp_path / "c.cfg", f"train_data = {train}\n",
                            f"train_data = {tmp_path}\n")
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--rules", "random", "--seeds", "0"]) == 3
        assert not (tmp_path / "run").exists()

    def test_bad_checkpoint_is_3(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage\n")
        assert main(["filters", "--ckpt", str(bad),
                     "--out-scores", str(tmp_path / "s.csv"),
                     "--out-grid", str(tmp_path / "g.csv")]) == 3

    @pytest.mark.parametrize("verb", ["extract", "filters"])
    def test_bad_checkpoint_seed_is_3(self, random_ckpt, tmp_path, capsys, verb):
        head, manifest, body = random_ckpt.read_bytes().split(b"\n", 2)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(head + b"\n" + manifest.replace(b'"seed": 0', b'"seed": 1.7')
                        + b"\n" + body)
        out = ["--out", str(tmp_path / "f")] if verb == "extract" else [
            "--out-scores", str(tmp_path / "s.csv"), "--out-grid", str(tmp_path / "g.csv")]
        args = ["--stimuli", str(tmp_path), "--resolution", "32"] if verb == "extract" else []
        assert main([verb, "--ckpt", str(bad), *args, *out]) == 3
        assert "bad.ckpt: checkpoint rule must be a string and seed" in capsys.readouterr().err

    def test_checkpoint_with_conv_biases_is_3(self, synth_dir, random_ckpt, tmp_path, capsys):
        # the older layout: a "<tap>.b" after each conv weight, which the
        # batch norm after the conv cancels
        state, rule = load_checkpoint(random_ckpt)
        arrays = {}
        for name, a in state.arrays.items():
            arrays[name] = a
            if name.startswith("conv") and name.endswith(".w"):
                arrays[name[:-1] + "b"] = np.zeros(a.shape[0])
        old = tmp_path / "old.ckpt"
        save_checkpoint(NetworkState(arrays, state.rng_seed), old, rule)
        with pytest.raises(DataFormatError, match=r"differ from the network's in .*'conv1\.b'"):
            load_checkpoint(old)
        assert main(["extract", "--ckpt", str(old), "--resolution", "32",
                     "--stimuli", str(synth_dir / "data" / "stimuli"),
                     "--out", str(tmp_path / "f")]) == 3
        assert "old.ckpt: checkpoint arrays differ" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

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
        vec, ids = read_rdm_csv(brain / "sub-01_V1.csv")
        values = square(vec, len(ids))
        values[1, 4] = values[4, 1] = np.nan
        write_rdm_csv(values[np.triu_indices(len(ids), k=1)], ids, brain / "sub-01_V1.csv")
        assert main(["rsa", "--model-rdm", str(synth_dir / "data" / "brain" / "sub-02_V1.csv"),
                     "--brain-dir", str(brain), "--out", str(tmp_path / "x.csv")]) == 3
        assert "non-finite value nan at (stim-0001, stim-0004)" in capsys.readouterr().err

    def test_brain_distance_past_2_is_3(self, synth_dir, tmp_path, capsys):
        # every V1 subject at 2.5, so the subject mean is out of range too
        brain = tmp_path / "brain"
        shutil.copytree(synth_dir / "data" / "brain", brain)
        for path in sorted(brain.glob("*_V1.csv")):
            vec, ids = read_rdm_csv(path)
            values = square(vec, len(ids))
            values[1, 4] = values[4, 1] = 2.5
            write_rdm_csv(values[np.triu_indices(len(ids), k=1)], ids, path)
        assert main(["rsa", "--model-rdm", str(synth_dir / "data" / "brain" / "sub-02_V1.csv"),
                     "--brain-dir", str(brain), "--out", str(tmp_path / "x.csv")]) == 3
        assert "distance 2.5 at (stim-0001, stim-0004)" in capsys.readouterr().err

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

    def test_duplicate_seeds_is_2_and_writes_nothing(self, synth_dir, tmp_path, capsys):
        assert main(["report", "--config", str(synth_dir / "data" / "synth.cfg"),
                     "--out", str(tmp_path / "run"), "--rules", "random",
                     "--seeds", "0,0"]) == 2
        assert "duplicate seeds in (0, 0)" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_two_stimuli_is_3_and_keeps_last_run(self, synth_dir, tmp_path, capsys):
        # two stimuli and the 2x2 corner of each brain RDM: one pair, too few to score
        data, two = synth_dir / "data", tmp_path / "two"
        (two / "stimuli").mkdir(parents=True)
        (two / "brain").mkdir()
        (two / "models").mkdir()
        for path in sorted((data / "stimuli").glob("*.ppm"))[:2]:
            shutil.copy(path, two / "stimuli" / path.name)
        for path in (data / "brain").glob("*.csv"):
            vec, ids = read_rdm_csv(path)
            write_rdm_csv(vec[:1], ids[:2], two / "brain" / path.name)  # pair (0, 1)
        shutil.copy(two / "brain" / "sub-01_V1.csv", two / "models" / "conv1.csv")
        cfg = (data / "synth.cfg").read_text()
        for sub in ("stimuli", "brain"):
            assert f" = {data / sub}\n" in cfg
            cfg = cfg.replace(f" = {data / sub}\n", f" = {two / sub}\n")
        (tmp_path / "two.cfg").write_text(cfg)
        run = ["--out", str(tmp_path / "run"), "--rules", "random", "--seeds", "0"]
        assert main(["report", "--config", str(data / "synth.cfg")] + run) == 0
        before = treehash(tmp_path / "run")
        capsys.readouterr()
        assert main(["report", "--config", str(tmp_path / "two.cfg")] + run) == 3
        assert "RSA needs at least 3 stimuli, got 2" in capsys.readouterr().err
        assert treehash(tmp_path / "run") == before
        for verb, flag in (("rsa", "--model-rdm"), ("sweep", "--rdm-dir")):
            assert main([verb, flag, str(two / "models"), "--brain-dir", str(two / "brain"),
                         "--out", str(tmp_path / f"{verb}.csv")]) == 3, verb
            assert "RSA needs at least 3 stimuli, got 2" in capsys.readouterr().err

    def test_constant_model_rdm_is_3(self, synth_dir, tmp_path, capsys):
        _, ids = read_rdm_csv(synth_dir / "data" / "brain" / "sub-01_V1.csv")
        write_rdm_csv(np.ones(len(ids) * (len(ids) - 1) // 2), ids, tmp_path / "flat.csv")
        assert main(["rsa", "--model-rdm", str(tmp_path / "flat.csv"),
                     "--brain-dir", str(synth_dir / "data" / "brain"),
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "correlation undefined for a constant vector" in capsys.readouterr().err

    def test_reordered_model_rdm_is_3(self, synth_dir, tmp_path):
        # a model RDM keyed to another stimulus order is an error, never scored
        brain = synth_dir / "data" / "brain"
        vec, ids = read_rdm_csv(brain / "sub-01_V1.csv")
        n = len(ids)
        rev_vec = square(vec, n)[::-1, ::-1][np.triu_indices(n, k=1)]
        rev_ids = ids[::-1]
        alone, mixed = tmp_path / "alone", tmp_path / "mixed"
        alone.mkdir()
        mixed.mkdir()
        write_rdm_csv(rev_vec, rev_ids, alone / "conv1.csv")
        write_rdm_csv(vec, ids, mixed / "conv1.csv")
        write_rdm_csv(rev_vec, rev_ids, mixed / "conv2.csv")
        for model_dir in (alone, mixed):
            for verb, flag in (("rsa", "--model-rdm"), ("sweep", "--rdm-dir")):
                assert main([verb, flag, str(model_dir), "--brain-dir", str(brain),
                             "--out", str(tmp_path / f"{verb}.csv")]) == 3, (verb, model_dir)

    def test_label_past_num_classes_report_is_3_and_writes_nothing(self, synth_dir, tmp_path,
                                                                    capsys):
        # the synth labels are 0..3: a 3-class network has no output for label 3
        cfg = edited_config(synth_dir, tmp_path / "c.cfg", "num_classes = 4\n",
                            "num_classes = 3\n")
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--rules", "random", "--seeds", "0"]) == 3
        assert "train.bin: labels outside [0, 3): min 0 max 3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_label_past_num_classes_train_is_3_and_writes_nothing(self, synth_dir, tmp_path,
                                                                   capsys):
        cfg = edited_config(synth_dir, tmp_path / "c.cfg", "num_classes = 4\n",
                            "num_classes = 3\n")
        assert main(["train", "--config", cfg, "--rule", "bp", "--seed", "0",
                     "--ckpt", str(tmp_path / "new" / "c.ckpt")]) == 3
        assert "labels outside [0, 3): min 0 max 3" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_synth_without_test_set_names_none_and_empty_test_file_is_3(self, tmp_path,
                                                                        capsys):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--train", "16", "--test", "0",
                     "--stimuli", "6", "--channels", "4,6,8"]) == 0
        text = (out / "synth.cfg").read_text()
        assert "test_data = \n" in text
        assert not (out / "test.bin").exists()
        run = ["--out", str(tmp_path / "run"), "--rules", "random", "--seeds", "0"]
        assert main(["report", "--config", str(out / "synth.cfg")] + run) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["failures"] == [] and report["accuracy"] == {}
        (out / "empty.bin").write_bytes(b"")
        (tmp_path / "e.cfg").write_text(
            text.replace("test_data = \n", f"test_data = {out / 'empty.bin'}\n"))
        capsys.readouterr()
        assert main(["report", "--config", str(tmp_path / "e.cfg"),
                     "--out", str(tmp_path / "run2"), "--rules", "random", "--seeds", "0"]) == 3
        assert "empty.bin: no images" in capsys.readouterr().err
        assert not (tmp_path / "run2").exists()

    def test_empty_train_file_is_3_and_writes_nothing(self, synth_dir, tmp_path, capsys):
        (tmp_path / "empty.bin").write_bytes(b"")
        train = synth_dir / "data" / "train.bin"
        cfg = edited_config(synth_dir, tmp_path / "c.cfg", f"train_data = {train}\n",
                            f"train_data = {tmp_path / 'empty.bin'}\n")
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--rules", "random", "--seeds", "0"]) == 3
        assert "empty.bin: no images" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert main(["train", "--config", cfg, "--rule", "bp", "--seed", "0",
                     "--ckpt", str(tmp_path / "new" / "c.ckpt")]) == 3
        assert "empty.bin: no images" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()


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
    feats = {tap: np.random.default_rng(0).normal(size=(6, 5)) for tap in ("conv1", "fc1")}
    save_features(feats, ids, tmp_path / "feats")
    corrupt(tmp_path / "feats" / "features_fc1.npy")
    assert main(["rdm", "--features", str(tmp_path / "feats"),
                 "--out", str(tmp_path / "rdms")]) == 3
    err = capsys.readouterr().err
    assert "features_fc1.npy" in err and message in err


def test_duplicate_feature_ids_are_3(tmp_path, capsys):
    ids = ("stim-0", "stim-1", "stim-0")
    save_features({"conv1": np.random.default_rng(0).normal(size=(3, 5))}, ids,
                  tmp_path / "feats")
    assert main(["rdm", "--features", str(tmp_path / "feats"),
                 "--out", str(tmp_path / "rdms")]) == 3
    err = capsys.readouterr().err
    assert "stimulus_ids.txt" in err and "duplicate stimulus ids ['stim-0']" in err
    assert not (tmp_path / "rdms").exists()


def test_undecodable_feature_ids_are_3(tmp_path, capsys):
    save_features({"conv1": np.random.default_rng(0).normal(size=(3, 5))},
                  ("stim-0", "stim-1", "stim-2"), tmp_path / "feats")
    (tmp_path / "feats" / "stimulus_ids.txt").write_bytes(b"stim-0\nstim-\xff\nstim-2\n")
    assert main(["rdm", "--features", str(tmp_path / "feats"),
                 "--out", str(tmp_path / "rdms")]) == 3
    assert "stimulus_ids.txt: not text" in capsys.readouterr().err
    assert not (tmp_path / "rdms").exists()
