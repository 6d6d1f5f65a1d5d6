"""Network-level tests: init statistics, determinism, tap shapes, feature
extraction against brute-force oracles, and checkpoint round trips."""

import json
import tracemalloc

import numpy as np
import pytest

from brainalign import network, ops
from brainalign.errors import ConfigurationError, DataFormatError
from brainalign.network import (
    CONV_TAPS,
    TAPS,
    backward,
    extract_all_taps,
    forward,
    forward_cached,
    init_he_normal,
    load_checkpoint,
    save_checkpoint,
)

from helpers import stimulus_set

SMALL = (4, 6, 8)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def state():
    return init_he_normal(0, channels=SMALL)


class TestInit:
    def test_he_std_matches_formula(self):
        # fc1 has fan_in = channels[-1]; with 8 channels std = sqrt(2/8) = 0.5.
        # Pool draws across seeds to pass the 10k-sample mark.
        draws = np.concatenate([
            init_he_normal(seed, channels=(4, 4, 8)).arrays["fc1.w"].ravel()
            for seed in range(3)
        ])
        assert draws.size > 10000
        assert 0.49 < draws.std() < 0.51

    def test_same_seed_bitwise_identical(self):
        a = init_he_normal(3, channels=SMALL)
        b = init_he_normal(3, channels=SMALL)
        for (ka, va), (kb, vb) in zip(a.arrays.items(), b.arrays.items()):
            assert ka == kb and np.array_equal(va, vb)

    def test_biases_zero_bn_identity(self, state):
        a = state.arrays
        for tap in CONV_TAPS:
            assert f"{tap}.b" not in a  # the BN after each conv cancels a bias
            assert np.all(a[f"{tap}.gamma"] == 1.0) and not a[f"{tap}.beta"].any()
            assert not a[f"{tap}.running_mean"].any() and np.all(a[f"{tap}.running_var"] == 1.0)
        assert not a["fc1.b"].any() and not a["fc2.b"].any()

    def test_different_seeds_differ(self):
        a = init_he_normal(0, channels=SMALL)
        b = init_he_normal(1, channels=SMALL)
        assert not np.array_equal(a.arrays["conv1.w"], b.arrays["conv1.w"])


class TestForward:
    def test_zero_input_gives_uniform_softmax(self, state):
        logits, _ = forward(state, np.zeros((2, 3, 32, 32)))
        assert np.abs(logits - logits[:, :1]).max() == 0.0  # all classes equal
        assert np.allclose(ops.softmax(logits), 0.1)

    def test_identical_images_identical_tap_rows(self, state, rng):
        img = rng.random(size=(1, 3, 32, 32))
        batch = np.concatenate([img, img], axis=0)
        _, taps = forward(state, batch)
        for t in TAPS:
            assert np.array_equal(taps[t][0], taps[t][1])

    def test_cifar_tap_shapes(self, state, rng):
        _, taps = forward(state, rng.random(size=(2, 3, 32, 32)))
        assert taps["conv1"].shape == (2, 4, 16, 16)
        assert taps["conv2"].shape == (2, 6, 8, 8)
        assert taps["conv3"].shape == (2, 8, 4, 4)
        assert taps["fc1"].shape == (2, 512)
        assert taps["fc2"].shape == (2, 10)

    def test_224_resolution_valid(self, state, rng):
        logits, taps = forward(state, rng.random(size=(1, 3, 224, 224)))
        assert taps["conv3"].shape == (1, 8, 28, 28)
        assert logits.shape == (1, 10)

    def test_unsupported_resolution_rejected(self, state):
        with pytest.raises(ConfigurationError, match="resolution"):
            forward(state, np.zeros((1, 3, 64, 64)))
        with pytest.raises(ConfigurationError, match="resolution"):
            forward(state, np.zeros((1, 3, 32, 224)))

    def test_eval_forward_is_pure(self, state, rng):
        batch = rng.random(size=(3, 3, 32, 32))
        l1, t1 = forward(state, batch)
        l2, t2 = forward(state, batch)
        assert np.array_equal(l1, l2)
        for t in TAPS:
            assert np.array_equal(t1[t], t2[t])

    @pytest.mark.parametrize("resolution", [32, 224])
    def test_eval_cache_keeps_only_block_outputs(self, state, rng, resolution, caplog):
        # Eval pools before BN and ReLU. The reference runs the block in
        # its defined order: conv, BN, ReLU, pool. Some channels have
        # gamma < 0 (their block output pools the conv's window min) and
        # one has gamma = 0.
        a = state.arrays
        for tap, c in zip(CONV_TAPS, state.channels):
            a[f"{tap}.beta"][:] = rng.uniform(0.5, 1.0, size=c)
            a[f"{tap}.gamma"][:] = rng.normal(size=c)
            a[f"{tap}.gamma"][:2] = -np.abs(a[f"{tap}.gamma"][:2])
            a[f"{tap}.gamma"][2] = 0.0
            a[f"{tap}.running_mean"][:] = rng.normal(scale=0.1, size=c)
            a[f"{tap}.running_var"][:] = rng.uniform(0.5, 2.0, size=c)
        batch = rng.random(size=(2, 3, resolution, resolution))
        with caplog.at_level("WARNING"):
            record = forward_cached(state, batch, "eval")
            _, taps = forward(state, batch)
        assert "batchnorm eval" not in caplog.text  # hand-set stats count as trained
        assert not any(k.endswith((".relu", ".bn")) for k in record)
        x = batch
        for name in CONV_TAPS:
            bn_args = (a[f"{name}.gamma"], a[f"{name}.beta"], a[f"{name}.running_mean"],
                       a[f"{name}.running_var"], "eval")
            z = ops.conv2d_forward(x, a[f"{name}.w"], state.conv_spec(name))
            # max-pooling every channel first is wrong where gamma < 0
            naive = ops.relu_forward(ops.batchnorm_forward(
                ops.maxpool2x2_forward(z), *bn_args)[0])
            act, _ = ops.batchnorm_forward(z, *bn_args)
            x = ops.maxpool2x2_forward(ops.relu_forward(act))
            assert not np.array_equal(naive[:, :2], x[:, :2])
            for got in (record[name], taps[name]):
                assert np.array_equal(got, x)
                assert np.array_equal(np.signbit(got), np.signbit(x))

    def test_record_holds_each_documented_array_once(self, state, rng):
        batch = rng.random(size=(2, 3, 32, 32))
        keys = {"input", *CONV_TAPS, "gap", "fc1", "fc2"}
        record = forward_cached(state, batch, "train")
        assert set(record) == keys | {f"{t}.{k}" for t in CONV_TAPS for k in ("relu", "bn")}
        assert record["input"] is batch
        assert all(isinstance(record[f"{t}.bn"], ops.BnCache) for t in CONV_TAPS)
        arrays = [v for v in record.values() if isinstance(v, np.ndarray)]
        assert len(arrays) == len(record) - len(CONV_TAPS)
        assert not any(np.may_share_memory(u, v) for i, u in enumerate(arrays)
                       for v in arrays[i + 1:])
        assert set(forward_cached(state, batch, "eval")) == keys

    def test_eval_forward_at_224_holds_one_map_per_block(self):
        # Default channels, two 224 px images: conv1's output is 25.7 MB
        # and its pooled output 6.4 MB. BN and ReLU run in place
        # on the pooled map, and each block's full-size map is freed before
        # the next block's conv, so the peak is those two maps, 32.2 MB.
        state = init_he_normal(0)
        batch = np.random.default_rng(3).random(size=(2, 3, 224, 224))
        forward(state, batch)  # the BN warning and first-call setup happen here
        tracemalloc.start()
        try:
            forward(state, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 34e6

    def test_backward_names_every_trained_parameter(self, state, rng):
        record = forward_cached(state, rng.random(size=(2, 3, 32, 32)), mode="train")
        _, grad_logits = ops.softmax_xent(record["fc2"], np.array([0, 1]))
        grads = backward(state, record, grad_logits)
        params = state.arrays
        assert set(grads) == {n for n in params if "running" not in n}
        for name, g in grads.items():
            assert g.shape == params[name].shape, name

    def test_roi_map_resolves_in_tap_registry(self):
        for tap in ("conv1", "conv1", "conv3", "fc1"):
            assert tap in TAPS


class TestFeatureExtraction:
    def test_constant_spatial_map_value_preserved(self, state):
        # feed through a fake tap: check the GAP rule directly on mocked maps
        maps = np.full((2, 5, 4, 4), 1.25)
        assert np.all(ops.global_avg_pool(maps) == 1.25)

    def test_identical_stimuli_identical_rows(self, state, rng):
        img = rng.random(size=(1, 3, 32, 32))
        feats = extract_all_taps(state, stimulus_set(np.concatenate([img, img])))
        for t in TAPS:
            assert np.array_equal(feats[t][0], feats[t][1])

    def test_gap_matches_brute_force_mean(self, state, rng):
        stimuli = rng.random(size=(3, 3, 32, 32))
        feats = extract_all_taps(state, stimulus_set(stimuli))["conv2"]
        _, taps = forward(state, stimuli)
        oracle = np.array([[taps["conv2"][n, c].mean() for c in range(6)]
                           for n in range(3)])
        assert np.abs(feats - oracle).max() < 1e-12

    def test_batch_concat_commutes(self, state, rng, monkeypatch):
        # equality up to BLAS kernel choice: different batch shapes may take
        # different GEMM paths, so bitwise identity is not promised here
        monkeypatch.setattr(network, "_extraction_batch_size", lambda resolution: 2)
        a = rng.random(size=(3, 3, 32, 32))
        b = rng.random(size=(2, 3, 32, 32))
        both = extract_all_taps(state, stimulus_set(np.concatenate([a, b])))
        fa = extract_all_taps(state, stimulus_set(a))
        fb = extract_all_taps(state, stimulus_set(b))
        for t in TAPS:
            cat = np.concatenate([fa[t], fb[t]])
            assert np.abs(both[t] - cat).max() < 1e-12

    def test_train_pass_moves_every_blocks_running_stats(self, state, rng, caplog):
        forward_cached(state, rng.random(size=(2, 3, 32, 32)), mode="train")
        a = state.arrays
        for tap in CONV_TAPS:
            assert (a[f"{tap}.running_mean"] != 0.0).all()
            assert (a[f"{tap}.running_var"] != 1.0).all()
        moved = {k: v.copy() for k, v in a.items()}
        with caplog.at_level("WARNING"):
            forward(state, rng.random(size=(2, 3, 32, 32)))
        assert all(np.array_equal(v, a[k]) for k, v in moved.items())
        assert "batchnorm eval before any train step" not in caplog.text

    @pytest.mark.parametrize("stat", ["running_mean", "running_var"])
    def test_one_block_at_init_stats_warns(self, state, rng, caplog, stat):
        # conv2 keeps its init stats; moving either one of them silences it
        forward_cached(state, rng.random(size=(2, 3, 32, 32)), "train")
        a = state.arrays
        a["conv2.running_mean"][:], a["conv2.running_var"][:] = 0.0, 1.0
        with caplog.at_level("WARNING"):
            forward(state, rng.random(size=(1, 3, 32, 32)))
        assert caplog.text.count("batchnorm eval before any train step") == 1
        fresh = init_he_normal(0, channels=SMALL)
        fresh.arrays[f"conv1.{stat}"][0] += 0.5
        for tap in ("conv2", "conv3"):
            fresh.arrays[f"{tap}.{stat}"][:] += 0.5
        caplog.clear()
        with caplog.at_level("WARNING"):
            forward(fresh, rng.random(size=(1, 3, 32, 32)))
        assert "batchnorm eval" not in caplog.text

    def test_untrained_network_logs_bn_warning_once(self, state, rng, caplog, monkeypatch):
        # three fresh BN blocks and two batches, but one network
        monkeypatch.setattr(network, "_extraction_batch_size", lambda resolution: 2)
        with caplog.at_level("WARNING"):
            extract_all_taps(state, stimulus_set(rng.random(size=(3, 3, 32, 32))))
            forward(state, rng.random(size=(1, 3, 32, 32)))
            forward(state, rng.random(size=(1, 3, 32, 32)))
        assert caplog.text.count("batchnorm eval before any train step") == 1
        # the flag is per network: another fresh one warns once more
        with caplog.at_level("WARNING"):
            forward(init_he_normal(1, channels=SMALL), rng.random(size=(1, 3, 32, 32)))
        assert caplog.text.count("batchnorm eval before any train step") == 2


class TestCheckpoint:
    def test_round_trip_bitwise(self, state, rng, tmp_path):
        # move the state off its init values first
        state.arrays["conv1.w"] += 0.01
        state.arrays["conv2.running_mean"] += 0.5
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path, rule="bp")
        loaded, rule = load_checkpoint(path)
        assert rule == "bp"
        for (ka, va), (kb, vb) in zip(state.arrays.items(), loaded.arrays.items()):
            assert ka == kb and np.array_equal(va, vb)
        assert loaded.rng_seed == state.rng_seed

    def test_manifest_states_each_fact_once(self, state, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path, rule="bp")
        manifest = json.loads(path.read_bytes().split(b"\n")[1])
        assert sorted(manifest) == ["arrays", "rule", "seed"]
        assert [e["name"] for e in manifest["arrays"]] == list(state.arrays)

    def test_layout_is_the_init_arrays(self):
        shapes = network.array_shapes(1, SMALL, 4)
        state = init_he_normal(5, channels=SMALL, num_classes=4, in_channels=1)
        assert {k: v.shape for k, v in state.arrays.items()} == shapes
        assert list(state.arrays) == list(shapes)

    def test_older_manifest_with_extra_keys_loads(self, rng, tmp_path):
        # a manifest that also lists the geometry and per-block BN batch
        # counts loads to the same arrays, rule and seed
        state = init_he_normal(3, channels=SMALL, num_classes=4, in_channels=2)
        state.arrays["conv3.running_var"] += rng.uniform(size=8)
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path, rule="fa")
        self._rewrite(path, lambda m: m.update(in_channels=2, channels=list(SMALL),
                                               num_classes=4, bn_batches_seen=[0, 2, 5]))
        loaded, rule = load_checkpoint(path)
        assert (rule, loaded.rng_seed) == ("fa", 3)
        assert list(loaded.arrays) == list(state.arrays)
        for k, v in state.arrays.items():
            assert np.array_equal(loaded.arrays[k], v) and loaded.arrays[k].flags.writeable

    def test_round_trip_keeps_geometry(self, tmp_path):
        state = init_he_normal(5, channels=SMALL, num_classes=4, in_channels=1)
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)
        loaded, _ = load_checkpoint(path)
        assert {k: v.shape for k, v in loaded.arrays.items()} == \
            {k: v.shape for k, v in state.arrays.items()}
        assert (loaded.channels, loaded.in_channels, loaded.num_classes) == (SMALL, 1, 4)
        assert [loaded.conv_spec(t) for t in CONV_TAPS] == [
            ops.ConvSpec(1, 4, 3, 1, 1), ops.ConvSpec(4, 6, 3, 1, 1), ops.ConvSpec(6, 8, 3, 1, 1)]

    def test_versioned_header(self, state, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)
        assert path.read_bytes().startswith(b"PLRSA-CKPT-v1\n")

    def test_failed_save_keeps_earlier_checkpoint(self, state, tmp_path, monkeypatch):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path, rule="bp")
        before = path.read_bytes()
        # the third array cannot become float64, so the save fails after
        # writing the header, the manifest and two arrays
        arrays = list(state.arrays.items())
        broken = dict(arrays[:2] + [("boom", np.array([object()]))] + arrays[2:])
        monkeypatch.setattr(state, "arrays", broken)
        with pytest.raises(TypeError):
            save_checkpoint(state, path, rule="fa")
        assert path.read_bytes() == before
        assert load_checkpoint(path)[1] == "bp"
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOT-A-CKPT\n{}\n")
        with pytest.raises(DataFormatError, match="header"):
            load_checkpoint(path)

    def test_truncated_rejected(self, state, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    @staticmethod
    def _rewrite(path, edit_manifest=None, arrays=None, tail=b""):
        """Re-encode a saved checkpoint with an edited manifest and body."""
        _, manifest, body = path.read_bytes().split(b"\n", 2)
        manifest = json.loads(manifest)
        if edit_manifest:
            edit_manifest(manifest)
        if arrays is not None:
            body = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)
        path.write_bytes(b"PLRSA-CKPT-v1\n" + json.dumps(manifest).encode() + b"\n"
                         + body + tail)

    def test_missing_array_rejected(self, state, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)
        arrays = list(state.arrays.values())
        self._rewrite(path, lambda m: m["arrays"].pop(), arrays[:-1])  # drops fc2.b
        with pytest.raises(DataFormatError, match="fc2.b"):
            load_checkpoint(path)

    def test_non_finite_array_rejected(self, state, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)
        arrays = dict(state.arrays)
        arrays["fc1.w"] = arrays["fc1.w"].copy()
        arrays["fc1.w"][0, 0] = np.nan
        self._rewrite(path, arrays=arrays.values())
        with pytest.raises(DataFormatError, match="non-finite.*'fc1.w'"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, state, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)
        self._rewrite(path, tail=bytes(8))
        with pytest.raises(DataFormatError, match="trailing"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, state, tmp_path):
        # a [1] beta would otherwise broadcast across all conv1 channels
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)
        arrays = dict(state.arrays)
        arrays["conv1.beta"] = arrays["conv1.beta"][:1]

        def shrink(m):
            next(e for e in m["arrays"] if e["name"] == "conv1.beta")["shape"] = [1]

        self._rewrite(path, shrink, arrays.values())
        with pytest.raises(DataFormatError, match="conv1.beta"):
            load_checkpoint(path)

    def test_missing_manifest_key_rejected(self, state, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)
        self._rewrite(path, lambda m: m.pop("seed"))
        with pytest.raises(DataFormatError, match="manifest.*seed"):
            load_checkpoint(path)

    def test_zero_width_channels_rejected(self, state, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)

        def zero_width(m):
            next(e for e in m["arrays"] if e["name"] == "conv1.w")["shape"] = [0, 3, 3, 3]

        self._rewrite(path, zero_width)
        with pytest.raises(DataFormatError, match="manifest.*conv widths >= 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        {"rule": 5}, {"rule": None}, {"rule": ["bp"]},
        {"seed": 1.7}, {"seed": True}, {"seed": -1}, {"seed": "0"}, {"seed": None}],
        ids=["rule-int", "rule-null", "rule-list", "seed-float", "seed-bool",
             "seed-negative", "seed-str", "seed-null"])
    def test_bad_rule_or_seed_rejected(self, state, tmp_path, edit):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path, rule="bp")
        self._rewrite(path, lambda m: m.update(edit))
        with pytest.raises(DataFormatError,
                           match="net.ckpt: checkpoint rule must be a string and seed an integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[4.9], ["4"], "10", [True], [-4], None, {"4": 4}],
                             ids=["float", "str-dim", "str", "bool", "negative", "null", "object"])
    def test_shape_not_a_list_of_integers_rejected(self, state, tmp_path, shape):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)

        def set_shape(m):
            next(e for e in m["arrays"] if e["name"] == "conv1.beta")["shape"] = shape

        self._rewrite(path, set_shape)
        with pytest.raises(DataFormatError, match=r"net.ckpt: bad checkpoint manifest .*"
                                                  r"'conv1.beta' shape .* not a list of integers"):
            load_checkpoint(path)

    def test_repeated_array_named(self, state, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)
        self._rewrite(path, lambda m: m["arrays"].insert(3, dict(m["arrays"][2])))
        with pytest.raises(DataFormatError, match=r"\['conv1.beta'\] listed more than once"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["repeat", "inconsistent"])
    def test_layout_checked_before_any_array_is_read(self, state, tmp_path, edit):
        # no array bytes follow the manifest, so a read would be "truncated"
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)

        def bad_layout(m):
            if edit == "repeat":
                m["arrays"].insert(1, dict(m["arrays"][0]))
            else:  # conv2 reads 5 channels, conv1 writes 4
                next(e for e in m["arrays"] if e["name"] == "conv2.w")["shape"] = [6, 5, 3, 3]

        self._rewrite(path, bad_layout, arrays=[])
        with pytest.raises(DataFormatError, match="arrays differ from the network's"):
            load_checkpoint(path)

    def test_truncated_manifest_rejected(self, state, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(state, path)
        manifest = path.read_bytes().split(b"\n")[1]
        path.write_bytes(b"PLRSA-CKPT-v1\n" + manifest[:40])
        with pytest.raises(DataFormatError, match="manifest"):
            load_checkpoint(path)
