"""Reader/writer tests: CIFAR binary bit-exactness, bilinear resize against
a brute-force oracle, PPM round trips, RDM CSV validation, and the
synthetic dataset contracts."""

import tracemalloc

import numpy as np
import pytest

from brainalign import data as D
from brainalign.errors import ConfigurationError, DataFormatError
from brainalign.rdm import average_rdms, rdm_from_features
from brainalign.stats import spearman


@pytest.fixture
def rng():
    return np.random.default_rng(21)


# ---------------------------------------------------------------------------
# CIFAR-10 binary
# ---------------------------------------------------------------------------

class TestCifarBinary:
    def test_crafted_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes([7]) + bytes([255]) * 3072)
        ds = D.read_cifar10_binary([path])
        assert ds.labels.tolist() == [7]
        assert ds.images.shape == (1, 3, 32, 32)
        assert np.all(ds.images == 1.0)

    def test_channel_major_layout(self, tmp_path):
        # first 1024 pixel bytes are the red channel
        pixels = bytes([200] * 1024 + [100] * 1024 + [50] * 1024)
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes([0]) + pixels)
        ds = D.read_cifar10_binary([path])
        assert np.all(ds.images[0, 0] == 200 / 255)
        assert np.all(ds.images[0, 1] == 100 / 255)
        assert np.all(ds.images[0, 2] == 50 / 255)

    def test_limit(self, tmp_path):
        rec = bytes([1]) + bytes(3072)
        path = tmp_path / "batch.bin"
        path.write_bytes(rec * 5)
        assert D.read_cifar10_binary([path], limit=0).images.shape[0] == 0
        assert D.read_cifar10_binary([path], limit=3).images.shape[0] == 3
        ds = D.read_cifar10_binary([path, path], limit=8)
        assert ds.images.shape[0] == 8

    def test_empty_file_does_not_end_the_read(self, tmp_path):
        one, empty = tmp_path / "one.bin", tmp_path / "empty.bin"
        one.write_bytes(bytes([1]) + bytes(3072))
        empty.write_bytes(b"")
        for limit in (None, 2):
            assert D.read_cifar10_binary([one, empty, one], limit=limit).labels.tolist() == [1, 1]

    def test_truncated_names_offset(self, tmp_path):
        rec = bytes([1]) + bytes(3072)
        path = tmp_path / "bad.bin"
        path.write_bytes(rec * 2 + b"junk")
        with pytest.raises(DataFormatError, match=str(2 * 3073)):
            D.read_cifar10_binary([path])

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes([11]) + bytes(3072))
        with pytest.raises(DataFormatError, match="label 11"):
            D.read_cifar10_binary([path])

    def test_write_read_round_trip(self, rng, tmp_path):
        imgs = np.rint(rng.random(size=(5, 3, 32, 32)) * 255) / 255
        labels = np.array([0, 9, 3, 1, 4])
        D.write_cifar10_binary(D.LabeledImageSet(imgs, labels), tmp_path / "rt.bin")
        back = D.read_cifar10_binary([tmp_path / "rt.bin"])
        assert np.array_equal(back.images, imgs)
        assert np.array_equal(back.labels, labels)


# ---------------------------------------------------------------------------
# Resize
# ---------------------------------------------------------------------------

def brute_force_bilinear(im, t):
    h, w = im.shape[-2:]
    out = np.zeros(im.shape[:-2] + (t, t))
    for i in range(t):
        for j in range(t):
            sy = min(max((i + 0.5) * h / t - 0.5, 0), h - 1)
            sx = min(max((j + 0.5) * w / t - 0.5, 0), w - 1)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            wy, wx = sy - y0, sx - x0
            out[..., i, j] = (im[..., y0, x0] * (1 - wy) * (1 - wx)
                              + im[..., y0, x1] * (1 - wy) * wx
                              + im[..., y1, x0] * wy * (1 - wx)
                              + im[..., y1, x1] * wy * wx)
    return out


class TestResize:
    def test_idempotent_at_target(self, rng):
        img = rng.random(size=(3, 224, 224))
        assert np.array_equal(D.resize_bilinear(img, 224), img)

    def test_constant_stays_constant(self):
        assert np.allclose(D.resize_bilinear(np.full((3, 7, 5), 0.42), 16), 0.42)

    def test_upscale_matches_brute_force(self):
        img = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        assert np.abs(D.resize_bilinear(img, 4) - brute_force_bilinear(img, 4)).max() < 1e-15

    def test_downscale_matches_brute_force(self, rng):
        img = rng.random(size=(3, 9, 9))
        assert np.abs(D.resize_bilinear(img, 4) - brute_force_bilinear(img, 4)).max() < 1e-12

    def test_center_crop(self, rng):
        img = rng.random(size=(3, 10, 6))
        cropped = D.center_crop_square(img)
        assert cropped.shape == (3, 6, 6)
        assert np.array_equal(cropped, img[:, 2:8, :])


# ---------------------------------------------------------------------------
# PPM and stimulus directories
# ---------------------------------------------------------------------------

class TestPpm:
    def test_round_trip(self, rng, tmp_path):
        img = np.rint(rng.random(size=(3, 9, 7)) * 255) / 255
        D.write_ppm(img, tmp_path / "x.ppm")
        assert np.array_equal(D.read_ppm(tmp_path / "x.ppm"), img)

    def test_header_comments_skipped(self, tmp_path):
        body = bytes(range(27)) + bytes(27)
        (tmp_path / "c.ppm").write_bytes(b"P6\n# a comment\n3 3\n# more\n255\n" + body[:27])
        img = D.read_ppm(tmp_path / "c.ppm")
        assert img.shape == (3, 3, 3)
        assert img[0, 0, 0] == 0.0 and img[2, 0, 0] == 2 / 255

    @pytest.mark.parametrize("header", [b"P6\t3\t3\t255\t", b"P6\r3\r3\r255\r",
                                        b"P6 # c\n3 # d\n 3\n255\n"],
                             ids=["tab", "cr", "comment-after-whitespace"])
    def test_header_variants_decode_like_plain(self, tmp_path, header):
        body = bytes(range(27))
        (tmp_path / "plain.ppm").write_bytes(b"P6\n3 3\n255\n" + body)
        (tmp_path / "v.ppm").write_bytes(header + body)
        assert np.array_equal(D.read_ppm(tmp_path / "v.ppm"), D.read_ppm(tmp_path / "plain.ppm"))

    @pytest.mark.parametrize("raw", [b"P6\nab 2\n255\n", b"P6\n1 1\n255#c" + bytes(3),
                                     b"P6\n# no newline", b"P6\n+1 1\n255\n" + bytes(3),
                                     b"P6\n0 3\n255\n", b"P6\n3 0\n255\n",
                                     b"P6\n" + b"9" * 5000 + b" 1\n255\n"],
                             ids=["letters", "comment-in-maxval", "unended-comment", "signed",
                                  "zero-width", "zero-height", "5000-digit-width"])
    def test_malformed_header_rejected(self, tmp_path, raw):
        (tmp_path / "m.ppm").write_bytes(raw)
        with pytest.raises(DataFormatError, match="m.ppm"):
            D.read_ppm(tmp_path / "m.ppm")

    def test_wrong_magic(self, tmp_path):
        (tmp_path / "p5.ppm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(DataFormatError, match="P6"):
            D.read_ppm(tmp_path / "p5.ppm")

    def test_maxval_rejected(self, tmp_path):
        (tmp_path / "m.ppm").write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(DataFormatError, match="maxval"):
            D.read_ppm(tmp_path / "m.ppm")

    def test_short_pixels(self, tmp_path):
        (tmp_path / "s.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(DataFormatError, match="pixel bytes"):
            D.read_ppm(tmp_path / "s.ppm")


class TestStimulusDir:
    def test_lexicographic_order_and_ids(self, rng, tmp_path):
        for name in ("b", "a", "c"):
            D.write_ppm(rng.random(size=(3, 8, 8)), tmp_path / f"{name}.ppm")
        stim = D.load_stimulus_dir(tmp_path, resolution=32)
        assert stim.ids == ("a", "b", "c")
        assert stim.images.shape == (3, 3, 32, 32)

    def test_non_square_center_cropped(self, rng, tmp_path):
        img = rng.random(size=(3, 8, 12))
        D.write_ppm(img, tmp_path / "wide.ppm")
        stim = D.load_stimulus_dir(tmp_path, resolution=32)
        quantized = np.rint(img * 255) / 255
        expected = D.resize_bilinear(D.center_crop_square(quantized), 32)
        assert np.abs(stim.images[0] - expected).max() < 1e-12

    def test_fills_one_array(self, rng, tmp_path):
        # the [N,3,R,R] array plus one image's resize temporaries: 1.21x
        for i in range(16):
            D.write_ppm(rng.random(size=(3, 64, 64)), tmp_path / f"s{i:02d}.ppm")
        tracemalloc.start()
        try:
            stim = D.load_stimulus_dir(tmp_path, resolution=224)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * stim.images.nbytes

    def test_empty_dir(self, tmp_path):
        with pytest.raises(DataFormatError, match="no stimulus images"):
            D.load_stimulus_dir(tmp_path)

    def test_png_decoding_when_pillow_available(self, rng, tmp_path):
        Image = pytest.importorskip("PIL.Image")
        arr = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        Image.fromarray(arr, mode="RGB").save(tmp_path / "img.png")
        stim = D.load_stimulus_dir(tmp_path, resolution=32)
        assert stim.ids == ("img",)
        expected = D.resize_bilinear(arr.transpose(2, 0, 1) / 255.0, 32)
        assert np.abs(stim.images[0] - expected).max() < 1e-12

    def test_duplicate_ids_rejected(self, rng, tmp_path):
        with pytest.raises(DataFormatError, match="duplicate"):
            D.StimulusSet(images=rng.random(size=(2, 3, 4, 4)), ids=("a", "a"))


# ---------------------------------------------------------------------------
# RDM CSV
# ---------------------------------------------------------------------------

def write_matrix_csv(path, ids, m):
    lines = ["id," + ",".join(ids)]
    for i, row in enumerate(m):
        lines.append(ids[i] + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


class TestRdmCsv:
    def test_zero_matrix_valid(self, tmp_path):
        ids = ("a", "b", "c")
        write_matrix_csv(tmp_path / "sub-01_V1.csv", ids, np.zeros((3, 3)))
        brain, brain_ids = D.load_brain_rdm_dir(tmp_path)
        assert list(brain) == ["V1"] and list(brain["V1"]) == ["sub-01"]
        vec = brain["V1"]["sub-01"]
        assert vec.shape == (3,) and not vec.any() and brain_ids == ("a", "b", "c")

    def test_round_trip_lossless(self, rng, tmp_path):
        n = 8
        vec = rng.random(size=n * (n - 1) // 2)
        ids = tuple(f"s{i}" for i in range(n))
        D.write_rdm_csv(vec, ids, tmp_path / "sub-02_LOC.csv")
        back, back_ids = D.read_rdm_csv(tmp_path / "sub-02_LOC.csv")
        assert np.array_equal(back, vec) and back_ids == ids
        rows = [line.split(",") for line in
                (tmp_path / "sub-02_LOC.csv").read_text().splitlines()]
        assert rows[0] == ["id", *ids] and [r[0] for r in rows[1:]] == list(ids)
        cells = [r[1:] for r in rows[1:]]
        for i in range(n):  # each row mirrors its column, around a "0.0" diagonal
            assert cells[i] == [cells[j][i] for j in range(n)] and cells[i][i] == "0.0"

    def test_write_matches_per_scalar_repr(self, tmp_path):
        # the bytes of the per-numpy-scalar writer, on signed zero, the
        # smallest subnormal and a huge value
        m = np.array([[0.0, -0.0, 5e-324], [-0.0, 0.0, 1e300], [5e-324, 1e300, 0.0]])
        ids = ("a", "b", "c")
        D.write_rdm_csv(np.array([-0.0, 5e-324, 1e300]), ids, tmp_path / "new.csv")
        want = "id,a,b,c\n" + "".join(
            sid + "," + ",".join(repr(float(v)) for v in row) + "\n"
            for sid, row in zip(ids, m))
        assert (tmp_path / "new.csv").read_bytes() == want.encode()
        assert "-0.0" in want and "5e-324" in want and "1e+300" in want

    def test_write_pins_exact_bytes(self, tmp_path):
        # each pair is formatted once and mirrored into both triangles
        D.write_rdm_csv(np.array([-0.0, 1e-17, 2.0]), ("a", "b", "c"), tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == (
            b"id,a,b,c\n"
            b"a,0.0,-0.0,1e-17\n"
            b"b,-0.0,0.0,2.0\n"
            b"c,1e-17,2.0,0.0\n")

    def test_asymmetric_names_cell(self, tmp_path):
        m = np.zeros((3, 3))
        m[0, 1], m[1, 0] = 0.2, 0.3
        write_matrix_csv(tmp_path / "sub-01_V2.csv", ("x", "y", "z"), m)
        with pytest.raises(DataFormatError, match=r"asymmetric at \(x, y\): 0\.2 vs 0\.3$"):
            D.read_rdm_csv(tmp_path / "sub-01_V2.csv")

    def test_tiny_asymmetry_symmetrized(self, tmp_path, caplog):
        m = np.zeros((3, 3))
        m[0, 1], m[1, 0] = 0.2, 0.2 + 5e-8
        write_matrix_csv(tmp_path / "sub-01_IT.csv", ("x", "y", "z"), m)
        with caplog.at_level("WARNING"):
            vec, _ = D.read_rdm_csv(tmp_path / "sub-01_IT.csv")
        assert vec[0] == (0.2 + (0.2 + 5e-8)) / 2.0  # the mean of the pair (x, y)
        assert "symmetriz" in caplog.text

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        # NaN also slips past the asymmetry check: NaN > ASYM_ERROR is False
        m = np.zeros((3, 3))
        m[0, 2] = m[2, 0] = float(cell)
        write_matrix_csv(tmp_path / "sub-01_V1.csv", ("x", "y", "z"), m)
        with pytest.raises(DataFormatError, match=r"non-finite value .* at \(x, z\)"):
            D.read_rdm_csv(tmp_path / "sub-01_V1.csv")

    def test_distance_past_2_rejected(self, tmp_path):
        # brain distances are averaged into a per-ROI mean RDM in [0, 2]
        m = np.zeros((3, 3))
        m[0, 2] = m[2, 0] = 2.5
        write_matrix_csv(tmp_path / "sub-01_V1.csv", ("x", "y", "z"), m)
        with pytest.raises(DataFormatError, match=r"sub-01_V1\.csv: distance 2\.5 at \(x, z\)"):
            D.load_brain_rdm_dir(tmp_path)

    def test_nonzero_diagonal_rejected(self, tmp_path):
        m = np.zeros((2, 2))
        m[1, 1] = 0.01
        write_matrix_csv(tmp_path / "sub-01_V1.csv", ("x", "y"), m)
        with pytest.raises(DataFormatError, match=r"nonzero diagonal at \(y, y\): 0\.01$"):
            D.read_rdm_csv(tmp_path / "sub-01_V1.csv")

    def test_non_square_rejected(self, tmp_path):
        (tmp_path / "sub-01_V1.csv").write_text("id,a,b\na,0.0,0.1\n")
        with pytest.raises(DataFormatError, match="non-square"):
            D.read_rdm_csv(tmp_path / "sub-01_V1.csv")

    @pytest.mark.parametrize("raw, message", [(b"id\n", "no stimulus ids"),
                                              (b"id,a\na,0\xff\n", "not text")],
                             ids=["no-ids", "not-utf8"])
    def test_malformed_text_rejected(self, tmp_path, raw, message):
        (tmp_path / "m.csv").write_bytes(raw)
        with pytest.raises(DataFormatError, match=f"m.csv: {message}"):
            D.read_rdm_csv(tmp_path / "m.csv")

    def test_duplicate_ids_rejected(self, tmp_path):
        write_matrix_csv(tmp_path / "sub-01_V1.csv", ("a", "a", "b"), np.zeros((3, 3)))
        with pytest.raises(DataFormatError, match="duplicate"):
            D.read_rdm_csv(tmp_path / "sub-01_V1.csv")

    def test_filename_without_roi_rejected(self, tmp_path):
        write_matrix_csv(tmp_path / "whatever.csv", ("a", "b"), np.zeros((2, 2)))
        with pytest.raises(DataFormatError, match="subject/ROI"):
            D.load_brain_rdm_dir(tmp_path)


class TestGroupByRoi:
    def test_groups_sorted_by_subject(self, tmp_path):
        ids = ("a", "b")
        for name in ("sub-02_V1", "sub-01_V1", "sub-01_IT"):
            write_matrix_csv(tmp_path / f"{name}.csv", ids, np.zeros((2, 2)))
        by_roi, _ = D.load_brain_rdm_dir(tmp_path)
        assert {roi: list(g) for roi, g in by_roi.items()} == {
            "V1": ["sub-01", "sub-02"], "IT": ["sub-01"]}

    def test_duplicate_subject_roi_rejected(self, tmp_path):
        # both names parse to sub-01 / V1: that subject must not count twice
        ids = ("a", "b")
        for name in ("sub-01_V1", "sub-01_v1", "sub-02_V1"):
            write_matrix_csv(tmp_path / f"{name}.csv", ids, np.zeros((2, 2)))
        with pytest.raises(DataFormatError,
                           match="subject sub-01 has more than one brain RDM for ROI V1"):
            D.load_brain_rdm_dir(tmp_path)

    def test_subjects_sorted_by_name_not_by_filename(self, tmp_path):
        # "a-_V1.csv" sorts before "a_V1.csv" ('-' < '_'), subject "a" before "a-"
        for name in ("a_V1", "a-_V1"):
            write_matrix_csv(tmp_path / f"{name}.csv", ("x", "y"), np.zeros((2, 2)))
        by_roi, _ = D.load_brain_rdm_dir(tmp_path)
        assert list(by_roi["V1"]) == ["a", "a-"]

    def test_files_with_differing_ids_rejected_naming_the_second(self, tmp_path):
        write_matrix_csv(tmp_path / "sub-01_V1.csv", ("a", "b"), np.zeros((2, 2)))
        write_matrix_csv(tmp_path / "sub-02_V1.csv", ("b", "a"), np.zeros((2, 2)))
        with pytest.raises(DataFormatError, match=r"sub-02_V1\.csv: stimulus ids .*ordering"):
            D.load_brain_rdm_dir(tmp_path)

    def test_load_by_roi_gives_subject_and_mean_vectors(self, tmp_path):
        ids = ("a", "b", "c", "d")
        rng = np.random.default_rng(0)
        rdms = {}
        for name in ("sub-02_V1", "sub-01_V1", "sub-01_IT", "sub-02_IT"):
            rdms[name] = rdm_from_features(rng.normal(size=(4, 3)), ids)
            D.write_rdm_csv(rdms[name], ids, tmp_path / f"{name}.csv")
        by_roi, mean = D.load_brain_by_roi(tmp_path, ids)
        assert list(by_roi) == list(mean) == ["IT", "V1"]  # filename order
        for roi, subjects in by_roi.items():
            assert list(subjects) == ["sub-01", "sub-02"]
            for subject, vec in subjects.items():
                assert np.array_equal(vec, rdms[f"{subject}_{roi}"])
            assert np.array_equal(mean[roi], average_rdms(
                [rdms[f"sub-0{i}_{roi}"] for i in (1, 2)]))

    def test_fewer_than_three_stimuli_rejected(self, tmp_path):
        for name in ("sub-01_V1", "sub-02_V1"):
            write_matrix_csv(tmp_path / f"{name}.csv", ("a", "b"), np.zeros((2, 2)))
        with pytest.raises(DataFormatError, match="at least 3 stimuli, got 2"):
            D.load_brain_by_roi(tmp_path, ("a", "b"))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

SPEC = D.SynthSpec(num_train=60, num_test=20, num_classes=3, num_stimuli=12,
                   stimulus_size=24, extraction_resolution=32,
                   noise_amplitude=0.0, channels=(4, 6, 8))


class TestSynth:
    @pytest.mark.parametrize("field, value", [
        ("num_train", 0), ("num_test", -1), ("num_classes", 0), ("num_classes", 11),
        ("num_stimuli", 2), ("stimulus_size", 0), ("noise_amplitude", -0.1), ("subjects", ()),
        ("subjects", ("sub-01", "sub-01")), ("noise_amplitude", float("nan")),
        ("noise_amplitude", float("inf")),
    ])
    def test_spec_rejects_values_its_files_cannot_hold(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            D.SynthSpec(**{field: value})

    def test_zero_noise_brain_equals_reference_rdm(self):
        from brainalign.network import extract_all_taps, init_he_normal

        labeled, stim, brain = D.synth_dataset(SPEC, seed=0)
        ref = init_he_normal(1000, channels=(4, 6, 8), num_classes=3)
        base = rdm_from_features(extract_all_taps(ref, stim)["conv1"], stim.ids)
        v1 = brain["V1"]["sub-01"]
        assert np.array_equal(v1, base)
        # self-comparison RSA is 1 by construction
        assert spearman(v1, base) == pytest.approx(1.0)

    def test_deterministic_and_seed_sensitive(self):
        a1, s1, b1 = D.synth_dataset(SPEC, seed=0)
        a2, s2, b2 = D.synth_dataset(SPEC, seed=0)
        a3, _, _ = D.synth_dataset(SPEC, seed=1)
        assert np.array_equal(a1.images, a2.images)
        assert np.array_equal(b1["V1"]["sub-01"], b2["V1"]["sub-01"])
        assert not np.array_equal(a1.images, a3.images)

    def test_counts_and_rois(self):
        labeled, stim, brain = D.synth_dataset(SPEC, seed=0)
        assert labeled.images.shape[0] == SPEC.num_train + SPEC.num_test
        assert stim.images.shape == (12, 3, 32, 32)
        assert {roi: list(subjects) for roi, subjects in brain.items()} == {
            roi: ["sub-01", "sub-02", "sub-03"] for roi in D.ROIS}

    def test_write_synth_dataset_makes_the_stimuli_once(self, tmp_path, monkeypatch):
        calls = []
        make = D.synth_stimuli_raw
        monkeypatch.setattr(D, "synth_stimuli_raw",
                            lambda spec, seed: calls.append(seed) or make(spec, seed))
        D.write_synth_dataset(SPEC, 0, tmp_path)
        assert calls == [0]

    def test_write_synth_dataset_files_match_memory(self, tmp_path):
        paths = D.write_synth_dataset(SPEC, 0, tmp_path)
        labeled, stim, brain = D.synth_dataset(SPEC, 0)
        train = D.read_cifar10_binary([paths["train"]])
        assert train.images.shape[0] == SPEC.num_train
        disk_stim = D.load_stimulus_dir(paths["stimuli"], resolution=32)
        assert disk_stim.ids == stim.ids
        assert np.abs(disk_stim.images - stim.images).max() < 1e-12
        disk_brain, disk_ids = D.load_brain_rdm_dir(paths["brain"])
        assert disk_ids == stim.ids
        assert {roi: list(subjects) for roi, subjects in disk_brain.items()} == {
            roi: list(subjects) for roi, subjects in brain.items()}
        for roi, subjects in disk_brain.items():
            for subject, vec in subjects.items():
                assert np.array_equal(vec, brain[roi][subject])
