"""Dataset readers, image preprocessing, RDM CSV I/O, and the synthetic
desk-scale data generator.

File conventions consumed here:
  * CIFAR-10 binary batches: 3073-byte records, one label byte then
    3x1024 channel-major pixel bytes. An empty file adds no records, and
    no file is read once `limit` records are held.
  * Stimulus directories: PPM (P6) images, optionally PNG when Pillow is
    installed; stimuli are ordered lexicographically by filename and the
    filename stem is the stimulus id. A PPM header is the magic "P6" at
    byte 0, then width, height and maxval as 1-9 ASCII digits (no sign),
    each after whitespace or '#' comments.
  * RDM CSVs: the square matrix with a header row/column of stimulus
    ids; in memory an RDM is its upper-triangle vector (see rdm). Every
    set of RDM CSVs is read by read_rdm_files, which requires one shared
    stimulus order. Brain RDM filename stems are "<subject>_<ROI>", and
    a brain RDM set is held as ROI -> {subject: vector}, ROIs in filename
    order and subjects sorted; model RDMs carry no subject/ROI stem.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .network import DEFAULT_CHANNELS, extract_all_taps, init_he_normal
from .rdm import CLAMP_GUARD, average_rdms, pairs, rdm_from_features
from .seeding import named_rng

log = logging.getLogger(__name__)

ROIS = ("V1", "V2", "LOC", "IT")
DEFAULT_ROI_MAP = (("V1", "conv1"), ("V2", "conv1"), ("LOC", "conv3"), ("IT", "fc1"))
CIFAR_RECORD_BYTES = 3073


@dataclass
class LabeledImageSet:
    images: np.ndarray   # [N,3,H,W], values in [0,1]
    labels: np.ndarray   # [N] ints in [0, num_classes)
    num_classes: int = 10

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataFormatError(
                f"labels outside [0, {self.num_classes}): "
                f"min {self.labels.min()} max {self.labels.max()}")

    def subset(self, idx):
        return LabeledImageSet(self.images[idx], self.labels[idx], num_classes=self.num_classes)


def check_unique_ids(ids, source) -> None:
    """Raise DataFormatError naming `source` if a stimulus id repeats."""
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DataFormatError(f"{source}: duplicate stimulus ids {dupes[:5]}")


@dataclass
class StimulusSet:
    images: np.ndarray       # [N,3,R,R]
    ids: tuple[str, ...]

    def __post_init__(self):
        if self.images.shape[0] != len(self.ids):
            raise DataFormatError(
                f"{self.images.shape[0]} stimulus images but {len(self.ids)} ids")
        check_unique_ids(self.ids, "stimulus set")


# ---------------------------------------------------------------------------
# CIFAR-10 binary format
# ---------------------------------------------------------------------------

def read_cifar10_binary(paths, limit=None) -> LabeledImageSet:
    """Read CIFAR-10 binary batch files in the order given.

    Each record is 3073 bytes: a label byte, then 3x1024 channel-major
    pixels scaled to [0,1]. Keeps the first `limit` records in file order
    and reads no file once it holds them; an empty file adds none. A file
    size not a multiple of 3073 is a DataFormatError naming the offset.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    records = [np.empty((0, CIFAR_RECORD_BYTES), dtype=np.uint8)]
    for path in paths:
        if limit is not None and sum(map(len, records)) >= limit:
            break
        raw = Path(path).read_bytes()
        if len(raw) % CIFAR_RECORD_BYTES:
            offset = (len(raw) // CIFAR_RECORD_BYTES) * CIFAR_RECORD_BYTES
            raise DataFormatError(
                f"{path}: truncated record at byte offset {offset} "
                f"(file size {len(raw)} not a multiple of {CIFAR_RECORD_BYTES})")
        records.append(np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES))
    records = np.concatenate(records)[:limit]
    lab = records[:, 0].astype(np.int64)
    bad = np.nonzero(lab >= 10)[0]
    if bad.size:
        raise DataFormatError(f"record {bad[0]}: label {lab[bad[0]]} out of range [0, 10)")
    return LabeledImageSet(records[:, 1:].reshape(-1, 3, 32, 32) / 255.0, lab)


def write_cifar10_binary(dataset: LabeledImageSet, path) -> None:
    """Write a LabeledImageSet as CIFAR-10 binary records (uint8 pixels)."""
    if dataset.images.shape[1:] != (3, 32, 32):
        raise ConfigurationError(
            f"CIFAR binary requires [N,3,32,32] images, got {dataset.images.shape}")
    pixels = np.clip(np.rint(dataset.images * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        for img, label in zip(pixels, dataset.labels):
            f.write(bytes([int(label)]))
            f.write(img.tobytes())


# ---------------------------------------------------------------------------
# Image decoding and resizing
# ---------------------------------------------------------------------------

def _interp_axis(a, target, axis):
    n = a.shape[axis]
    src = np.clip((np.arange(target) + 0.5) * (n / target) - 0.5, 0, n - 1)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n - 1)
    w = src - i0
    shape = [1] * a.ndim
    shape[axis] = target
    w = w.reshape(shape)
    return np.take(a, i0, axis=axis) * (1 - w) + np.take(a, i1, axis=axis) * w


def resize_bilinear(image, target: int = 224) -> np.ndarray:
    """Separable bilinear resize of the trailing two axes (half-pixel
    centers, the corner-aligned=False convention). Idempotent at the
    target size."""
    if target < 1:
        raise ConfigurationError(f"resize target must be >= 1 pixel, got {target}")
    img = np.asarray(image, dtype=np.float64)
    if img.shape[-2] < 1 or img.shape[-1] < 1:
        raise ConfigurationError(f"cannot resize empty image {img.shape}")
    if img.shape[-2] == target and img.shape[-1] == target:
        return img.copy()
    return _interp_axis(_interp_axis(img, target, axis=-2), target, axis=-1)


def center_crop_square(image) -> np.ndarray:
    """Crop [..., H, W] to the centered [..., s, s] with s = min(H, W)."""
    h, w = image.shape[-2:]
    s = min(h, w)
    top, left = (h - s) // 2, (w - s) // 2
    return image[..., top : top + s, left : left + s]


# magic, then width, height and maxval (ASCII digits) after whitespace or
# '#'-to-newline comments, then one whitespace byte; the magic always matches.
# Nine digits at most keep a field inside int()'s digit limit.
_PPM_HEADER = re.compile(rb"(\S*)(?:" + rb"(?:\s|#[^\n]*\n)+(\d{1,9})" * 3 + rb"\s)?")


def read_ppm(path) -> np.ndarray:
    """Decode a binary P6 PPM (maxval 255) to [3,H,W] floats in [0,1]."""
    raw = Path(path).read_bytes()
    header = _PPM_HEADER.match(raw)
    if header[1] != b"P6" or header[2] is None:
        raise DataFormatError(f"{path}: not a P6 PPM header of width, height and maxval "
                              f"in 1-9 ASCII digits (magic {header[1]!r})")
    w, h, maxval = (int(field) for field in header.groups()[1:])
    if maxval != 255:
        raise DataFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    if not w or not h:
        raise DataFormatError(f"{path}: empty {w}x{h} image")
    need = 3 * w * h
    pixels = raw[header.end() : header.end() + need]
    if len(pixels) != need:
        raise DataFormatError(f"{path}: expected {need} pixel bytes, got {len(pixels)}")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0


def write_ppm(image, path) -> None:
    """Write [3,H,W] floats in [0,1] as a binary P6 PPM."""
    img = np.clip(np.rint(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    c, h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.transpose(1, 2, 0).tobytes())


def read_image(path) -> np.ndarray:
    """Decode one stimulus image to [3,H,W] in [0,1]. PPM is built in;
    PNG/JPEG need Pillow."""
    suffix = Path(path).suffix.lower()
    if suffix == ".ppm":
        return read_ppm(path)
    try:
        from PIL import Image
    except ImportError:
        raise DataFormatError(
            f"{path}: only .ppm is supported without Pillow installed") from None
    with Image.open(path) as im:
        arr = np.asarray(im.convert("RGB"), dtype=np.float64) / 255.0
    return arr.transpose(2, 0, 1)


STIMULUS_SUFFIXES = (".ppm", ".png", ".jpg", ".jpeg")


def load_stimulus_dir(directory, resolution: int = 224) -> StimulusSet:
    """Load a stimulus directory in lexicographic filename order.

    Non-square images are center-cropped to square before the bilinear
    resize to `resolution`. Filename stems become the stimulus ids.
    """
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir()
                   if p.suffix.lower() in STIMULUS_SUFFIXES)
    if not paths:
        raise DataFormatError(f"{directory}: no stimulus images found")
    images = [resize_bilinear(center_crop_square(read_image(p)), resolution)
              for p in paths]
    return StimulusSet(images=np.stack(images), ids=tuple(p.stem for p in paths))


# ---------------------------------------------------------------------------
# CSV tables and RDM CSV I/O
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """Write a table afresh: a header row, then one row per item. Floats
    use repr(float), so every table value round-trips losslessly."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


ASYM_WARN = 1e-9
ASYM_ERROR = 1e-6


def write_rdm_csv(vec, ids, path) -> None:
    """Write an RDM vector as its square, zero-diagonal matrix with a header
    row/column of stimulus ids. Values use repr(float), so a write -> read
    round trip is lossless."""
    square = np.zeros((len(ids), len(ids)))
    i, j = pairs(len(ids))
    square[i, j] = square[j, i] = vec
    with open(path, "w", newline="") as f:
        f.write("id," + ",".join(ids) + "\n")
        for sid, row in zip(ids, square):
            f.write(sid + "," + ",".join(map(repr, row.tolist())) + "\n")


def _parse_subject_roi(path):
    stem = Path(path).stem
    if "_" in stem:
        subject, roi = stem.rsplit("_", 1)
        if roi.upper() in ROIS:
            return subject, roi.upper()
    raise DataFormatError(
        f"{path}: cannot parse subject/ROI from filename stem {stem!r}; "
        f"expected '<subject>_<ROI>' with ROI in {ROIS}")


def read_lines(path) -> list[str]:
    """The lines of a text file; bytes the text encoding cannot decode are
    a data error naming the file."""
    try:
        return Path(path).read_text().splitlines()
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not text: {e}") from None


def read_rdm_csv(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read and validate one RDM CSV; returns (vector, ids).

    Validation: square, unique ids, row ids matching header order, finite,
    symmetric and zero-diagonal (warn past 1e-9, hard error past 1e-6).
    The vector is the upper triangle of the exactly symmetrized matrix.
    """
    lines = read_lines(path)
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    ids = tuple(h.strip() for h in header[1:])
    n = len(ids)
    if not n:
        raise DataFormatError(f"{path}: no stimulus ids in the header row")
    check_unique_ids(ids, path)
    if len(lines) - 1 != n:
        raise DataFormatError(
            f"{path}: non-square RDM, {n} header ids but {len(lines) - 1} data rows")
    values = np.empty((n, n))
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != n + 1:
            raise DataFormatError(
                f"{path}: row {i} ({cells[0]!r}) has {len(cells) - 1} values, expected {n}")
        if cells[0].strip() != ids[i]:
            raise DataFormatError(
                f"{path}: row {i} id {cells[0]!r} does not match header id {ids[i]!r}")
        try:
            values[i] = [float(c) for c in cells[1:]]
        except ValueError as e:
            raise DataFormatError(f"{path}: row {i} ({ids[i]}): {e}") from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise DataFormatError(
            f"{path}: non-finite value {float(values[i, j])!r} at ({ids[i]}, {ids[j]})")
    asym = np.abs(values - values.T)
    worst = np.unravel_index(np.argmax(asym), asym.shape)
    if asym[worst] > ASYM_ERROR:
        i, j = worst
        raise DataFormatError(
            f"{path}: asymmetric at ({ids[i]}, {ids[j]}): "
            f"{float(values[i, j])!r} vs {float(values[j, i])!r}")
    if asym[worst] > ASYM_WARN:
        log.warning("%s: asymmetry up to %.3g at (%s, %s); symmetrizing",
                    path, asym[worst], ids[worst[0]], ids[worst[1]])
    diag = np.abs(np.diag(values))
    d = int(np.argmax(diag))
    if diag[d] > ASYM_ERROR:
        raise DataFormatError(
            f"{path}: nonzero diagonal at ({ids[d]}, {ids[d]}): {float(values[d, d])!r}")
    if diag[d] > ASYM_WARN:
        log.warning("%s: diagonal up to %.3g at %s; zeroing", path, diag[d], ids[d])
    i, j = pairs(n)
    return (values[i, j] + values[j, i]) / 2.0, ids


def read_rdm_files(paths) -> tuple[dict[str, np.ndarray], tuple[str, ...]]:
    """Read RDM CSVs (see read_rdm_csv) in the order given; returns
    ({file stem: vector}, the stimulus ids they share). A file whose ids or
    their order differ from the first file's is a data error naming it."""
    vecs, ids = {}, None
    for path in paths:
        vec, file_ids = read_rdm_csv(path)
        if ids is None:
            ids = file_ids
        elif file_ids != ids:
            raise DataFormatError(f"{path}: stimulus ids or their ordering differ "
                                  f"from those of {paths[0]}")
        vecs[Path(path).stem] = vec
    return vecs, ids


def load_brain_rdm_dir(directory) -> tuple[dict[str, dict[str, np.ndarray]], tuple[str, ...]]:
    """The brain RDM set under a directory: ROI -> {subject: vector}, ROIs
    in filename order and subjects sorted, plus the stimulus ids every file
    shares (see read_rdm_files).

    Files are named "<subject>_<ROI>.csv". A subject may have one RDM per
    ROI: "sub-01_V1.csv" and "sub-01_v1.csv" together are an error, not a
    subject counted twice. Distances must lie in [0, 2] up to
    rdm.CLAMP_GUARD, the range of the per-ROI mean they are averaged into.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise DataFormatError(f"{directory}: no brain RDM CSVs found")
    vecs, ids = read_rdm_files(paths)
    brain: dict[str, dict[str, np.ndarray]] = {}
    for path, vec in zip(paths, vecs.values()):
        subject, roi = _parse_subject_roi(path)
        bad = np.flatnonzero((vec < -CLAMP_GUARD) | (vec > 2.0 + CLAMP_GUARD))
        if bad.size:
            i, j = (int(k[bad[0]]) for k in pairs(len(ids)))
            raise DataFormatError(f"{path}: distance {float(vec[bad[0]])!r} at "
                                  f"({ids[i]}, {ids[j]}) is outside [0, 2]")
        subjects = brain.setdefault(roi, {})
        if subject in subjects:
            raise DataFormatError(f"{directory}: subject {subject} has more than one "
                                  f"brain RDM for ROI {roi}")
        subjects[subject] = vec
    return {roi: dict(sorted(subjects.items())) for roi, subjects in brain.items()}, ids


def load_brain_by_roi(directory, ids) -> tuple[dict[str, dict[str, np.ndarray]],
                                                 dict[str, np.ndarray]]:
    """The brain RDM set under `directory` (see load_brain_rdm_dir), and
    ROI -> the vector of its subjects' mean RDM. Every brain RDM must be
    keyed to exactly `ids`, in that order: a mismatch is an error, never
    silently reordered. Fewer than 3 stimuli give Spearman fewer than 3
    pairs: a data error."""
    if len(ids) < 3:
        raise DataFormatError(f"{directory}: RSA needs at least 3 stimuli, got {len(ids)}")
    brain, brain_ids = load_brain_rdm_dir(directory)
    if brain_ids != tuple(ids):
        raise DataFormatError(f"{directory}: brain RDM stimulus ids do not match the "
                              f"expected stimulus ordering")
    return brain, {roi: average_rdms(subjects.values()) for roi, subjects in brain.items()}


# ---------------------------------------------------------------------------
# Synthetic desk-scale data
# ---------------------------------------------------------------------------

@dataclass
class SynthSpec:
    """Settings for the synthetic blob dataset.

    The labeled set holds num_train + num_test 32 px images (first
    num_train are the train split). Brain RDMs are the RDM of a reference
    network (He init at seed + 1000) at each ROI's DEFAULT_ROI_MAP tap plus
    symmetric per-subject noise; amplitude 0 makes them exactly equal to
    the reference RDM. Counts the written files could not hold are rejected
    at construction: labels are CIFAR bytes below 10, and 3 stimuli are the
    fewest that give Spearman 3 pairs.
    """

    num_train: int = 512
    num_test: int = 128
    num_classes: int = 10
    num_stimuli: int = 100
    stimulus_size: int = 64
    extraction_resolution: int = 32
    noise_amplitude: float = 0.1
    subjects: tuple[str, ...] = ("sub-01", "sub-02", "sub-03")
    channels: tuple[int, int, int] = DEFAULT_CHANNELS

    def __post_init__(self):
        for name, low in (("num_train", 1), ("num_test", 0), ("num_stimuli", 3),
                          ("stimulus_size", 1), ("noise_amplitude", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not np.isfinite(self.noise_amplitude):
            raise ConfigurationError(f"noise_amplitude must be finite, got {self.noise_amplitude}")
        if not 1 <= self.num_classes <= 10:
            raise ConfigurationError(f"num_classes must be in 1..10, got {self.num_classes}")
        if not self.subjects or len(set(self.subjects)) != len(self.subjects):
            raise ConfigurationError(
                f"subjects must name at least one subject, each once, got {self.subjects}")


def _blob(rng, size, n_blobs):
    yy, xx = np.mgrid[0:size, 0:size] / size
    img = np.zeros((3, size, size))
    for _ in range(n_blobs):
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        sigma = rng.uniform(0.08, 0.2)
        color = rng.uniform(0.2, 1.0, size=3)
        g = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        img += color[:, None, None] * g
    return img


def _labeled_blobs(spec: SynthSpec, rng):
    templates = [_blob(rng, 32, 3) for _ in range(spec.num_classes)]
    n = spec.num_train + spec.num_test
    labels = np.arange(n, dtype=np.int64) % spec.num_classes
    rng.shuffle(labels)
    images = np.empty((n, 3, 32, 32))
    for i, lab in enumerate(labels):
        img = templates[lab].copy()
        shift = rng.integers(-2, 3, size=2)
        img = np.roll(img, shift, axis=(1, 2))
        img += rng.normal(0.0, 0.08, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    return LabeledImageSet(images, labels, num_classes=spec.num_classes)


def synth_stimuli_raw(spec: SynthSpec, seed: int) -> np.ndarray:
    """Pre-resize stimulus images, quantized like the PPM files the CLI
    writes so file-based runs see exactly the same pixels."""
    stim_rng = named_rng(seed, "synth-stim")
    raw = np.empty((spec.num_stimuli, 3, spec.stimulus_size, spec.stimulus_size))
    for i in range(spec.num_stimuli):
        img = _blob(stim_rng, spec.stimulus_size, int(stim_rng.integers(1, 5)))
        img += stim_rng.normal(0.0, 0.05, size=img.shape)
        raw[i] = np.clip(img, 0.0, 1.0)
    return np.rint(raw * 255.0) / 255.0


def synth_dataset(spec: SynthSpec, seed: int):
    """Deterministic synthetic substrate: a classifiable labeled blob set,
    a stimulus set, and per-subject brain RDMs derived from a reference
    network's features. Returns (LabeledImageSet, StimulusSet, brain RDM set
    as ROI -> {subject: vector})."""
    return _synth_from_raw(spec, seed, synth_stimuli_raw(spec, seed))


def _synth_from_raw(spec: SynthSpec, seed: int, raw: np.ndarray):
    """synth_dataset given its pre-resize stimuli `raw`."""
    labeled = _labeled_blobs(spec, named_rng(seed, "synth-train"))
    ids = tuple(f"stim-{i:04d}" for i in range(spec.num_stimuli))
    stimuli = StimulusSet(images=resize_bilinear(raw, spec.extraction_resolution), ids=ids)

    reference = init_he_normal(seed + 1000, channels=spec.channels,
                               num_classes=spec.num_classes)
    feats = extract_all_taps(reference, stimuli)
    brain_rng = named_rng(seed, "synth-brain")
    i, j = pairs(len(ids))
    brain = {}
    for roi, tap in DEFAULT_ROI_MAP:
        base = rdm_from_features(feats[tap], ids)
        subjects = {}
        for subject in spec.subjects:
            # still one N x N draw per subject, so the noise stream is
            # unchanged; the vector is the symmetrized draw's upper triangle
            noise = brain_rng.normal(0.0, 1.0, size=(len(ids), len(ids)))
            noise = spec.noise_amplitude * (noise[i, j] + noise[j, i]) / 2.0
            subjects[subject] = np.clip(base + noise, 0.0, 2.0)
        brain[roi] = dict(sorted(subjects.items()))
    return labeled, stimuli, brain


def write_synth_dataset(spec: SynthSpec, seed: int, out_dir) -> dict:
    """Materialize a synthetic dataset on disk in the formats the pipeline
    reads: CIFAR-style .bin train/test splits, PPM stimuli, RDM CSVs.
    Returns the path map; it has no "test" entry, and no test.bin is
    written, when num_test is 0. Nothing is written unless generation
    succeeds."""
    raw = synth_stimuli_raw(spec, seed)
    labeled, stimuli, brain = _synth_from_raw(spec, seed, raw)
    out = Path(out_dir)
    paths = {"train": out / "train.bin", "stimuli": out / "stimuli", "brain": out / "brain"}
    paths["stimuli"].mkdir(parents=True, exist_ok=True)
    paths["brain"].mkdir(parents=True, exist_ok=True)
    write_cifar10_binary(labeled.subset(slice(0, spec.num_train)), paths["train"])
    if spec.num_test:
        paths["test"] = out / "test.bin"
        write_cifar10_binary(labeled.subset(slice(spec.num_train, None)), paths["test"])
    # stimuli are written at their native size; loaders resize on read
    for sid, img in zip(stimuli.ids, raw):
        write_ppm(img, paths["stimuli"] / f"{sid}.ppm")
    for roi, subjects in brain.items():
        for subject, vec in subjects.items():
            write_rdm_csv(vec, stimuli.ids, paths["brain"] / f"{subject}_{roi}.csv")
    return paths
