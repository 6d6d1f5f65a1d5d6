"""Dataset readers, image preprocessing, RDM CSV I/O, and the synthetic
desk-scale data generator.

File conventions consumed here:
  * CIFAR-10 binary batches: 3073-byte records, one label byte then
    3x1024 channel-major pixel bytes.
  * Stimulus directories: PPM (P6) images, optionally PNG when Pillow is
    installed; stimuli are ordered lexicographically by filename and the
    filename stem is the stimulus id.
  * RDM CSVs: square matrix with a header row/column of stimulus ids.
    Brain RDM filename stems are "<subject>_<ROI>"; model RDMs carry no
    subject/ROI stem.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .rdm import RDM, rdm_from_features
from .seeding import named_rng

log = logging.getLogger(__name__)

ROIS = ("V1", "V2", "LOC", "IT")
DEFAULT_ROI_MAP = (("V1", "conv1"), ("V2", "conv1"), ("LOC", "conv3"), ("IT", "fc1"))
CIFAR_RECORD_BYTES = 3073


@dataclass
class LabeledImageSet:
    images: np.ndarray   # [N,3,H,W], values in [0,1]
    labels: np.ndarray   # [N] ints in [0, num_classes)
    provenance: str = ""
    num_classes: int = 10

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataFormatError(
                f"labels outside [0, {self.num_classes}): "
                f"min {self.labels.min()} max {self.labels.max()}")

    def subset(self, idx, note=""):
        return LabeledImageSet(self.images[idx], self.labels[idx],
                               provenance=self.provenance + note,
                               num_classes=self.num_classes)


@dataclass
class StimulusSet:
    images: np.ndarray       # [N,3,R,R]
    ids: tuple[str, ...]

    def __post_init__(self):
        if self.images.shape[0] != len(self.ids):
            raise DataFormatError(
                f"{self.images.shape[0]} stimulus images but {len(self.ids)} ids")
        if len(set(self.ids)) != len(self.ids):
            dupes = sorted({i for i in self.ids if self.ids.count(i) > 1})
            raise DataFormatError(f"duplicate stimulus ids: {dupes[:5]}")


@dataclass
class BrainRdmFile:
    subject: str
    roi: str
    rdm: RDM

    def __post_init__(self):
        if self.roi not in ROIS:
            raise DataFormatError(f"unknown ROI {self.roi!r}; known: {ROIS}")


# ---------------------------------------------------------------------------
# CIFAR-10 binary format
# ---------------------------------------------------------------------------

def read_cifar10_binary(paths, limit=None) -> LabeledImageSet:
    """Read CIFAR-10 binary batch files in the order given.

    Each record is 3073 bytes (label byte + 3x1024 channel-major pixels);
    pixels are scaled to [0,1]. Takes the first `limit` records in file
    order. A file whose size is not a multiple of 3073 raises a
    DataFormatError with the offending byte offset.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    records, labels = [], []
    taken = 0
    for path in paths:
        raw = Path(path).read_bytes()
        if len(raw) % CIFAR_RECORD_BYTES:
            offset = (len(raw) // CIFAR_RECORD_BYTES) * CIFAR_RECORD_BYTES
            raise DataFormatError(
                f"{path}: truncated record at byte offset {offset} "
                f"(file size {len(raw)} not a multiple of {CIFAR_RECORD_BYTES})")
        n = len(raw) // CIFAR_RECORD_BYTES
        if limit is not None:
            n = min(n, limit - taken)
        if n <= 0:
            break
        buf = np.frombuffer(raw, dtype=np.uint8,
                            count=n * CIFAR_RECORD_BYTES).reshape(n, CIFAR_RECORD_BYTES)
        labels.append(buf[:, 0].astype(np.int64))
        records.append(buf[:, 1:].reshape(n, 3, 32, 32).astype(np.float64) / 255.0)
        taken += n
        if limit is not None and taken >= limit:
            break
    if not records:
        images = np.zeros((0, 3, 32, 32))
        lab = np.zeros(0, dtype=np.int64)
    else:
        images = np.concatenate(records, axis=0)
        lab = np.concatenate(labels)
    bad = np.nonzero(lab >= 10)[0]
    if bad.size:
        raise DataFormatError(f"record {bad[0]}: label {lab[bad[0]]} out of range [0, 10)")
    return LabeledImageSet(images, lab,
                           provenance="cifar10:" + ";".join(str(p) for p in paths))


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


def _ppm_tokens(raw: bytes, path):
    # header tokens, skipping whitespace and '#' comments
    i, tokens = 0, []
    while len(tokens) < 4:
        if i >= len(raw):
            raise DataFormatError(f"{path}: unexpected end of PPM header")
        c = raw[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            i = raw.index(b"\n", i) + 1
        else:
            j = i
            while j < len(raw) and not raw[j : j + 1].isspace():
                j += 1
            tokens.append(raw[i:j])
            i = j
    return tokens, i + 1  # one whitespace byte separates header from pixels


def read_ppm(path) -> np.ndarray:
    """Decode a binary P6 PPM (maxval 255) to [3,H,W] floats in [0,1]."""
    raw = Path(path).read_bytes()
    tokens, start = _ppm_tokens(raw, path)
    if tokens[0] != b"P6":
        raise DataFormatError(f"{path}: not a P6 PPM (magic {tokens[0]!r})")
    w, h, maxval = (int(t) for t in tokens[1:])
    if maxval != 255:
        raise DataFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    need = 3 * w * h
    pixels = raw[start : start + need]
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
# RDM CSV I/O
# ---------------------------------------------------------------------------

ASYM_WARN = 1e-9
ASYM_ERROR = 1e-6


def write_rdm_csv(rdm: RDM, path) -> None:
    """Write an RDM with a header row/column of stimulus ids. Values use
    repr(float), so a write -> read round trip is lossless."""
    with open(path, "w", newline="") as f:
        f.write("id," + ",".join(rdm.ids) + "\n")
        for sid, row in zip(rdm.ids, rdm.values):
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


def read_rdm_csv(path) -> RDM:
    """Read and validate one RDM CSV.

    Validation: square, unique ids, row ids matching header order, finite,
    symmetric and zero-diagonal (warn past 1e-9, hard error past 1e-6).
    The stored matrix is exactly symmetrized with a zero diagonal.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    ids = tuple(h.strip() for h in header[1:])
    n = len(ids)
    if len(set(ids)) != n:
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DataFormatError(f"{path}: duplicate stimulus ids {dupes[:5]}")
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
    sym = (values + values.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    return RDM(values=sym, ids=ids)


def read_brain_rdm_csv(path) -> BrainRdmFile:
    """Read one brain RDM CSV named "<subject>_<ROI>.csv" (see read_rdm_csv)."""
    subject, roi = _parse_subject_roi(path)
    return BrainRdmFile(subject=subject, roi=roi, rdm=read_rdm_csv(path))


def load_brain_rdm_dir(directory) -> list[BrainRdmFile]:
    """All brain RDM CSVs under a directory, sorted by filename."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise DataFormatError(f"{directory}: no brain RDM CSVs found")
    return [read_brain_rdm_csv(p) for p in paths]


def group_by_roi(brain_files, ids) -> dict[str, list[BrainRdmFile]]:
    """Brain RDMs grouped by ROI, each group sorted by subject.

    Every brain RDM must be keyed to exactly `ids`, in that order: a
    mismatch is an error, never silently reordered. A subject may have one
    RDM per ROI: "sub-01_V1.csv" and "sub-01_v1.csv" together are an error,
    not a subject counted twice.
    """
    by_roi: dict[str, list[BrainRdmFile]] = {}
    for b in brain_files:
        if b.rdm.ids != tuple(ids):
            raise DataFormatError(
                f"brain RDM {b.subject}/{b.roi} stimulus ids do not match the "
                f"expected stimulus ordering")
        group = by_roi.setdefault(b.roi, [])
        if any(other.subject == b.subject for other in group):
            raise DataFormatError(f"subject {b.subject} has more than one brain RDM "
                                  f"for ROI {b.roi}")
        group.append(b)
    for roi in by_roi:
        by_roi[roi].sort(key=lambda b: b.subject)
    return by_roi


# ---------------------------------------------------------------------------
# Synthetic desk-scale data
# ---------------------------------------------------------------------------

@dataclass
class SynthSpec:
    """Settings for the synthetic blob dataset.

    The labeled set holds num_train + num_test images (first num_train are
    the train split). Brain RDMs are the reference network's RDM at the
    ROI-mapped tap plus symmetric per-subject noise; amplitude 0 makes
    them exactly equal to the reference RDM.
    """

    num_train: int = 512
    num_test: int = 128
    num_classes: int = 10
    image_size: int = 32
    num_stimuli: int = 100
    stimulus_size: int = 64
    extraction_resolution: int = 32
    noise_amplitude: float = 0.1
    subjects: tuple[str, ...] = ("sub-01", "sub-02", "sub-03")
    roi_map: dict | None = None          # ROI -> tap; default DEFAULT_ROI_MAP
    channels: tuple[int, int, int] = (32, 64, 128)
    reference_seed: int | None = None    # defaults to seed + 1000


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
    templates = [_blob(rng, spec.image_size, 3) for _ in range(spec.num_classes)]
    n = spec.num_train + spec.num_test
    labels = np.arange(n, dtype=np.int64) % spec.num_classes
    rng.shuffle(labels)
    images = np.empty((n, 3, spec.image_size, spec.image_size))
    for i, lab in enumerate(labels):
        img = templates[lab].copy()
        shift = rng.integers(-2, 3, size=2)
        img = np.roll(img, shift, axis=(1, 2))
        img += rng.normal(0.0, 0.08, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    return LabeledImageSet(images, labels, provenance="synthetic blobs",
                           num_classes=spec.num_classes)


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
    network's features. Returns (LabeledImageSet, StimulusSet, [BrainRdmFile])."""
    from .network import extract_all_taps, init_he_normal  # avoid import cycle

    roi_map = spec.roi_map or dict(DEFAULT_ROI_MAP)
    labeled = _labeled_blobs(spec, named_rng(seed, "synth-train"))

    raw = synth_stimuli_raw(spec, seed)
    ids = tuple(f"stim-{i:04d}" for i in range(spec.num_stimuli))
    stimuli = StimulusSet(images=resize_bilinear(raw, spec.extraction_resolution), ids=ids)

    ref_seed = spec.reference_seed if spec.reference_seed is not None else seed + 1000
    reference = init_he_normal(ref_seed, channels=spec.channels,
                               num_classes=spec.num_classes)
    feats = extract_all_taps(reference, stimuli)
    brain_rng = named_rng(seed, "synth-brain")
    brain = []
    for roi in ROIS:
        base = rdm_from_features(feats[roi_map[roi]].matrix, ids).values
        for subject in spec.subjects:
            noise = brain_rng.normal(0.0, 1.0, size=base.shape)
            noise = spec.noise_amplitude * (noise + noise.T) / 2.0
            values = np.clip(base + noise, 0.0, 2.0)
            np.fill_diagonal(values, 0.0)
            brain.append(BrainRdmFile(subject=subject, roi=roi,
                                      rdm=RDM(values=values, ids=ids)))
    return labeled, stimuli, brain


def write_synth_dataset(spec: SynthSpec, seed: int, out_dir) -> dict:
    """Materialize a synthetic dataset on disk in the formats the pipeline
    reads: CIFAR-style .bin train/test splits, PPM stimuli, RDM CSVs.
    Returns the path map."""
    out = Path(out_dir)
    (out / "stimuli").mkdir(parents=True, exist_ok=True)
    (out / "brain").mkdir(parents=True, exist_ok=True)
    labeled, stimuli, brain = synth_dataset(spec, seed)
    train = labeled.subset(slice(0, spec.num_train), note=" [train]")
    test = labeled.subset(slice(spec.num_train, None), note=" [test]")
    write_cifar10_binary(train, out / "train.bin")
    write_cifar10_binary(test, out / "test.bin")
    # stimuli are written at their native size; loaders resize on read
    raw = synth_stimuli_raw(spec, seed)
    for sid, img in zip(stimuli.ids, raw):
        write_ppm(img, out / "stimuli" / f"{sid}.ppm")
    for b in brain:
        write_rdm_csv(b.rdm, out / "brain" / f"{b.subject}_{b.roi}.csv")
    return {"train": out / "train.bin", "test": out / "test.bin",
            "stimuli": out / "stimuli", "brain": out / "brain"}
