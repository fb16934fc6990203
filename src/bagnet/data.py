"""Dataset container, binary format, the CSV writer of every artifact,
synthetic texture generator and the deterministic batch pipeline.

Everything here is a pure function of (inputs, seed): repeated runs are
bitwise identical. Random streams are derived from a base seed through
`seed_stream`, one fixed purpose code per consumer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

MAGIC = b"BAGD"
FORMAT_VERSION = 1

CIFAR10_NAMES = ["airplane", "automobile", "bird", "cat", "deer",
                 "dog", "frog", "horse", "ship", "truck"]

# fixed purpose codes for the seed-splitting rule
STREAM_SYNTH = 1
STREAM_SHUFFLE = 2
STREAM_AUGMENT = 3
STREAM_ANALYSIS = 4


class DataFormatError(ValueError):
    """Base class for dataset container problems."""


class BadMagicError(DataFormatError):
    pass


class TruncatedPayloadError(DataFormatError):
    pass


class LabelRangeError(DataFormatError):
    pass


def seed_stream(base_seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """All randomness flows from one base seed: streams are keyed by
    (base_seed, purpose, index)."""
    return np.random.default_rng(np.random.SeedSequence((base_seed, purpose, index)))


@dataclass
class Dataset:
    images: np.ndarray          # u8 [count, 3, S, S], planar RGB
    labels: np.ndarray          # u8 [count]
    class_names: list[str]
    split: str = "train"

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[1] != 3:
            raise DataFormatError(f"images must be [count,3,S,S], got {self.images.shape}")
        if self.images.shape[2] != self.images.shape[3]:
            raise DataFormatError("images must be square")
        if self.images.dtype != np.uint8 or self.labels.dtype != np.uint8:
            raise DataFormatError("images and labels must be uint8")
        if len(self.images) != len(self.labels) or len(self.images) == 0:
            raise DataFormatError("need count > 0 and one label per image")
        if len(self.class_names) == 0 or self.labels.max() >= len(self.class_names):
            raise LabelRangeError("label out of range of the class-name table")

    @property
    def count(self) -> int:
        return len(self.images)

    @property
    def size(self) -> int:
        return self.images.shape[2]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


# ---------------------------------------------------------------------------
# binary container

def save_dataset(dataset: Dataset, path) -> None:
    """magic | version u8 | count u32-LE | size u16-LE | num_classes u8 |
    class-name table (u8 len + UTF-8 each) | labels | planar-RGB images."""
    if dataset.num_classes > 255:
        raise DataFormatError("at most 255 classes")
    parts = [MAGIC, struct.pack("<BIHB", FORMAT_VERSION, dataset.count,
                                dataset.size, dataset.num_classes)]
    for name in dataset.class_names:
        raw = name.encode("utf-8")
        if len(raw) > 255:
            raise DataFormatError(f"class name too long: {name!r}")
        parts.append(struct.pack("<B", len(raw)))
        parts.append(raw)
    parts.append(np.ascontiguousarray(dataset.labels).tobytes())
    parts.append(np.ascontiguousarray(dataset.images).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_dataset(path, split: str = "train") -> Dataset:
    """Read a file written by `save_dataset`. A file that departs from that
    layout, down to bytes after the last image, raises a DataFormatError
    naming the file, the field and its offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {blob[:4]!r} at offset 0")
    if len(blob) < 12:
        raise TruncatedPayloadError(f"{path}: header truncated at offset {len(blob)} "
                                    "(it has 12 bytes)")
    version, count, size, num_classes = struct.unpack_from("<BIHB", blob, 4)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version} at offset 4")
    if min(count, size, num_classes) < 1:
        raise DataFormatError(f"{path}: count {count}, size {size} and {num_classes} classes "
                              "at offset 5 must each be at least 1")
    off = 12
    names = []
    for _ in range(num_classes):
        if off >= len(blob):
            raise TruncatedPayloadError(f"{path}: class table truncated at offset {off}")
        n = blob[off]
        off += 1
        if off + n > len(blob):
            raise TruncatedPayloadError(f"{path}: class name truncated at offset {off}")
        try:
            names.append(blob[off:off + n].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: class name {len(names)} at offset {off} "
                                  f"is not UTF-8 ({exc.reason})") from None
        off += n
    need = count + count * 3 * size * size
    if len(blob) - off < need:
        raise TruncatedPayloadError(
            f"{path}: payload truncated at offset {off} (need {need} more bytes, "
            f"have {len(blob) - off})")
    if len(blob) - off > need:
        raise DataFormatError(f"{path}: {len(blob) - off - need} bytes after the last image, "
                              f"at offset {off + need}")
    labels = np.frombuffer(blob, dtype=np.uint8, count=count, offset=off).copy()
    bad = np.flatnonzero(labels >= num_classes)
    if bad.size:
        raise LabelRangeError(f"{path}: label {labels[bad[0]]} at offset {off + bad[0]} "
                              f"out of range [0,{num_classes})")
    images = np.frombuffer(blob, dtype=np.uint8, count=count * 3 * size * size,
                           offset=off + count).reshape(count, 3, size, size).copy()
    return Dataset(images, labels, names, split=split)


def convert_cifar10(batch_paths) -> Dataset:
    """Ingest CIFAR-10 binary batches (1 label byte + 3072 planar-RGB bytes
    per record)."""
    record = 1 + 3 * 32 * 32
    images, labels = [], []
    for path in batch_paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) == 0 or len(blob) % record != 0:
            raise TruncatedPayloadError(f"{path}: not a whole number of {record}-byte records")
        arr = np.frombuffer(blob, dtype=np.uint8).reshape(-1, record)
        bad = np.flatnonzero(arr[:, 0] >= len(CIFAR10_NAMES))
        if bad.size:
            raise LabelRangeError(f"{path}: label {arr[bad[0], 0]} of record {bad[0]} at offset "
                                  f"{bad[0] * record} out of range [0,{len(CIFAR10_NAMES)})")
        labels.append(arr[:, 0].copy())
        images.append(arr[:, 1:].reshape(-1, 3, 32, 32).copy())
    return Dataset(np.concatenate(images), np.concatenate(labels), list(CIFAR10_NAMES))


# ---------------------------------------------------------------------------
# CSV artifacts

def _csv_cell(value) -> str:
    if value is None:
        return "degenerate"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, (float, np.floating)):
        return "%.9g" % value     # reads back every float32 exactly
    return str(value)


def csv_text(header, rows) -> str:
    """The one CSV form of every artifact: the `header` names, then one line
    per row, each line ending in a newline. An int (Python or numpy) is
    written in decimal, a float to 9 significant digits, None (a degenerate
    statistic) as `degenerate`, anything else as its text."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in [header, *rows])


# ---------------------------------------------------------------------------
# synthetic texture dataset

def _dipole_offsets(num_classes: int, scale: int) -> list[tuple[int, int]]:
    """Class c's signature: the vector from its bright dot to its dark dot,
    the base vector (1/2, 1/3)*scale rotated by 2*pi*c/num_classes and
    taken mod scale."""
    base = np.array([0.5, 1.0 / 3.0]) * scale
    offsets = []
    for c in range(num_classes):
        ang = 2.0 * np.pi * c / num_classes
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        v = np.rint(rot @ base).astype(int) % scale
        offsets.append((int(v[0]), int(v[1])))
    if len(set(offsets)) != num_classes:
        raise ValueError(f"{num_classes} classes collide at texture_scale {scale}; "
                         "use a larger scale or fewer classes")
    return offsets


def synth_texture_dataset(num_classes: int, per_class: int, size: int,
                          texture_scale: int, seed: int,
                          split: str = "train") -> Dataset:
    """Procedural micro-textures whose class is decidable exactly at scale
    texture_scale: each texture_scale cell holds one bright and one dark
    dot; the vector from bright to dark (mod the cell) is the class.

    Dot positions are drawn independently per cell, so every sub-cell
    window sees at most a single class-symmetric dot at a uniformly
    random position: counts, border statistics and dot appearance carry
    no class information below the cell scale. A cell-aligned window of
    texture_scale pixels always contains one complete pair.

    Per image, in label order: one uniform offset pair per anchor cell
    (row-major), then [3,S,S] Gaussian noise. The image is
    clip(128 + sum over anchors of (bright bump - dark bump) + noise), with
    bumps added to a float64 field in anchor order. The field is built
    for a chunk of images at a time (float64 temporaries near 1 MiB);
    every pixel sees the same operations in the same order as an
    image-by-image loop, so the bytes are identical to that definition.
    """
    if not 1 <= num_classes <= 255:
        raise ValueError(f"num_classes={num_classes} must be in 1..255, the range of "
                         "a BAGD class table")
    if per_class < 1:
        raise ValueError(f"per_class={per_class} must be at least 1")
    if texture_scale < 1:
        raise ValueError(f"texture_scale={texture_scale} must be at least 1")
    if size > 65535:
        raise ValueError(f"size={size} exceeds 65535, the largest a BAGD file can hold")
    if not texture_scale < size:
        raise ValueError("texture_scale must be smaller than the image size")
    offsets = np.array(_dipole_offsets(num_classes, texture_scale), dtype=np.float64)
    rng = seed_stream(seed, STREAM_SYNTH)
    s = texture_scale
    rho = max(1.0, s / 10.0)
    amp = 100.0
    noise_sigma = 10.0
    grid = np.arange(size, dtype=np.float64)
    anchors = [(r, c) for r in range(0, size, s) for c in range(0, size, s)]

    count = num_classes * per_class
    labels = np.repeat(np.arange(num_classes, dtype=np.uint8), per_class)
    images = np.empty((count, 3, size, size), dtype=np.uint8)
    chunk = max(1, (1 << 20) // (3 * size * size * 8))
    for start in range(0, count, chunk):
        n = min(chunk, count - start)
        # the stream interleaves each image's offsets and noise: draw per image
        u = np.empty((n, len(anchors), 2))
        img = np.empty((n, 3, size, size))
        for i in range(n):
            u[i] = rng.uniform(0, s, size=(len(anchors), 2))
            img[i] = rng.normal(0.0, noise_sigma, size=(3, size, size))
        dyx = offsets[labels[start:start + n]]                     # [n, 2]
        field = np.full((n, size, size), 128.0)
        bump = np.empty_like(field)
        for a, (ar, ac) in enumerate(anchors):
            for add, dot in ((True, u[:, a]), (False, (u[:, a] + dyx) % s)):
                # -(dy2 + dx2) == (-dy2) + (-dx2) exactly: rounding is sign-symmetric
                ndy2 = -((grid - (ar + dot[:, :1])) ** 2)           # [n, S]
                ndx2 = -((grid - (ac + dot[:, 1:])) ** 2)
                np.add(ndy2[:, :, None], ndx2[:, None, :], out=bump)
                np.divide(bump, 2.0 * rho * rho, out=bump)
                np.exp(bump, out=bump)
                np.multiply(bump, amp, out=bump)
                (np.add if add else np.subtract)(field, bump, out=field)
        np.add(img, field[:, None], out=img)
        images[start:start + n] = np.clip(img, 0, 255, out=img)
    names = [f"texture{c}" for c in range(num_classes)]
    return Dataset(images, labels, names, split=split)


# ---------------------------------------------------------------------------
# augmentation

@dataclass(frozen=True)
class AugmentSpec:
    resize_shorter_to: int
    crop: int
    horizontal_flip: bool = False

    def __post_init__(self):
        if self.crop > self.resize_shorter_to:
            raise ValueError("crop must not exceed resize_shorter_to")

    @property
    def is_identity(self) -> bool:
        return not self.horizontal_flip and self.resize_shorter_to == self.crop


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """[C,H,W] float bilinear resize, half-pixel centers, no antialiasing."""
    c, h, w = image.shape
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[None, :, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, None, :]
    top = image[:, y0][:, :, x0] * (1 - wx) + image[:, y0][:, :, x1] * wx
    bot = image[:, y1][:, :, x0] * (1 - wx) + image[:, y1][:, :, x1] * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


def random_resized_crop(image: np.ndarray, spec: AugmentSpec,
                        rng: np.random.Generator) -> np.ndarray:
    """Resize the shorter side to spec.resize_shorter_to, crop a random
    spec.crop square, optionally flip with p=0.5. Float [3,crop,crop] out."""
    img = np.asarray(image, dtype=np.float32)
    c, h, w = img.shape
    short = min(h, w)
    scale = spec.resize_shorter_to / short
    nh, nw = round(h * scale), round(w * scale)
    if (nh, nw) != (h, w):
        img = bilinear_resize(img, nh, nw)
    else:
        nh, nw = h, w
    top = int(rng.integers(0, nh - spec.crop + 1))
    left = int(rng.integers(0, nw - spec.crop + 1))
    out = img[:, top:top + spec.crop, left:left + spec.crop]
    if spec.horizontal_flip and rng.random() < 0.5:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# normalization and batching

# uint8 bytes of the images that channel_stats scales to float64 at a time
_STATS_CHUNK_BYTES = 1 << 18


def channel_stats(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std of the u8 images scaled to [0,1]. Computed on the
    training split and reused verbatim everywhere else.

    The images are scaled a chunk of _STATS_CHUNK_BYTES at a time, so memory
    does not grow with the image count. Each image's per-channel float64 sum
    over H x W is added in image order, of the scaled pixels for the mean,
    then of their squared deviations from it for the std: the arithmetic of
    `x.mean(axis=(0, 2, 3))` and `x.std(axis=(0, 2, 3))` on the whole scaled
    array, bit for bit."""
    images = dataset.images
    n, c, h, w = images.shape
    rows = max(1, _STATS_CHUNK_BYTES // (c * h * w))

    def total(center: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-channel sum of the scaled pixels, or of their squared
        deviations from `center`."""
        acc = np.zeros(c)
        for start in range(0, n, rows):
            x = images[start:start + rows].astype(np.float64) / 255.0
            if center is not None:
                x -= center[:, None, None]
                x *= x
            for image_sum in x.sum(axis=(2, 3)):
                acc += image_sum
        return acc

    mean = total() / (n * h * w)
    std = np.maximum(np.sqrt(total(mean) / (n * h * w)), 1e-6)
    return mean.astype(np.float32), std.astype(np.float32)


def normalize_images(images_u8: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    x = images_u8.astype(np.float32) / 255.0
    return (x - mean[:, None, None]) / std[:, None, None]


def batch_iterator(dataset: Dataset, batch_size: int, shuffle_seed: int, epoch: int,
                   stats: tuple[np.ndarray, np.ndarray],
                   augment: Optional[AugmentSpec] = None
                   ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Deterministic shuffled batches for one epoch, normalized float32.

    The order is a pure function of (shuffle_seed, epoch); the trailing
    partial batch is kept, so one epoch yields the dataset exactly once.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    mean, std = stats
    order = seed_stream(shuffle_seed, STREAM_SHUFFLE, epoch).permutation(dataset.count)
    aug_rng = seed_stream(shuffle_seed, STREAM_AUGMENT, epoch)
    use_aug = augment is not None and not augment.is_identity
    for start in range(0, dataset.count, batch_size):
        idx = order[start:start + batch_size]
        raw = dataset.images[idx]
        if use_aug:
            out = np.stack([random_resized_crop(im, augment, aug_rng) for im in raw])
            batch = (out / 255.0 - mean[:, None, None]) / std[:, None, None]
        else:
            batch = normalize_images(raw, mean, std)
        yield batch.astype(np.float32), dataset.labels[idx].astype(np.int64)


def subset(dataset: Dataset, indices) -> Dataset:
    return replace(dataset, images=dataset.images[indices], labels=dataset.labels[indices])
