"""Image dataset handling: IDX file parsing and a synthetic digit generator.

IDX files are big-endian: a 4-byte magic whose third byte encodes the dtype
(0x08, unsigned byte) and whose fourth byte is the number of dimensions,
followed by one 4-byte size per dimension and the raw data. Images use
magic 0x00000803 with dims [count, rows, cols]; labels use 0x00000801 with
dims [count]. Files may be gzip-compressed, detected by the 1f 8b prefix.

The synthetic generator renders 28x28 digit images from bitmap glyphs with
random shifts, blur, intensity jitter and pixel noise. It exists so the
desk-scale experiments run without any external download; point the
benchmark harness at real MNIST files when available.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Array = np.ndarray

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxError(ValueError):
    """Base class for IDX parsing failures."""


class IdxMagicError(IdxError):
    """Magic number does not describe an unsigned-byte IDX payload."""


class IdxTruncatedError(IdxError):
    """File ended before the declared payload was read."""


class IdxCountMismatchError(IdxError):
    """Image and label files declare different sample counts."""


def read_idx(path) -> tuple[int, tuple, Array]:
    """Parse one IDX file into (magic, dims, flat uint8 payload).

    The file is read once; the payload is a read-only view of those bytes.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    if len(raw) < 4:
        raise IdxTruncatedError(f"{path}: shorter than an IDX header")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic >> 16 != 0 or (magic >> 8) & 0xFF != 0x08:
        raise IdxMagicError(f"{path}: magic {magic:#010x} is not an unsigned-byte IDX file")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxTruncatedError(f"{path}: header declares {ndim} dims but the file is too short")
    dims = struct.unpack(f">{ndim}i", raw[4:header_len])
    if any(d < 0 for d in dims):
        raise IdxMagicError(f"{path}: negative dimension in header")
    expected = int(np.prod(dims)) if ndim else 0
    if len(raw) - header_len < expected:
        raise IdxTruncatedError(f"{path}: payload holds {len(raw) - header_len} bytes, header declares {expected}")
    return magic, dims, np.frombuffer(raw, dtype=np.uint8, count=expected, offset=header_len)


def idx_header_bytes(magic: int, dims) -> bytes:
    """Serialize an IDX header; inverse of the header part of read_idx."""
    return struct.pack(">i", magic) + b"".join(struct.pack(">i", d) for d in dims)


def write_idx(path, magic: int, dims, data, compress: bool = False):
    payload = idx_header_bytes(magic, dims) + np.asarray(data, dtype=np.uint8).tobytes()
    if compress:
        # mtime pinned so identical inputs produce identical bytes
        payload = gzip.compress(payload, mtime=0)
    with open(path, "wb") as f:
        f.write(payload)


@dataclass
class ImageDataset:
    """Flattened image rows in [0, 1] with integer labels in [0, 10)."""

    images: Array
    labels: Array
    split: str = "train"

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.images.ndim != 2:
            raise ValueError("images must be a 2-D (N, pixels) array")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels must align with images")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must lie in [0, 10)")

    @property
    def num_samples(self) -> int:
        return self.images.shape[0]


def load_idx_dataset(images_path, labels_path, limit=None, split: str = "train") -> ImageDataset:
    """Load an image/label IDX pair, scaling pixels to [0, 1].

    ``limit`` truncates to the first samples, for desk-scale runs. A file
    pair with no samples is an ``IdxError`` naming ``split``.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    magic_i, dims_i, pixels = read_idx(images_path)
    if magic_i != IMAGE_MAGIC:
        raise IdxMagicError(f"{images_path}: expected image magic {IMAGE_MAGIC:#010x}, got {magic_i:#010x}")
    magic_l, dims_l, labels = read_idx(labels_path)
    if magic_l != LABEL_MAGIC:
        raise IdxMagicError(f"{labels_path}: expected label magic {LABEL_MAGIC:#010x}, got {magic_l:#010x}")
    count, rows, cols = dims_i
    if count != dims_l[0]:
        raise IdxCountMismatchError(f"{count} images vs {dims_l[0]} labels")
    if count == 0:
        raise IdxError(f"{split} split is empty: {images_path} holds no images")
    # Truncate the uint8 payload before converting, so only the kept rows
    # are ever held as floats.
    pixels = pixels.reshape(count, rows * cols)[:limit]
    return ImageDataset(images=pixels.astype(float) / 255.0, labels=labels[:limit].astype(int), split=split)


# 7x5 bitmap glyphs for the ten digits.
_GLYPHS = {
    0: ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    1: ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    2: ["01110", "10001", "00001", "00010", "00100", "01000", "11111"],
    3: ["11110", "00001", "00001", "01110", "00001", "00001", "11110"],
    4: ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    5: ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    6: ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    7: ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    8: ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    9: ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
}


def _glyph_stamps(side: int = 28, scale: int = 3) -> Array:
    stamps = np.zeros((10, side, side))
    for digit, rows in _GLYPHS.items():
        bitmap = np.array([[int(ch) for ch in row] for row in rows], dtype=float)
        big = np.kron(bitmap, np.ones((scale, scale)))
        r0 = (side - big.shape[0]) // 2
        c0 = (side - big.shape[1]) // 2
        stamps[digit, r0 : r0 + big.shape[0], c0 : c0 + big.shape[1]] = big
    return stamps


def _blur(img: Array) -> Array:
    # Separable [1, 2, 1] / 4 smoothing, applied to rows then columns.
    kernel = np.array([0.25, 0.5, 0.25])
    padded = np.pad(img, 1, mode="edge")
    horiz = (
        kernel[0] * padded[1:-1, :-2] + kernel[1] * padded[1:-1, 1:-1] + kernel[2] * padded[1:-1, 2:]
    )
    padded = np.pad(horiz, 1, mode="edge")
    return kernel[0] * padded[:-2, 1:-1] + kernel[1] * padded[1:-1, 1:-1] + kernel[2] * padded[2:, 1:-1]


def _render_split(num: int, rng: np.random.Generator, stamps: Array) -> tuple[Array, Array]:
    side = stamps.shape[1]
    labels = rng.integers(0, 10, size=num)
    images = np.empty((num, side * side))
    for k in range(num):
        img = stamps[labels[k]]
        dr = int(rng.integers(-2, 3))
        dc = int(rng.integers(-2, 3))
        img = np.roll(np.roll(img, dr, axis=0), dc, axis=1)
        img = _blur(img)
        img = img * rng.uniform(0.75, 1.0)
        img = img + rng.normal(0.0, 0.03, size=img.shape)
        img = np.clip(img, 0.0, 1.0)
        # Quantize like a real 8-bit image file would.
        images[k] = np.round(img * 255.0).ravel() / 255.0
    return images, labels


def synthetic_digits(num_train: int, num_test: int, rng_seed: int = 0) -> tuple[ImageDataset, ImageDataset]:
    """Deterministic synthetic digit dataset (train, test)."""
    rng = np.random.default_rng(rng_seed)
    stamps = _glyph_stamps()
    train_images, train_labels = _render_split(num_train, rng, stamps)
    test_images, test_labels = _render_split(num_test, rng, stamps)
    return (
        ImageDataset(train_images, train_labels, split="train"),
        ImageDataset(test_images, test_labels, split="test"),
    )


SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def dataset_paths(root, split: str) -> tuple[Path, Path]:
    """Resolve the image/label file pair under a dataset root, allowing .gz."""
    root = Path(root)
    names = SPLIT_FILES[split]
    paths = []
    for name in names:
        plain = root / name
        gz = root / (name + ".gz")
        if plain.exists():
            paths.append(plain)
        elif gz.exists():
            paths.append(gz)
        else:
            raise FileNotFoundError(f"missing dataset file {plain} (or {gz})")
    return paths[0], paths[1]


def write_synthetic_idx(root, num_train: int = 6000, num_test: int = 1000, rng_seed: int = 0):
    """Generate synthetic digits and write them as standard IDX files."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    train, test = synthetic_digits(num_train, num_test, rng_seed)
    for split, ds in (("train", train), ("test", test)):
        img_name, lbl_name = SPLIT_FILES[split]
        pixels = np.round(ds.images * 255.0).astype(np.uint8)
        side = int(np.sqrt(ds.images.shape[1]))
        write_idx(root / img_name, IMAGE_MAGIC, (ds.num_samples, side, side), pixels)
        write_idx(root / lbl_name, LABEL_MAGIC, (ds.num_samples,), ds.labels.astype(np.uint8))
    return root
