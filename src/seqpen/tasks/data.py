"""Image dataset handling: IDX file parsing and a synthetic digit generator.

IDX files are big-endian: a 4-byte magic whose third byte encodes the dtype
(0x08, unsigned byte) and whose fourth byte is the number of dimensions,
followed by one 4-byte size per dimension and the raw data. Images use
magic 0x00000803 with dims [count, rows, cols]; labels use 0x00000801 with
dims [count]. Files may be gzip-compressed, detected by the 1f 8b prefix.

The synthetic generator renders 28x28 digit images from bitmap glyphs with
random shifts, blur, intensity jitter and pixel noise, straight to the
``uint8`` pixels an IDX file stores. It exists so the desk-scale experiments
run without any external download; point the benchmark harness at real MNIST
files when available.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Array = np.ndarray

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxError(ValueError):
    """An IDX file or file pair that cannot be read: a gzip stream that does
    not decompress, a wrong magic number, a file shorter than its header
    declares, or image and label files whose sample counts differ or are zero."""


def read_idx(path) -> tuple[int, tuple, Array]:
    """Parse one IDX file into (magic, dims, flat uint8 payload).

    The file is read once; the payload is a read-only view of those bytes.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as err:
            raise IdxError(f"{path}: {err}") from err
    if len(raw) < 4:
        raise IdxError(f"{path}: shorter than an IDX header")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic >> 16 != 0 or (magic >> 8) & 0xFF != 0x08:
        raise IdxError(f"{path}: magic {magic:#010x} is not an unsigned-byte IDX file")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxError(f"{path}: header declares {ndim} dims but the file is too short")
    dims = struct.unpack(f">{ndim}i", raw[4:header_len])
    if any(d < 0 for d in dims):
        raise IdxError(f"{path}: negative dimension in header")
    expected = int(np.prod(dims)) if ndim else 0
    if len(raw) - header_len < expected:
        raise IdxError(f"{path}: payload holds {len(raw) - header_len} bytes, header declares {expected}")
    return magic, dims, np.frombuffer(raw, dtype=np.uint8, count=expected, offset=header_len)


def idx_header_bytes(magic: int, dims) -> bytes:
    """Serialize an IDX header; inverse of the header part of read_idx."""
    return struct.pack(">i", magic) + b"".join(struct.pack(">i", d) for d in dims)


def write_idx(path, magic: int, dims, data):
    """Write one IDX file: the header of ``magic`` and ``dims``, then ``data``.

    ``data`` must be a ``uint8`` array of ``prod(dims)`` values; any other
    payload would be cast or would disagree with its header, so it is a
    ``ValueError``. The payload is written from the array, not copied first.
    """
    data = np.asarray(data)
    if data.dtype != np.uint8:
        raise ValueError(f"IDX payload must be uint8, got {data.dtype}")
    if data.size != math.prod(dims):
        raise ValueError(f"IDX payload holds {data.size} values, dims {tuple(dims)} declare {math.prod(dims)}")
    with open(path, "wb") as f:
        f.write(idx_header_bytes(magic, dims))
        data.tofile(f)


@dataclass
class ImageDataset:
    """Flattened image rows with integer labels in [0, 10).

    ``images`` holds either ``uint8`` pixels, as an IDX file stores them, or
    floats in [0, 1]. ``gather_pixels`` turns rows of either into floats in
    [0, 1], so ``uint8`` pixels take an eighth of the memory and are never
    held as floats beyond one gather.
    """

    images: Array
    labels: Array
    split: str = "train"

    def __post_init__(self):
        images = np.asarray(self.images)
        self.images = images if images.dtype == np.uint8 else np.asarray(images, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.images.ndim != 2:
            raise ValueError("images must be a 2-D (N, pixels) array")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels must align with images")
        # Written so that a NaN minimum or maximum fails it too.
        if images.dtype != np.uint8 and self.images.size and not (0.0 <= self.images.min() and self.images.max() <= 1.0):
            raise ValueError("pixel values must be finite and lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must lie in [0, 10)")

    @property
    def num_samples(self) -> int:
        return self.images.shape[0]


def gather_pixels(images: Array, rows) -> Array:
    """Rows ``images[rows]`` as floats in [0, 1].

    ``uint8`` pixels are scaled by ``astype(float) / 255.0``, the same
    operations on the same values as scaling the whole split first, so every
    gathered value is bit-identical to that; float pixels are gathered as
    they are.
    """
    batch = images[rows]
    if batch.dtype == np.uint8:
        batch = batch.astype(float)
        batch /= 255.0
    return batch


def load_idx_dataset(images_path, labels_path, limit=None, split: str = "train") -> ImageDataset:
    """Load an image/label IDX pair, keeping the file's ``uint8`` pixels.

    ``limit`` truncates to the first samples, for desk-scale runs. A file
    pair with no samples is an ``IdxError`` naming ``split``.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    magic_i, dims_i, pixels = read_idx(images_path)
    if magic_i != IMAGE_MAGIC:
        raise IdxError(f"{images_path}: expected image magic {IMAGE_MAGIC:#010x}, got {magic_i:#010x}")
    magic_l, dims_l, labels = read_idx(labels_path)
    if magic_l != LABEL_MAGIC:
        raise IdxError(f"{labels_path}: expected label magic {LABEL_MAGIC:#010x}, got {magic_l:#010x}")
    count, rows, cols = dims_i
    if count != dims_l[0]:
        raise IdxError(f"{count} images vs {dims_l[0]} labels")
    if count == 0:
        raise IdxError(f"{split} split is empty: {images_path} holds no images")
    # Copy only the kept rows out of the file's buffer, which is then freed.
    pixels = pixels.reshape(count, rows * cols)[:limit].copy()
    return ImageDataset(images=pixels, labels=labels[:limit].astype(int), split=split)


# Most synthetic images whose scale, noise, clip and rounding run at once.
RENDER_CHUNK = 128

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


def _shifted_glyphs() -> Array:
    """Every digit's blurred glyph under every row and column shift in
    [-2, 2], flattened: ``glyphs[digit, dr + 2, dc + 2]``."""
    shifts = range(-2, 3)
    return np.array(
        [
            [[_blur(np.roll(np.roll(stamp, dr, axis=0), dc, axis=1)).ravel() for dc in shifts] for dr in shifts]
            for stamp in _glyph_stamps()
        ]
    )


def _render_split(num: int, rng: np.random.Generator, glyphs: Array) -> tuple[Array, Array]:
    """``num`` digits as ``uint8`` rows, quantized like a real 8-bit image
    file, and their labels. Each image draws its shift, intensity scale and
    pixel noise in that order; the arithmetic runs on ``RENDER_CHUNK`` images
    at a time."""
    labels = rng.integers(0, 10, size=num)
    images = np.empty((num, glyphs.shape[-1]), dtype=np.uint8)
    for lo in range(0, num, RENDER_CHUNK):
        count = min(RENDER_CHUNK, num - lo)
        shifts = np.empty((2, count), dtype=int)
        scales = np.empty((count, 1))
        noise = np.empty((count, glyphs.shape[-1]))
        for j in range(count):
            shifts[:, j] = rng.integers(-2, 3), rng.integers(-2, 3)
            scales[j] = rng.uniform(0.75, 1.0)
            noise[j] = rng.normal(0.0, 0.03, size=glyphs.shape[-1])
        batch = glyphs[labels[lo : lo + count], shifts[0] + 2, shifts[1] + 2]
        batch *= scales
        batch += noise
        np.clip(batch, 0.0, 1.0, out=batch)
        batch *= 255.0
        images[lo : lo + count] = np.round(batch, out=batch)
    return images, labels


def synthetic_digits(num_train: int, num_test: int, rng_seed: int = 0) -> tuple[ImageDataset, ImageDataset]:
    """Deterministic synthetic digit dataset (train, test) with ``uint8`` pixels."""
    rng = np.random.default_rng(rng_seed)
    glyphs = _shifted_glyphs()
    train = ImageDataset(*_render_split(num_train, rng, glyphs), split="train")
    test = ImageDataset(*_render_split(num_test, rng, glyphs), split="test")
    return train, test


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
    """Generate synthetic digits and write them as standard IDX files.

    The files hold the bytes of ``synthetic_digits`` with the same arguments.
    Each split is written before the next one is rendered, so at most one
    split's ``uint8`` pixels are held at a time.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(rng_seed)
    glyphs = _shifted_glyphs()
    for split, num in (("train", num_train), ("test", num_test)):
        _write_split(root, split, *_render_split(num, rng, glyphs))
    return root


def _write_split(root: Path, split: str, images: Array, labels: Array):
    img_name, lbl_name = SPLIT_FILES[split]
    side = math.isqrt(images.shape[1])
    write_idx(root / img_name, IMAGE_MAGIC, (len(labels), side, side), images)
    write_idx(root / lbl_name, LABEL_MAGIC, (len(labels),), labels.astype(np.uint8))
