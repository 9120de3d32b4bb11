import gzip
import tracemalloc

import numpy as np
import pytest

from seqpen.tasks.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    ImageDataset,
    dataset_paths,
    idx_header_bytes,
    load_idx_dataset,
    read_idx,
    synthetic_digits,
    write_idx,
    write_synthetic_idx,
)


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, size=5, dtype=np.uint8)
    img_path = tmp_path / "imgs"
    lbl_path = tmp_path / "lbls"
    write_idx(img_path, IMAGE_MAGIC, (5, 4, 4), pixels)
    write_idx(lbl_path, LABEL_MAGIC, (5,), labels)
    return img_path, lbl_path, pixels, labels


def test_round_trip(idx_pair):
    img_path, lbl_path, pixels, labels = idx_pair
    magic, dims, data = read_idx(img_path)
    assert magic == IMAGE_MAGIC
    assert dims == (5, 4, 4)
    assert np.array_equal(data.reshape(5, 4, 4), pixels)
    # re-serializing the parsed header reproduces the original bytes
    assert idx_header_bytes(magic, dims) == img_path.read_bytes()[: 4 + 4 * len(dims)]

    ds = load_idx_dataset(img_path, lbl_path)
    assert ds.images.shape == (5, 16)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert np.array_equal(ds.labels, labels)


def test_gzip_detection(idx_pair, tmp_path):
    img_path, lbl_path, pixels, _ = idx_pair
    gz_path = tmp_path / "imgs.gz"
    gz_path.write_bytes(gzip.compress(img_path.read_bytes()))
    magic, dims, data = read_idx(gz_path)
    assert magic == IMAGE_MAGIC
    assert np.array_equal(data.reshape(5, 4, 4), pixels)


def test_limit_truncates(idx_pair):
    img_path, lbl_path, _, labels = idx_pair
    ds = load_idx_dataset(img_path, lbl_path, limit=3)
    assert ds.num_samples == 3
    assert np.array_equal(ds.labels, labels[:3])


def test_limit_keeps_only_the_kept_rows(idx_pair):
    img_path, lbl_path, _, _ = idx_pair
    full = load_idx_dataset(img_path, lbl_path)
    ds = load_idx_dataset(img_path, lbl_path, limit=3)
    # the truncated images own their memory instead of viewing the whole file
    assert ds.images.base is None
    assert ds.images.nbytes == 3 * full.images.shape[1] * 8
    assert np.array_equal(ds.images, full.images[:3])


@pytest.mark.parametrize("limit", [-1, -4])
def test_negative_limit_rejected(idx_pair, limit):
    # a negative slice bound would silently drop rows from the end
    img_path, lbl_path, _, _ = idx_pair
    with pytest.raises(ValueError, match="limit must be >= 0"):
        load_idx_dataset(img_path, lbl_path, limit=limit)


def test_bad_magic(idx_pair, tmp_path):
    img_path, lbl_path, _, _ = idx_pair
    bad = tmp_path / "bad"
    bad.write_bytes(b"\x00\x00\x09\x03" + img_path.read_bytes()[4:])
    with pytest.raises(IdxMagicError):
        read_idx(bad)
    # an image file offered as labels is a magic error too
    with pytest.raises(IdxMagicError):
        load_idx_dataset(img_path, img_path)


def test_truncated_payload(idx_pair, tmp_path):
    img_path, _, _, _ = idx_pair
    clipped = tmp_path / "clipped"
    clipped.write_bytes(img_path.read_bytes()[:-7])
    with pytest.raises(IdxTruncatedError):
        read_idx(clipped)
    header_only = tmp_path / "header_only"
    header_only.write_bytes(img_path.read_bytes()[:6])
    with pytest.raises(IdxTruncatedError):
        read_idx(header_only)


def test_read_idx_holds_the_file_once(tmp_path):
    # 600 images of 64x64 pixels, a 2.46 MB file: reading it into one buffer
    # and viewing the payload there peaks at about the file size, while
    # joining two reads or slicing off the header adds a second copy.
    pixels = np.random.default_rng(1).integers(0, 256, size=(600, 64, 64), dtype=np.uint8)
    path = tmp_path / "imgs"
    write_idx(path, IMAGE_MAGIC, pixels.shape, pixels)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        _, dims, data = read_idx(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == pixels.shape and np.array_equal(data, pixels.ravel())
    assert peak < 1.5 * size


def test_count_mismatch(idx_pair, tmp_path):
    img_path, _, _, _ = idx_pair
    labels = np.zeros(4, dtype=np.uint8)
    lbl_path = tmp_path / "short_labels"
    write_idx(lbl_path, LABEL_MAGIC, (4,), labels)
    with pytest.raises(IdxCountMismatchError):
        load_idx_dataset(img_path, lbl_path)


def test_dataset_validation():
    with pytest.raises(ValueError, match="pixel"):
        ImageDataset(np.full((2, 4), 1.5), np.zeros(2, dtype=int))
    with pytest.raises(ValueError, match="labels"):
        ImageDataset(np.zeros((2, 4)), np.array([0, 11]))


def test_synthetic_digits_properties():
    train, test = synthetic_digits(50, 20, rng_seed=1)
    again, _ = synthetic_digits(50, 20, rng_seed=1)
    assert np.array_equal(train.images, again.images)
    assert train.images.shape == (50, 784)
    assert test.images.shape == (20, 784)
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0
    assert set(np.unique(train.labels)).issubset(range(10))
    # different digits render differently
    by_label = {int(l): train.images[i] for i, l in enumerate(train.labels)}
    if len(by_label) >= 2:
        keys = sorted(by_label)
        assert not np.allclose(by_label[keys[0]], by_label[keys[1]])


def test_write_synthetic_idx_loadable(tmp_path):
    root = write_synthetic_idx(tmp_path / "data", num_train=30, num_test=10, rng_seed=2)
    img, lbl = dataset_paths(root, "train")
    ds = load_idx_dataset(img, lbl, split="train")
    assert ds.num_samples == 30
    img, lbl = dataset_paths(root, "test")
    assert load_idx_dataset(img, lbl).num_samples == 10
    with pytest.raises(FileNotFoundError):
        dataset_paths(tmp_path / "nowhere", "train")
