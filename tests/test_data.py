import gzip
import hashlib
import tracemalloc

import numpy as np
import pytest

from seqpen.problems import SPLIT_CHUNK, epoch_batches
from seqpen.tasks.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    IdxError,
    ImageDataset,
    dataset_paths,
    gather_pixels,
    idx_header_bytes,
    load_idx_dataset,
    read_idx,
    synthetic_digits,
    write_idx,
    write_synthetic_idx,
)
from seqpen.tasks.encdec import build_enc_dec_task


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
    # the dataset keeps the file's pixels; a gather scales them to [0, 1]
    assert ds.images.dtype == np.uint8 and ds.images.shape == (5, 16)
    assert np.array_equal(ds.images, pixels.reshape(5, 16))
    rows = gather_pixels(ds.images, np.arange(5))
    assert rows.dtype == float and rows.min() >= 0.0 and rows.max() <= 1.0
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
    assert ds.images.dtype == np.uint8 and ds.images.nbytes == 3 * full.images.shape[1]
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
    with pytest.raises(IdxError, match="magic 0x00000903 is not an unsigned-byte IDX file"):
        read_idx(bad)
    # an image file offered as labels is a magic error too
    with pytest.raises(IdxError, match="expected label magic 0x00000801, got 0x00000803"):
        load_idx_dataset(img_path, img_path)


def test_truncated_payload(idx_pair, tmp_path):
    img_path, _, _, _ = idx_pair
    clipped = tmp_path / "clipped"
    clipped.write_bytes(img_path.read_bytes()[:-7])
    with pytest.raises(IdxError, match="payload holds .* bytes, header declares"):
        read_idx(clipped)
    header_only = tmp_path / "header_only"
    header_only.write_bytes(img_path.read_bytes()[:6])
    with pytest.raises(IdxError, match="header declares 3 dims but the file is too short"):
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


@pytest.mark.parametrize(
    "dims, data, message",
    [
        ((3, 2, 2), np.zeros(8, dtype=np.uint8), r"holds 8 values, dims \(3, 2, 2\) declare 12"),
        ((1, 2, 2), np.full(4, 0.9), "must be uint8, got float64"),
        ((1, 2, 2), np.full(4, 300), "must be uint8, got int64"),
    ],
)
def test_write_idx_refuses_a_payload_it_would_corrupt(tmp_path, dims, data, message):
    # the header would disagree with the payload, or the values would be cast
    path = tmp_path / "imgs"
    with pytest.raises(ValueError, match=message):
        write_idx(path, IMAGE_MAGIC, dims, data)
    assert not path.exists()


def test_write_synthetic_idx_golden_bytes(tmp_path):
    # SHA-256 of the files the float64 renderer wrote; any change to the
    # generator's draws or arithmetic changes every desk dataset.
    root = write_synthetic_idx(tmp_path / "data", num_train=64, num_test=32, rng_seed=0)
    golden = {
        "train-images-idx3-ubyte": "c8a45d0c906899a9b40d1f4314f2029be9803f0b7693add9fa141c52add2e1d0",
        "train-labels-idx1-ubyte": "ca90b448b3e464d624ddef5b6bb9e98de34d3ff087445fcb1eb9010547a8e1a5",
        "t10k-images-idx3-ubyte": "9725c7c5198103edee8d4787f16ec32754fec2495df061cc08e2bf184394d839",
        "t10k-labels-idx1-ubyte": "38c81015ed3fb5cec5b3b50b5f0bd178d80790a92b4374e60e704d51a7fd9750",
    }
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in root.iterdir()} == golden
    # the in-memory datasets gather the same pixels and hold the same labels
    train, test = synthetic_digits(64, 32, rng_seed=0)
    for split, ds in (("train", train), ("test", test)):
        loaded = load_idx_dataset(*dataset_paths(root, split))
        rows = np.arange(ds.num_samples)
        assert gather_pixels(ds.images, rows).tobytes() == gather_pixels(loaded.images, rows).tobytes()
        assert np.array_equal(ds.labels, loaded.labels)


def test_write_synthetic_idx_peak_grows_by_under_two_bytes_per_pixel(tmp_path):
    # Rendering straight to uint8 and writing each split before the next
    # holds about 784 bytes per training image; float64 copies of the split
    # hold about 32 bytes per pixel.
    peaks = {}
    for num_train in (300, 1500):
        tracemalloc.start()
        try:
            write_synthetic_idx(tmp_path / f"data{num_train}", num_train=num_train, num_test=20, rng_seed=0)
            peaks[num_train] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1500] - peaks[300] <= 2 * 784 * (1500 - 300)


def test_every_gather_is_bit_identical_to_scaling_the_whole_split(tmp_path):
    # ``whole`` scales the whole split at once, as a float64 dataset holds it.
    root = write_synthetic_idx(tmp_path / "data", num_train=1100, num_test=10, rng_seed=3)
    ds = load_idx_dataset(*dataset_paths(root, "train"))
    whole = ds.images.astype(float) / 255.0
    rng = np.random.default_rng(0)
    batches = epoch_batches(ds.num_samples, 128, rng)
    chunks = [np.arange(lo, min(lo + SPLIT_CHUNK, ds.num_samples)) for lo in range(0, ds.num_samples, SPLIT_CHUNK)]
    for rows in batches + chunks + [rng.permutation(ds.num_samples)[:SPLIT_CHUNK]]:
        assert gather_pixels(ds.images, rows).tobytes() == whole[rows].tobytes()


def test_uint8_and_prescaled_float_images_give_the_same_task_bytes(tmp_path):
    root = write_synthetic_idx(tmp_path / "data", num_train=600, num_test=10, rng_seed=4)
    ds = load_idx_dataset(*dataset_paths(root, "train"))
    scaled = ImageDataset(ds.images.astype(float) / 255.0, ds.labels)
    lean, full = (build_enc_dec_task(d, theta=0.03) for d in (ds, scaled))
    params = lean.model.init_params(np.random.default_rng(1))
    rows = np.random.default_rng(2).permutation(ds.num_samples)
    for a, b in zip(lean.values(rows, params), full.values(rows, params)):
        assert a.tobytes() == b.tobytes()
    batch = rows[:128]
    grads = [
        task.problem.weighted_grad(batch, params, np.ones(128), lambda g: 100.0 * (g > 0))
        for task in (lean, full)
    ]
    assert grads[0].tobytes() == grads[1].tobytes()


def test_count_mismatch(idx_pair, tmp_path):
    img_path, _, _, _ = idx_pair
    labels = np.zeros(4, dtype=np.uint8)
    lbl_path = tmp_path / "short_labels"
    write_idx(lbl_path, LABEL_MAGIC, (4,), labels)
    with pytest.raises(IdxError, match="images vs 4 labels"):
        load_idx_dataset(img_path, lbl_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_pixels(bad):
    images = np.full((2, 4), 0.5)
    images[1, 2] = bad
    with pytest.raises(ValueError, match="pixel values must be finite"):
        ImageDataset(images, np.zeros(2, dtype=int))


def test_dataset_validation():
    with pytest.raises(ValueError, match="pixel"):
        ImageDataset(np.full((2, 4), 1.5), np.zeros(2, dtype=int))
    with pytest.raises(ValueError, match="labels"):
        ImageDataset(np.zeros((2, 4)), np.array([0, 11]))


def test_synthetic_digits_properties():
    train, test = synthetic_digits(50, 20, rng_seed=1)
    again, _ = synthetic_digits(50, 20, rng_seed=1)
    assert np.array_equal(train.images, again.images)
    assert train.images.dtype == np.uint8 and test.images.dtype == np.uint8
    assert train.images.shape == (50, 784)
    assert test.images.shape == (20, 784)
    pixels = gather_pixels(train.images, np.arange(train.num_samples))
    assert pixels.min() >= 0.0 and pixels.max() <= 1.0
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
