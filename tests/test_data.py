"""Dataset containers, IDX/CSV serialization, synthetic mixtures, and
seeded batching."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from virlab.cli import main
from virlab.data import (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, Dataset,
                         batch_indices, from_gmm, load_csv, load_idx,
                         save_csv, save_idx, simplex_means, synth_multiclass)
from virlab.errors import ConfigError, DataFormatError
from virlab.gmm import GmmSpec, sample_gmm
from virlab.models import Arch, Classifier, save_checkpoint


def small_dataset(n=12, d=5, classes=3, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)),
                   rng.integers(0, classes, size=n))


def test_dataset_validation_and_properties():
    ds = small_dataset()
    assert len(ds) == 12 and ds.dim == 5
    assert ds.num_classes == int(ds.labels.max()) + 1
    assert ds.features.dtype == np.float64
    assert ds.labels.dtype == np.int64
    with pytest.raises(ConfigError):
        Dataset(np.zeros((4, 3)), np.zeros(5, dtype=int))
    with pytest.raises(ConfigError):
        Dataset(np.zeros(4), np.zeros(4, dtype=int))
    with pytest.raises(ConfigError):
        Dataset(np.zeros((4, 3)), np.array([0, 1, -1, 0]))


# -- IDX -------------------------------------------------------------------------


def pixel_dataset(n=6, rows=3, cols=4, seed=1) -> Dataset:
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, rows * cols))
    return Dataset(pixels / 255.0, rng.integers(0, 5, size=n))


def test_idx_round_trip_is_exact(tmp_path):
    ds = pixel_dataset()
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    save_idx(ds, ip, lp, rows=3, cols=4)
    back = load_idx(ip, lp)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.features.min() >= 0.0 and back.features.max() <= 1.0


def write_raw_idx(tmp_path, pixels, labels):
    """An IDX pair of exactly these bytes, written without save_idx."""
    n, dim = pixels.shape
    ip, lp = tmp_path / "raw-imgs.idx", tmp_path / "raw-lbls.idx"
    ip.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, 1, dim)
                   + pixels.tobytes())
    lp.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, n) + labels.tobytes())
    return ip, lp


def test_idx_rows_are_bitwise_the_float64_paths(tmp_path):
    # load_idx holds the bytes and scales the rows it hands out; every way
    # of reading them gives the bits of dividing the whole split at once.
    rng = np.random.default_rng(4)
    pixels = rng.integers(0, 256, size=(10, 12), dtype=np.uint8)
    labels = rng.integers(0, 5, size=10, dtype=np.uint8)
    held = load_idx(*write_raw_idx(tmp_path, pixels, labels))
    flat = Dataset(pixels / 255.0, labels)
    assert held.shape == flat.shape == (10, 12)
    for idx in (3, np.array([4, 0, 4, 9]), slice(2, 7), slice(8, 20), slice(None)):
        got = held.rows(idx)
        assert got.dtype == np.float64
        assert got.tobytes() == flat.rows(idx).tobytes() == flat.features[idx].tobytes()
    features = held.features
    assert features.tobytes() == flat.features.tobytes()
    for idx in (3, np.array([4, 0, 4, 9]), slice(2, 7)):
        assert held.features[idx].tobytes() == held.rows(idx).tobytes() \
            == flat.rows(idx).tobytes()


def test_save_idx_of_load_idx_writes_the_same_bytes(tmp_path):
    pixels = np.arange(512, dtype=np.uint16).astype(np.uint8).reshape(32, 16)
    labels = (np.arange(32) % 7).astype(np.uint8)
    ip, lp = write_raw_idx(tmp_path, pixels, labels)
    loaded = load_idx(ip, lp)
    save_idx(loaded, tmp_path / "i", tmp_path / "l", rows=1, cols=16)
    assert (tmp_path / "i").read_bytes() == ip.read_bytes()
    assert (tmp_path / "l").read_bytes() == lp.read_bytes()
    # Its float64 values, once built, round back to the same bytes.
    assert loaded.features.dtype == np.float64
    save_idx(loaded, tmp_path / "i2", tmp_path / "l2", rows=1, cols=16)
    assert (tmp_path / "i2").read_bytes() == ip.read_bytes()


def test_an_idx_split_is_held_in_its_bytes(tmp_path):
    # Loading a 2,000-row split peaks at its bytes, not at its float64
    # values; two reads of features build at most one float64 split, and
    # the second read is the first's array.
    n, dim = 2000, 784
    pixels = np.random.default_rng(0).integers(0, 256, size=(n, dim),
                                               dtype=np.uint8)
    paths = write_raw_idx(tmp_path, pixels, np.zeros(n, dtype=np.uint8))
    split = n * dim * 8
    tracemalloc.start()
    try:
        loaded = load_idx(*paths)
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        first = loaded.features
        second = loaded.features
        features_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert load_peak < split / 4, f"load_idx peaked at {load_peak / 1e6:.1f} MB"
    assert second is first
    assert features_peak < 1.1 * split, (
        f"two reads of features peaked at {features_peak / 1e6:.1f} MB, "
        f"one split is {split / 1e6:.1f} MB")


def test_save_idx_rejects_wrong_geometry(tmp_path):
    ds = pixel_dataset()
    with pytest.raises(ConfigError):
        save_idx(ds, tmp_path / "i", tmp_path / "l", rows=3, cols=5)


def test_load_idx_bad_magic_names_the_file(tmp_path):
    ds = pixel_dataset()
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    save_idx(ds, ip, lp, rows=3, cols=4)
    bad = bytearray(ip.read_bytes())
    bad[0] = 0xFF
    ip.write_bytes(bytes(bad))
    with pytest.raises(DataFormatError, match="imgs.idx"):
        load_idx(ip, lp)


def test_load_idx_truncation_and_trailing_bytes(tmp_path):
    ds = pixel_dataset()
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    save_idx(ds, ip, lp, rows=3, cols=4)
    raw = ip.read_bytes()
    ip.write_bytes(raw[:-3])
    with pytest.raises(DataFormatError, match="truncated"):
        load_idx(ip, lp)
    ip.write_bytes(raw + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load_idx(ip, lp)
    ip.write_bytes(raw[:10])
    with pytest.raises(DataFormatError, match="header"):
        load_idx(ip, lp)


@pytest.mark.parametrize("which", ["images", "labels"])
def test_cli_train_rejects_an_idx_header_larger_than_its_file(tmp_path, capsys, which):
    # 0xFFFFFFFF images of 0xFFFF x 0xFFFF pixels is more bytes than a read
    # can ask for; the header is checked against the file's size first.
    ds = pixel_dataset()
    paths = {"images": tmp_path / "imgs.idx", "labels": tmp_path / "lbls.idx"}
    save_idx(ds, paths["images"], paths["labels"], rows=3, cols=4)
    raw = paths[which].read_bytes()
    header = (struct.pack(">IIII", IDX_IMAGES_MAGIC, 0xFFFFFFFF, 0xFFFF, 0xFFFF)
              if which == "images" else
              struct.pack(">II", IDX_LABELS_MAGIC, 0xFFFFFFFF))
    paths[which].write_bytes(header + raw[len(header):])
    dataset = {"kind": "idx", "images": str(paths["images"]),
               "labels": str(paths["labels"])}
    out = tmp_path / "run"
    assert main(["train", "--epochs", "1", "--set", "optimizer.milestones=[]",
                 "--set", f"dataset={json.dumps(dataset)}", "--set",
                 "attack_eval=[]", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[which]}: truncated"), err
    assert not out.exists()


def test_load_idx_count_mismatch(tmp_path):
    ds = pixel_dataset(n=6)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    save_idx(ds, ip, lp, rows=3, cols=4)
    lp.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 5)
                   + ds.labels[:5].astype(np.uint8).tobytes())
    with pytest.raises(DataFormatError, match="mismatch"):
        load_idx(ip, lp)


@pytest.mark.parametrize("command", ["train", "eval", "attack"])
def test_cli_rejects_an_idx_split_of_zero_images(tmp_path, capsys, command):
    # An empty eval split used to train a whole epoch before evaluate()
    # raised, or (attack) to write a 0-row CSV and exit 0.
    paths = {}
    for split, ds in (("", pixel_dataset()), ("eval_", pixel_dataset(n=0))):
        paths[f"{split}images"] = str(tmp_path / f"{split}imgs.idx")
        paths[f"{split}labels"] = str(tmp_path / f"{split}lbls.idx")
        save_idx(ds, paths[f"{split}images"], paths[f"{split}labels"],
                 rows=3, cols=4)
    with pytest.raises(DataFormatError, match="no images"):
        load_idx(paths["eval_images"], paths["eval_labels"])
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(Classifier(Arch((12, 4, 5)), seed=0), checkpoint)
    out = tmp_path / "out"
    args = {"train": ["--out", str(out), "--epochs", "1"],
            "eval": ["--checkpoint", str(checkpoint), "--out", str(out)],
            "attack": ["--checkpoint", str(checkpoint), "--out", str(out)]}
    assert main([command, *args[command],
                 "--set", "optimizer.milestones=[]",
                 "--set", f"dataset={json.dumps({'kind': 'idx', **paths})}"]) == 4
    assert capsys.readouterr().err == f"error: {paths['eval_images']}: no images\n"
    assert not out.exists()


def test_idx_magics_are_the_standard_ones():
    assert IDX_IMAGES_MAGIC == 0x00000803
    assert IDX_LABELS_MAGIC == 0x00000801


# -- CSV -------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    ds = small_dataset()
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    text = path.read_text()
    assert "np.float64" not in text
    assert text.splitlines()[0].split(",")[0] == "label"
    back = load_csv(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_load_csv_accepts_label_column_anywhere(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,label,x1\n1.5,2,-0.25\n0.0,0,3.0\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.features, [[1.5, -0.25], [0.0, 3.0]])
    np.testing.assert_array_equal(ds.labels, [2, 0])


def test_load_csv_error_cases(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        load_csv(path)
    path.write_text("x0,x1\n1.0,2.0\n")
    with pytest.raises(DataFormatError, match="label"):
        load_csv(path)
    path.write_text("label,x0\n1,2.0\n3\n")
    with pytest.raises(DataFormatError, match="bad.csv:3"):
        load_csv(path)
    path.write_text("label,x0\n1,2.0\n2,oops\n")
    with pytest.raises(DataFormatError, match="bad.csv:3"):
        load_csv(path)
    path.write_text("label,x0\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_csv(path)


# -- synthetic mixtures ----------------------------------------------------------


def test_simplex_means_are_equidistant_and_centered():
    for c, d in ((2, 1), (3, 8), (4, 3), (5, 10)):
        means = simplex_means(c, d, separation=6.0)
        assert means.shape == (c, d)
        np.testing.assert_allclose(means.mean(axis=0), 0.0, atol=1e-12)
        for i in range(c):
            for j in range(i + 1, c):
                np.testing.assert_allclose(
                    np.linalg.norm(means[i] - means[j]), 6.0, rtol=1e-12)
    with pytest.raises(ConfigError):
        simplex_means(4, 2, separation=1.0)


def test_simplex_means_two_classes_on_a_line():
    means = simplex_means(2, 1, separation=3.0)
    np.testing.assert_allclose(sorted(means[:, 0]), [-1.5, 1.5], rtol=1e-12)


def test_synth_multiclass_determinism_and_counts():
    a = synth_multiclass(3, 50, [1.0, 1.0, 4.0], separation=6.0, d=8, seed=5)
    b = synth_multiclass(3, 50, [1.0, 1.0, 4.0], separation=6.0, d=8, seed=5)
    c = synth_multiclass(3, 50, [1.0, 1.0, 4.0], separation=6.0, d=8, seed=6)
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)
    assert np.bincount(a.labels).tolist() == [50, 50, 50]
    mixed = synth_multiclass(3, [10, 20, 30], [1.0, 1.0, 1.0],
                             separation=4.0, d=4, seed=0)
    assert np.bincount(mixed.labels).tolist() == [10, 20, 30]


def test_synth_multiclass_statistics():
    n = 4000
    ds = synth_multiclass(3, n, [1.0, 1.0, 4.0], separation=6.0, d=8, seed=7)
    means = simplex_means(3, 8, 6.0)
    for cls, var in ((0, 1.0), (1, 1.0), (2, 4.0)):
        rows = ds.features[ds.labels == cls]
        se = np.sqrt(var / n)
        np.testing.assert_array_less(np.abs(rows.mean(axis=0) - means[cls]),
                                     5.0 * se)
        centered = rows - means[cls]
        assert abs(centered.std() - np.sqrt(var)) / np.sqrt(var) < 0.05


def test_synth_multiclass_validation():
    with pytest.raises(ConfigError):
        synth_multiclass(1, 10, [1.0], separation=1.0, d=2)
    with pytest.raises(ConfigError):
        synth_multiclass(3, 10, [1.0, 1.0], separation=1.0, d=4)
    with pytest.raises(ConfigError):
        synth_multiclass(2, 10, [1.0, 0.0], separation=1.0, d=4)
    with pytest.raises(ConfigError):
        synth_multiclass(2, 10, [1.0, 1.0], separation=0.0, d=4)
    with pytest.raises(ConfigError):
        synth_multiclass(2, [10, 0], [1.0, 1.0], separation=1.0, d=4)


def test_from_gmm_remaps_labels():
    spec = GmmSpec(d=4, eta=1.0, sigma=2.0, k_var=2.0)
    ds = from_gmm(spec, 500, seed=3)
    x, y = sample_gmm(spec, 500, seed=3)
    np.testing.assert_array_equal(ds.features, x)
    np.testing.assert_array_equal(ds.labels, (y + 1) // 2)
    assert set(np.unique(ds.labels)) == {0, 1}


# -- batching --------------------------------------------------------------------


def test_batch_indices_partition_the_dataset():
    idxs = list(batch_indices(103, 20, seed=1, epoch=4))
    assert [len(b) for b in idxs] == [20, 20, 20, 20, 20, 3]
    combined = np.sort(np.concatenate(idxs))
    np.testing.assert_array_equal(combined, np.arange(103))


def test_batch_indices_deterministic_and_epoch_varying():
    a = np.concatenate(list(batch_indices(100, 32, seed=5, epoch=2)))
    b = np.concatenate(list(batch_indices(100, 32, seed=5, epoch=2)))
    c = np.concatenate(list(batch_indices(100, 32, seed=5, epoch=3)))
    d = np.concatenate(list(batch_indices(100, 32, seed=6, epoch=2)))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_batch_indices_edge_cases():
    whole = list(batch_indices(7, 100, seed=0, epoch=1))
    assert len(whole) == 1 and len(whole[0]) == 7
    with pytest.raises(ConfigError):
        list(batch_indices(7, 0, seed=0, epoch=1))
