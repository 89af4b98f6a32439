"""Classifier shapes, deterministic init, probability helpers, and the
checkpoint wire format."""

import json
import struct

import numpy as np
import pytest

from conftest import make_mlp
from virlab.cli import main
from virlab.errors import CheckpointError, ConfigError, ShapeError
from virlab.models import (MAGIC, Arch, Classifier, ConvStem, load_checkpoint,
                           predict_probs, save_checkpoint)
from virlab.tensor import Tensor, cross_entropy_rows, finite_diff_grad


def test_arch_validation():
    with pytest.raises(ConfigError):
        Arch((5,))
    with pytest.raises(ConfigError):
        Arch((5, 0, 3))
    stem = ConvStem(height=6, width=6, filters=2, kernel_size=3)
    assert (stem.out_height, stem.out_width, stem.out_dim) == (4, 4, 32)
    with pytest.raises(ConfigError):
        Arch((31, 3), conv=stem)  # dense input must equal stem.out_dim
    with pytest.raises(ConfigError):
        ConvStem(height=2, width=2, filters=1, kernel_size=3)


def test_forward_shapes_and_logit_type():
    model = make_mlp((4, 8, 3), seed=1)
    z = model.forward(np.zeros((5, 4)))
    assert isinstance(z, Tensor)
    assert z.shape == (5, 3)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((5, 3)))
    with pytest.raises(ShapeError):
        model.forward(np.zeros(4))


def test_init_is_seed_deterministic_and_bounded():
    a = make_mlp((4, 8, 3), seed=7)
    b = make_mlp((4, 8, 3), seed=7)
    c = make_mlp((4, 8, 3), seed=8)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    assert any(
        not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params
    )
    w0 = a.params["dense0.weight"].data
    assert np.abs(w0).max() <= 1.0 / np.sqrt(4)
    np.testing.assert_array_equal(a.params["dense0.bias"].data, np.zeros(8))


def test_conv_stem_forward_matches_manual_convolution():
    stem = ConvStem(height=4, width=4, filters=2, kernel_size=3)
    model = Classifier(Arch((stem.out_dim, 3), conv=stem), seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 16))
    kernel = model.params["conv.weight"].data  # [k*k, filters]
    feats = np.empty((2, stem.out_dim))
    for b in range(2):
        img = x[b].reshape(4, 4)
        maps = []
        for i in range(2):
            for j in range(2):
                patch = img[i : i + 3, j : j + 3].reshape(-1)
                maps.append(patch @ kernel)
        feats[b] = np.maximum(np.asarray(maps), 0.0).reshape(-1)
    expected = feats @ model.params["dense0.weight"].data + model.params["dense0.bias"].data
    np.testing.assert_allclose(model.forward(x).data, expected, rtol=1e-12)


def test_conv_model_parameter_gradients_match_oracle():
    stem = ConvStem(height=3, width=3, filters=2, kernel_size=2)
    model = Classifier(Arch((stem.out_dim, 3), conv=stem), seed=5)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 9))
    y = np.array([0, 2])

    def loss_with(name, t):
        saved = model.params[name]
        model.params[name] = t
        try:
            return cross_entropy_rows(model.forward(x), y).mean()
        finally:
            model.params[name] = saved

    for name in model.params:
        p = model.params[name]
        model.zero_grad()
        cross_entropy_rows(model.forward(x), y).mean().backward()
        numeric = finite_diff_grad(lambda t: loss_with(name, t), p.data)
        np.testing.assert_allclose(p.grad, numeric, rtol=1e-5, atol=1e-8)


def test_predict_probs_rows_are_distributions():
    model = make_mlp((4, 8, 3), seed=1)
    p = predict_probs(model, np.random.default_rng(2).standard_normal((6, 4)))
    assert p.shape == (6, 3)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert p.min() >= 0.0


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    stem = ConvStem(height=4, width=4, filters=2, kernel_size=3)
    model = Classifier(Arch((stem.out_dim, 6, 3), conv=stem), seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, epoch=17, rng_seed=42)
    loaded, epoch, rng_seed = load_checkpoint(path)
    assert (epoch, rng_seed) == (17, 42)
    assert loaded.arch == model.arch
    assert set(loaded.params) == set(model.params)
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
    # and the file itself is deterministic
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(model, path2, epoch=17, rng_seed=42)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_none_seed_round_trips(tmp_path):
    model = make_mlp((2, 3), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    _, epoch, rng_seed = load_checkpoint(path)
    assert (epoch, rng_seed) == (0, None)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_unknown_version(tmp_path):
    model = make_mlp((2, 3), seed=0)
    path = tmp_path / "v2.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[: len(MAGIC)] = MAGIC[:-1] + b"9"
    body = bytes(raw[:-4])
    path.write_bytes(body + struct.pack("<I", __import__("zlib").crc32(body)))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    model = make_mlp((2, 3), seed=0)
    path = tmp_path / "t.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(b"")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bitflip_fails_crc(tmp_path):
    model = make_mlp((2, 3), seed=0)
    path = tmp_path / "c.ckpt"
    save_checkpoint(model, path, epoch=1)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_checkpoint_rejects_mismatched_parameters(tmp_path):
    small = make_mlp((2, 3), seed=0)
    big = make_mlp((2, 4, 3), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(small, path)
    raw = path.read_bytes()

    # splice small's parameter section under big's metadata header
    def parts_of(raw_bytes):
        off = len(MAGIC)
        (meta_len,) = struct.unpack("<Q", raw_bytes[off : off + 8])
        head_end = off + 8 + meta_len
        return raw_bytes[:head_end], raw_bytes[head_end:-4]

    path_big = tmp_path / "big.ckpt"
    save_checkpoint(big, path_big)
    head_big, _ = parts_of(path_big.read_bytes())
    _, params_small = parts_of(raw)
    body = head_big + params_small
    spliced = tmp_path / "spliced.ckpt"
    spliced.write_bytes(body + struct.pack("<I", __import__("zlib").crc32(body)))
    with pytest.raises(CheckpointError, match="do not match"):
        load_checkpoint(spliced)


@pytest.mark.parametrize("arch", [
    {"conv": None, "layers": "ab"},
    {"conv": None, "layers": [0, 3]},
    {"conv": None, "layers": [2, 3.5]},
    {"conv": {"height": 4}, "layers": [2, 3]},
    {"conv": None, "layers": [2, 3], "extra": 1},
])
def test_checkpoint_rejects_malformed_arch(tmp_path, arch):
    # A CRC-valid file whose metadata decodes but describes no valid network.
    meta = json.dumps({"arch": arch, "epoch": 0, "rng_seed": None}).encode()
    body = MAGIC + struct.pack("<Q", len(meta)) + meta
    path = tmp_path / "arch.ckpt"
    path.write_bytes(body + struct.pack("<I", __import__("zlib").crc32(body)))
    with pytest.raises(CheckpointError, match="architecture"):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path)]) == 4
