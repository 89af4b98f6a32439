"""Classifier shapes, deterministic init, the fused forward against the
layered graph, probability helpers, and the checkpoint wire format."""

import itertools
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_mlp
from oracles import (cw_margin_rows, finite_diff_grad, graph_input_gradient,
                     layered_forward)
from virlab import attacks
from virlab.attacks import LossMode
from virlab.cli import main
from virlab.errors import (CheckpointError, ConfigError, NonFiniteError,
                           ShapeError)
from virlab.models import (DTYPES, MAGIC, Arch, Classifier, ConvStem,
                           load_checkpoint, predict_labels, predict_probs,
                           save_checkpoint)
from virlab.objectives import vir_trades_loss
from virlab.tensor import (Tensor, _kl_softmax_dlogits, cross_entropy_rows,
                           kl_divergence, softmax)


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


# -- the fused forward against the layered graph -----------------------------------


ORACLE_MODELS = {
    "mlp": lambda: make_mlp((6, 8, 5, 3), seed=2),
    # 7x6 images (h != w), a hidden dense layer behind the stem ...
    "conv": lambda: Classifier(Arch((5 * 4 * 2, 5, 3), conv=ConvStem(
        height=7, width=6, filters=2, kernel_size=3)), seed=3),
    # ... and a stem feeding the output layer directly.
    "conv_direct": lambda: Classifier(Arch((6 * 5 * 3, 3), conv=ConvStem(
        height=7, width=6, filters=3, kernel_size=2)), seed=4),
}

ORACLE_Y = np.array([0, 2, 1, 2, 0])
ORACLE_W = np.array([0.5, 1.5, 1.0, 0.25, 2.0])


def _vir_trades(model, forward, xa, xb):
    # The objective's own two-pass kernel, run on whichever forward is tested.
    model.forward = forward
    try:
        return vir_trades_loss(model, xa.data, xb.data, ORACLE_Y, 5.0, ORACLE_W)
    finally:
        del model.forward


ORACLE_LOSSES = {
    "ce_rows": lambda model, f, xa, xb: cross_entropy_rows(f(xa), ORACLE_Y).sum(),
    "kl_both_sides": lambda model, f, xa, xb: kl_divergence(
        softmax(f(xa)), softmax(f(xb))).sum(),
    "cw_margin": lambda model, f, xa, xb: cw_margin_rows(f(xa), ORACLE_Y).sum(),
    "trades_two_pass": lambda model, f, xa, xb: (
        cross_entropy_rows(f(xa), ORACLE_Y)
        + 5.0 * (Tensor(ORACLE_W) * kl_divergence(softmax(f(xa)), softmax(f(xb))))
    ).mean(),
    "vir_trades_loss": _vir_trades,
}

# Which parameters require a gradient: "train" all of them, "partial" all
# but the first layer (the stem, or dense0 of the MLP).
GRAD_MODES = ("train", "partial")


def _bits(a):
    return None if a is None else a.view(np.int64)


@pytest.mark.parametrize("mode", GRAD_MODES)
@pytest.mark.parametrize("arch", ORACLE_MODELS)
def test_fused_forward_is_bitwise_the_layered_graph(arch, mode, monkeypatch):
    model = ORACLE_MODELS[arch]()
    first = "conv." if model.arch.conv is not None else "dense0."
    for name, p in model.params.items():
        p.requires_grad = mode == "train" or not name.startswith(first)
    rng = np.random.default_rng(7)
    xs = [Tensor(rng.standard_normal((5, model.arch.input_dim))) for _ in range(2)]

    # With every parameter on, a gradient is only handed to a tensor that
    # asked for one. (A frozen parameter is handed one and drops it.)
    handed = []
    accumulate = Tensor._accumulate

    def spy(self, grad, owned=False):
        handed.append(self.requires_grad)
        accumulate(self, grad, owned)

    if mode == "train":
        monkeypatch.setattr(Tensor, "_accumulate", spy)

    def run(forward, loss):
        model.zero_grad()
        loss(model, forward, *xs).backward()
        return [_bits(p.grad) for p in model.params.values()]

    fused = model.forward(xs[0])
    np.testing.assert_array_equal(
        _bits(fused.data), _bits(layered_forward(model, xs[0]).data))
    for name, loss in ORACLE_LOSSES.items():
        got = run(model.forward, loss)
        want = run(lambda x: layered_forward(model, x), loss)
        for label, g, w in zip(model.params, got, want):
            assert (g is None) == (w is None), (name, label)
            if g is not None:
                np.testing.assert_array_equal(g, w, err_msg=f"{name}: {label}")
        assert any(g is not None for g in got), name
    assert mode != "train" or (handed and all(handed))


def test_forward_rejects_an_input_that_requires_a_gradient():
    # forward is a node over the parameters only: the input's gradient is
    # the attacks' _forward(x, "input"), not the graph's.
    for make in ORACLE_MODELS.values():
        model = make()
        x = Tensor(np.zeros((2, model.arch.input_dim)), requires_grad=True)
        with pytest.raises(ValueError, match="input"):
            model.forward(x)
        assert model.forward(Tensor(x.data))._backward is not None


# The paper's shape: a 28x28 k5 F8 stem, then dense 128-64-10.
PAPER_STEM = ConvStem(height=28, width=28, filters=8, kernel_size=5)
PAPER_ARCH = Arch((PAPER_STEM.out_dim, 128, 64, 10), conv=PAPER_STEM)


def test_forward_without_a_gradient_mode_keeps_nothing():
    # All three modes run the blocked offset-major stem; on random inputs,
    # with nonzero biases, all three give bitwise the logits of the layered
    # graph, which gathers its patches row-major.
    rng = np.random.default_rng(29)
    archs = [make().arch for make in ORACLE_MODELS.values()] + [PAPER_ARCH]
    for arch, dtype in itertools.product(archs, DTYPES):
        model = Classifier(replace(arch, dtype=dtype), seed=6)
        for name, p in model.params.items():
            if name.endswith("bias"):
                p.data[...] = 0.1 * rng.standard_normal(p.data.shape)
        for batch in (1, 3, 64, 130):
            x = rng.standard_normal((batch, arch.input_dim))
            assert model._forward(x)[1] is None
            # The float64 logits are an exact upcast of the graph's.
            want = layered_forward(model, x.astype(dtype)).data.astype(np.float64)
            for grad in (None, "input", "params"):
                np.testing.assert_array_equal(
                    _bits(model._forward(x, grad)[0]), _bits(want),
                    err_msg=f"{arch}, batch {batch}, grad {grad}")


def test_input_mode_keeps_no_stem_patches():
    # Every forward gathers the stem's patches one block of images at a
    # time and drops them; the weight gradient gathers its row-major
    # patches in the backward. So neither an input-gradient nor a
    # parameter-gradient cache keeps row-major [batch * positions, k * k]
    # or offset-major [k * k, batch * positions] patches.
    model = ORACLE_MODELS["conv"]()
    conv = model.arch.conv
    x = np.random.default_rng(3).standard_normal((4, model.arch.input_dim))
    patch_shape = (4 * conv.out_height * conv.out_width, conv.kernel_size ** 2)
    slab_shape = patch_shape[::-1]

    def arrays(obj):
        if isinstance(obj, (tuple, list)):
            return [a for o in obj for a in arrays(o)]
        return [obj] if isinstance(obj, np.ndarray) else []

    for grad in ("input", "params"):
        kept = [a.shape for a in arrays(model._forward(x, grad)[1])]
        assert patch_shape not in kept and slab_shape not in kept, grad


@pytest.mark.parametrize("grad", ["inputs", "param", True, ""])
def test_unknown_gradient_mode_is_rejected(grad):
    model = make_mlp((4, 8, 3), seed=1)
    with pytest.raises(ValueError, match="grad must be"):
        model._forward(np.zeros((2, 4)), grad)


def _tie_row0_classes_1_and_2(model, x):
    """Set the output biases of classes 1 and 2 so that both of row 0's
    logits round to 1.5. Unlike a copied class, the tie is not shared by
    the weights, so the two candidates for the largest other logit have
    different gradients."""
    bias = model.params[f"dense{len(model.arch.layers) - 2}.bias"].data
    s = model._forward(x)[0][0] - bias  # the bias is 0 at init
    bias[1:3] = 1.5 - s[1:3]
    z = model._forward(x)[0]
    assert z[0, 1] == z[0, 2] == 1.5 > z[0, 0]


@pytest.mark.parametrize("mode", list(LossMode))
@pytest.mark.parametrize("arch", ORACLE_MODELS)
def test_attack_input_gradient_is_bitwise_the_graph(arch, mode, monkeypatch):
    model = ORACLE_MODELS[arch]()
    x = np.random.default_rng(13).standard_normal((5, model.arch.input_dim))
    batches = {"random": (model, x, predict_probs(model, 0.5 * x))}

    tied = ORACLE_MODELS[arch]()
    _tie_row0_classes_1_and_2(tied, x)
    batches["tied"] = (tied, x, predict_probs(tied, 0.5 * x))

    # Saturated logits against a one-hot reference on each row's least
    # likely class: the KL gradient of the logits has -0.0 entries, which
    # the graph stores as +0.0.
    big = 1e3 * x
    z = model._forward(big)[0]
    onehot = np.eye(z.shape[1])[np.argmin(z, axis=1)]
    g = _kl_softmax_dlogits(onehot, z)
    assert np.any((g == 0.0) & np.signbit(g))
    batches["negative zero"] = (model, big, onehot)

    for name, (m, xb, reference) in batches.items():
        handed = []  # the logits gradient the layer backward is given

        def spy(cache, g, _m=m):
            handed.append(g.copy())
            return Classifier._backward(_m, cache, g)

        monkeypatch.setattr(m, "_backward", spy)
        got, logits = attacks._input_gradient(m, ORACLE_Y, mode, reference)(xb)
        want_dlogits, want = graph_input_gradient(m, xb, ORACLE_Y, mode, reference)
        np.testing.assert_array_equal(_bits(handed[0]), _bits(want_dlogits),
                                      err_msg=name)
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=name)
        # The logits it hands back, which the least-steps probe reads, are
        # the plain forward's.
        np.testing.assert_array_equal(_bits(logits), _bits(m._forward(xb)[0]),
                                      err_msg=name)


@pytest.fixture(scope="module")
def paper_model():
    return Classifier(PAPER_ARCH, seed=5)


@pytest.mark.parametrize("mode", [LossMode.CE, LossMode.CW_MARGIN])
@pytest.mark.parametrize("batch", [1, 7, 64, 128])
def test_attack_input_gradient_is_bitwise_the_graph_at_paper_shape(
        paper_model, batch, mode):
    # The stem's offset-major input backward against the graph's row-major
    # one, at the shape and batch sizes the attacks run.
    rng = np.random.default_rng(batch)
    x = rng.uniform(0.0, 1.0, size=(batch, paper_model.arch.input_dim))
    y = rng.integers(0, 10, size=batch)
    got, _ = attacks._input_gradient(paper_model, y, mode, None)(x)
    _, want = graph_input_gradient(paper_model, x, y, mode)
    np.testing.assert_array_equal(_bits(got), _bits(want))


def test_predict_probs_rows_are_distributions():
    model = make_mlp((4, 8, 3), seed=1)
    p = predict_probs(model, np.random.default_rng(2).standard_normal((6, 4)))
    assert p.shape == (6, 3)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert p.min() >= 0.0


def test_predictions_raise_on_a_nan_parameter():
    # The forward checks its logits, so no prediction turns NaN logits
    # into NaN probabilities or an arbitrary argmax.
    model = make_mlp((4, 8, 3), seed=1)
    model.params["dense1.weight"].data[0, 0] = np.nan
    x = np.random.default_rng(2).standard_normal((6, 4))
    for predict in (predict_probs, predict_labels):
        with pytest.raises(NonFiniteError, match="logits"):
            predict(model, x)


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
    {"conv": None, "layers": [2, 3], "dtype": "float16"},
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


@pytest.mark.parametrize("field, value", [
    ("epoch", "7"), ("epoch", True), ("epoch", 7.9), ("epoch", None),
    ("rng_seed", "x"), ("rng_seed", 1.5), ("rng_seed", False),
])
def test_checkpoint_rejects_ill_typed_metadata(tmp_path, field, value):
    # A CRC-valid file whose metadata is typed loosely: nothing is coerced.
    meta = {"arch": {"conv": None, "layers": [2, 3]}, "epoch": 0, "rng_seed": None}
    meta[field] = value
    blob = json.dumps(meta).encode()
    body = MAGIC + struct.pack("<Q", len(blob)) + blob
    path = tmp_path / "meta.ckpt"
    path.write_bytes(body + struct.pack("<I", __import__("zlib").crc32(body)))
    with pytest.raises(CheckpointError, match=rf"metadata\.{field} must be int"):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path)]) == 4


@pytest.mark.parametrize("name, shape", [
    (b"dense0.weight", (2**62, 4)),  # the dims' product wraps an int64
    (b"dense0.\xff", (2, 3)),  # the name is not UTF-8
], ids=["huge-dims", "non-utf8-name"])
def test_checkpoint_rejects_a_malformed_parameter_header(tmp_path, name, shape):
    # A CRC-valid file whose parameter header is well framed but malformed.
    meta = json.dumps({"arch": {"conv": None, "layers": [2, 3]}, "epoch": 0,
                       "rng_seed": None}).encode()
    body = (MAGIC + struct.pack("<Q", len(meta)) + meta
            + struct.pack("<Q", len(name)) + name
            + struct.pack("<Q", len(shape)) + struct.pack(f"<{len(shape)}Q", *shape)
            + b"\x00" * 48)
    path = tmp_path / "param.ckpt"
    path.write_bytes(body + struct.pack("<I", __import__("zlib").crc32(body)))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path)]) == 4
