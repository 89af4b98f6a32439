"""The float32 network (``model.dtype``): agreement with a float64 oracle
within a bound derived from float32's unit roundoff and the layer widths,
determinism, the checkpoint round trip and its exactness check, and the
float64 boundary that the losses and attacks see."""

import json
import struct
import zlib

import numpy as np
import pytest

from virlab import attacks
from virlab.attacks import AttackFamily, AttackSpec, LossMode
from virlab.cli import main
from virlab.codec import to_obj
from virlab.config import resolve_config
from virlab.errors import CheckpointError
from virlab.models import (Arch, Classifier, ConvStem, load_checkpoint,
                           save_checkpoint)
from virlab.tensor import (_ce_dlogits, _cw_margin_dlogits, _patch_rows,
                           _patch_scatter, cross_entropy_rows)
from virlab.training import sgd_step, train

# float32's unit roundoff, 2**-24: one rounded operation is off by at most
# U times the magnitude of its exact result.
U = float(np.finfo(np.float32).eps) / 2
# Probabilistic rounding error analysis (Higham and Mary, SIAM J. Sci.
# Comput. 41(5), 2019) treats rounding errors as independent and mean-zero:
# n of them, each at most U|s_t|, sum to at most LAMBDA * U * sqrt(sum s_t**2)
# except with probability 2 exp(-LAMBDA**2 / 2), 3e-14 for LAMBDA = 8.
LAMBDA = 8.0


def _oracle(model: Classifier, x: np.ndarray, d: np.ndarray):
    """A float64 oracle of the float32 ``model`` from its own parameters,
    upcast exactly, with a tolerance on how far the float32 path may stray
    from it. ``d`` is the loss's gradient of the logits that the float32
    path's backward is handed (a float64 function of its own logits, which
    are checked separately). Returns (logits, their tolerance, dx, its
    tolerance, {parameter: (gradient, tolerance)}).

    A tolerance is LAMBDA * sqrt(v) + f: v is the variance that float32
    roundings add, propagated to first order, and f a bound on a relu mask
    that the float32 path may read the other way. Float64's own roundings,
    2**29 times smaller, are ignored. Per layer:
    - the input is rounded once: v = (U x)**2, and so is d: v = (U d)**2;
    - h @ W + b with fan-in n: v = v_h @ W**2 + (n + 1) U**2 (|h|@|W| + |b|)**2,
      each of the n products and the bias rounding a partial sum no larger
      than the sum of their magnitudes; relu passes v on;
    - backward, d @ W.T with fan-out n: v = v_d @ W.T**2 + n U**2
      (|d|@|W.T|)**2 and f = f_d @ |W.T|; where a pre-activation lies
      within its tolerance of 0, f is the whole unmasked value and its
      tolerance;
    - the stem's input gradient rounds filters + kernel**2 times a pixel;
    - a parameter gradient h.T @ d over B rows: v = v_h.T @ d**2
      + h.T**2 @ v_d + B U**2 (|h|.T @ |d|)**2 and f = |h|.T @ f_d.
    """
    p = {k: v.data.astype(np.float64) for k, v in model.params.items()}
    conv = model.arch.conv
    batch = x.shape[0]
    names = [f"dense{i}" for i in range(len(model.arch.layers) - 1)]
    h, v = x, (U * x) ** 2
    if conv:
        names.insert(0, "conv")
        h, v = (_patch_rows(a, conv.height, conv.width, conv.kernel_size)
                for a in (h, v))
    layers = []  # (input, its variance, pre-activation, its tolerance)
    for name in names:
        w, b = p[f"{name}.weight"], p[f"{name}.bias"]
        z = h @ w + b
        vz = v @ w**2 + (w.shape[0] + 1) * U**2 * (np.abs(h) @ np.abs(w) + np.abs(b)) ** 2
        layers.append((h, v, z, LAMBDA * np.sqrt(vz)))
        h, v = np.maximum(z, 0.0), vz
        if name == "conv":
            h, v = h.reshape(batch, conv.out_dim), v.reshape(batch, conv.out_dim)
    logits, logit_tol = layers[-1][2], layers[-1][3]

    vd, fd = (U * d) ** 2, np.zeros(d.shape)
    grads = {}
    for j in reversed(range(len(names))):
        name, (h, vh, _, _) = names[j], layers[j]
        w = p[f"{name}.weight"]
        vw = vh.T @ d**2 + (h**2).T @ vd + h.shape[0] * U**2 * (np.abs(h).T @ np.abs(d)) ** 2
        vb = vd.sum(axis=0) + h.shape[0] * U**2 * np.abs(d).sum(axis=0) ** 2
        grads[f"{name}.weight"] = (h.T @ d, LAMBDA * np.sqrt(vw) + np.abs(h).T @ fd)
        grads[f"{name}.bias"] = (d.sum(axis=0), LAMBDA * np.sqrt(vb) + fd.sum(axis=0))
        if name == "conv":
            k = conv.kernel_size

            def scatter(w, d):
                # w @ d.T, offset-major, with d in the zero-bordered grid.
                grid = np.zeros((batch, conv.height, conv.width, conv.filters))
                grid[:, :conv.out_height, :conv.out_width] = d.reshape(
                    batch, conv.out_height, conv.out_width, conv.filters)
                slabs = w @ grid.reshape(-1, conv.filters).T
                return _patch_scatter(slabs, batch, conv.height, conv.width, k)
            vx = (scatter(w**2, vd)
                  + (conv.filters + k * k) * U**2 * scatter(np.abs(w), np.abs(d)) ** 2)
            return (logits, logit_tol, scatter(w, d),
                    LAMBDA * np.sqrt(vx) + scatter(np.abs(w), fd), grads)
        d_in = d @ w.T
        v_in = vd @ (w.T) ** 2 + w.shape[1] * U**2 * (np.abs(d) @ np.abs(w.T)) ** 2
        f_in = fd @ np.abs(w.T)
        if j == 0:
            return logits, logit_tol, d_in, LAMBDA * np.sqrt(v_in) + f_in, grads
        z, tol = (a.reshape(d_in.shape) for a in layers[j - 1][2:])
        on = z > 0.0
        d, vd = d_in * on, v_in * on
        fd = np.where(np.abs(z) <= tol, np.abs(d_in) + LAMBDA * np.sqrt(v_in) + f_in,
                      f_in * on)
        if names[j - 1] == "conv":
            d, vd, fd = (a.reshape(-1, conv.filters) for a in (d, vd, fd))


def _within(got, want, tol):
    """got agrees with want within tol everywhere, and tol is informative:
    typically a hundredth of the largest value or less."""
    assert got.dtype == np.float64
    excess = np.abs(got - want) - tol
    assert excess.max() <= 0.0, excess.max()
    assert np.median(tol) < 1e-2 * np.abs(want).max()


@pytest.fixture(scope="module")
def paper_f32():
    # The paper's shape: a 28x28 k5 F8 stem, then dense 128-64-10.
    stem = ConvStem(height=28, width=28, filters=8, kernel_size=5)
    return Classifier(Arch((stem.out_dim, 128, 64, 10), conv=stem,
                           dtype="float32"), seed=5)


def _paper_batch(batch):
    rng = np.random.default_rng(batch)
    return rng.uniform(0.0, 1.0, size=(batch, 784)), rng.integers(0, 10, size=batch)


@pytest.mark.parametrize("mode", [LossMode.CE, LossMode.CW_MARGIN])
@pytest.mark.parametrize("batch", [1, 7, 128])
def test_float32_input_gradient_agrees_with_float64_oracle(paper_f32, batch, mode):
    x, y = _paper_batch(batch)
    got_dx, got_z = attacks._input_gradient(paper_f32, y, mode, None)(x)
    d = (_ce_dlogits if mode is LossMode.CE else _cw_margin_dlogits)(got_z, y)
    want_z, z_tol, want_dx, dx_tol, _ = _oracle(paper_f32, x, d)
    _within(got_z, want_z, z_tol)
    _within(got_dx, want_dx, dx_tol)


@pytest.mark.parametrize("batch", [1, 7, 128])
def test_float32_parameter_gradients_agree_with_float64_oracle(paper_f32, batch):
    x, y = _paper_batch(batch)
    paper_f32.zero_grad()
    logits = paper_f32.forward(x)
    cross_entropy_rows(logits, y).sum().backward()
    _, _, _, _, want = _oracle(paper_f32, x, _ce_dlogits(logits.data, y))
    for name, p in paper_f32.params.items():
        assert p.data.dtype == p.grad.dtype == np.float32, name
        grad, tol = want[name]
        excess = np.abs(p.grad.astype(np.float64) - grad) - tol
        assert excess.max() <= 0.0, (name, excess.max())
    paper_f32.zero_grad()


def test_float32_init_rounds_the_float64_draws():
    stem = ConvStem(height=6, width=5, filters=2, kernel_size=3)
    layers = (stem.out_dim, 4, 3)
    a = Classifier(Arch(layers, conv=stem), seed=3)
    b = Classifier(Arch(layers, conv=stem, dtype="float32"), seed=3)
    for name, p in a.params.items():
        np.testing.assert_array_equal(b.params[name].data,
                                      p.data.astype(np.float32))


def _conv_config(dtype, **extra):
    # A 7x6 conv stem on a synthetic 42-feature mixture.
    return resolve_config("paper", overrides=[
        ("dataset", {"kind": "synth", "num_classes": 3, "dim": 42,
                     "variances": [1.0, 1.0, 2.0], "separation": 1.0,
                     "per_class_n": 8, "eval_per_class_n": 4}),
        ("model.conv", {"height": 7, "width": 6, "filters": 2, "kernel_size": 3}),
        ("model.hidden", [5]),
        ("model.dtype", dtype),
        ("epochs", 3), ("batch_size", 8), ("optimizer.milestones", []),
        ("objective.weight_scheme.burn_in_epoch", 1),
        ("attack_train", {"family": "PGD", "epsilon": 0.3, "step_size": 0.1,
                          "iterations": 3, "bounds": None, "seed": 0}),
        ("attack_eval", [{"family": "PGD", "epsilon": 0.3, "step_size": 0.1,
                          "iterations": 3, "seed": 1},
                         {"family": "SPSA", "epsilon": 0.3, "step_size": 0.01,
                          "iterations": 1, "seed": 1, "spsa_samples": 4}]),
        *extra.items()])


def test_two_float32_train_runs_are_byte_identical(tmp_path):
    cfg = _conv_config("float32")
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        model, log = train(cfg, out_dir=str(run))
        assert all(p.data.dtype == np.float32 for p in model.params.values())
    names = sorted(f.name for f in runs[0].iterdir())
    assert "checkpoint.ckpt" in names and "weights.csv" in names
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    assert json.loads((runs[0] / "config.json").read_text())["model"]["dtype"] == "float32"


def test_mlp_trains_in_float32():
    cfg = resolve_config("desk", overrides=[("model.dtype", "float32"),
                                            ("epochs", 4),
                                            ("optimizer.milestones", [])])
    model, log = train(cfg)
    assert all(p.data.dtype == np.float32 for p in model.params.values())
    losses = [r.train_loss for r in log.rows]
    assert all(np.isfinite(losses)) and losses[-1] < losses[0]
    assert log.rows[-1].clean_accuracy > 0.6  # 3 classes: chance is 1/3


def test_sgd_step_keeps_float32():
    model = Classifier(Arch((4, 5, 3), dtype="float32"), seed=0)
    velocity = {}
    for _ in range(2):  # the first step starts the momentum buffer
        for p in model.params.values():
            p.grad = np.full(p.data.shape, 0.5, dtype=np.float32)
        sgd_step(model.params, 0.1, 0.9, 5e-4, velocity)
    for name, p in model.params.items():
        assert p.data.dtype == velocity[name].dtype == np.float32, name


def test_float32_checkpoint_round_trips_bitwise(tmp_path):
    model, _ = train(_conv_config("float32", epochs=1))
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, epoch=1, rng_seed=0)
    loaded, _, _ = load_checkpoint(path)
    assert loaded.arch == model.arch and loaded.arch.dtype == "float32"
    for name, p in model.params.items():
        q = loaded.params[name].data
        assert q.dtype == np.float32
        np.testing.assert_array_equal(q.view(np.uint32), p.data.view(np.uint32))
    x = np.random.default_rng(0).uniform(size=(9, 42))
    np.testing.assert_array_equal(loaded._forward(x)[0].view(np.uint64),
                                  model._forward(x)[0].view(np.uint64))
    # The payload stays float64: only the metadata's dtype key is longer.
    float64_twin = Classifier(Arch(model.arch.layers, model.arch.conv), seed=0)
    save_checkpoint(float64_twin, tmp_path / "f64.ckpt", epoch=1, rng_seed=0)
    extra = len(',"dtype":"float32"')
    assert path.stat().st_size == (tmp_path / "f64.ckpt").stat().st_size + extra


def test_checkpoint_loads_without_drawing_parameters(paper_f32, tmp_path,
                                                     monkeypatch):
    # The payload is the model: loading draws no initial parameters only to
    # overwrite them, so a paper-shape load never builds a PCG64 stream.
    path = tmp_path / "paper.ckpt"
    save_checkpoint(paper_f32, path, epoch=3, rng_seed=5)

    def no_stream(*args, **kwargs):
        raise AssertionError("load_checkpoint drew from PCG64")
    monkeypatch.setattr(np.random, "PCG64", no_stream)
    loaded, epoch, rng_seed = load_checkpoint(path)
    assert (loaded.arch, epoch, rng_seed) == (paper_f32.arch, 3, 5)
    assert list(loaded.params) == list(paper_f32.params)
    for name, p in paper_f32.params.items():
        q = loaded.params[name]
        assert q.data.dtype == np.float32 and q.requires_grad, name
        assert q.data.flags.writeable and q.data.flags.c_contiguous, name
        np.testing.assert_array_equal(q.data.view(np.uint32), p.data.view(np.uint32))


def test_float64_arch_serialises_without_dtype():
    assert to_obj(Arch((4, 3))) == {"layers": [4, 3], "conv": None}
    assert to_obj(Arch((4, 3), dtype="float32"))["dtype"] == "float32"


def _patched(path, name: bytes, value: float):
    """path's checkpoint with the first value of parameter ``name`` replaced
    and the CRC recomputed."""
    raw = bytearray(path.read_bytes()[:-4])
    at = raw.index(name) + len(name)
    (rank,) = struct.unpack_from("<Q", raw, at)
    struct.pack_into("<d", raw, at + 8 + 8 * rank, value)
    return bytes(raw) + struct.pack("<I", zlib.crc32(raw))


@pytest.mark.parametrize("value", [0.1, 1e300], ids=["inexact", "overflow"])
def test_float32_load_rejects_a_value_float32_cannot_hold(tmp_path, value, capsys):
    model = Classifier(Arch((4, 5, 3), dtype="float32"), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_patched(path, b"dense1.weight", value))
    with pytest.raises(CheckpointError, match="'dense1.weight'.*float32"):
        load_checkpoint(bad)
    assert main(["eval", "--checkpoint", str(bad)]) == 4
    assert "dense1.weight" in capsys.readouterr().err
    # A value float32 holds loads, and a float64 model takes the rejected one.
    good = tmp_path / "good.ckpt"
    good.write_bytes(_patched(path, b"dense1.weight", 0.5))
    assert load_checkpoint(good)[0].params["dense1.weight"].data[0, 0] == 0.5
    wide = tmp_path / "wide.ckpt"
    save_checkpoint(Classifier(Arch((4, 5, 3)), seed=0), wide)
    wide.write_bytes(_patched(wide, b"dense1.weight", value))
    assert load_checkpoint(wide)[0].params["dense1.weight"].data[0, 0] == value


@pytest.mark.parametrize("family", list(AttackFamily))
def test_attacks_on_a_float32_model_return_float64_and_leave_it(family):
    model = Classifier(Arch((6, 8, 3), dtype="float32"), seed=2)
    before = {n: p.data.copy() for n, p in model.params.items()}
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((5, 6)), rng.integers(0, 3, size=5)
    knobs = {"step_size": 0.1, "iterations": 2, "spsa_samples": 4}
    spec = AttackSpec(family, epsilon=0.3, **{
        k: v for k, v in knobs.items() if family in attacks.AttackSpec._READ_BY[k]})
    x_adv = attacks.run_attack(model, x, y, spec)
    assert x_adv.dtype == np.float64 and x_adv.shape == x.shape
    assert np.abs(x_adv - x).max() <= 0.3 + 1e-12
    for name, p in model.params.items():
        assert p.data.dtype == np.float32 and p.grad is None
        np.testing.assert_array_equal(p.data, before[name])


def test_cli_rejects_an_unknown_dtype(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--set", "model.dtype=float16", "--out", str(out)]) == 2
    assert "model.dtype" in capsys.readouterr().err
    assert not out.exists()
