"""Bounded-memory attacks and predictions: a split runs in chunks of
``models._chunk_rows`` rows, bitwise the split run as one chunk, with each
row's randomness keyed by its global index."""

import json
import tracemalloc

import numpy as np
import pytest

from virlab import models
from virlab.attacks import (AttackFamily, AttackSpec, LossMode, min_pgd_steps,
                            run_attack)
from virlab.cli import main
from virlab.data import Dataset, load_idx, save_idx
from virlab.errors import ShapeError
from virlab.models import (Arch, Classifier, ConvStem, _chunk_rows,
                           predict_labels, predict_probs, save_checkpoint)
from virlab.training import _confusion, condition_names, evaluate

PAPER_STEM = ConvStem(height=28, width=28, filters=8, kernel_size=5)


def paper_model(dtype: str) -> Classifier:
    """The paper's network: a 28x28 k5 F8 stem, then dense 128-64-10."""
    return Classifier(Arch((PAPER_STEM.out_dim, 128, 64, 10), conv=PAPER_STEM,
                           dtype=dtype), seed=5)


def paper_split(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 784))


def test_rows_per_forward_follow_the_widest_activation():
    # The paper stem's patch row is 24 * 24 * 25 = 14,400 elements: 145 rows
    # fit the budget, 128 is the largest multiple of 64 below.
    for dtype in ("float64", "float32"):
        assert _chunk_rows(paper_model(dtype).arch) == 128
    assert _chunk_rows(Arch((8, 64, 64, 3))) == 32_768  # the desk MLP
    golden = ConvStem(height=7, width=6, filters=2, kernel_size=3)
    assert _chunk_rows(Arch((golden.out_dim, 6, 3), conv=golden)) == 11_648
    # A layer too wide for 64 rows still gets 64.
    assert _chunk_rows(Arch((1 << 20, 3))) == 64


GRADIENT = dict(epsilon=0.1, step_size=0.04, iterations=3, seed=7)
CHUNKED_RUNS = {
    "fgsm": AttackSpec(AttackFamily.FGSM, epsilon=0.1, seed=7),
    "pgd": AttackSpec(AttackFamily.PGD, **GRADIENT),
    "pgd_kl": AttackSpec(AttackFamily.PGD, loss_mode=LossMode.KL, **GRADIENT),
    "cw_pgd": AttackSpec(AttackFamily.CW_PGD, **GRADIENT),
    "spsa": AttackSpec(AttackFamily.SPSA, epsilon=0.1, step_size=0.01,
                       iterations=1, spsa_samples=4, seed=7),
}


def _outputs(model, x, y) -> dict[str, np.ndarray]:
    out = {name: run_attack(model, x, y, spec)
           for name, spec in CHUNKED_RUNS.items()}
    out["min_pgd_steps.x_adv"], out["min_pgd_steps.kappa"] = min_pgd_steps(
        model, x, y, CHUNKED_RUNS["pgd"])
    out["predict_probs"] = predict_probs(model, x)
    return out


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_chunked_split_is_bitwise_the_split_as_one_chunk(dtype, monkeypatch):
    # 300 rows at 128 rows per forward: chunks of 128, 128 and a ragged 44.
    # Start noise is on, so rows 128 onward must draw the noise and SPSA
    # streams of their global index, not of their place in the chunk.
    model = paper_model(dtype)
    x = paper_split(300)
    y = predict_labels(model, x)  # every row starts classified correctly
    assert _chunk_rows(model.arch) == 128
    chunked = _outputs(model, x, y)
    monkeypatch.setattr(models, "_CHUNK_ELEMENTS", 1 << 40)
    assert _chunk_rows(model.arch) > len(x)
    whole = _outputs(model, x, y)
    for name, want in whole.items():
        got = chunked[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        if name not in ("predict_probs", "min_pgd_steps.kappa"):
            assert not np.array_equal(got, x), f"{name} did not move"
    kappa = chunked["min_pgd_steps.kappa"]
    assert len(np.unique(kappa)) > 1, "kappa takes one value: nothing pinned"


@pytest.fixture
def forward_rows(monkeypatch):
    """The row counts of every Classifier._forward call."""
    seen = []
    original = Classifier._forward

    def counting(self, x, grad=None):
        seen.append(np.shape(x)[0])
        return original(self, x, grad)
    monkeypatch.setattr(Classifier, "_forward", counting)
    return seen


CAP_SPECS = [
    {"family": "PGD", "epsilon": 0.1, "step_size": 0.04, "iterations": 2,
     "loss_mode": "KL", "bounds": [0.0, 1.0], "seed": 3},
    {"family": "CW_PGD", "epsilon": 0.1, "step_size": 0.04, "iterations": 1,
     "loss_mode": "CW_MARGIN", "bounds": [0.0, 1.0], "seed": 3},
    {"family": "FGSM", "epsilon": 0.1, "bounds": [0.0, 1.0], "seed": 3},
    {"family": "SPSA", "epsilon": 0.1, "step_size": 0.01, "iterations": 1,
     "bounds": [0.0, 1.0], "seed": 3, "spsa_samples": 2},
]


def test_evaluate_forwards_at_most_the_rows_per_forward(forward_rows):
    model = paper_model("float32")
    x = paper_split(200)
    evaluate(model, Dataset(x, np.arange(200) % 10),
             [AttackSpec(**spec) for spec in CAP_SPECS])
    assert max(forward_rows) == _chunk_rows(model.arch) == 128


def test_attack_command_forwards_at_most_the_rows_per_forward(
        forward_rows, tmp_path):
    model = paper_model("float32")
    save_checkpoint(model, tmp_path / "m.ckpt")
    n = 200
    paths = {"images": str(tmp_path / "images.idx"),
             "labels": str(tmp_path / "labels.idx")}
    save_idx(Dataset(paper_split(n), np.arange(n) % 10), paths["images"],
             paths["labels"], rows=28, cols=28)
    for index in range(len(CAP_SPECS)):
        forward_rows.clear()
        assert main(["attack", "--profile", "paper",
                     "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--index", str(index), "--out", str(tmp_path / "adv.csv"),
                     "--set", "dataset=" + json.dumps({"kind": "idx", **paths}),
                     "--set", "attack_eval=" + json.dumps(CAP_SPECS)]) == 0
        assert forward_rows and max(forward_rows) <= 128, CAP_SPECS[index]


def test_evaluate_memory_stays_flat_as_the_split_grows(tmp_path):
    # evaluate reads, attacks and predicts one chunk at a time, so the only
    # split-sized arrays it makes are per-row labels and predictions. Growing
    # the split from 256 to 1024 rows may add at most 64 bytes per added row
    # to the peak, 8 float64 per row: a split-sized float64 input or x_adv
    # (784 per row) would break that bound 98 times over. It holds for a
    # split held as float64 and for one held as IDX bytes (``save_idx``
    # then ``load_idx``). Each split's peak is the highest of three
    # evaluates: the two attack threads' stem-gradient peaks do not always
    # overlap, and one call that misses the overlap reads about 0.8 MB low.
    model = paper_model("float32")
    specs = [AttackSpec(AttackFamily.PGD, epsilon=8 / 255, step_size=2 / 255,
                        iterations=2, bounds=(0.0, 1.0), seed=1234),
             AttackSpec(AttackFamily.FGSM, epsilon=8 / 255, bounds=(0.0, 1.0),
                        seed=1234)]
    bound = (1024 - 256) * 64
    for held in ("float64", "idx"):
        splits = {}
        for n in (64, 256, 1024):
            split = Dataset(paper_split(n, seed=n), np.arange(n) % 10)
            if held == "idx":
                images, labels = tmp_path / f"i{n}", tmp_path / f"l{n}"
                save_idx(split, images, labels, rows=28, cols=28)
                split = load_idx(images, labels)
            splits[n] = split
        peaks = {}
        tracemalloc.start()
        try:
            for n, split in splits.items():  # the 64-row runs warm up
                peaks[n] = 0
                for _ in range(3):
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    evaluate(model, split, specs)
                    peaks[n] = max(peaks[n], tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1024] - peaks[256] <= bound, (
            f"{held}: peak grew {(peaks[1024] - peaks[256]) / 1e3:.1f} KB from "
            f"256 to 1024 rows, bound {bound / 1e3:.1f} KB")


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_streamed_evaluate_is_the_array_path(dtype):
    # 300 rows, chunks of 128, 128 and 44. Each family's x_adv, streamed
    # chunk by chunk to a sink from a Dataset (float64 or IDX bytes), is
    # bitwise the array path's, and evaluate's confusions are those of
    # predicting the whole x_adv array.
    model = paper_model(dtype)
    pixels = np.random.default_rng(3).integers(0, 256, size=(300, 784),
                                               dtype=np.uint8)
    x = pixels / 255.0
    y = predict_labels(model, x)
    datasets = {"float64": Dataset(x, y), "idx": Dataset.from_pixels(pixels, y)}
    specs = list(CHUNKED_RUNS.values())
    predictions = [predict_labels(model, x)]
    for spec in specs:
        x_adv = run_attack(model, x, y, spec)
        predictions.append(predict_labels(model, x_adv))
        for held, dataset in datasets.items():
            starts, parts = [], []

            def sink(start, part):
                starts.append(start)
                parts.append(part)
            assert run_attack(model, dataset, y, spec, sink=sink) is None
            assert starts == [0, 128, 256]
            assert np.concatenate(parts).tobytes() == x_adv.tobytes(), (spec, held)
    want = dict(zip(["clean", *condition_names(specs)], predictions))
    for held, dataset in datasets.items():
        confusions = evaluate(model, dataset, specs).confusions
        assert list(confusions) == list(want)
        for name, pred in want.items():
            assert np.array_equal(confusions[name], _confusion(y, pred, 10)), (
                held, name)


@pytest.mark.parametrize("grad", [None, "input", "params"])
def test_no_forward_holds_whole_chunk_patches(grad):
    # Every forward gathers the stem's patches one block of images at a
    # time. At 128 float32 paper rows the whole chunk's offset-major patches,
    # [25, 73,728], would be 7.4 MB on their own; the forward's peak, with
    # its output and the cache it keeps, stays below.
    model = paper_model("float32")
    x = paper_split(128)
    conv = model.arch.conv
    whole = conv.kernel_size ** 2 * 128 * conv.out_height * conv.out_width * 4
    model._forward(x, grad)  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model._forward(x, grad)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < whole, f"peak {peak / 1e6:.1f} MB, bound {whole / 1e6:.1f} MB"



@pytest.mark.parametrize("x", [np.zeros((0, 783)), np.zeros(784), np.zeros(())],
                         ids=["no-rows-wrong-width", "one-dim", "scalar"])
def test_a_malformed_split_is_a_shape_error_before_any_chunk(x):
    # A split of no rows runs no chunk, so the shape is checked up front.
    model = paper_model("float64")
    with pytest.raises(ShapeError):
        predict_probs(model, x)
    with pytest.raises(ShapeError):
        run_attack(model, x, np.zeros(x.shape[:1], dtype=int),
                   CHUNKED_RUNS["fgsm"])
