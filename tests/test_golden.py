"""Golden byte-identity gate: `virlab train` artifacts pinned by sha256.

Performance work on the autodiff engine must not change a single output
bit. These digests were recorded before any hot-path change; a mismatch
means the arithmetic (or its summation order) moved, not just its speed.
The desk run pins the MLP path; the tiny conv-stem runs on a saved IDX
fixture pin the sliding_patches, matmul and KL backward paths, the CW and
SPSA attacks and the GAIRAT least-steps probe.
"""

import hashlib
import json

import numpy as np
import pytest

from virlab.cli import main
from virlab.data import Dataset, save_idx

ARTIFACTS = ("metrics.csv", "weights.csv", "checkpoint.ckpt")

DESK_SHA256 = {
    "metrics.csv": "c5e15f0b8b42f784ec51da8b1e543690615ac20c8de4db4e1f481c7082271ff1",
    "weights.csv": "cf390dbd49e09704712a717dd88eeff27142245b322a070eaae645ed5a02b929",
    "checkpoint.ckpt": "19758b4ed9cdb86b8552bbab6194585e13c96a1b00f9cdeda77487c4acf19e0a",
}

CONV_SHA256 = {
    "VIR_AT": {
        "metrics.csv": "f4ffa5e0c601e9464cc3be80ceaf904c6b4b5202fb8f84ee436fc0104c5c505c",
        "weights.csv": "01187efb0ac06ccc0a9d8558ca4d6dcac4ccbb89d8c0f10d340f66c18b41e94f",
        "checkpoint.ckpt": "4a4dbaa87d237f8603e326bb1757e127149f2d715eb4edae76c918410fbd1245",
    },
    "VIR_TRADES": {
        "metrics.csv": "a4eeb265cec06cc53bb26f793a6e45bd987394459d721d5747cbefaf0336d78a",
        "weights.csv": "92d3fc2a1e02047748150d77db8cc86384b5824017795652d7f366ed6ba20020",
        "checkpoint.ckpt": "6abd89d05dd7f0cec4c5aa6e10741b5e4adc6141573e9406a221b2efdcd2fb5b",
    },
}

# 7x6 images (h != w) of three classes, each a bright bar at a class-specific
# row plus uniform noise; quantized to uint8 by save_idx.
HEIGHT, WIDTH = 7, 6


def _fixture(n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(np.random.PCG64(seed))
    labels = np.arange(n) % 3
    images = 0.3 * rng.random((n, HEIGHT, WIDTH))
    for i, label in enumerate(labels):
        images[i, 1 + 2 * label] += 0.6
    return Dataset(np.clip(images, 0.0, 1.0).reshape(n, HEIGHT * WIDTH),
                   labels)


def _digests(run_dir) -> dict[str, str]:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


def test_desk_train_artifacts_are_pinned(tmp_path):
    assert main(["train", "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == DESK_SHA256


@pytest.mark.parametrize("objective", sorted(CONV_SHA256))
def test_conv_stem_train_artifacts_are_pinned(tmp_path, objective):
    paths = {}
    for split, n, seed in (("", 24, 7), ("eval_", 12, 8)):
        paths[f"{split}images"] = str(tmp_path / f"{split}images.idx")
        paths[f"{split}labels"] = str(tmp_path / f"{split}labels.idx")
        save_idx(_fixture(n, seed), paths[f"{split}images"],
                 paths[f"{split}labels"], rows=HEIGHT, cols=WIDTH)
    gairat = {"family": "GAIRAT", "lambda_g": -1.0, "k_pgd": 3,
              "burn_in_epoch": 2}
    vir = {"family": "VIR", "alpha": 7.0, "gamma": 10.0, "beta": 0.007,
           "burn_in_epoch": 2}
    sets = {
        "epochs": 4, "batch_size": 4, "eval_every": 1, "log_weights_every": 1,
        "optimizer.milestones": [], "optimizer.base_lr": 0.1,
        "model.hidden": [6],
        "model.conv": {"height": HEIGHT, "width": WIDTH, "filters": 2,
                       "kernel_size": 3},
        "dataset": {"kind": "idx", **paths},
        "objective.family": objective,
        "objective.weight_scheme": gairat if objective == "VIR_TRADES" else vir,
        "attack_train.iterations": 3,
        "attack_train.loss_mode": "KL" if objective == "VIR_TRADES" else "CE",
        "attack_eval": [
            {"family": "PGD", "epsilon": 0.1, "step_size": 0.04,
             "iterations": 4, "loss_mode": "CE", "bounds": [0.0, 1.0],
             "seed": 1234},
            {"family": "CW_PGD", "epsilon": 0.1, "step_size": 0.04,
             "iterations": 3, "loss_mode": "CW_MARGIN", "bounds": [0.0, 1.0],
             "seed": 1234},
            {"family": "FGSM", "epsilon": 0.1, "bounds": [0.0, 1.0],
             "seed": 1234},
            {"family": "SPSA", "epsilon": 0.1, "iterations": 1,
             "bounds": [0.0, 1.0], "seed": 1234, "spsa_samples": 4},
        ],
    }
    args = ["train", "--profile", "paper", "--out", str(tmp_path / "run")]
    for path, value in sets.items():
        args += ["--set", f"{path}={json.dumps(value)}"]
    assert main(args) == 0
    assert _digests(tmp_path / "run") == CONV_SHA256[objective]
