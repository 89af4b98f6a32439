"""Golden byte-identity gate: `virlab train` artifacts pinned by sha256.

Performance work on the autodiff engine must not change a single output
bit. These digests were recorded before any hot-path change; a mismatch
means the arithmetic (or its summation order) moved, not just its speed.
The desk run pins the MLP path; the tiny conv-stem runs on a saved IDX
fixture pin the sliding_patches, matmul and KL backward paths, the CW and
SPSA attacks, the GAIRAT least-steps probe and the final confusion
matrices. GAIRAT counts kappa on a CE-mode PGD walk out of
attack_train.iterations steps: GAIRAT_CE_PGD, whose training attack is
that walk, pins the shared trajectory, and VIR_TRADES, whose training
attack ascends KL, pins the probe run beside it. Both were recorded while
the budget was still a separate ``k_pgd`` key equal to the iterations. ``virlab attack`` on each conv checkpoint pins every attack
family's adversarial examples, KL-mode PGD and multi-iteration SPSA
included.
"""

import hashlib
import json

import numpy as np
import pytest

from virlab.cli import main
from virlab.data import Dataset, save_idx

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
        "confusion_clean.csv":
            "b0d820786f090f8a49c93d5e617e19f48ca1d2436d6459df2d0c621577b1b6d7",
        "confusion_pgd.csv":
            "987282af7aae6cf2079ed11e0759e59ea33763219fe1dac5cdaaa973d7094ef5",
        "confusion_cw_pgd.csv":
            "280644d80978fc257fffd3b1dcd9190dcebb4093479edf9ac311b04c4d7fd234",
        "confusion_fgsm.csv":
            "987282af7aae6cf2079ed11e0759e59ea33763219fe1dac5cdaaa973d7094ef5",
        "confusion_spsa.csv":
            "b0d820786f090f8a49c93d5e617e19f48ca1d2436d6459df2d0c621577b1b6d7",
    },
    "VIR_TRADES": {
        "metrics.csv": "a4eeb265cec06cc53bb26f793a6e45bd987394459d721d5747cbefaf0336d78a",
        "weights.csv": "92d3fc2a1e02047748150d77db8cc86384b5824017795652d7f366ed6ba20020",
        "checkpoint.ckpt": "6abd89d05dd7f0cec4c5aa6e10741b5e4adc6141573e9406a221b2efdcd2fb5b",
        "confusion_clean.csv":
            "ddabe81a2d2fd9849aadfcbe0fd05fae1edbb7da1e66e489717e5b3b0d5acd34",
        "confusion_pgd.csv":
            "b0cc507beb92c3c7630765f7f7d23fdfaa1fde89518292b3b7d02a654512fd2a",
        "confusion_cw_pgd.csv":
            "b0cc507beb92c3c7630765f7f7d23fdfaa1fde89518292b3b7d02a654512fd2a",
        "confusion_fgsm.csv":
            "b0cc507beb92c3c7630765f7f7d23fdfaa1fde89518292b3b7d02a654512fd2a",
        "confusion_spsa.csv":
            "ddabe81a2d2fd9849aadfcbe0fd05fae1edbb7da1e66e489717e5b3b0d5acd34",
    },
    "GAIRAT_CE_PGD": {
        "metrics.csv": "8df1835d1c1ea9709f8f601bd2f0ebb6a732482245c58d1ce8bc184f4f7f1f0b",
        "weights.csv": "18d3dfef9ef8c589aec8f5df913d1d699f7b01190f4ebdb07568803947bce491",
        "checkpoint.ckpt": "cf256d56fe03cc7c0430bdf7289830c63d19dcf0d60ef55ec05eee4612c8a802",
        "confusion_clean.csv":
            "c261129bbf22ce0d97eb8cf28066f4bb8094e35ec5818ebdfd1252c4ea6b7f52",
        "confusion_pgd.csv":
            "8562cfe3368c84ba31eeb6f79c237c388bdbc3bec17a150b74c36a54b79e567a",
        "confusion_cw_pgd.csv":
            "8562cfe3368c84ba31eeb6f79c237c388bdbc3bec17a150b74c36a54b79e567a",
        "confusion_fgsm.csv":
            "8562cfe3368c84ba31eeb6f79c237c388bdbc3bec17a150b74c36a54b79e567a",
        "confusion_spsa.csv":
            "c261129bbf22ce0d97eb8cf28066f4bb8094e35ec5818ebdfd1252c4ea6b7f52",
    },
}

# `virlab attack --index i` on the eval split, one entry per family; SPSA
# takes several iterations so the order of its draws is pinned too.
ATTACKS = {
    "pgd": {"family": "PGD", "epsilon": 0.1, "step_size": 0.04,
            "iterations": 4, "loss_mode": "CE", "bounds": [0.0, 1.0],
            "seed": 1234},
    "pgd_kl": {"family": "PGD", "epsilon": 0.1, "step_size": 0.04,
               "iterations": 4, "loss_mode": "KL", "bounds": [0.0, 1.0],
               "seed": 1234},
    "cw_pgd": {"family": "CW_PGD", "epsilon": 0.1, "step_size": 0.04,
               "iterations": 3, "loss_mode": "CW_MARGIN",
               "bounds": [0.0, 1.0], "seed": 1234},
    "fgsm": {"family": "FGSM", "epsilon": 0.1, "bounds": [0.0, 1.0],
             "seed": 1234},
    "spsa": {"family": "SPSA", "epsilon": 0.1, "iterations": 3,
             "bounds": [0.0, 1.0], "seed": 1234, "spsa_samples": 4,
             "spsa_lr": 0.04},
}

ATTACK_SHA256 = {
    "VIR_AT": {
        "pgd": "1355002d4dd989f27cc0089cb9c11b69732ca929afa53bbb0a17e199a63e2b7e",
        "pgd_kl": "6ab3c19ceb166015cd3a1c9684f9039cd67f58d88163e7accd9b79f16acb4788",
        "cw_pgd": "7c50bec7e865699726d4122c7973bdb8eba6ce75024d6eaab35ae911bc79b44a",
        "fgsm": "34d55db2c9269a5e7e4ba3affc6ac96bb98d7626d723a73300b5525c9aadeef3",
        "spsa": "a9ef3edd1deaa7a445cd2aec5c1f67ca0d3faad386a9e826472abbe1d66eeb53",
    },
    "VIR_TRADES": {
        "pgd": "af5efd1499b2fad8304274b60034b0f117ca1a34c15f0a0d4dd92b3e3e764f45",
        "pgd_kl": "899df809cb032c870901de057ddea46a1529285dbbc306e1538da267e4e337d3",
        "cw_pgd": "908783f2ff353420325dd136a5a85a1251f34c82b8be3f67bbe2ed044489b7fb",
        "fgsm": "89eba862fedf1e2a990b2746bcec7467bc86c64b8a971d184f80d0573c0ea29c",
        "spsa": "7381bf7e1a13edb236ed6d1e0594a16955b157eb716fc79a789868ed78ea47e4",
    },
    "GAIRAT_CE_PGD": {
        "pgd": "776eb1904f2b0bc4c3ee46ee660b9a8282723c9df696232ed277101d2752b4ba",
        "pgd_kl": "85091fe9a8be6d3dfe3cbf99509e4fa41b0e5c91c5b9881fc950d1c330b31c62",
        "cw_pgd": "99f0ddd31ebbc847e4e658614680301ffa286e5715dcc1bad38308c6b1e6d302",
        "fgsm": "b8da3d1389660e8b308306b96fb3ad5a3f66009f3b41f657fb0dac6dc8f2bf4f",
        "spsa": "e2cef887c7ecbf6fe07ccf62052f31efb839ed6b8107de1f577bcc06b4587374",
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


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(run_dir, names) -> dict[str, str]:
    return {name: _sha256(run_dir / name) for name in names}


def test_desk_train_artifacts_are_pinned(tmp_path):
    assert main(["train", "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, DESK_SHA256) == DESK_SHA256


def _set_args(sets: dict) -> list[str]:
    args = []
    for path, value in sets.items():
        args += ["--set", f"{path}={json.dumps(value)}"]
    return args


# Run name -> (objective, weight family, attack_train settings). The
# GAIRAT_CE_PGD run's training attack is strong enough to break samples at
# every step count, so its weights pin each first-miss iteration.
CONV_RUNS = {
    "VIR_AT": ("VIR_AT", "VIR", {"loss_mode": "CE"}),
    "VIR_TRADES": ("VIR_TRADES", "GAIRAT", {"loss_mode": "KL"}),
    "GAIRAT_CE_PGD": ("VIR_AT", "GAIRAT", {"loss_mode": "CE", "epsilon": 0.2,
                                           "step_size": 0.06}),
}


@pytest.fixture(scope="module", params=sorted(CONV_SHA256))
def conv_run(request, tmp_path_factory):
    """(run name, run directory, --set args, exit code) of one conv-stem
    `virlab train`, shared by the tests of that run."""
    name = request.param
    objective, family, attack_train = CONV_RUNS[name]
    tmp_path = tmp_path_factory.mktemp(name)
    paths = {}
    for split, n, seed in (("", 24, 7), ("eval_", 12, 8)):
        paths[f"{split}images"] = str(tmp_path / f"{split}images.idx")
        paths[f"{split}labels"] = str(tmp_path / f"{split}labels.idx")
        save_idx(_fixture(n, seed), paths[f"{split}images"],
                 paths[f"{split}labels"], rows=HEIGHT, cols=WIDTH)
    gairat = {"family": "GAIRAT", "lambda_g": -1.0, "burn_in_epoch": 2}
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
        "objective.weight_scheme": gairat if family == "GAIRAT" else vir,
        "attack_train.iterations": 3,
        **{f"attack_train.{key}": v for key, v in attack_train.items()},
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
    run = tmp_path / "run"
    code = main(["train", "--profile", "paper", "--out", str(run)]
                + _set_args(sets))
    return name, run, sets, code


def test_conv_stem_train_artifacts_are_pinned(conv_run):
    name, run, _, code = conv_run
    assert code == 0
    assert _digests(run, CONV_SHA256[name]) == CONV_SHA256[name]


@pytest.mark.parametrize("attack", list(ATTACKS))
def test_attack_command_output_is_pinned(conv_run, tmp_path, attack):
    name, run, sets, code = conv_run
    assert code == 0
    out = tmp_path / "adv.csv"
    sets = {**sets, "attack_eval": list(ATTACKS.values())}
    assert main(["attack", "--profile", "paper",
                 "--checkpoint", str(run / "checkpoint.ckpt"),
                 "--index", str(list(ATTACKS).index(attack)),
                 "--out", str(out)] + _set_args(sets)) == 0
    assert _sha256(out) == ATTACK_SHA256[name][attack]
