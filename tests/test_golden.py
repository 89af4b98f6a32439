"""Golden byte-identity gate: `virlab train` artifacts pinned by sha256.

Performance work on the autodiff engine must not change a single output
bit. Every digest was last recorded when the attacks' random streams were
rekeyed with SeedSequence, a declared change of output; a mismatch means
the arithmetic (or its summation order) moved, not just its speed.
The desk run pins the MLP path; the tiny conv-stem runs on a saved IDX
fixture pin the stem's blocked, zero-bordered input backward
(``models._stem_input_gradient``), the matmul and KL backward paths, the
CW and SPSA attacks, the GAIRAT least-steps probe and the final
confusion matrices. GAIRAT counts kappa on a CE-mode PGD walk out of
attack_train.iterations steps: GAIRAT_CE_PGD, whose training attack is
that walk, pins the shared trajectory, and VIR_TRADES, whose training
attack ascends KL, pins the probe run beside it. ``virlab attack`` on
each conv checkpoint pins every attack family's adversarial examples,
KL-mode PGD and multi-iteration SPSA included. VIR_AT_F32 pins the same
run computed in float32 (``model.dtype``).
"""

import copy
import hashlib
import json

import numpy as np
import pytest

from virlab.cli import main
from virlab.codec import canonical_json
from virlab.config import config_to_obj, resolve_config
from virlab.data import Dataset, save_idx

DESK_SHA256 = {
    "metrics.csv": "e902bb1c3340d4219bf930653994f9737d07c6b51365c18f371e8fb7a253c141",
    "weights.csv": "37b844484ee69b89aa207c957b8f1f22c4c1b3a990aeba7a6dbec8267e839aae",
    "checkpoint.ckpt": "8b74d0603c4636ce9610b3593a5b57d1fd1bf0ff97d65431f338befec0603d66",
}

CONV_SHA256 = {
    "VIR_AT": {
        "metrics.csv": "ad9f41a38fa0c3d3b32a2b2a409e73915ec6a5b82efa572483c3e01cbe86e900",
        "weights.csv": "b39faa78af5076fe7fd7397a3294e782dac18900aff629b9c6e45a1de93ad7c0",
        "checkpoint.ckpt": "95f961d1995e0e4906397cbe08e9d684f262a5f85924b2c776a95a17a68978ef",
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
        "metrics.csv": "7f1729c3726a9c9341b38ece4e04a796df908bcb6b9817d3ab2bba8a3d942e5c",
        "weights.csv": "d68f49912e2a5d084b79e110caab77ec3c950513135e1f5adef8cc09acec1580",
        "checkpoint.ckpt": "12b66c679856444a376d07455d424473b85260aafca21bce8c54ad3f12cd760a",
        "confusion_clean.csv":
            "ddabe81a2d2fd9849aadfcbe0fd05fae1edbb7da1e66e489717e5b3b0d5acd34",
        "confusion_pgd.csv":
            "f40f0a0ce35866a6af3121f0d820b79ad8ecbd47db9f60ea50b43df82676a259",
        "confusion_cw_pgd.csv":
            "f40f0a0ce35866a6af3121f0d820b79ad8ecbd47db9f60ea50b43df82676a259",
        "confusion_fgsm.csv":
            "ddabe81a2d2fd9849aadfcbe0fd05fae1edbb7da1e66e489717e5b3b0d5acd34",
        "confusion_spsa.csv":
            "ddabe81a2d2fd9849aadfcbe0fd05fae1edbb7da1e66e489717e5b3b0d5acd34",
    },
    "VIR_AT_F32": {
        "metrics.csv": "a857badb43ccf06de993cf6283fb33de1cebfad64e7f68d4416317dacb944135",
        "weights.csv": "f79efaf2c7649f8bcc5b02663162a10394914c8b8646d8025162bb3d652f1836",
        "checkpoint.ckpt": "edad217a963ee1d5eb400711c0d9232c99f4bde3abb278e4a7d49bd4ecc25ddf",
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
    "GAIRAT_CE_PGD": {
        "metrics.csv": "ff98eb5e4309b8a174500b17e23388cb328877c2112841546ad589f9c5efdef2",
        "weights.csv": "6f837713daabeb7712e1e8426672db741a2d4f44c17dff6c999a0a2e82878a61",
        "checkpoint.ckpt": "d3ee36e6044c2d83e0453e1a5267a3c1ed5452d58701e0d5ad9fb94e7279d891",
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
             "step_size": 0.04},
}

ATTACK_SHA256 = {
    "VIR_AT": {
        "pgd": "7b37b4113b57fb520f992e5af4228b39b4c5d7a9fd6a1d595761467698bad402",
        "pgd_kl": "2f682d316115407f59bdd92001d276ca9b1244e8cb85e7413786a7bdacc7c7d0",
        "cw_pgd": "26ebf1e93ac832318923e78a196d730eb85d63f74d5b240e4ea5b81985b2aa2d",
        "fgsm": "0e7e6c656f6adb127af28c22d9973f85bafb60ca6fde46045a047f1377e1f118",
        "spsa": "b1e4988f3f6ae691f24982718b82e4e2fd426f988e37fcb7d55b2074a77548e3",
    },
    "VIR_TRADES": {
        "pgd": "c47efbf804fc034ed2907bf441b7246ab49d97f798591644cc2003cf3d43c89b",
        "pgd_kl": "549c3fc7dbf7f9c86e0717dbc672448aff9b1a5ac2f85b69e8f685dff93b381f",
        "cw_pgd": "19006c1b39ffc476baefdb6c84439d9ed37487ae2d24b377b4a54f6272039fa2",
        "fgsm": "ba53b801ebdc9e08532255d4fbee6d57595191c569c76fcd9a5a37f14644040d",
        "spsa": "e52427f56f20381010aa557c875afc9d6ac309955cbf805be4115f6e5a4e6ced",
    },
    # The same bytes as VIR_AT's: at this size no float32 gradient flips
    # the sign of a step.
    "VIR_AT_F32": {
        "pgd": "7b37b4113b57fb520f992e5af4228b39b4c5d7a9fd6a1d595761467698bad402",
        "pgd_kl": "2f682d316115407f59bdd92001d276ca9b1244e8cb85e7413786a7bdacc7c7d0",
        "cw_pgd": "26ebf1e93ac832318923e78a196d730eb85d63f74d5b240e4ea5b81985b2aa2d",
        "fgsm": "0e7e6c656f6adb127af28c22d9973f85bafb60ca6fde46045a047f1377e1f118",
        "spsa": "b1e4988f3f6ae691f24982718b82e4e2fd426f988e37fcb7d55b2074a77548e3",
    },
    "GAIRAT_CE_PGD": {
        "pgd": "3b08c0e6715cc058b86ac306486915e339951e0151360ac59b0e475b34281c48",
        "pgd_kl": "75724ed9f9ddccdec71886f6a802bc264630603d29ec5875ea5810d113e2d548",
        "cw_pgd": "d5a63fe50282a209d068197619e7eb11864353861186bab273e2078d6d806bf0",
        "fgsm": "1c90ff771a70ab5fbb176ad3be9efeba5c0e0f29de24b3eb3352cfcb69883e3f",
        "spsa": "515e52c893f28c8599114660f7668a9cc600fa991921905302f1a5a6f569e146",
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


# The conv-stem runs' one complete config: every field is set, so no
# profile default reaches these runs (asserted below) and a change to a
# shipped profile cannot move their digests. Each run edits it as
# CONV_RUNS says and fills in its dataset.
CONV_CONFIG = {
    "seed": 0, "epochs": 4, "batch_size": 4, "eval_every": 1,
    "log_weights_every": 1,
    "optimizer": {"base_lr": 0.1, "momentum": 0.9, "weight_decay": 0.0035,
                  "milestones": [], "decay_factor": 10.0},
    "objective": {"family": "AT", "trade_off": 5.0,
                  "weight_scheme": {"family": "VIR", "alpha": 7.0,
                                    "gamma": 10.0, "beta": 0.007,
                                    "lambda_g": -1.0, "burn_in_epoch": 2,
                                    "ablation": "FULL"}},
    "attack_train": {"family": "PGD", "epsilon": 8 / 255,
                     "step_size": 2 / 255, "iterations": 3, "loss_mode": "CE",
                     "bounds": [0.0, 1.0], "seed": 0,
                     "start_noise_scale": 0.001, "spsa_samples": 256,
                     "spsa_perturb": 0.001},
    "attack_eval": [
        {"family": "PGD", "epsilon": 0.1, "step_size": 0.04,
         "iterations": 4, "loss_mode": "CE", "bounds": [0.0, 1.0],
         "seed": 1234},
        {"family": "CW_PGD", "epsilon": 0.1, "step_size": 0.04,
         "iterations": 3, "loss_mode": "CW_MARGIN", "bounds": [0.0, 1.0],
         "seed": 1234},
        {"family": "FGSM", "epsilon": 0.1, "bounds": [0.0, 1.0],
         "seed": 1234},
        {"family": "SPSA", "epsilon": 0.1, "step_size": 0.01, "iterations": 1,
         "bounds": [0.0, 1.0], "seed": 1234, "spsa_samples": 4},
    ],
    "model": {"hidden": [6],
              "conv": {"height": HEIGHT, "width": WIDTH, "filters": 2,
                       "kernel_size": 3},
              "dtype": "float64"},
}

# Run name -> (objective, weight family, attack_train settings, model.dtype).
# The GAIRAT_CE_PGD run's training attack is strong enough to break samples
# at every step count, so its weights pin each first-miss iteration.
# VIR_AT_F32 is VIR_AT computed in float32.
CONV_RUNS = {
    "VIR_AT": ("AT", "VIR", {"loss_mode": "CE"}, "float64"),
    "VIR_AT_F32": ("AT", "VIR", {"loss_mode": "CE"}, "float32"),
    "VIR_TRADES": ("TRADES", "GAIRAT", {"loss_mode": "KL"}, "float64"),
    "GAIRAT_CE_PGD": ("AT", "GAIRAT", {"loss_mode": "CE", "epsilon": 0.2,
                                       "step_size": 0.06}, "float64"),
}


def _write_config(path, config: dict) -> str:
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture(scope="module", params=sorted(CONV_SHA256))
def conv_run(request, tmp_path_factory):
    """(run name, run directory, config, exit code) of one conv-stem
    `virlab train`, shared by the tests of that run."""
    name = request.param
    objective, family, attack_train, dtype = CONV_RUNS[name]
    tmp_path = tmp_path_factory.mktemp(name)
    paths = {}
    for split, n, seed in (("", 24, 7), ("eval_", 12, 8)):
        paths[f"{split}images"] = str(tmp_path / f"{split}images.idx")
        paths[f"{split}labels"] = str(tmp_path / f"{split}labels.idx")
        save_idx(_fixture(n, seed), paths[f"{split}images"],
                 paths[f"{split}labels"], rows=HEIGHT, cols=WIDTH)
    config = copy.deepcopy(CONV_CONFIG)
    config["dataset"] = {"kind": "idx", **paths}
    config["objective"]["family"] = objective
    config["objective"]["weight_scheme"]["family"] = family
    config["attack_train"].update(attack_train)
    config["model"]["dtype"] = dtype
    run = tmp_path / "run"
    code = main(["train", "--config", _write_config(tmp_path / "config.json", config),
                 "--out", str(run)])
    return name, run, config, code


def test_conv_config_is_complete(conv_run, tmp_path):
    # Every field is the file's: the desk and paper profiles resolve it to
    # the same config, the one the run wrote.
    _, run, config, code = conv_run
    assert code == 0
    path = _write_config(tmp_path / "config.json", config)
    resolved = {profile: canonical_json(config_to_obj(resolve_config(profile, path)))
                for profile in ("desk", "paper")}
    assert resolved["desk"] == resolved["paper"]
    assert json.loads(resolved["paper"]) == json.loads((run / "config.json").read_text())


def test_conv_stem_train_artifacts_are_pinned(conv_run):
    name, run, _, code = conv_run
    assert code == 0
    assert _digests(run, CONV_SHA256[name]) == CONV_SHA256[name]


@pytest.mark.parametrize("attack", list(ATTACKS))
def test_attack_command_output_is_pinned(conv_run, tmp_path, attack):
    name, run, config, code = conv_run
    assert code == 0
    out = tmp_path / "adv.csv"
    config = {**config, "attack_eval": list(ATTACKS.values())}
    assert main(["attack",
                 "--config", _write_config(tmp_path / "config.json", config),
                 "--checkpoint", str(run / "checkpoint.ckpt"),
                 "--index", str(list(ATTACKS).index(attack)),
                 "--out", str(out)]) == 0
    assert _sha256(out) == ATTACK_SHA256[name][attack]
