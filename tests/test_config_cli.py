"""Config resolution (profiles, files, dotted overrides) and the CLI surface."""

import csv
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virlab.attacks import AttackFamily, AttackSpec, LossMode
from virlab.cli import main
from virlab.codec import canonical_json
from virlab.config import (DataSource, ModelConfig, OptimConfig, TrainConfig,
                           config_from_obj, config_to_obj, deep_merge,
                           desk_profile, resolve_config, set_dotted)
from virlab.data import load_csv, save_idx, synth_multiclass
from virlab.errors import ConfigError
from virlab.models import ConvStem, load_checkpoint, save_checkpoint
from virlab.objectives import ObjectiveFamily, ObjectiveSpec
from virlab.reweight import Ablation, WeightFamily, WeightScheme

TINY_SETS = {
    "epochs": "2",
    "eval_every": "2",
    "optimizer.milestones": "[]",
    "dataset.dim": "4",
    "dataset.per_class_n": "20",
    "dataset.eval_per_class_n": "20",
    "attack_train.iterations": "2",
    "model.hidden": "[8]",
    "attack_eval": ('[{"family":"PGD","epsilon":0.5,"step_size":0.125,'
                    '"iterations":3,"loss_mode":"CE","seed":1234}]'),
    "objective.weight_scheme.burn_in_epoch": "1",
}


def set_args(replacements=()):
    pairs = dict(TINY_SETS, **dict(replacements))
    out = []
    for path, value in pairs.items():
        out += ["--set", f"{path}={value}"]
    return out


TINY = set_args()


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    """One CLI training run shared by the eval/attack/report tests."""
    out = tmp_path_factory.mktemp("cli") / "run"
    assert main(["train", "--out", str(out)] + TINY) == 0
    return out


# -- config resolution -----------------------------------------------------------


def test_unknown_keys_rejected_at_every_level(tmp_path, capsys):
    cases = [
        ("bogus", 1, "config has unknown keys"),
        ("optimizer.bogus", 1, "optimizer has unknown keys"),
        ("objective.bogus", 1, "objective has unknown keys"),
        ("objective.weight_scheme.bogus", 1, "weight_scheme has unknown keys"),
        ("attack_train.bogus", 1, "attack_train has unknown keys"),
        ("attack_eval.0.bogus", 1, r"attack_eval\[0\] has unknown keys"),
        ("model.bogus", 1, "model has unknown keys"),
        ("dataset.bogus", 1, r"dataset\[synth\] has unknown keys"),
        # ill-typed values: each names its dotted path
        ("epochs", "abc", r"config\.epochs must be int, got 'abc'"),
        ("epochs", 2.5, r"config\.epochs must be int, got 2\.5"),
        ("seed", 1.9, r"config\.seed must be int, got 1\.9"),
        ("seed", True, r"config\.seed must be int, got True"),
        ("eval_every", "abc", r"config\.eval_every must be int"),
        ("model.hidden", [8, "x"], r"config\.model\.hidden\[1\] must be int"),
        ("optimizer.base_lr", "abc", r"config\.optimizer\.base_lr must be float"),
        ("attack_train.iterations", 2.7,
         r"config\.attack_train\.iterations must be int, got 2\.7"),
        ("attack_train.bounds", [0.0], r"config\.attack_train\.bounds must have 2"),
        ("attack_eval.1.family", "XX", r"config\.attack_eval\[1\]\.family must be one of"),
        ("attack_eval", {}, r"config\.attack_eval must be a list"),
        ("dataset.per_class_n", "abc", r"dataset\[synth\]\.per_class_n must be int"),
        ("dataset.per_class_n", 20.5, r"dataset\[synth\]\.per_class_n must be int"),
    ]
    for path, value, pattern in cases:
        with pytest.raises(ConfigError, match=pattern):
            resolve_config(overrides=[(path, value)])
        rc = main(["train", "--set", f"{path}={json.dumps(value)}",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert re.search(pattern, capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_precedence_profile_file_override(tmp_path):
    cfg = tmp_path / "override.json"
    cfg.write_text(json.dumps({"seed": 3, "batch_size": 32}))
    resolved = resolve_config(config_path=cfg, overrides=[("seed", 5)])
    assert resolved.seed == 5          # --set beats the file
    assert resolved.batch_size == 32   # file beats the profile
    assert resolved.epochs == 30       # profile default survives


def test_profiles_resolve():
    desk = resolve_config()
    assert desk.epochs == 30 and desk.dataset.kind == "synth"
    assert desk.objective.weight_scheme.burn_in_epoch == 18
    paper = resolve_config("paper")
    assert paper.epochs == 115 and paper.dataset.kind == "idx"
    assert paper.optimizer.milestones == (75, 90)
    assert len(paper.attack_eval) == 4
    with pytest.raises(ConfigError, match="unknown profile"):
        resolve_config("lab")


def test_config_round_trips_through_json():
    config = resolve_config()
    echoed = config_from_obj(json.loads(canonical_json(config_to_obj(config))))
    assert echoed == config


# sha256 of canonical_json(config_to_obj(resolve_config(profile))): the
# config.json wire format of each shipped profile, byte for byte.
PROFILE_JSON_SHA256 = {
    "desk": "675235426661410cefd2e4cda94cd09eec7f8382d4666ac37914463a0007adf8",
    "paper": "497bae03420790847a731d431b9a0dd05530508de45e6c2b1eab1accfab0c97f",
}


def test_profile_config_json_is_pinned():
    for profile, digest in PROFILE_JSON_SHA256.items():
        text = canonical_json(config_to_obj(resolve_config(profile)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, profile


_FINITE = {"allow_nan": False, "allow_infinity": False}
# ints stand in for floats as well: the codec keeps them as written
_NONNEG = st.integers(0, 9) | st.floats(0, 1e3, **_FINITE)
_POS = st.integers(1, 9) | st.floats(1e-6, 1e3, **_FINITE)


@st.composite
def _attacks(draw):
    family = draw(st.sampled_from(AttackFamily))
    lo = draw(st.floats(-10, 10, **_FINITE))
    # Each family ascends its own loss (PGD may take KL instead); AttackSpec
    # rejects the rest, and None resolves to the family's own.
    modes = {AttackFamily.PGD: [None, LossMode.CE, LossMode.KL],
             AttackFamily.CW_PGD: [None, LossMode.CW_MARGIN]}.get(
                 family, [None, LossMode.CE])
    return AttackSpec(
        family, epsilon=draw(_NONNEG), step_size=draw(_POS),
        iterations=draw(st.integers(1, 200)),
        loss_mode=draw(st.sampled_from(modes)),
        bounds=draw(st.none() | st.just((lo, lo + draw(_POS)))),
        seed=draw(st.integers(0, 2**64 - 1)),
        start_noise_scale=draw(_NONNEG), spsa_samples=draw(st.integers(2, 512)),
        spsa_perturb=draw(_POS), spsa_lr=draw(_POS))


@st.composite
def _configs(draw):
    milestones = tuple(sorted(draw(st.sets(st.integers(1, 50), max_size=3))))
    conv = draw(st.none() | st.builds(ConvStem, height=st.just(6),
                                      width=st.integers(3, 8),
                                      filters=st.integers(1, 4),
                                      kernel_size=st.integers(1, 3)))
    scheme = WeightScheme(
        draw(st.sampled_from(WeightFamily)), alpha=draw(_POS),
        gamma=draw(st.integers(1, 20) | st.floats(1, 20, **_FINITE)),
        beta=draw(_NONNEG), lambda_g=draw(st.floats(-5, 5, **_FINITE)),
        k_pgd=draw(st.integers(1, 20)), burn_in_epoch=draw(st.integers(0, 100)))
    dataset = DataSource("synth", {
        "num_classes": draw(st.integers(2, 4)), "dim": draw(st.integers(3, 8)),
        "variances": draw(st.lists(_POS, min_size=2, max_size=4)),
        "separation": draw(_POS), "per_class_n": draw(st.integers(1, 500)),
        **draw(st.fixed_dictionaries({}, optional={"seed": st.integers(0, 99)})),
    })
    return TrainConfig(
        objective=ObjectiveSpec(draw(st.sampled_from(ObjectiveFamily)),
                                trade_off=draw(_POS), weight_scheme=scheme,
                                ablation=draw(st.sampled_from(Ablation))),
        attack_train=draw(_attacks()),
        attack_eval=tuple(draw(st.lists(_attacks(), max_size=3))),
        dataset=dataset,
        optimizer=OptimConfig(base_lr=draw(_POS),
                              momentum=draw(st.floats(0, 0.99, **_FINITE)),
                              weight_decay=draw(_NONNEG), milestones=milestones,
                              decay_factor=draw(st.floats(1.5, 20, **_FINITE))),
        model=ModelConfig(hidden=tuple(draw(st.lists(st.integers(1, 64),
                                                     max_size=3))),
                          conv=conv),
        epochs=draw(st.integers(max(milestones, default=0) + 1, 200)),
        batch_size=draw(st.integers(1, 512)), seed=draw(st.integers(0, 2**32)),
        eval_every=draw(st.integers(1, 10)),
        log_weights_every=draw(st.integers(1, 10)))


@settings(max_examples=60, deadline=None)
@given(_configs())
def test_codec_round_trips_generated_configs(config):
    text = canonical_json(config_to_obj(config))
    echoed = config_from_obj(json.loads(text))
    assert echoed == config
    assert canonical_json(config_to_obj(echoed)) == text


def test_deep_merge_semantics():
    base = {"a": {"x": 1, "y": 2}, "list": [1, 2], "keep": 9}
    override = {"a": {"y": 3}, "list": [4]}
    merged = deep_merge(base, override)
    assert merged == {"a": {"x": 1, "y": 3}, "list": [4], "keep": 9}
    assert base["a"]["y"] == 2  # merge never mutates its inputs


def test_set_dotted_paths():
    obj = desk_profile()
    set_dotted(obj, "optimizer.base_lr", 0.5)
    set_dotted(obj, "attack_eval.1.epsilon", 0.25)
    set_dotted(obj, "fresh.nested.leaf", 7)
    assert obj["optimizer"]["base_lr"] == 0.5
    assert obj["attack_eval"][1]["epsilon"] == 0.25
    assert obj["fresh"] == {"nested": {"leaf": 7}}
    with pytest.raises(ConfigError, match="bad list index"):
        set_dotted(obj, "attack_eval.x.epsilon", 0.25)
    with pytest.raises(ConfigError):
        set_dotted(obj, "attack_eval.9", {})


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"b": 1, "a": {"z": [1, 2], "y": None}})
    assert text == '{"a":{"y":null,"z":[1,2]},"b":1}'


def test_data_source_synth_and_gmm_loading():
    src = DataSource("synth", {"num_classes": 2, "dim": 3,
                               "variances": [1.0, 1.0], "separation": 4.0,
                               "per_class_n": 10, "eval_per_class_n": 5})
    train, eval_set = src.load()
    assert len(train) == 20 and len(eval_set) == 10
    assert not np.array_equal(train.features[:10], eval_set.features)
    train2, _ = src.load()
    np.testing.assert_array_equal(train.features, train2.features)

    no_eval = DataSource("synth", {"num_classes": 2, "dim": 3,
                                   "variances": [1.0, 1.0], "separation": 4.0,
                                   "per_class_n": 10})
    assert no_eval.load()[1] is None

    gmm = DataSource("gmm", {"d": 4, "eta": 1.0, "sigma": 2.0, "k_var": 2.0,
                             "n": 30, "eval_n": 10})
    train, eval_set = gmm.load()
    assert len(train) == 30 and len(eval_set) == 10
    assert set(np.unique(train.labels)) <= {0, 1}


def test_data_source_file_kinds(tmp_path):
    ds = synth_multiclass(2, 6, [1.0, 1.0], separation=4.0, d=3, seed=1)
    from virlab.data import save_csv
    path = tmp_path / "train.csv"
    save_csv(ds, path)
    train, eval_set = DataSource("csv", {"path": str(path)}).load()
    assert len(train) == 12 and eval_set is None

    rng = np.random.default_rng(0)
    from virlab.data import Dataset
    pix = Dataset(rng.integers(0, 256, size=(4, 6)) / 255.0,
                  rng.integers(0, 3, size=4))
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    save_idx(pix, ip, lp, rows=2, cols=3)
    train, _ = DataSource("idx", {"images": str(ip), "labels": str(lp)}).load()
    assert train.dim == 6
    with pytest.raises(ConfigError, match="eval_images and eval_labels"):
        DataSource("idx", {"images": str(ip), "labels": str(lp),
                           "eval_images": str(ip)})
    with pytest.raises(ConfigError, match="kind"):
        DataSource("parquet", {})


# -- CLI -------------------------------------------------------------------------


def test_cli_train_writes_artifacts(train_run):
    names = {p.name for p in train_run.iterdir()}
    assert {"config.json", "metrics.csv", "weights.csv", "checkpoint.ckpt",
            "confusion_clean.csv", "confusion_pgd.csv"} <= names
    echoed = json.loads((train_run / "config.json").read_text())
    from virlab.cli import _parse_set
    resolved = resolve_config(overrides=[_parse_set(s) for s in TINY[1::2]])
    assert echoed == config_to_obj(resolved)
    with open(train_run / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["row_kind"] for r in rows] == ["epoch", "epoch", "final", "best"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cli_exit_codes(tmp_path, capsys):
    assert main(["train", "--set", "bogus=1", "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["train", "--set", "oops", "--out", str(tmp_path / "x")]) == 2
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt")]) == 4
    assert "error:" in capsys.readouterr().err
    bad_rate = TINY + ["--set", "optimizer.base_lr=1e155",
                       "--out", str(tmp_path / "boom")]
    assert main(["train"] + bad_rate) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "epoch" in err


def test_cli_train_rejects_pgd_margin_attack_before_writing(tmp_path, capsys):
    out = tmp_path / "run"
    attack = {"family": "PGD", "epsilon": 0.1, "step_size": 0.02,
              "loss_mode": "CW_MARGIN"}
    assert main(["train", "--set", f"attack_eval={json.dumps([attack])}",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "CW_PGD" in err
    assert not out.exists()


def test_cli_named_flags_win_last(tmp_path):
    out = tmp_path / "flags"
    rc = main(["train", "--out", str(out), "--set", "seed=3", "--seed", "7"]
              + TINY)
    assert rc == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["seed"] == 7


def test_cli_eval(train_run, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(train_run / "checkpoint.ckpt"),
               "--out", str(out)] + TINY)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "clean" in printed and "robust[pgd]" in printed
    with open(out / "eval.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert 0.0 <= float(rows[0]["clean_acc"]) <= 1.0
    assert 0.0 <= float(rows[0]["robust_acc_pgd"]) <= 1.0
    assert (out / "confusion_pgd.csv").exists()


def test_cli_attack(train_run, tmp_path, capsys):
    out = tmp_path / "adv.csv"
    rc = main(["attack", "--checkpoint", str(train_run / "checkpoint.ckpt"),
               "--out", str(out)] + TINY)
    assert rc == 0
    assert "wrote 60 adversarial examples" in capsys.readouterr().out
    adv = load_csv(out)
    assert len(adv) == 60 and adv.dim == 4
    rc = main(["attack", "--checkpoint", str(train_run / "checkpoint.ckpt"),
               "--out", str(out), "--index", "5"] + TINY)
    assert rc == 2


def test_cli_theory(tmp_path):
    out = tmp_path / "theory.csv"
    rc = main(["theory", "--k-var", "2.0", "4.0", "--n", "100000",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["risk_minus"]) == pytest.approx(
        0.10793519173010149, rel=1e-9)
    assert float(rows[0]["risk_plus"]) == pytest.approx(
        0.35152444002085825, rel=1e-9)
    assert float(rows[1]["risk_minus"]) == pytest.approx(
        0.04773864258555756, rel=1e-9)
    for row in rows:
        assert row["mc_agrees"] == "True"
        assert row["corollary_holds"] == "True"
        assert abs(float(row["mc_risk_minus"]) - float(row["risk_minus"])) \
            <= 5 * float(row["se_minus"])


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    fast = set_args({"epochs": "1", "eval_every": "1",
                     "dataset.per_class_n": "12",
                     "dataset.eval_per_class_n": "12"})
    rc = main(["sweep", "--betas", "0.007,1.6", "--out", str(out)] + fast)
    assert rc == 0
    assert "swept 2 points (2 ok)" in capsys.readouterr().out
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["beta"] for r in rows] == ["0.007", "1.6"]


def test_cli_report(train_run, capsys):
    rc = main(["report", "--run", str(train_run)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "fig_accuracy.csv" in printed and "fig_class_weights.csv" in printed

    with open(train_run / "fig_accuracy.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # only row_kind=epoch lines survive
    assert set(rows[0]) == {"epoch", "clean_acc", "robust_acc_pgd",
                            "acc_class_0", "acc_class_1", "acc_class_2"}

    with open(train_run / "fig_class_weights.csv", newline="") as fh:
        wrows = list(csv.DictReader(fh))
    assert [r["epoch"] for r in wrows] == ["1", "2"]
    assert float(wrows[0]["mean_weight_class_0"]) == 1.0  # burn-in epoch
    assert float(wrows[1]["mean_weight_class_2"]) > 0.0

    normed = np.loadtxt(train_run / "fig_confusion_clean.csv", delimiter=",",
                        ndmin=2)
    np.testing.assert_allclose(normed.sum(axis=1), 1.0, atol=1e-12)


def test_cli_report_empty_dir(tmp_path, capsys):
    assert main(["report", "--run", str(tmp_path)]) == 4
    assert "error:" in capsys.readouterr().err


METRICS_HEADER = "row_kind,epoch,lr,train_loss,clean_acc,acc_class_0\n"


@pytest.mark.parametrize("text, line", [
    pytest.param("", 1, id="empty"),
    pytest.param("epoch,sample_index,class,prob_true,s_v,s_d,weight\n", 1,
                 id="foreign_header"),
    pytest.param(METRICS_HEADER + "epoch,1,0.1,0.5,0.9,0.9\nepoch,1\n", 3,
                 id="short_row"),
    pytest.param("row_kind,lr,train_loss,clean_acc\nepoch,0.1,0.5,0.9\n", 1,
                 id="no_epoch_column"),
])
def test_cli_report_malformed_metrics(tmp_path, capsys, text, line):
    (tmp_path / "metrics.csv").write_text(text)
    assert main(["report", "--run", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "error:" in err and f"metrics.csv:{line}" in err


@pytest.mark.parametrize("text, line", [
    pytest.param("", 1, id="empty"),
    pytest.param("3,0\n1,x\n", 2, id="non_numeric"),
    pytest.param("3,0\n1,2,0\n", 2, id="ragged"),
    pytest.param("3,0\n1\n", 2, id="short_row"),
])
def test_cli_report_malformed_confusion(tmp_path, capsys, text, line):
    (tmp_path / "metrics.csv").write_text(METRICS_HEADER + "epoch,1,0.1,0.5,0.9,0.9\n")
    (tmp_path / "confusion_clean.csv").write_text(text)
    assert main(["report", "--run", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "error:" in err and f"confusion_clean.csv:{line}" in err


@pytest.mark.parametrize("bad_row", [
    "1,0,x,0.5,,,1.0",  # non-integer class
    "1,0,2,0.5",        # too few fields
])
def test_cli_report_malformed_weights_row(tmp_path, capsys, bad_row):
    (tmp_path / "weights.csv").write_text(
        "epoch,sample_index,class,prob_true,s_v,s_d,weight\n"
        "1,1,0,0.5,,,1.0\n" + bad_row + "\n")
    assert main(["report", "--run", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "error:" in err and "weights.csv:3" in err


def test_cli_train_rejects_gairat_without_step_size_before_writing(tmp_path, capsys):
    # GAIRAT's least-steps probe is a PGD run at the training attack's step
    # size, which an FGSM training attack leaves at 0.
    out = tmp_path / "run"
    assert main(["train", "--epochs", "2", "--set", "optimizer.milestones=[]",
                 "--set", 'attack_train={"family":"FGSM","epsilon":0.1}',
                 "--set", 'objective.weight_scheme={"family":"GAIRAT",'
                          '"burn_in_epoch":1}',
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "weight_scheme.family GAIRAT" in err and "attack_train.step_size" in err
    assert not out.exists()


@pytest.mark.parametrize("command, out_name", [("eval", "eval"),
                                               ("attack", "adv.csv")])
def test_cli_non_finite_checkpoint_exits_3(train_run, tmp_path, capsys,
                                           command, out_name):
    model, epoch, seed = load_checkpoint(train_run / "checkpoint.ckpt")
    model.params["dense0.weight"].data[0, 0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(model, ckpt, epoch=epoch, rng_seed=seed)
    argv = [command, "--checkpoint", str(ckpt), "--out", str(tmp_path / out_name)]
    assert main(argv + TINY) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not (tmp_path / out_name).exists()


def test_family_loss_mode_resolves_and_round_trips():
    cw = {"family": "CW_PGD", "epsilon": 0.1, "step_size": 0.02}
    config = resolve_config(overrides=[("attack_eval", [cw])])
    assert config.attack_eval[0].loss_mode is LossMode.CW_MARGIN
    obj = config_to_obj(config)
    assert obj["attack_eval"][0]["loss_mode"] == "CW_MARGIN"
    assert config_from_obj(obj) == config
