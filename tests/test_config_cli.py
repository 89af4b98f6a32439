"""Config resolution (profiles, files, dotted overrides) and the CLI surface."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import virlab
from virlab import training
from virlab.attacks import AttackFamily, AttackSpec, LossMode
from virlab.cli import build_parser, main
from virlab.codec import canonical_json, from_obj, reads
from virlab.config import (PROFILES, DataSource, ModelConfig, OptimConfig,
                           TrainConfig, config_from_obj, config_to_obj,
                           deep_merge, desk_profile, resolve_config, set_dotted)
from virlab.data import Dataset, load_csv, save_csv, save_idx, synth_multiclass
from virlab.errors import ConfigError
from virlab.models import (Arch, Classifier, ConvStem, load_checkpoint,
                           save_checkpoint)
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
        # non-finite floats: rejected before training, never written back
        ("attack_train.epsilon", float("nan"),
         r"config\.attack_train\.epsilon must be finite, got nan"),
        ("optimizer.base_lr", float("inf"),
         r"config\.optimizer\.base_lr must be finite, got inf"),
        ("objective.weight_scheme.beta", float("nan"),
         r"weight_scheme\.beta must be finite, got nan"),
        ("dataset.separation", float("-inf"),
         r"dataset\[synth\]\.separation must be finite, got -inf"),
    ]
    for path, value, pattern in cases:
        with pytest.raises(ConfigError, match=pattern):
            resolve_config(overrides=[(path, value)])
        rc = main(["train", "--set", f"{path}={json.dumps(value)}",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert re.search(pattern, capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("overrides, pattern", [
    # the objective names the loss only; the weight scheme owns every weight
    (["objective.family=VIR_AT"],
     r"config\.objective\.family must be one of \['AT', 'TRADES'\], got 'VIR_AT'"),
    (["objective.family=VIR_TRADES"],
     r"config\.objective\.family must be one of \['AT', 'TRADES'\], got 'VIR_TRADES'"),
    (["objective.ablation=FULL"], r"objective has unknown keys: \['ablation'\]"),
    (["objective.weight_scheme.family=GAIRAT",
      "objective.weight_scheme.ablation=SV_ONLY"],
     "GAIRAT does not read ablation, got SV_ONLY"),
])
def test_one_weighting_decision(tmp_path, capsys, overrides, pattern):
    out = tmp_path / "run"
    args = [a for o in overrides for a in ("--set", o)]
    assert main(["train", *args, "--out", str(out)] + TINY) == 2
    assert re.search(pattern, capsys.readouterr().err)
    assert not out.exists()


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
    "desk": "30f9028d1b9ec378d8d7ce14d03e694387d3fe759a59af4639609bfa98858c5b",
    "paper": "08e5710133327bd3ec9138068d9c46d019aa3622fa81452da2775dc93da96333",
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
def _attacks(draw, seeds=st.integers(0, 2**64 - 1), families=tuple(AttackFamily)):
    family = draw(st.sampled_from(families))
    lo = draw(st.floats(-10, 10, **_FINITE))
    # Each family ascends its own loss (PGD may take KL instead); AttackSpec
    # rejects the rest, and None resolves to the family's own.
    modes = {AttackFamily.PGD: [None, LossMode.CE, LossMode.KL],
             AttackFamily.CW_PGD: [None, LossMode.CW_MARGIN]}.get(
                 family, [None, LossMode.CE])
    # A family takes only the knobs it reads; the rest keep their defaults.
    knobs = dict(step_size=draw(_POS), iterations=draw(st.integers(1, 200)),
                 start_noise_scale=draw(_NONNEG),
                 spsa_samples=draw(st.integers(2, 512)), spsa_perturb=draw(_POS))
    return AttackSpec(
        family, epsilon=draw(_NONNEG),
        loss_mode=draw(st.sampled_from(modes)),
        bounds=draw(st.none() | st.just((lo, lo + draw(_POS)))),
        seed=draw(seeds),
        **{k: v for k, v in knobs.items() if reads(AttackSpec, family, k)})


@st.composite
def _configs(draw):
    milestones = tuple(sorted(draw(st.sets(st.integers(1, 50), max_size=3))))
    conv = draw(st.none() | st.builds(ConvStem, height=st.just(6),
                                      width=st.integers(3, 8),
                                      filters=st.integers(1, 4),
                                      kernel_size=st.integers(1, 3)))
    family = draw(st.sampled_from(WeightFamily))
    # A family takes only the fields it reads; the rest keep their defaults.
    knobs = dict(alpha=draw(_POS),
                 gamma=draw(st.integers(1, 20) | st.floats(1, 20, **_FINITE)),
                 beta=draw(_NONNEG), lambda_g=draw(st.floats(-5, 5, **_FINITE)),
                 ablation=draw(st.sampled_from(Ablation)))
    scheme = WeightScheme(family, burn_in_epoch=draw(st.integers(0, 100)), **{
        k: v for k, v in knobs.items() if reads(WeightScheme, family, k)})
    objective = draw(st.sampled_from(ObjectiveFamily))
    dataset = DataSource("synth", {
        "num_classes": draw(st.integers(2, 4)), "dim": draw(st.integers(3, 8)),
        "variances": draw(st.lists(_POS, min_size=2, max_size=4)),
        "separation": draw(_POS), "per_class_n": draw(st.integers(1, 500)),
        **draw(st.fixed_dictionaries({}, optional={"seed": st.integers(0, 99)})),
    })
    return TrainConfig(
        objective=ObjectiveSpec(objective, weight_scheme=scheme, **(
            {"trade_off": draw(_POS)} if objective is ObjectiveFamily.TRADES else {})),
        # TrainConfig keys the training attack itself; its seed must be 0.
        # GAIRAT's probe walks at its step_size, which FGSM does not read.
        attack_train=draw(_attacks(seeds=st.just(0), families=[
            f for f in AttackFamily
            if family is not WeightFamily.GAIRAT or reads(AttackSpec, f, "step_size")])),
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


@settings(max_examples=30, deadline=None)
@given(_configs())
def test_a_recorded_config_loads_back_over_either_profile(tmp_path_factory, config):
    # A config.json is a full config: loaded with --config over either
    # profile it gives back the config it records, so no profile carries an
    # unread knob at a non-default value into it.
    path = tmp_path_factory.mktemp("recorded") / "config.json"
    path.write_text(canonical_json(config_to_obj(config)))
    for profile in PROFILES:
        assert resolve_config(profile, path) == config, profile


def test_deep_merge_semantics():
    base = {"a": {"x": 1, "y": 2}, "list": [1, 2], "keep": 9}
    override = {"a": {"y": 3}, "list": [4]}
    merged = deep_merge(base, override)
    assert merged == {"a": {"x": 1, "y": 3}, "list": [4], "keep": 9}
    assert base["a"]["y"] == 2  # merge never mutates its inputs


def test_config_file_may_switch_the_dataset_kind(tmp_path):
    # A dataset of another kind replaces the profile's wholesale: the desk
    # profile's synth keys do not leak into an idx dataset.
    assert deep_merge({"d": {"kind": "synth", "dim": 8}},
                      {"d": {"kind": "idx", "images": "i"}}) == {
        "d": {"kind": "idx", "images": "i"}}
    assert deep_merge({"d": {"kind": "synth", "dim": 8}},
                      {"d": {"seed": 1}}) == {
        "d": {"kind": "synth", "dim": 8, "seed": 1}}
    # Another kind keeps the keys it reads, by a file or by --set alike.
    assert deep_merge({"d": {"kind": "synth", "dim": 8, "seed": 2}},
                      {"d": {"kind": "gmm", "d": 4}}) == {
        "d": {"kind": "gmm", "d": 4, "seed": 2}}
    obj = {"d": {"kind": "synth", "dim": 8, "seed": 2}}
    set_dotted(obj, "d.kind", "idx")
    assert obj == {"d": {"kind": "idx"}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"kind": "idx", "images": "i.idx",
                                           "labels": "l.idx"}}))
    resolved = resolve_config("desk", cfg)
    assert resolved.dataset.params == {"images": "i.idx", "labels": "l.idx"}


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
    train, evaluated = no_eval.load()
    assert evaluated is train

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
    assert len(train) == 12 and eval_set is train

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


def _sources_with_no_held_out_split(tmp_path) -> dict[str, dict]:
    """One source of each kind, 4 features wide with at most 3 classes (so
    the tiny CLI checkpoint fits each), naming no held-out split."""
    rows = synth_multiclass(3, 8, [1.0, 1.0, 4.0], separation=4.0, d=4, seed=2)
    save_csv(rows, tmp_path / "train.csv")
    rng = np.random.default_rng(0)
    pix = Dataset(rng.integers(0, 256, size=(12, 4)) / 255.0,
                  rng.integers(0, 3, size=12))
    save_idx(pix, tmp_path / "i.idx", tmp_path / "l.idx", rows=2, cols=2)
    return {
        "synth": {"num_classes": 3, "dim": 4, "variances": [1.0, 1.0, 4.0],
                  "separation": 4.0, "per_class_n": 8, "eval_per_class_n": 0},
        "gmm": {"d": 4, "eta": 1.0, "sigma": 2.0, "k_var": 2.0, "n": 20,
                "eval_n": 0},
        "idx": {"images": str(tmp_path / "i.idx"),
                "labels": str(tmp_path / "l.idx")},
        "csv": {"path": str(tmp_path / "train.csv"), "eval_path": ""},
    }


@pytest.mark.parametrize("kind", ["synth", "gmm", "idx", "csv"])
def test_no_held_out_split_evaluates_the_training_split(train_run, tmp_path, kind):
    params = _sources_with_no_held_out_split(tmp_path)[kind]
    train, evaluated = DataSource(kind, params).load()
    assert evaluated is train

    out = tmp_path / "eval"
    checkpoint = train_run / "checkpoint.ckpt"
    dataset = json.dumps({"kind": kind, **params})
    assert main(["eval", "--checkpoint", str(checkpoint), "--out", str(out)]
                + set_args([("dataset", dataset)])) == 0
    model, _, _ = load_checkpoint(checkpoint)
    specs = resolve_config(overrides=[("attack_eval", json.loads(
        TINY_SETS["attack_eval"]))]).attack_eval
    report = training.evaluate(model, train, list(specs))
    with open(out / "eval.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row == {"clean_acc": repr(report.clean_accuracy),
                   "robust_acc_pgd": repr(report.robust_accuracy["pgd"])}


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


def test_cli_config_file_with_undecodable_bytes_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"epochs": \xff}')
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON")
    assert not out.exists()


_C_LOCALE_CHILD = """
import json, locale, sys
from virlab.codec import write_csv
from virlab.config import resolve_config
config = resolve_config("paper", sys.argv[1])
write_csv(sys.argv[2], [["name", "n"], ["caf\\u00e9", 1]])
write_csv(sys.argv[3], [["name", "n"], ["cafe", 1]])
print(json.dumps([locale.getpreferredencoding(False),
                  config.dataset.params["images"]]))
"""


def test_text_is_read_and_written_as_utf8_under_the_c_locale(tmp_path):
    # Under LC_ALL=C with UTF-8 mode and locale coercion off, open()'s
    # default text encoding is ASCII: a UTF-8 config with a non-ASCII
    # value and a CSV with a non-ASCII cell must not depend on it.
    images = "donn\u00e9es/images-\u00fc.idx"
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps({"dataset": {"images": images}},
                               ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(
                   [os.path.dirname(os.path.dirname(virlab.__file__))]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONIOENCODING", None)
    wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
    done = subprocess.run(
        [sys.executable, "-c", _C_LOCALE_CHILD, str(cfg), str(wide), str(narrow)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    encoding, got = json.loads(done.stdout)
    if encoding.lower().replace("-", "") == "utf8":
        pytest.skip("this platform's C locale is UTF-8")
    assert got == images
    assert wide.read_bytes() == "name,n\ncaf\u00e9,1\n".encode("utf-8")
    assert narrow.read_bytes() == b"name,n\ncafe,1\n"  # ASCII keeps its bytes
    # A data path the locale cannot encode is an I/O failure: exit 4 with
    # an error line, not a traceback.
    out = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-m", "virlab.cli", "train", "--profile", "paper",
         "--config", str(cfg), "--out", str(out)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("error: cannot encode "), done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("row, cause", [
    ("1,nan,2.0", "non-finite feature"),
    ("1,-inf,2.0", "non-finite feature"),
    ("1,1e999,2.0", "non-finite feature"),  # overflows to inf
    ("-1,1.0,2.0", "negative label -1"),
])
def test_cli_train_rejects_a_bad_data_row_at_its_line(tmp_path, capsys, row, cause):
    # A non-finite feature used to surface as a numeric abort at epoch 1,
    # a negative label as a config error naming no file.
    path = tmp_path / "data.csv"
    path.write_text(f"label,x0,x1\n0,1.0,2.0\n{row}\n")
    out = tmp_path / "run"
    assert main(["train", "--epochs", "1", "--set", "optimizer.milestones=[]",
                 "--set", f'dataset={{"kind":"csv","path":"{path}"}}',
                 "--set", "attack_eval=[]", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(f"error: {path}:3: {cause}")
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


def test_cli_attack_names_its_condition_as_eval_does(train_run, tmp_path, capsys):
    # attack used to name a spec alone ("pgd") where eval and metrics.csv
    # number the second PGD "pgd_2".
    two_pgd = json.dumps(json.loads(TINY_SETS["attack_eval"]) * 2)
    argv = ["--checkpoint", str(train_run / "checkpoint.ckpt")] + set_args(
        [("attack_eval", two_pgd)])
    assert main(["eval", *argv]) == 0
    assert "robust[pgd_2]" in capsys.readouterr().out
    assert main(["attack", *argv, "--index", "1",
                 "--out", str(tmp_path / "adv.csv")]) == 0
    assert capsys.readouterr().out.startswith("pgd_2: wrote 60 adversarial")


@pytest.mark.parametrize("flag", ["--seed", "--epochs", "--batch-size"])
@pytest.mark.parametrize("command, out_name", [("eval", "eval"),
                                               ("attack", "adv.csv")])
def test_cli_eval_and_attack_take_no_training_flag(train_run, tmp_path, capsys,
                                                   command, out_name, flag):
    # Neither reads them; `eval --epochs 5` used to fail on the desk
    # profile's milestones instead.
    out = tmp_path / out_name
    with pytest.raises(SystemExit) as exit_:
        main([command, "--checkpoint", str(train_run / "checkpoint.ckpt"),
              "--out", str(out), flag, "1"] + TINY)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_cli_train_and_sweep_take_the_training_flags(command):
    args = build_parser().parse_args(
        [command, "--seed", "1", "--epochs", "2", "--batch-size", "3"])
    assert (args.seed, args.epochs, args.batch_size) == (1, 2, 3)


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


BETA_GRID = "objective.weight_scheme.beta="
SWEEP_FAST = set_args({"epochs": "1", "eval_every": "1",
                       "dataset.per_class_n": "12",
                       "dataset.eval_per_class_n": "12"})


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--grid", BETA_GRID + "0.007,1.6", "--out", str(out)]
              + SWEEP_FAST)
    assert rc == 0
    assert "swept 2 points (2 ok)" in capsys.readouterr().out
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["objective.weight_scheme.beta"] for r in rows] == ["0.007", "1.6"]


def _files(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


def test_cli_sweep_point_is_exactly_a_set_run(tmp_path):
    # A grid value takes the --set route: the same parsing (a bare word is a
    # string), the same codec, the same bytes.
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", "objective.weight_scheme.family=GAIRAT,MAIL",
                 "--grid", "seed=0,3", "--out", str(out)] + TINY) == 0
    points = [(f, s) for f in ("GAIRAT", "MAIL") for s in ("0", "3")]
    for i, (family, seed) in enumerate(points):
        alone = tmp_path / f"train_{i}"
        assert main(["train", "--out", str(alone)] + TINY
                    + ["--set", f"objective.weight_scheme.family={family}",
                       "--set", f"seed={seed}"]) == 0
        files = _files(alone)
        assert {"config.json", "metrics.csv", "weights.csv", "checkpoint.ckpt",
                "confusion_clean.csv", "confusion_pgd.csv"} <= set(files)
        assert _files(out / f"run_{i}") == files


def test_cli_sweep_grid_list_values_are_one_value_each(tmp_path, capsys):
    # An axis splits only at commas outside brackets, braces and JSON
    # strings, so each list is one grid value.
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", "model.hidden=[8],[4,4]", "--out", str(out)]
                + SWEEP_FAST) == 0
    assert "swept 2 points (2 ok)" in capsys.readouterr().out
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["model.hidden"], r["status"]) for r in rows] == [
        ("[8]", "ok"), ("[4,4]", "ok")]


def test_cli_sweep_repeated_grid_values_keep_their_own_run_directories(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", BETA_GRID + "0.007,0.007", "--out", str(out)]
                + SWEEP_FAST) == 0
    with open(out / "sweep.csv", newline="") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["ok", "ok"]
    assert sorted(p.name for p in out.glob("run_*")) == ["run_0", "run_1"]
    assert _files(out / "run_0") == _files(out / "run_1")


def test_cli_sweep_grid_path_given_twice_exits_2(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", "seed=1", "--grid", "seed=2",
                 "--out", str(out)]) == 2
    assert "--grid seed given twice" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_with_no_ok_point_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", BETA_GRID + "-1,-2", "--out", str(out)]) == 2
    assert "beta" in capsys.readouterr().err
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["failed", "failed"]


@pytest.mark.parametrize("grid", [["--grid", BETA_GRID + "nan"],
                                  ["--grid", BETA_GRID + "NaN,-Infinity"]])
def test_cli_sweep_rejects_a_non_finite_grid_value(tmp_path, capsys, grid):
    # A value the config rejects fails its own row; with no ok row the sweep
    # exits 2 on the first error, which names the value's dotted path.
    out = tmp_path / "sweep"
    assert main(["sweep", *grid, "--out", str(out)]) == 2
    assert "config.objective.weight_scheme.beta must be" in capsys.readouterr().err
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["status"] == "failed" for r in rows)
    assert not list(out.glob("run_*"))


@pytest.mark.parametrize("grid, message", [
    (BETA_GRID, "axis objective.weight_scheme.beta is empty"),
    (BETA_GRID + ",", "axis objective.weight_scheme.beta is empty"),
    ("objective.weight_scheme.beta", "--grid expects path=value"),
], ids=["no-value", "only-comma", "no-equals"])
def test_cli_sweep_with_an_empty_grid_axis_exits_2(tmp_path, capsys, grid, message):
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", grid, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
    # size, which FGSM does not read.
    out = tmp_path / "run"
    assert main(["train", "--epochs", "2", "--set", "optimizer.milestones=[]",
                 "--set", 'attack_train={"family":"FGSM","epsilon":0.1}',
                 "--set", 'objective.weight_scheme={"family":"GAIRAT",'
                          '"burn_in_epoch":1}',
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "weight_scheme.family GAIRAT" in err and "attack_train.step_size" in err
    assert not out.exists()


def test_cli_train_gairat_probes_an_spsa_training_attack_with_pgd_knobs(tmp_path):
    # The probe is a CE PGD walk at the SPSA attack's step_size and
    # iterations; the SPSA-only knobs, which PGD does not read, stay behind,
    # so the first post-burn-in batch does not fail after config.json exists.
    out = tmp_path / "run"
    spsa = {"family": "SPSA", "epsilon": 0.5, "step_size": 0.1, "iterations": 2,
            "spsa_samples": 4}
    assert main(["train", "--out", str(out)] + set_args([
        ("attack_train", json.dumps(spsa)),
        ("objective.weight_scheme", '{"family":"GAIRAT","burn_in_epoch":1}'),
    ])) == 0
    with open(out / "weights.csv", newline="") as fh:
        weights = [float(r["weight"]) for r in csv.DictReader(fh) if r["epoch"] == "2"]
    assert weights and min(weights) < 1.0  # GAIRAT's weights, after burn-in


def test_cli_train_rejects_a_knob_the_family_does_not_read(tmp_path, capsys):
    # The desk profile's second eval attack is FGSM, which takes one step
    # of epsilon: an iteration count it would ignore is a config error.
    out = tmp_path / "run"
    assert main(["train", "--epochs", "1", "--set", "optimizer.milestones=[]",
                 "--set", "attack_eval.1.iterations=5", "--out", str(out)]) == 2
    assert ("config.attack_eval[1]: FGSM does not read iterations, got 5"
            in capsys.readouterr().err)
    assert not out.exists()


# The knobs each family reads beyond the ones all four read.
OWN_KNOBS = {"FGSM": set(), "PGD": {"step_size", "iterations", "start_noise_scale"},
             "CW_PGD": {"step_size", "iterations", "start_noise_scale"},
             "SPSA": {"step_size", "iterations", "spsa_samples", "spsa_perturb"}}


def test_config_json_records_each_attack_with_its_own_knobs(tmp_path):
    # config.json states the attacks that ran and nothing else, and still
    # loads back as a full config: eval from it scores as eval from flags.
    attacks = [
        {"family": "PGD", "epsilon": 0.5, "step_size": 0.125, "iterations": 2,
         "seed": 1234},
        {"family": "CW_PGD", "epsilon": 0.5, "step_size": 0.125, "iterations": 2,
         "seed": 1234},
        {"family": "FGSM", "epsilon": 0.5, "seed": 1234},
        {"family": "SPSA", "epsilon": 0.5, "step_size": 0.125, "iterations": 1,
         "spsa_samples": 4, "seed": 1234},
    ]
    sets = set_args([("attack_eval", json.dumps(attacks))])
    run = tmp_path / "run"
    assert main(["train", "--out", str(run)] + sets) == 0
    recorded = json.loads((run / "config.json").read_text())
    for spec in [recorded["attack_train"], *recorded["attack_eval"]]:
        assert set(spec) == ({"family", "epsilon", "bounds", "seed", "loss_mode"}
                             | OWN_KNOBS[spec["family"]]), spec
    checkpoint = str(run / "checkpoint.ckpt")
    assert main(["eval", "--checkpoint", checkpoint,
                 "--out", str(tmp_path / "flags")] + sets) == 0
    assert main(["eval", "--config", str(run / "config.json"),
                 "--checkpoint", checkpoint, "--out", str(tmp_path / "file")]) == 0
    assert ((tmp_path / "file" / "eval.csv").read_bytes()
            == (tmp_path / "flags" / "eval.csv").read_bytes())


def _at(obj, path: str):
    """The value at a dotted path of a config dict or a TrainConfig."""
    for part in path.split("."):
        obj = (obj[int(part)] if part.isdigit() else
               obj[part] if isinstance(obj, dict) else getattr(obj, part))
    return obj


# family value -> (the class it keys, the family, where a profile holds one)
_KEYED = {f.value: (cls, f, where) for cls, families, where in (
    (AttackSpec, AttackFamily, "attack"),
    (WeightScheme, WeightFamily, "objective.weight_scheme"),
    (ObjectiveSpec, ObjectiveFamily, "objective")) for f in families}


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("family", list(_KEYED))
def test_setting_an_attack_family_keeps_the_knobs_it_reads(profile, family):
    # Switching the family of an attack, a weight scheme or an objective
    # drops the base's knobs the new family does not read (and an attack's
    # loss_mode, which it picks); the rest survive. A switch that leaves a
    # needed knob unset fails naming it: FGSM has no step_size to hand to
    # PGD, CW_PGD or SPSA.
    base = PROFILES[profile]()
    cls, new, where = _KEYED[family]
    paths = ([where] if where != "attack" else ["attack_train"] + [
        f"attack_eval.{i}" for i in range(len(base["attack_eval"]))])
    for path in paths:
        # Float knobs doubled off the profile's (and the defaults') values, so
        # an unread one that survived the switch would be rejected.
        old = {k: v * 2 if isinstance(v, float) else v
               for k, v in _at(base, path).items()}
        try:
            config = resolve_config(profile, overrides=[
                *((f"{path}.{k}", v) for k, v in old.items()),
                (f"{path}.family", family)])
        except ConfigError as e:
            assert old["family"] == "FGSM" != family, (path, e)
            assert "needs step_size" in str(e), (path, e)
            continue
        kept = {k: v for k, v in old.items()
                if k not in ("family", "loss_mode") and reads(cls, new, k)}
        assert _at(config, path) == from_obj(cls, {"family": family, **kept}, path)


def test_deep_merge_switching_an_attack_family_merges_over_its_knobs():
    pgd = {"family": "PGD", "epsilon": 0.5, "step_size": 0.1, "iterations": 3,
           "loss_mode": "KL", "bounds": None, "seed": 2}
    merged = deep_merge({"attack_train": pgd},
                        {"attack_train": {"family": "FGSM", "seed": 0}})
    assert merged["attack_train"] == {"family": "FGSM", "epsilon": 0.5,
                                      "bounds": None, "seed": 0}
    # A layer that keeps the family merges key by key, loss_mode included.
    assert deep_merge({"a": pgd}, {"a": {"family": "PGD", "seed": 0}})["a"] == {
        **pgd, "seed": 0}
    # Weight schemes and objectives follow the same rule.
    scheme = {"family": "VIR", "alpha": 7.0, "burn_in_epoch": 3}
    assert deep_merge({"w": scheme}, {"w": {"family": "UNIFORM"}})["w"] == {
        "family": "UNIFORM", "burn_in_epoch": 3}
    obj = {"w": dict(scheme), "o": {"family": "TRADES", "trade_off": 2.0}}
    set_dotted(obj, "w.family", "UNIFORM")
    set_dotted(obj, "o.family", "AT")
    assert obj == {"w": {"family": "UNIFORM", "burn_in_epoch": 3},
                   "o": {"family": "AT"}}


def test_a_uniform_run_records_only_burn_in_and_loads_its_own_config(tmp_path):
    # UNIFORM reads no weight knob but the burn-in; the profile's VIR knobs
    # stay behind, and the run's config.json loads back as it was written.
    run = tmp_path / "run"
    sets = set_args([("objective.weight_scheme.family", "UNIFORM")])
    assert main(["train", "--out", str(run)] + sets) == 0
    recorded = json.loads((run / "config.json").read_text())
    assert recorded["objective"] == {
        "family": "AT", "weight_scheme": {"burn_in_epoch": 1, "family": "UNIFORM"}}
    assert main(["train", "--config", str(run / "config.json"),
                 "--out", str(tmp_path / "again")]) == 0
    assert ((tmp_path / "again" / "config.json").read_bytes()
            == (run / "config.json").read_bytes())


def test_cli_set_family_without_a_needed_knob_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--set", "attack_eval.1.family=PGD",
                 "--out", str(out)]) == 2
    assert "config.attack_eval[1]: PGD needs step_size > 0" in capsys.readouterr().err
    assert not out.exists()


def test_a_run_trained_with_an_fgsm_attack_loads_its_own_config(tmp_path):
    # The recorded FGSM attack_train merges over the profile's PGD one
    # without inheriting PGD's knobs, so train and eval both load it.
    run = tmp_path / "run"
    sets = set_args([("attack_train", '{"family":"FGSM","epsilon":0.3}')])
    assert main(["train", "--out", str(run)] + sets) == 0
    config = str(run / "config.json")
    assert json.loads((run / "config.json").read_text())["attack_train"][
        "family"] == "FGSM"
    assert main(["train", "--config", config, "--out", str(tmp_path / "again")]) == 0
    for name in ("config.json", "metrics.csv", "weights.csv", "checkpoint.ckpt"):
        assert (tmp_path / "again" / name).read_bytes() == (run / name).read_bytes()
    assert main(["eval", "--config", config, "--checkpoint",
                 str(run / "checkpoint.ckpt"), "--out", str(tmp_path / "eval")]) == 0


def test_cli_train_rejects_an_eval_split_the_model_cannot_fit_before_training(
        tmp_path, capsys, monkeypatch):
    # The model's class count comes from the training split; an eval split
    # with a class beyond it is rejected before any batch is attacked.
    train_csv, eval_csv = tmp_path / "train.csv", tmp_path / "eval.csv"
    train_csv.write_text("a,b,label\n0.1,0.2,0\n0.3,0.1,1\n0.5,0.9,2\n")
    eval_csv.write_text("a,b,label\n0.1,0.2,0\n0.7,0.4,3\n")
    attacked = []
    monkeypatch.setattr(training, "run_attack",
                        lambda *a: attacked.append(a) or a[1])
    out = tmp_path / "run"
    dataset = {"kind": "csv", "path": str(train_csv), "eval_path": str(eval_csv)}
    assert main(["train", "--epochs", "1", "--set", "optimizer.milestones=[]",
                 "--set", f"dataset={json.dumps(dataset)}",
                 "--out", str(out)]) == 2
    assert "dataset has 4 classes, model only 3" in capsys.readouterr().err
    assert not out.exists()
    assert attacked == []


@pytest.mark.parametrize("how", ["config", "set"])
def test_cli_train_rejects_a_gairat_k_pgd_before_writing(tmp_path, capsys, how):
    # GAIRAT's budget is attack_train.iterations; the key that used to set
    # it apart is unknown, not silently ignored.
    out = tmp_path / "run"
    scheme = {"family": "GAIRAT", "burn_in_epoch": 1, "k_pgd": 10}
    if how == "config":
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"objective": {"weight_scheme": scheme}}))
        args = ["--config", str(path)]
    else:
        args = ["--set", f"objective.weight_scheme={json.dumps(scheme)}"]
    assert main(["train", "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert "weight_scheme has unknown keys: ['k_pgd']" in err
    assert not out.exists()


def test_cli_train_rejects_spsa_lr_before_writing(tmp_path, capsys):
    # SPSA steps by step_size like every other family; the key that used to
    # set its step apart is unknown, not silently ignored.
    out = tmp_path / "run"
    assert main(["train", "--profile", "paper", "--set",
                 "attack_eval.3.spsa_lr=0.01", "--out", str(out)]) == 2
    assert "attack_eval[3] has unknown keys: ['spsa_lr']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--set", "optimizer.base_lr=0"], "base_lr must be positive, got 0"),
    (["--set", "optimizer.momentum=1"], "momentum must lie in [0, 1), got 1"),
    (["--set", "optimizer.momentum=-0.5"], "momentum must lie in [0, 1), got -0.5"),
    (["--set", "optimizer.weight_decay=-1"], "weight_decay must be >= 0, got -1"),
    (["--set", "optimizer.decay_factor=1"], "decay_factor must exceed 1, got 1"),
    (["--set", "optimizer.milestones=[3,3]"],
     "milestones must increase strictly: (3, 3)"),
    (["--set", "model.hidden=[8,0]"], "hidden widths must be positive, got (8, 0)"),
    (["--set", 'model.conv={"height":3,"width":3,"filters":2,"kernel_size":2}'],
     "conv stem expects 3x3=9 inputs, data has 8"),
    (["--set", 'model.conv={"height":2,"width":4,"filters":0,"kernel_size":2}'],
     "conv stem dimensions must be positive: ConvStem(height=2, width=4, "
     "filters=0, kernel_size=2)"),
    (["--epochs", "0"], "epochs must be >= 1, got 0"),
    (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (["--set", "eval_every=0"], "eval_every must be >= 1, got 0"),
    (["--set", "log_weights_every=-2"], "log_weights_every must be >= 1, got -2"),
    (["--epochs", "20"], "milestones (20, 25) must all be < epochs 20"),
    (["--config", "{file}"], "{file}: config must be a single JSON object"),
    (["--set", "dataset=3"], "config.dataset must be an object with a 'kind' key"),
    (["--set", "attack_eval.9.epsilon=0.1"],
     "attack_eval.9.epsilon: bad list index '9'"),
    # MAIL's logistic slope: a negative one up-weights the safest samples,
    # and zero weights every sample 0.5.
    (["--set", 'objective.weight_scheme={"family":"MAIL","gamma":-10}'],
     "weight_scheme: MAIL's gamma must be positive, got -10"),
    (["--set", 'objective.weight_scheme={"family":"MAIL","gamma":0}'],
     "weight_scheme: MAIL's gamma must be positive, got 0"),
    # A knob the family does not read, on the desk profile's AT and a
    # UNIFORM scheme.
    (["--set", "objective.trade_off=-1"],
     "config.objective: AT does not read trade_off, got -1"),
    (["--set", "objective.weight_scheme.family=UNIFORM",
      "--set", "objective.weight_scheme.alpha=3"],
     "config.objective.weight_scheme: UNIFORM does not read alpha, got 3"),
], ids=["base_lr", "momentum_one", "momentum_negative", "weight_decay",
        "decay_factor", "milestones_order", "hidden", "conv_geometry",
        "conv_dimensions", "epochs", "batch_size", "eval_every",
        "log_weights_every", "milestone_past_epochs", "config_not_object",
        "dataset_not_object", "set_index_out_of_range", "mail_gamma_negative",
        "mail_gamma_zero", "at_trade_off", "uniform_alpha"])
def test_cli_train_rejects_a_bad_config_value_before_writing(tmp_path, capsys,
                                                             args, message):
    # Each raise site of the strict config rules exits 2 with a message that
    # names the offending value, before the run directory exists.
    file = tmp_path / "list.json"
    file.write_text("[1, 2]")
    out = tmp_path / "run"
    args = [a.replace("{file}", str(file)) for a in args]
    assert main(["train", "--out", str(out)] + args) == 2
    assert message.replace("{file}", str(file)) in capsys.readouterr().err
    assert not out.exists()


# The last two run no attack forward: eval has only its clean predictions,
# and a zero budget returns the inputs unchanged, so only the prediction
# that `virlab attack` prints (made before it writes) meets the NaN.
@pytest.mark.parametrize("command, out_name, sets", [
    ("eval", "eval", ()),
    ("attack", "adv.csv", ()),
    ("eval", "eval", [("attack_eval", "[]")]),
    ("attack", "adv.csv", [("attack_eval", '[{"family":"FGSM","epsilon":0}]')]),
], ids=["eval-eval", "attack-adv.csv", "eval-no-attacks", "attack-zero-epsilon"])
def test_cli_non_finite_checkpoint_exits_3(train_run, tmp_path, capsys,
                                           command, out_name, sets):
    model, epoch, seed = load_checkpoint(train_run / "checkpoint.ckpt")
    model.params["dense0.weight"].data[0, 0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(model, ckpt, epoch=epoch, rng_seed=seed)
    argv = [command, "--checkpoint", str(ckpt), "--out", str(tmp_path / out_name)]
    assert main(argv + set_args(sets)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not (tmp_path / out_name).exists()


def test_cli_train_rejects_a_training_attack_seed(tmp_path, capsys):
    # train() keys each batch's attack from (seed, epoch, batch), so a
    # nonzero attack_train.seed would be silently ignored.
    out = tmp_path / "run"
    assert main(["train", "--set", "attack_train.seed=7", "--out", str(out)]
                + TINY) == 2
    err = capsys.readouterr().err
    assert "attack_train.seed must be 0, got 7" in err
    assert "keyed from seed" in err
    assert not out.exists()


ONE_EPOCH = ["--epochs", "1", "--set", "optimizer.milestones=[]"]


@pytest.mark.parametrize("argv, message", [
    (["train", *ONE_EPOCH, "--seed", "-3"], "config: seed must be >= 0, got -3"),
    (["train", *ONE_EPOCH, "--set", "dataset.seed=-2"],
     "dataset[synth].seed must be >= 0, got -2"),
    (["train", *ONE_EPOCH, "--set", "dataset.eval_seed=-5"],
     "dataset[synth].eval_seed must be >= 0, got -5"),
    (["train", *ONE_EPOCH, "--set",
      'attack_eval=[{"family":"FGSM","epsilon":0.1,"seed":-3}]'],
     "config.attack_eval[0]: seed must be >= 0, got -3"),
    (["sweep", "--seed", "-3"], "config: seed must be >= 0, got -3"),
    (["theory", "--seed", "-1", "--n", "20000"], "seed must be >= 0, got -1"),
    (["train", *ONE_EPOCH, "--set", "dataset.eval_per_class_n=-5"],
     "dataset[synth].eval_per_class_n must be >= 0, got -5"),
    (["train", *ONE_EPOCH, "--set", "dataset=" + json.dumps(
        {"kind": "gmm", "d": 4, "eta": 1.0, "sigma": 2.0, "k_var": 2.0,
         "n": 20, "eval_n": -3})],
     "dataset[gmm].eval_n must be >= 0, got -3"),
], ids=["train-seed", "dataset-seed", "dataset-eval-seed", "attack-eval-seed",
        "sweep-seed", "theory-seed", "synth-eval-size", "gmm-eval-size"])
def test_cli_negative_seed_exits_2_before_writing(tmp_path, capsys, argv, message):
    # numpy's seeding rejects a negative seed only when a stream is drawn,
    # which for an eval attack is after config.json is written. A negative
    # held-out size used to mean "no held-out split", so the run scored
    # its training split and exited 0.
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err
    assert not out.exists()


@pytest.mark.parametrize("command, out_name", [("eval", "eval"),
                                               ("attack", "adv.csv")])
@pytest.mark.parametrize("layers, mismatch", [
    ((4, 8, 2), "dataset has 3 classes, model only 2"),
    ((5, 8, 3), "dataset has 4 features, model takes 5"),
])
def test_cli_checkpoint_that_does_not_fit_the_data_exits_2(
        tmp_path, capsys, command, out_name, layers, mismatch):
    ckpt = tmp_path / "other.ckpt"
    save_checkpoint(Classifier(Arch(layers), seed=0), ckpt)
    argv = [command, "--checkpoint", str(ckpt), "--out", str(tmp_path / out_name)]
    assert main(argv + TINY) == 2
    assert mismatch in capsys.readouterr().err
    assert not (tmp_path / out_name).exists()


def test_family_loss_mode_resolves_and_round_trips():
    cw = {"family": "CW_PGD", "epsilon": 0.1, "step_size": 0.02}
    config = resolve_config(overrides=[("attack_eval", [cw])])
    assert config.attack_eval[0].loss_mode is LossMode.CW_MARGIN
    obj = config_to_obj(config)
    assert obj["attack_eval"][0]["loss_mode"] == "CW_MARGIN"
    assert config_from_obj(obj) == config
