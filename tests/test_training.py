"""Optimizer, schedule, evaluation, the training loop, and sweeps."""

import csv
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import make_mlp
from virlab import attacks, training
from virlab.attacks import AttackFamily, AttackSpec
from virlab.cli import _parse_value
from virlab.codec import write_csv
from virlab.config import OptimConfig, config_from_obj, resolve_config
from virlab.data import Dataset
from virlab.errors import ConfigError, NonFiniteError
from virlab.models import Classifier
from virlab.objectives import vir_at_loss
from virlab.reweight import WEIGHT_CSV_HEADER
from virlab.tensor import Tensor
from virlab.training import (EvalReport, MetricsLog, MetricsRow,
                             _train_attack_spec, condition_names, evaluate,
                             lr_at, sgd_step, sweep, train, write_confusions)

PGD_EVAL = {"family": "PGD", "epsilon": 0.5, "step_size": 0.125,
            "iterations": 5, "loss_mode": "CE", "seed": 1234}


def tiny_config(extra=()):
    """Desk profile shrunk to a couple of seconds of work."""
    base = [
        ("epochs", 2),
        ("eval_every", 2),
        ("optimizer.milestones", []),
        ("dataset.dim", 4),
        ("dataset.per_class_n", 25),
        ("dataset.eval_per_class_n", 25),
        ("attack_train.iterations", 3),
        ("model.hidden", [12]),
        ("attack_eval", [dict(PGD_EVAL)]),
    ]
    return resolve_config(overrides=base + list(extra))


# -- seeds and optimizer ---------------------------------------------------------


def test_train_attack_seeds_are_distinct_and_repeat():
    # Batch b of epoch e attacks with a seed spawned from the config seed at
    # (e, b): distinct over the grid, 64-bit, and the same on a second call.
    configs = [resolve_config(overrides=[("seed", s)]) for s in range(4)]

    def seeds():
        return [_train_attack_spec(c, e, b).seed for c in configs
                for e in range(1, 9) for b in range(8)]
    first = seeds()
    assert len(set(first)) == 4 * 8 * 8
    assert all(isinstance(v, int) and 0 <= v < 2**64 for v in first)
    assert seeds() == first


def test_sgd_step_momentum_arithmetic():
    p = Tensor([1.0])
    p.grad = np.array([0.0])
    velocity = {"w": np.array([1.0])}
    sgd_step({"w": p}, lr=0.1, momentum=0.9, weight_decay=0.0,
             velocity=velocity)
    assert p.data[0] == 1.0 - 0.09
    assert velocity["w"][0] == 0.9


def test_sgd_step_weight_decay_folds_into_gradient():
    p = Tensor([2.0])
    p.grad = np.array([0.5])
    velocity = {}
    sgd_step({"w": p}, lr=0.1, momentum=0.9, weight_decay=0.01,
             velocity=velocity)
    # first step: velocity is just the decayed gradient
    assert velocity["w"][0] == 0.5 + 0.01 * 2.0
    assert p.data[0] == 2.0 - 0.1 * (0.5 + 0.02)


def test_sgd_step_zero_momentum_never_accumulates():
    p = Tensor([0.0])
    velocity = {}
    for g in (1.0, 1.0):
        p.grad = np.array([g])
        sgd_step({"w": p}, lr=1.0, momentum=0.0, weight_decay=0.0,
                 velocity=velocity)
        assert velocity["w"][0] == 1.0


def test_sgd_step_requires_gradients():
    p = Tensor([1.0])
    with pytest.raises(RuntimeError, match="'hidden_w'"):
        sgd_step({"hidden_w": p}, 0.1, 0.9, 0.0, {})


def test_lr_schedule_steps_at_milestones():
    optim = OptimConfig(base_lr=0.01, momentum=0.9, weight_decay=0.0,
                        milestones=(75, 90), decay_factor=10.0)
    assert lr_at(1, optim) == 0.01
    assert lr_at(74, optim) == 0.01
    assert lr_at(75, optim) == pytest.approx(0.001, rel=1e-12)
    assert lr_at(80, optim) == pytest.approx(0.001, rel=1e-12)
    assert lr_at(95, optim) == pytest.approx(0.0001, rel=1e-12)
    with pytest.raises(ConfigError):
        lr_at(0, optim)


# -- evaluation ------------------------------------------------------------------


def test_condition_names_dedupe():
    pgd = AttackSpec(AttackFamily.PGD, epsilon=0.5, step_size=0.1)
    fgsm = AttackSpec(AttackFamily.FGSM, epsilon=0.5)
    names = condition_names([pgd, fgsm, pgd, pgd])
    assert names == ["pgd", "fgsm", "pgd_2", "pgd_3"]
    assert condition_names([]) == []


def test_eval_report_mean_robust_accuracy():
    report = EvalReport(0.9, {}, {}, np.ones(2))
    assert report.mean_robust_accuracy is None
    report = EvalReport(0.9, {"pgd": 0.5, "fgsm": 0.7}, {}, np.ones(2))
    assert report.mean_robust_accuracy == pytest.approx(0.6)


def test_evaluate_constant_model(rng):
    model = make_mlp((4, 3))
    for p in model.params.values():
        p.data = np.zeros_like(p.data)
    x = rng.standard_normal((30, 4))
    y = np.repeat([0, 1, 2], 10)
    ds = Dataset(x, y)
    report = evaluate(model, ds, [])
    # zero logits predict class 0 everywhere (argmax tie -> lowest index)
    assert report.clean_accuracy == pytest.approx(1 / 3)
    np.testing.assert_allclose(report.per_class_accuracy, [1.0, 0.0, 0.0])
    conf = report.confusions["clean"]
    assert conf.shape == (3, 3) and conf.sum() == 30
    np.testing.assert_array_equal(conf[:, 0], [10, 10, 10])
    assert report.robust_accuracy == {}


def test_evaluate_attack_conditions(rng):
    model = make_mlp((4, 8, 3), seed=1)
    x = rng.standard_normal((24, 4))
    y = rng.integers(0, 3, size=24)
    ds = Dataset(x, y)
    pgd = AttackSpec(AttackFamily.PGD, epsilon=0.3, step_size=0.1,
                     iterations=3, seed=7)
    report = evaluate(model, ds, [pgd, pgd])
    assert set(report.robust_accuracy) == {"pgd", "pgd_2"}
    assert set(report.confusions) == {"clean", "pgd", "pgd_2"}
    # identical specs, same seed: identical outcomes
    assert report.robust_accuracy["pgd"] == report.robust_accuracy["pgd_2"]
    for name, acc in report.robust_accuracy.items():
        assert 0.0 <= acc <= 1.0
        assert acc == pytest.approx(
            np.trace(report.confusions[name]) / 24)


def test_evaluate_rejects_bad_inputs(rng):
    model = make_mlp((4, 2))
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int)), [])
    x = rng.standard_normal((6, 4))
    with pytest.raises(ConfigError, match="classes"):
        evaluate(model, Dataset(x, np.array([0, 1, 2, 0, 1, 2])), [])


# -- metrics log -----------------------------------------------------------------


def metrics_fixture():
    log = MetricsLog(attack_names=["pgd", "fgsm"], num_classes=2)
    log.rows = [
        MetricsRow(1, 0.01, 1.5, 0.5, {"pgd": None, "fgsm": None},
                   [0.5, 0.5], [10.0, 10.0]),
        MetricsRow(2, 0.01, 1.0, 0.75, {"pgd": 0.5, "fgsm": 0.625},
                   [0.8, 0.7], [9.5, 11.25]),
    ]
    log.best_epoch = 2
    return log


def test_metrics_csv_schema(tmp_path):
    log = metrics_fixture()
    write_csv(tmp_path / "metrics.csv", log.csv_rows())
    with open(tmp_path / "metrics.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["row_kind", "epoch", "lr", "train_loss", "clean_acc",
                        "robust_acc_pgd", "robust_acc_fgsm",
                        "acc_class_0", "acc_class_1",
                        "weight_sum_class_0", "weight_sum_class_1"]
    kinds = [r[0] for r in lines[1:]]
    assert kinds == ["epoch", "epoch", "final", "best"]
    # epochs without a robust eval leave those cells empty
    assert lines[1][5] == "" and lines[1][6] == ""
    assert float(lines[2][5]) == 0.5
    # final/best replay the matching epoch row verbatim
    assert lines[3][1:] == lines[2][1:] == lines[4][1:]


def test_write_confusions(tmp_path):
    report = EvalReport(
        1.0, {"pgd": 0.5},
        {"clean": np.array([[3, 0], [0, 3]]), "pgd": np.array([[2, 1], [2, 1]])},
        np.ones(2))
    write_confusions(report, str(tmp_path))
    text = (tmp_path / "confusion_pgd.csv").read_text()
    assert text == "2,1\n2,1\n"
    assert (tmp_path / "confusion_clean.csv").read_text() == "3,0\n0,3\n"


# -- training loop ---------------------------------------------------------------


def test_train_learns_a_separable_problem():
    config = tiny_config([
        ("epochs", 6),
        ("eval_every", 6),
        ("objective.family", "AT"),
        ("objective.weight_scheme.family", "UNIFORM"),
        ("dataset.num_classes", 2),
        ("dataset.variances", [1.0, 1.0]),
        ("dataset.separation", 8.0),
        ("dataset.per_class_n", 40),
        ("dataset.eval_per_class_n", 40),
        ("model.hidden", [16]),
    ])
    model, log = train(config)
    assert len(log.rows) == 6
    assert log.rows[-1].train_loss < log.rows[0].train_loss
    _, eval_set = config.dataset.load()
    report = evaluate(model, eval_set, list(config.attack_eval))
    assert report.clean_accuracy > 0.9
    assert report.robust_accuracy["pgd"] > 0.75
    # robust eval ran only where scheduled
    assert log.rows[0].robust_accuracy["pgd"] is None
    assert log.rows[-1].robust_accuracy["pgd"] is not None
    assert log.best_epoch == 6


def test_burn_in_weight_sums_match_class_counts(tmp_path):
    # default burn_in_epoch (18) covers both epochs: weights are exactly 1.0
    config = tiny_config()
    out = tmp_path / "run"
    _, log = train(config, out_dir=str(out))
    for row in log.rows:
        assert row.weight_sums == [25.0, 25.0, 25.0]
    # train() writes the header once, before any batch appends its rows.
    lines = (out / "weights.csv").read_text().splitlines()
    assert lines[0] == ",".join(WEIGHT_CSV_HEADER)
    assert lines.count(lines[0]) == 1
    with open(out / "weights.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 75
    assert all(r["weight"] == "1.0" for r in rows)
    assert all(r["s_v"] == "" and r["s_d"] == "" for r in rows)
    # every sample logged exactly once per epoch
    for epoch in ("1", "2"):
        idxs = sorted(int(r["sample_index"]) for r in rows
                      if r["epoch"] == epoch)
        assert idxs == list(range(75))


def test_a_batch_graph_and_gradients_do_not_outlive_its_step(monkeypatch):
    # The loss graph holds its forward's logits (and, on the conv stem, its
    # input); the next batch's attack must run with neither that graph nor
    # the last step's gradients alive. Tensor has no __weakref__ slot, so
    # the logits array stands in for the graph.
    logits, checks = [], []
    forward, attack = Classifier.forward, training.run_attack

    def tracked_forward(self, x):
        out = forward(self, x)
        logits.append(weakref.ref(out.data))
        return out

    def checked_attack(model, *args, **kwargs):
        checks.append(len(logits))
        assert all(ref() is None for ref in logits), "a loss graph outlived its step"
        assert all(p.grad is None for p in model.params.values()), \
            "gradients outlived their step"
        return attack(model, *args, **kwargs)

    monkeypatch.setattr(Classifier, "forward", tracked_forward)
    monkeypatch.setattr(training, "run_attack", checked_attack)
    train(tiny_config([("batch_size", 16)]))
    # one loss forward before each of the next batches' attacks (5 batches
    # in each of 2 epochs), then the eval attack
    assert checks == [*range(10), 10]


def test_a_trades_batch_holds_less_than_one_more_patch_array_than_at():
    # VIR-TRADES keeps two training forwards' graphs alive until its
    # backward, VIR-AT one. No forward keeps the stem's patches (the weight
    # gradient gathers them in the backward), so at the paper shape in
    # float32 a TRADES batch's traced peak exceeds AT's by less than one
    # batch's row-major patch array, [128 * 576, 25], 7.37 MB.
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(128, 784))
    y = rng.integers(0, 10, size=128)
    idx = np.arange(128)
    peaks = {}
    for family in ("AT", "TRADES"):
        config = resolve_config("paper", overrides=[("objective.family", family)])
        model = Classifier(config.model.arch(784, 10), seed=0)
        training._batch_gradients(model, config, 1, 0, x, y, idx)  # warm-up
        model.zero_grad()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            training._batch_gradients(model, config, 1, 0, x, y, idx)
            peaks[family] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    patches = 128 * 576 * 25 * 4
    assert peaks["TRADES"] - peaks["AT"] < patches, (
        f"TRADES {peaks['TRADES'] / 1e6:.1f} MB, AT {peaks['AT'] / 1e6:.1f} MB, "
        f"bound {patches / 1e6:.2f} MB over AT")


def test_a_conv_backward_holds_no_dense0_gradient_beside_the_patches():
    # The training backward's peak is the stem's weight gradient: the
    # batch's row-major patch array and the stem's output gradient. dense0's
    # weight gradient, as large as that output gradient at the paper shape,
    # is taken once both are freed, so at 128 float32 rows the peak above
    # entry stays within the two and 1 MB. The parameters' grad is None on
    # entry, as in training, so each first gradient is adopted, not copied.
    config = resolve_config("paper", overrides=[("model.dtype", "float32")])
    model = Classifier(config.model.arch(784, 10), seed=0)
    conv = model.arch.conv
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(128, 784))
    x_adv = np.clip(x + rng.uniform(-0.1, 0.1, size=x.shape), 0.0, 1.0)
    y = rng.integers(0, 10, size=128)
    loss = vir_at_loss(model, x, x_adv, y, np.ones(128))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    positions = 128 * conv.out_height * conv.out_width
    patches = positions * conv.kernel_size ** 2 * 4
    stem_grad = positions * conv.filters * 4
    bound = patches + stem_grad + 1_000_000
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


@pytest.mark.parametrize("loss_mode, burn_in, walks", [
    ("CE", 0, ["CE"]), ("KL", 0, ["CE", "KL"]), ("CE", 1, ["CE"]),
    ("KL", 1, ["KL"]),
], ids=["CE-past-burn-in", "KL-past-burn-in", "CE-in-burn-in", "KL-in-burn-in"])
def test_gairat_batch_walks_one_trajectory_per_attack(monkeypatch, loss_mode,
                                                      burn_in, walks):
    # After burn-in, GAIRAT counts kappa on a CE-mode PGD walk: a CE PGD
    # training attack is that walk, a KL one runs beside it. Before burn-in
    # there is no probe.
    calls = []
    engine = attacks._attack
    monkeypatch.setattr(attacks, "_attack",
                        lambda *a, **k: calls.append(a[3]) or engine(*a, **k))
    config = tiny_config([
        ("epochs", 1), ("eval_every", 1), ("batch_size", 75),
        ("attack_eval", []), ("attack_train.loss_mode", loss_mode),
        ("objective.weight_scheme", {"family": "GAIRAT",
                                     "burn_in_epoch": burn_in}),
    ])
    train(config)
    assert sorted(spec.loss_mode.value for spec in calls) == walks


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_exploding_run_aborts_with_position():
    config = tiny_config([("epochs", 3), ("optimizer.base_lr", 1e155)])
    with pytest.raises(NonFiniteError, match=r"epoch \d+, batch \d+"):
        train(config)


def eval_explosion_config():
    return resolve_config(overrides=[
        ("epochs", 2), ("eval_every", 2), ("optimizer.milestones", []),
        ("dataset.dim", 4), ("dataset.per_class_n", 10),
        ("dataset.eval_per_class_n", 25),
        ("attack_train.iterations", 1), ("model.hidden", [8]),
        ("optimizer.base_lr", 1e155),
        ("objective.weight_scheme.burn_in_epoch", 0),
    ])


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_explosion_surfacing_in_eval_still_aborts():
    # The last step of the last epoch can push parameters non-finite after
    # every batch loss was already checked; the divergence then shows up in
    # the epoch's evaluation forward and must map to the same abort.
    with pytest.raises(NonFiniteError, match=r"during evaluation at epoch \d+"):
        train(eval_explosion_config())


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_aborted_run_leaves_no_partial_artifacts(tmp_path):
    # The abort comes after epoch 1's weight rows were streamed out.
    with pytest.raises(NonFiniteError, match="numeric failure"):
        train(eval_explosion_config(), out_dir=str(tmp_path))
    assert os.listdir(tmp_path) == ["config.json"]


def test_train_writes_exactly_the_documented_artifacts(tmp_path):
    config = tiny_config([("attack_eval", [dict(PGD_EVAL), {"family": "FGSM",
                                                             "epsilon": 0.1}])])
    train(config, out_dir=str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == [
        "checkpoint.ckpt", "config.json", "confusion_clean.csv",
        "confusion_fgsm.csv", "confusion_pgd.csv", "metrics.csv", "weights.csv"]
    assert config_from_obj(json.loads((tmp_path / "config.json").read_text())) == config


def test_identical_runs_write_identical_artifacts(tmp_path):
    extra = [("objective.weight_scheme.burn_in_epoch", 0)]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        train(tiny_config(extra), out_dir=str(out))
        outs.append(out)
    for fname in ("metrics.csv", "weights.csv", "checkpoint.ckpt",
                  "confusion_clean.csv", "confusion_pgd.csv"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    # and the weighted run actually produced non-uniform weights
    with open(outs[0] / "weights.csv", newline="") as fh:
        weights = {r["weight"] for r in csv.DictReader(fh)}
    assert len(weights) > 1


def test_different_seed_changes_the_run(tmp_path):
    a = train(tiny_config(), out_dir=str(tmp_path / "a"))[1]
    b = train(tiny_config([("seed", 1), ("dataset.seed", 1)]),
              out_dir=str(tmp_path / "b"))[1]
    assert a.rows[-1].train_loss != b.rows[-1].train_loss


# -- sweeps ----------------------------------------------------------------------


def sweep_config():
    return tiny_config([
        ("epochs", 1),
        ("eval_every", 1),
        ("dataset.per_class_n", 15),
        ("dataset.eval_per_class_n", 15),
        ("attack_train.iterations", 2),
        ("attack_eval", [dict(PGD_EVAL, iterations=2)]),
        ("objective.weight_scheme.burn_in_epoch", 0),
    ])


def test_sweep_single_point_default_grid(tmp_path):
    rows = sweep(sweep_config(), out_dir=str(tmp_path))
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == ["status", "error", "clean_acc", "robust_acc_pgd"]
    assert row["status"] == "ok" and row["error"] == ""
    assert 0.0 <= row["clean_acc"] <= 1.0
    assert 0.0 <= row["robust_acc_pgd"] <= 1.0
    assert (tmp_path / "run_0" / "metrics.csv").exists()
    with open(tmp_path / "sweep.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 1
    assert float(parsed[0]["clean_acc"]) == row["clean_acc"]


BETA = "objective.weight_scheme.beta"


def test_sweep_grid_and_failure_rows(tmp_path):
    rows = sweep(sweep_config(), {BETA: [0.007, -1.0, 1.6]},
                 out_dir=str(tmp_path))
    assert [r[BETA] for r in rows] == [0.007, -1.0, 1.6]
    assert [r["status"] for r in rows] == ["ok", "failed", "ok"]
    bad = rows[1]
    assert "beta" in bad["error"] and bad["clean_acc"] is None
    with open(tmp_path / "sweep.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[1]["status"] == "failed"
    assert parsed[1]["clean_acc"] == ""
    assert parsed[1]["error"].startswith("ConfigError")
    # run_<i> is row i's; the failed point never got as far as training
    assert sorted(p.name for p in tmp_path.glob("run_*")) == ["run_0", "run_2"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_sweep_records_a_numeric_failure_against_its_own_point():
    rows = sweep(tiny_config([("epochs", 3)]),
                 {"optimizer.base_lr": [0.01, 1e155]})
    assert [r["status"] for r in rows] == ["ok", "failed"]
    assert rows[1]["error"].startswith("NonFiniteError: numeric failure ")


def test_sweep_columns_are_every_point_s_eval_conditions(tmp_path):
    # Each point evaluates its own attack_eval; a row leaves the other
    # points' conditions empty.
    fgsm = {"family": "FGSM", "epsilon": 0.5}
    rows = sweep(sweep_config(),
                 {"attack_eval": [[dict(PGD_EVAL, iterations=2)], [fgsm]]},
                 out_dir=str(tmp_path))
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert list(rows[0])[1:] == ["status", "error", "clean_acc",
                                 "robust_acc_pgd", "robust_acc_fgsm"]
    assert rows[0]["robust_acc_fgsm"] is None is rows[1]["robust_acc_pgd"]
    assert 0.0 <= rows[1]["robust_acc_fgsm"] <= 1.0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["robust_acc_pgd"] == repr(rows[0]["robust_acc_pgd"])
    assert parsed[0]["robust_acc_fgsm"] == ""


def test_sweep_propagates_an_error_that_is_not_the_point_s_own(tmp_path, monkeypatch):
    # Only a ConfigError or NonFiniteError belongs to a grid point; anything
    # else is a defect every point shares.
    def broken(config, out_dir=None):
        raise TypeError("shared defect")

    monkeypatch.setattr(training, "train", broken)
    with pytest.raises(TypeError, match="shared defect"):
        sweep(sweep_config(), {BETA: [0.007, 1.6]}, out_dir=str(tmp_path))


def test_sweep_csv_grid_cells_read_back_as_their_values(tmp_path):
    # A grid cell is the JSON that --set takes: a list of attacks, null
    # and a nested list each read back as the point's value.
    fgsm = {"family": "FGSM", "epsilon": 0.1}
    bounds = "attack_train.bounds"
    grid = {"attack_eval": [[fgsm], [dict(PGD_EVAL, iterations=2)]],
            bounds: [None, [-10, 10]]}
    rows = sweep(sweep_config(), grid, out_dir=str(tmp_path))
    assert [r["status"] for r in rows] == ["ok"] * 4
    with open(tmp_path / "sweep.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    for cells, row in zip(parsed, rows):
        for path in grid:
            assert _parse_value(cells[path]) == row[path]
    assert parsed[0]["attack_eval"] == '[{"epsilon":0.1,"family":"FGSM"}]'
    assert parsed[0][bounds] == "null"


def test_sweep_csv_writes_numpy_grid_values_as_plain_floats(tmp_path):
    alpha = "objective.weight_scheme.alpha"
    rows = sweep(sweep_config(), {alpha: np.array([1.0, 7.0]),
                                  BETA: np.array([0.007], dtype=np.float32)},
                 out_dir=str(tmp_path))
    assert [r["status"] for r in rows] == ["ok", "ok"]
    with open(tmp_path / "sweep.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert list(parsed[0])[:3] == [alpha, BETA, "status"]
    assert [(r[alpha], r[BETA]) for r in parsed] == [
        ("1.0", repr(float(np.float32(0.007)))),
        ("7.0", repr(float(np.float32(0.007))))]
    for r, row in zip(parsed, rows):
        assert r["clean_acc"] == repr(row["clean_acc"])
    # every grid point's run directory describes itself
    scheme = json.loads((tmp_path / "run_0" / "config.json").read_text())[
        "objective"]["weight_scheme"]
    assert (scheme["alpha"], scheme["beta"]) == (1.0, float(np.float32(0.007)))
