"""Tracing wraps virlab from outside without changing what it computes."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from virlab import attacks, config, models, training  # noqa: E402

import tracing  # noqa: E402
from spans import Recorder  # noqa: E402

ARTIFACTS = ("metrics.csv", "weights.csv", "checkpoint.ckpt")


def small_desk():
    return config.resolve_config("desk", overrides=[
        ("epochs", 2), ("eval_every", 1), ("optimizer.milestones", []),
        ("dataset.per_class_n", 20), ("dataset.eval_per_class_n", 10),
        ("objective.weight_scheme.burn_in_epoch", 1),
    ])


def read_all(out_dir):
    return {f: (out_dir / f).read_bytes() for f in ARTIFACTS}


def test_traced_training_is_byte_identical_and_uninstall_restores(tmp_path):
    originals = (training.train, training.run_attack, attacks.pgd,
                 models.Classifier.forward)
    cfg = small_desk()
    training.train(cfg, str(tmp_path / "plain"))

    rec = Recorder()
    rec.run_id = "rep"
    tracer = tracing.Tracer(rec)
    tracer.install()
    try:
        assert training.train is not originals[0]
        training.train(cfg, str(tmp_path / "traced"))
    finally:
        tracer.uninstall()

    assert (training.train, training.run_attack, attacks.pgd,
            models.Classifier.forward) == originals
    assert read_all(tmp_path / "plain") == read_all(tmp_path / "traced")

    summary = rec.summary("rep")
    # 2 epochs x 1 batch of 60: one training PGD per batch; evaluation runs
    # PGD and FGSM after each epoch and once more after the loop.
    assert summary["training.train"]["calls"] == 1
    assert summary["training.sgd_step"]["calls"] == 2
    assert summary["attacks.run_attack"]["calls"] == 2 + 3 * 2
    assert summary["data.batch_indices"]["calls"] == 2 * 2  # one per next()
    layer = tracing.layer_metrics(rec, "rep", "setup")
    assert layer["attacks.run_attack.train.calls"] == 2
    assert layer["attacks.run_attack.eval.calls"] == 6
    assert 0.0 < layer["attacks.grad_useful_frac"] < 1.0
    assert layer["reweight.write_weight_records.rows"] == 2 * 60
