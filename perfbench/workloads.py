"""The benchmark's workloads, each driving virlab's public API in-process.

A workload has four steps:
  prepare()  inputs that a user would already have on disk: the image
             fixture and, for image-eval, a checkpoint. Not timed.
  setup()    what every run pays before work starts: resolve_config, the
             dataset load, the model build (and load_checkpoint). Timed as
             part of setup_s.
  rep(dir)   one repetition of the timed work; returns its figures.
  check(r)   problems with one repetition's outputs, as strings.

The benchmark seed picks the data: the desk mixture's draw, or the image
fixture. The run seed of the config stays the profile's, so that accuracy
follows the data rather than a lucky initialisation. The program only sees
the resulting config and files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from time import perf_counter

import numpy as np
from virlab import config, models, training
from virlab.data import Dataset

import fixture

# An attack can occasionally fix a sample the clean model got wrong, so
# robust accuracy may exceed clean accuracy by this much, or by one sample.
ROBUST_SLACK = 0.05
# The desk profile reaches 0.65-0.70 mean robust accuracy on every seed tried.
DESK_ROBUST_FLOOR = 0.5
TRAIN_ARTIFACTS = ("metrics.csv", "weights.csv", "checkpoint.ckpt")
PAPER_EPS = 8 / 255


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _robust_problems(name: str, robust: float, clean: float, n: int) -> list[str]:
    if not 0.0 <= robust <= 1.0:
        return [f"{name}: robust accuracy {robust} outside [0, 1]"]
    if robust > clean + max(ROBUST_SLACK, 1.0 / n):
        return [f"{name}: robust accuracy {robust} exceeds clean {clean}"]
    return []


class TrainWorkload:
    """One ``training.train(config, out_dir)`` per repetition."""

    profile = ""

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed

    def overrides(self) -> list:
        return []

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        self.cfg = config.resolve_config(self.profile, overrides=self.overrides())
        train_set, eval_set = self.cfg.dataset.load()
        models.Classifier(self.cfg.arch(train_set), seed=self.cfg.seed)
        self.n_train = len(train_set)
        self.n_eval = len(eval_set if eval_set is not None else train_set)

    def rep(self, out_dir: str) -> dict:
        t0 = perf_counter()
        _, log = training.train(self.cfg, out_dir)
        seconds = perf_counter() - t0
        final = log.rows[-1]
        return {
            "seconds": seconds,
            "samples": self.cfg.epochs * self.n_train,
            "robust_acc": float(np.mean(list(final.robust_accuracy.values()))),
            "robust": final.robust_accuracy,
            "clean_acc": final.clean_accuracy,
            "train_loss": [r.train_loss for r in log.rows],
            "digests": {f: sha256(os.path.join(out_dir, f))
                        for f in TRAIN_ARTIFACTS},
            "weights_csv_bytes": os.path.getsize(os.path.join(out_dir, "weights.csv")),
        }

    def check(self, r: dict) -> list[str]:
        problems = [f"non-finite train loss at epoch {i + 1}"
                    for i, v in enumerate(r["train_loss"]) if not math.isfinite(v)]
        for name, acc in r["robust"].items():
            problems += _robust_problems(name, acc, r["clean_acc"], self.n_eval)
        return problems


class DeskTrain(TrainWorkload):
    """The shipped desk profile; the benchmark seed draws the mixture."""

    profile = "desk"

    def overrides(self) -> list:
        return [("dataset.seed", self.seed)]

    def check(self, r: dict) -> list[str]:
        problems = super().check(r)
        if r["robust_acc"] < DESK_ROBUST_FLOOR:
            problems.append(f"desk robust accuracy {r['robust_acc']} is below "
                            f"the floor {DESK_ROBUST_FLOOR}")
        return problems


IMAGE_TRAIN_N, IMAGE_EVAL_N = 256, 128


class ImageTrain(TrainWorkload):
    """The paper recipe for three epochs on the synthetic image fixture.

    Burn-in ends after epoch 2, so epochs 1-2 take the uniform-weight branch
    and epoch 3 the VIR branch. Evaluation uses a held-out split and FGSM
    only; with neither, train() would run the four-attack paper suite, SPSA
    included, on the training set. The learning rate is raised from the
    paper's 0.01 so that three epochs of two batches visibly learn.
    """

    profile = "paper"

    def prepare(self) -> None:
        self.paths = fixture.write_fixture(os.path.join(self.work_dir, "fixture"),
                                           IMAGE_TRAIN_N, IMAGE_EVAL_N, self.seed)

    def overrides(self) -> list:
        fgsm = {"family": "FGSM", "epsilon": PAPER_EPS, "bounds": [0.0, 1.0],
                "seed": 1234}
        return [
            ("dataset", {"kind": "idx", **self.paths}),
            ("epochs", 3),
            ("optimizer.milestones", []),
            ("optimizer.base_lr", 0.1),
            ("objective.weight_scheme.burn_in_epoch", 2),
            ("attack_eval", [fgsm]),
        ]


# Samples attacked per family, chosen so each family except FGSM takes a
# similar share of a repetition; SPSA runs SPSA_ITERATIONS steps.
EVAL_SAMPLES = {"PGD": 16, "CW_PGD": 64, "FGSM": 256, "SPSA": 4}
SPSA_ITERATIONS = 1
CHECKPOINT_TRAIN_N = 384


def make_checkpoint(paths: dict, path: str) -> None:
    """Train the image-eval model: the paper architecture, three clean epochs
    (attack budget 0) on the fixture's training split."""
    cfg = config.resolve_config("paper", overrides=[
        ("dataset", {"kind": "idx", "images": paths["images"],
                     "labels": paths["labels"]}),
        ("epochs", 3),
        ("optimizer.milestones", []),
        ("optimizer.base_lr", 0.05),
        ("objective.family", "AT"),
        ("attack_train.epsilon", 0.0),
        ("attack_eval", []),
    ])
    model, _ = training.train(cfg)
    models.save_checkpoint(model, path, epoch=cfg.epochs, rng_seed=cfg.seed)


class ImageEval:
    """The read path: ``training.evaluate(model, split, [spec])`` once per
    paper-profile attack family, on a model loaded from a checkpoint."""

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed

    def prepare(self) -> None:
        self.paths = fixture.write_fixture(
            os.path.join(self.work_dir, "fixture"), CHECKPOINT_TRAIN_N,
            max(EVAL_SAMPLES.values()), self.seed)
        self.checkpoint = os.path.join(self.work_dir, "model.ckpt")
        # A child process, so that training's memory peak is not this
        # process's peak_rss_mb.
        src = os.path.dirname(os.path.dirname(models.__file__))
        bench = os.path.dirname(os.path.abspath(__file__))
        code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
                "workloads.make_checkpoint(json.loads(sys.argv[3]), sys.argv[4])")
        subprocess.run([sys.executable, "-c", code, src, bench, json.dumps(self.paths),
                        self.checkpoint], check=True, timeout=120)
        self.checkpoint_sha256 = sha256(self.checkpoint)

    def setup(self) -> None:
        cfg = config.resolve_config("paper", overrides=[
            ("dataset", {"kind": "idx", **self.paths})])
        _, eval_set = cfg.dataset.load()
        self.model, _, _ = models.load_checkpoint(self.checkpoint)
        self.cases = []
        for spec in cfg.attack_eval:
            if spec.family.value == "SPSA":
                spec = replace(spec, iterations=SPSA_ITERATIONS)
            n = EVAL_SAMPLES[spec.family.value]
            split = Dataset(eval_set.features[:n], eval_set.labels[:n])
            self.cases.append((spec, split))

    def rep(self, out_dir: str) -> dict:
        families, seconds, samples, correct = {}, 0.0, 0, 0
        digest = hashlib.sha256()
        for spec, split in self.cases:
            t0 = perf_counter()
            report = training.evaluate(self.model, split, [spec])
            dt = perf_counter() - t0
            seconds += dt
            samples += len(split)
            (name, acc), = report.robust_accuracy.items()
            correct += round(acc * len(split))
            families[name] = {"n": len(split), "seconds": dt, "robust": acc,
                              "clean": report.clean_accuracy}
            for matrix in report.confusions.values():
                digest.update(matrix.tobytes())
        return {
            "seconds": seconds,
            "samples": samples,
            # Pooled over every attacked sample, so the 4 SPSA samples do
            # not weigh as much as the 256 FGSM ones.
            "robust_acc": correct / samples,
            "families": families,
            "digests": {"confusions": digest.hexdigest(),
                        "checkpoint.ckpt": self.checkpoint_sha256},
        }

    def check(self, r: dict) -> list[str]:
        problems = []
        for name, f in r["families"].items():
            problems += _robust_problems(name, f["robust"], f["clean"], f["n"])
        return problems


WORKLOADS = {"desk-train": DeskTrain, "image-train": ImageTrain,
             "image-eval": ImageEval}
