"""Outside-in tracing of virlab: spans around the public functions of each layer.

Nothing in ``src/virlab`` knows about this. ``Tracer.install`` replaces each
traced function, in every virlab module namespace that holds a reference to
it, with a wrapper that opens a span, calls the original and closes the span;
``uninstall`` puts the originals back. The wrappers change no argument and
no result, so a traced repetition must reproduce the untraced artifacts byte
for byte (the workloads check this).

Layers and their spans (span name = layer.function):
  config      resolve_config, and DataSource.load recorded as data.load
  data        batch_indices (a generator: one span per next())
  models      Classifier.forward, save_checkpoint, load_checkpoint
  tensor      Tensor.backward
  attacks     run_attack, fgsm, pgd, cw_pgd, spsa, min_pgd_steps,
              spsa_gradient_estimate
  reweight    batch_weights, write_weight_records
  objectives  at_loss, vir_at_loss, trades_loss, vir_trades_loss
  training    train, evaluate, sgd_step
Garbage-collector pauses are read through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import statistics
import sys
from time import perf_counter

import numpy as np
from virlab import (attacks, config, data, models, objectives, reweight,
                    tensor, training)

from spans import Recorder

FUNCTIONS = [
    (config, "resolve_config"),
    (data, "batch_indices"),
    (models, "save_checkpoint"),
    (models, "load_checkpoint"),
    (attacks, "run_attack"),
    (attacks, "fgsm"),
    (attacks, "pgd"),
    (attacks, "cw_pgd"),
    (attacks, "spsa"),
    (attacks, "min_pgd_steps"),
    (attacks, "spsa_gradient_estimate"),
    (reweight, "batch_weights"),
    (reweight, "write_weight_records"),
    (objectives, "at_loss"),
    (objectives, "vir_at_loss"),
    (objectives, "trades_loss"),
    (objectives, "vir_trades_loss"),
    (training, "train"),
    (training, "evaluate"),
    (training, "sgd_step"),
]
METHODS = [
    (config.DataSource, "load", "data.load"),
    (models.Classifier, "forward", "models.forward"),
    (tensor.Tensor, "backward", "tensor.backward"),
]
ATTACK_FAMILIES = ("fgsm", "pgd", "cw_pgd", "spsa")


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _grad_leaves(root):
    """Leaf tensors the backward pass from ``root`` reaches; like
    Tensor.backward, it follows requires_grad parents only."""
    seen, stack, leaves = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if not node._parents:
            leaves.append(node)
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return leaves


class Tracer:
    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start: float | None = None
        # ids of the parameters of the model the innermost attack runs on
        self._attack_params: list[set[int]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "virlab" or name.startswith("virlab.")]
        for module, attr in FUNCTIONS:
            original = getattr(module, attr)
            name = f"{_layer(module)}.{attr}"
            if attr == "batch_indices":
                wrapper = self._wrap_generator(name, original)
            elif module is attacks and attr != "spsa_gradient_estimate":
                wrapper = self._wrap_attack(name, original)
            elif attr == "write_weight_records":
                wrapper = self._wrap(name, original, rows=lambda a: len(a[0]))
            else:
                wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            if attr == "forward":
                wrapper = self._wrap(name, original, rows=lambda a: np.shape(
                    getattr(a[1], "data", a[1]))[0])
            elif attr == "backward":
                wrapper = self._wrap_backward(name, original)
            else:
                wrapper = self._wrap(name, original)
            self._patch(cls, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = self.rec.clock()
        if phase == "start":
            self._gc_start = now
        elif self._gc_start is not None:
            self.rec.add("python.gc.collections")
            self.rec.add("python.gc.pause_s", now - self._gc_start)
            self._gc_start = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, rows=None):
        """Span around fn; ``rows(args)``, if given, feeds the counter
        ``<name>.rows``."""
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rows is not None:
                rec.add(f"{name}.rows", rows(args))
            i = rec.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(i)

        return wrapper

    def _wrap_generator(self, name, fn):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = rec.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.end(i)
                yield item

        return wrapper

    def _wrap_attack(self, name, fn):
        rec, stack = self.rec, self._attack_params

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            i = rec.begin(name)
            stack.append({id(p) for p in model.params.values()})
            try:
                return fn(model, *args, **kwargs)
            finally:
                stack.pop()
                rec.end(i)
                caller = "eval" if "training.evaluate" in rec.ancestors(i) else "train"
                rec.add(f"{name}.{caller}.calls")

        return wrapper

    def _wrap_backward(self, name, fn):
        rec, stack = self.rec, self._attack_params

        @functools.wraps(fn)
        def wrapper(root):
            i = rec.begin(name)
            try:
                return fn(root)
            finally:
                rec.end(i)
                if stack:
                    # Gradient elements this pass produced on leaves, split
                    # into the attack's input and the model's parameters.
                    for leaf in _grad_leaves(root):
                        if leaf.grad is None:
                            continue
                        kind = "param" if id(leaf) in stack[-1] else "input"
                        rec.add(f"attacks.grad_elements.{kind}", leaf.data.size)

        return wrapper


def layer_metrics(rec: Recorder, run_id: str, setup_run_id: str) -> dict[str, float]:
    """Per-layer figures of one traced workload repetition (plus set-up)."""
    rep = rec.summary(run_id)
    setup = rec.summary(setup_run_id)

    def get(summary, name, key):
        return summary.get(name, {}).get(key, 0)

    c = rec.counts.get(run_id, {})
    out = {
        "config.resolve_config.s": get(setup, "config.resolve_config", "s"),
        "data.load.s": get(setup, "data.load", "s"),
        "tensor.backward.calls": get(rep, "tensor.backward", "calls"),
        "tensor.backward.s": get(rep, "tensor.backward", "s"),
        "models.forward.calls": get(rep, "models.forward", "calls"),
        "models.forward.rows": c.get("models.forward.rows", 0),
        "models.forward.self_s": get(rep, "models.forward", "self_s"),
        "attacks.run_attack.calls": get(rep, "attacks.run_attack", "calls"),
        "attacks.run_attack.s": get(rep, "attacks.run_attack", "s"),
        # Time inside the attack layer that is neither forward nor backward.
        "attacks.run_attack.self_s": sum(
            row["self_s"] for n, row in rep.items() if n.startswith("attacks.")),
        "attacks.run_attack.eval.s": _seconds_under(
            rec, run_id, "attacks.run_attack", "training.evaluate"),
        "attacks.pgd.s": get(rep, "attacks.pgd", "s"),
        "attacks.fgsm.s": get(rep, "attacks.fgsm", "s"),
        "reweight.write_weight_records.rows":
            c.get("reweight.write_weight_records.rows", 0),
        "attacks.spsa_gradient_estimate.calls":
            get(rep, "attacks.spsa_gradient_estimate", "calls"),
        "training.evaluate.calls": get(rep, "training.evaluate", "calls"),
        "training.evaluate.s": get(rep, "training.evaluate", "s"),
        "training.sgd_step.calls": get(rep, "training.sgd_step", "calls"),
        "python.gc.collections": c.get("python.gc.collections", 0),
        "python.gc.pause_s": c.get("python.gc.pause_s", 0.0),
    }
    for caller in ("train", "eval"):
        out[f"attacks.run_attack.{caller}.calls"] = c.get(
            f"attacks.run_attack.{caller}.calls", 0)
    for family in ATTACK_FAMILIES:
        out[f"attacks.{family}.calls"] = get(rep, f"attacks.{family}", "calls")
    useful = c.get("attacks.grad_elements.input", 0)
    total = useful + c.get("attacks.grad_elements.param", 0)
    out["attacks.grad_useful_frac"] = useful / total if total else 1.0
    # Forward passes inside training steps (evaluation excluded) per SGD step.
    train_forwards = out["models.forward.calls"] - len(
        _under(rec, run_id, "models.forward", "training.evaluate"))
    steps = out["training.sgd_step.calls"]
    out["models.forward.per_sgd_step"] = train_forwards / steps if steps else 0.0
    return out


def span_cost_s(calls: int = 20000, groups: int = 5) -> float:
    """Seconds one traced call adds: a wrapped no-op minus a bare one."""
    def noop():
        return None

    wrapped = Tracer(Recorder())._wrap("noop", noop)
    costs = []
    for _ in range(groups):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _under(rec: Recorder, run_id: str, name: str, ancestor: str) -> list:
    """Spans called ``name`` of one run that ``ancestor`` encloses."""
    return [s for i, s in enumerate(rec.spans)
            if s.run_id == run_id and s.name == name
            and ancestor in rec.ancestors(i)]


def _seconds_under(rec: Recorder, run_id: str, name: str, ancestor: str) -> float:
    return sum(s.duration for s in _under(rec, run_id, name, ancestor))
