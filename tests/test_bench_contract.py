"""Every virlab name the benchmark relies on still exists.

perfbench/tracing.py patches functions and methods by name, and
perfbench/cases.py times public functions and the Tensor layer ops that the
model itself no longer uses. A deletion in src/virlab that either relies on
would only surface when the traced benchmark runs, and so would a
run_attack that stopped dispatching through the module-level family
functions the tracer counts, or an evaluate that stopped attacking each
condition inside one run_attack call. These tests read perfbench/ and
change nothing there.
"""

import ast
import importlib
import os
import sys
import threading
from dataclasses import replace

import numpy as np

from conftest import make_mlp
from virlab import attacks, models, training
from virlab.attacks import AttackFamily, AttackSpec
from virlab.config import resolve_config
from virlab.data import Dataset
from virlab.models import Arch, Classifier, ConvStem
from virlab.tensor import Tensor

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")


def _import_bench(name: str):
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH)


def test_every_traced_name_resolves():
    tracing = _import_bench("tracing")
    missing = [f"{module.__name__}.{attr}" for module, attr in tracing.FUNCTIONS
               if not callable(getattr(module, attr, None))]
    # install() looks methods up in the class's own namespace.
    missing += [f"{cls.__qualname__}.{attr}" for cls, attr, _ in tracing.METHODS
                if attr not in cls.__dict__]
    assert not missing, f"perfbench/tracing.py wraps missing names: {missing}"


def test_every_name_the_cases_use_resolves():
    # Parsed, not imported: only the names cases.py spells out are checked.
    with open(os.path.join(BENCH, "cases.py")) as fh:
        tree = ast.parse(fh.read())
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "virlab":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"virlab.{alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("virlab."):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
    assert {"tensor", "attacks", "reweight", "objectives", "training",
            "models"} <= set(modules)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain, root = [], node
        while isinstance(root, ast.Attribute):
            chain.insert(0, root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in modules:
            obj = modules[root.id]
            for attr in chain:
                if not hasattr(obj, attr):
                    missing.append(".".join([root.id, *chain]))
                    break
                obj = getattr(obj, attr)
    # The op cases time these Tensor methods through operators and calls.
    missing += [f"Tensor.{op}" for op in ("__matmul__", "__add__", "relu", "sum")
                if op not in Tensor.__dict__]
    assert not missing, f"perfbench/cases.py uses missing names: {missing}"


def test_run_attack_reaches_each_family_function_once(monkeypatch):
    # The tracer counts attacks.<family>.calls by wrapping these names in the
    # attacks namespace, so run_attack must look them up there, once a call.
    calls = []
    for name in ("fgsm", "pgd", "cw_pgd", "spsa"):
        def counting(*args, _name=name, _fn=getattr(attacks, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(attacks, name, counting)
    model = make_mlp((4, 5, 3), seed=0)
    x = np.linspace(-1.0, 1.0, 8).reshape(2, 4)
    y = np.array([0, 2])
    knobs = {"step_size": 0.05, "spsa_samples": 4}
    for family, name in ((AttackFamily.FGSM, "fgsm"), (AttackFamily.PGD, "pgd"),
                         (AttackFamily.CW_PGD, "cw_pgd"),
                         (AttackFamily.SPSA, "spsa")):
        calls.clear()
        attacks.run_attack(model, x, y, AttackSpec(family, epsilon=0.1, **{
            k: v for k, v in knobs.items() if family in attacks.AttackSpec._READ_BY[k]}))
        assert calls == [name]


def test_evaluate_attacks_each_condition_inside_one_run_attack_call(monkeypatch):
    # The tracer counts one training.evaluate > run_attack span per attack
    # condition, so evaluate calls run_attack once a spec, and every chunk
    # is attacked inside that call, not drained from a generator after it.
    monkeypatch.setattr(models, "_CHUNK_ELEMENTS", 1)  # 64 rows per chunk
    calls, open_calls = [], []
    original = training.run_attack

    def traced(model, x, y, spec, sink=None):
        calls.append((spec, []))

        def checked(start, x_adv):
            assert open_calls, "a chunk arrived after run_attack returned"
            calls[-1][1].append(start)
            sink(start, x_adv)
        open_calls.append(spec)
        try:
            return original(model, x, y, spec, sink=checked)
        finally:
            open_calls.pop()
    monkeypatch.setattr(training, "run_attack", traced)
    model = make_mlp((4, 5, 3), seed=0)
    x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(150, 4))
    specs = [AttackSpec(AttackFamily.FGSM, epsilon=0.1),
             AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.05)]
    training.evaluate(model, Dataset(x, np.arange(150) % 3), specs)
    assert calls == [(spec, [0, 64, 128]) for spec in specs]


def test_the_tracer_opens_every_span_on_the_calling_thread(monkeypatch):
    # A conv model's attack parts run on a thread pool, and the tracer's
    # recorder nests spans by call order on one thread: no traced name may
    # be called from a part.
    monkeypatch.setattr(attacks, "_WORKERS", 2)
    tracing = _import_bench("tracing")
    rec = _import_bench("spans").Recorder()
    threads = set()
    begin = rec.begin

    def recording(name):
        threads.add(threading.current_thread().name)
        return begin(name)
    rec.begin = recording
    parts = set()
    walk = attacks._walk

    def recording_walk(*args):
        parts.add(threading.current_thread().name)
        return walk(*args)
    monkeypatch.setattr(attacks, "_walk", recording_walk)
    stem = ConvStem(height=7, width=6, filters=2, kernel_size=3)
    model = Classifier(Arch((stem.out_dim, 6, 3), conv=stem), seed=0)
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(130, 42))
    y = np.arange(130) % 3
    specs = [AttackSpec(AttackFamily.FGSM, epsilon=0.1),
             AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.05),
             AttackSpec(AttackFamily.CW_PGD, epsilon=0.1, step_size=0.05),
             AttackSpec(AttackFamily.SPSA, epsilon=0.1, step_size=0.05,
                        spsa_samples=4)]
    tracer = tracing.Tracer(rec)
    tracer.install()
    try:
        training.evaluate(model, Dataset(x, y), specs)
        attacks.min_pgd_steps(model, x, y, specs[1])
    finally:
        tracer.uninstall()
    assert threads == {threading.current_thread().name}
    assert parts > threads  # some parts did run on the pool


def test_every_attack_spec_the_benchmark_builds_constructs():
    # AttackSpec rejects a knob its family does not read, so a benchmark
    # config that set one would stop building. The workloads' overrides
    # resolve with placeholder fixture paths (resolve_config opens nothing).
    workloads = _import_bench("workloads")
    placeholder = {key: f"/nonexistent/{key}" for key in
                   ("images", "labels", "eval_images", "eval_labels")}
    for cls in (workloads.DeskTrain, workloads.ImageTrain):
        workload = cls(work_dir="/nonexistent", seed=0)
        workload.paths = placeholder
        resolve_config(workload.profile, overrides=workload.overrides())
    # ImageEval.setup walks each paper eval attack, SPSA at fewer iterations.
    paper = resolve_config("paper")
    for spec in paper.attack_eval:
        if spec.family is AttackFamily.SPSA:
            replace(spec, iterations=workloads.SPSA_ITERATIONS)
    # cases._shape_cases times one iteration of the training attack at each
    # shape, and of the paper profile's CW-PGD eval attack.
    for shape in ("desk", "paper"):
        replace(resolve_config(shape).attack_train, iterations=1, seed=3)
    (cw,) = [s for s in paper.attack_eval if s.family is AttackFamily.CW_PGD]
    replace(cw, iterations=1)
