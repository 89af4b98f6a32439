"""A conv-stem model's attack chunks are walked as 64-row parts, up to
``attacks._WORKERS`` at a time on a thread pool; an MLP's whole chunks are
walked on the calling thread. Every byte an attack or a run gives is the
same whatever the worker count, which the tests force by setting
``attacks._WORKERS``."""

import os
import platform
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import virlab
from virlab import attacks, models, tensor
from virlab.attacks import (AttackFamily, AttackSpec, LossMode, min_pgd_steps,
                            run_attack)
from virlab.config import resolve_config
from virlab.data import Dataset, save_idx
from virlab.errors import NonFiniteError
from virlab.models import (Arch, Classifier, ConvStem, _chunk_rows, _stem_input_gradient,
                           _stem_output, predict_labels)
from virlab.training import train

PAPER_STEM = ConvStem(height=28, width=28, filters=8, kernel_size=5)


def paper_model() -> Classifier:
    """The paper's float32 network: a 28x28 k5 F8 stem, then dense 128-64-10."""
    return Classifier(Arch((PAPER_STEM.out_dim, 128, 64, 10), conv=PAPER_STEM,
                           dtype="float32"), seed=5)


def paper_split(n: int) -> np.ndarray:
    return np.random.default_rng(0).uniform(0.0, 1.0, size=(n, 784))


GRADIENT = dict(epsilon=0.1, step_size=0.04, iterations=3, bounds=(0.0, 1.0),
                seed=7)
SPECS = {
    "fgsm": AttackSpec(AttackFamily.FGSM, epsilon=0.1, bounds=(0.0, 1.0), seed=7),
    "pgd": AttackSpec(AttackFamily.PGD, **GRADIENT),
    "pgd_kl": AttackSpec(AttackFamily.PGD, loss_mode=LossMode.KL, **GRADIENT),
    "cw_pgd": AttackSpec(AttackFamily.CW_PGD, **GRADIENT),
    "spsa": AttackSpec(AttackFamily.SPSA, epsilon=0.1, step_size=0.01,
                       iterations=1, bounds=(0.0, 1.0), spsa_samples=4, seed=7),
}


@pytest.fixture
def parts(monkeypatch):
    """(rows, thread name) of every part ``attacks._walk`` walks."""
    seen = []
    original = attacks._walk

    def walk(model, x, *args):
        seen.append((len(x), threading.current_thread().name))
        return original(model, x, *args)
    monkeypatch.setattr(attacks, "_walk", walk)
    return seen


def _attacked(model, x, y) -> dict:
    """Every family's x_adv, its sink's (first row, rows) sequence, and
    min_pgd_steps' x_adv and kappa."""
    out = {}
    for name, spec in SPECS.items():
        out[name] = run_attack(model, x, y, spec)
        sunk = []
        assert run_attack(model, x, y, spec,
                          sink=lambda s, rows: sunk.append((s, rows.tobytes()))) is None
        out[f"{name}.sink"] = sunk
    out["min_pgd_steps.x_adv"], out["min_pgd_steps.kappa"] = min_pgd_steps(
        model, x, y, SPECS["pgd"])
    return out


def test_attack_bytes_do_not_depend_on_the_worker_count(monkeypatch, parts):
    # 200 rows at 128 rows per forward: chunks of 128 and 72, parts of 64,
    # 64, 64 and 8.
    model = paper_model()
    x = paper_split(200)
    y = predict_labels(model, x)
    assert _chunk_rows(model.arch) == 128
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(attacks, "_WORKERS", workers)
        parts.clear()
        runs[workers] = _attacked(model, x, y)
        # 6 attacks on the split plus each family's sinked walk: 11 walks.
        assert [n for n, _ in parts] == [64, 64, 64, 8] * 11
        on_pool = {name for _, name in parts} - {threading.current_thread().name}
        assert bool(on_pool) == (workers > 1), on_pool
    for name, want in runs[1].items():
        got = runs[2][name]
        if name.endswith(".sink"):
            assert [s for s, _ in got] == [0, 128], name
            assert got == want, name
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for name in SPECS:
        assert not np.array_equal(runs[2][name], x), f"{name} did not move"
    assert len(np.unique(runs[2]["min_pgd_steps.kappa"])) > 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stem_kernels_on_two_threads_give_the_serial_bytes(dtype):
    # Attack parts run the stem's forward and input gradient on two threads
    # at once. Every buffer they fill is made per call, none at module
    # level, so two threads on different inputs (64 rows, and 61 rows with
    # a short last block) give the bytes of serial calls.
    rng = np.random.default_rng(11)
    k, f = PAPER_STEM.kernel_size, PAPER_STEM.filters
    weight = rng.uniform(-1.0 / k, 1.0 / k, size=(k * k, f)).astype(dtype)
    bias = (0.1 * rng.standard_normal(f)).astype(dtype)
    cases = []
    for rows in (64, 61):
        x = rng.uniform(0.0, 1.0, size=(rows, 784)).astype(dtype)
        fmap = _stem_output(PAPER_STEM, weight, bias, x).reshape(-1, f)
        g = rng.standard_normal((rows, PAPER_STEM.out_dim)).astype(dtype)
        cases.append((x, fmap, g))

    def stem(x, fmap, g):
        return (_stem_output(PAPER_STEM, weight, bias, x).tobytes(),
                _stem_input_gradient(PAPER_STEM, weight, fmap, g).tobytes())
    want = [stem(*case) for case in cases]
    both = threading.Barrier(2)
    got = [[], []]

    def run(i):
        both.wait()
        for _ in range(10):
            got[i].append(stem(*cases[i]))
    other = threading.Thread(target=run, args=(1,))
    other.start()
    run(0)
    other.join()
    assert [sum(out != want[i] for out in got[i]) for i in (0, 1)] == [0, 0]
    assert [len(runs) for runs in got] == [10, 10]
    for module in (models, tensor):
        assert not [name for name, value in vars(module).items()
                    if isinstance(value, np.ndarray)], module.__name__


def test_an_mlp_walks_whole_chunks_on_the_calling_thread(monkeypatch, parts):
    monkeypatch.setattr(attacks, "_WORKERS", 2)
    model = Classifier(Arch((8, 16, 3)), seed=0)
    x = np.random.default_rng(0).standard_normal((200, 8))
    run_attack(model, x, np.arange(200) % 3, SPECS["pgd"])
    assert parts == [(200, threading.current_thread().name)]


def _tiny_conv_config(tmp_path, extra=()):
    """The paper profile shrunk to a 7x6 k3 stem, 160 training rows in
    batches of 80 (parts of 64 and 16) and 100 held-out rows, for 2 epochs
    with burn-in ending after the first."""
    rng = np.random.default_rng(3)
    paths = {}
    for split, n in (("", 160), ("eval_", 100)):
        paths[f"{split}images"] = str(tmp_path / f"{split}images.idx")
        paths[f"{split}labels"] = str(tmp_path / f"{split}labels.idx")
        save_idx(Dataset(rng.uniform(0.0, 1.0, (n, 42)), np.arange(n) % 3),
                 paths[f"{split}images"], paths[f"{split}labels"], rows=7, cols=6)
    cheap_eval = [
        {"family": "PGD", "epsilon": 0.1, "step_size": 0.04, "iterations": 2,
         "bounds": [0.0, 1.0], "seed": 1234},
        {"family": "CW_PGD", "epsilon": 0.1, "step_size": 0.04, "iterations": 2,
         "bounds": [0.0, 1.0], "seed": 1234},
        {"family": "FGSM", "epsilon": 0.1, "bounds": [0.0, 1.0], "seed": 1234},
        {"family": "SPSA", "epsilon": 0.1, "step_size": 0.01, "iterations": 1,
         "bounds": [0.0, 1.0], "seed": 1234, "spsa_samples": 4},
    ]
    return resolve_config("paper", overrides=[
        ("dataset", {"kind": "idx", **paths}), ("epochs", 2), ("batch_size", 80),
        ("eval_every", 1), ("log_weights_every", 1),
        ("optimizer.milestones", []), ("optimizer.base_lr", 0.1),
        ("objective.weight_scheme.burn_in_epoch", 1),
        ("attack_train.iterations", 3),
        ("attack_eval", cheap_eval),
        ("model.hidden", [6]),
        ("model.conv", {"height": 7, "width": 6, "filters": 2, "kernel_size": 3}),
        *extra])


@pytest.mark.parametrize("objective", [
    [("objective.family", "AT")],
    # GAIRAT's CE probe walks apart from the KL-mode training attack.
    [("objective.family", "TRADES"), ("objective.weight_scheme.family", "GAIRAT"),
     ("attack_train.loss_mode", "KL")],
])
def test_train_artifacts_do_not_depend_on_the_worker_count(
        monkeypatch, tmp_path, parts, objective):
    config = _tiny_conv_config(tmp_path, objective)
    artifacts = {}
    for workers in (1, 2):
        monkeypatch.setattr(attacks, "_WORKERS", workers)
        out = tmp_path / f"run{workers}"
        train(config, out_dir=str(out))
        artifacts[workers] = {name: (out / name).read_bytes() for name in
                              ("metrics.csv", "weights.csv", "checkpoint.ckpt")}
    assert artifacts[1] == artifacts[2]
    # Batches of 80 rows and the 100-row held-out split were cut into parts.
    assert {64, 16, 36} <= {n for n, _ in parts}


@pytest.mark.parametrize("slow", ["calling", "pool"])
def test_a_failing_part_raises_after_its_window_has_finished(monkeypatch, slow):
    # Every part meets the NaN at its first forward; the parts on one side
    # are held back, so a raise that did not wait for them would leave one
    # running.
    monkeypatch.setattr(attacks, "_WORKERS", 2)
    model = paper_model()
    model.params["dense0.weight"].data[3, 5] = np.nan
    caller = threading.current_thread().name
    running, finished = [], []
    original = attacks._walk

    def walk(model, x, *args):
        running.append(len(x))
        try:
            if (threading.current_thread().name == caller) == (slow == "calling"):
                time.sleep(0.2)
            return original(model, x, *args)
        finally:
            finished.append(len(x))
    monkeypatch.setattr(attacks, "_walk", walk)
    x = paper_split(200)
    with pytest.raises(NonFiniteError):
        run_attack(model, x, np.arange(200) % 10, SPECS["pgd"])
    assert len(running) == 2 and len(finished) == 2, (running, finished)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_conv_run_that_explodes_names_its_batch(monkeypatch, tmp_path):
    monkeypatch.setattr(attacks, "_WORKERS", 2)
    config = _tiny_conv_config(tmp_path, [("model.dtype", "float64"),
                                          ("optimizer.base_lr", 1e155)])
    with pytest.raises(NonFiniteError,
                       match=r"numeric failure at epoch \d+, batch \d+"):
        train(config)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_a_forked_child_walks_on_its_own_pool(monkeypatch):
    # The parent's pool exists, and its thread is idle, when the child is
    # forked; the child has no such thread, so a part it submitted to that
    # pool would wait forever. It must finish, on a pool of its own, and
    # give the parent's bytes.
    monkeypatch.setattr(attacks, "_WORKERS", 2)
    model = paper_model()
    x = paper_split(128)
    y = np.arange(128) % 10
    want = run_attack(model, x, y, SPECS["pgd"])
    parent_pool = attacks._pool
    assert parent_pool is not None
    pid = os.fork()
    if pid == 0:  # the child: report through the exit code only
        code = 1
        try:
            fresh = attacks._pool is None
            got = run_attack(model, x, y, SPECS["pgd"])
            code = 0 if fresh and got.tobytes() == want.tobytes() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's attack hung")
        time.sleep(0.05)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
    assert attacks._pool is parent_pool


def test_worker_count_falls_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert attacks._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert attacks._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert attacks._usable_cpus() == 1


_CONV_ATTACK_CHILD = """
import ctypes
import numpy as np
from virlab import attacks
from virlab.attacks import AttackFamily, AttackSpec, run_attack
from virlab.models import Arch, Classifier, ConvStem
attacks._WORKERS = 2
stem = ConvStem(height=28, width=28, filters=8, kernel_size=5)
model = Classifier(Arch((stem.out_dim, 128, 64, 10), conv=stem, dtype="float32"),
                   seed=5)
x = np.random.default_rng(0).uniform(0.0, 1.0, size=(128, 784))
run_attack(model, x, np.arange(128) % 10,
           AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.04,
                      iterations=3, bounds=(0.0, 1.0), seed=7))
assert attacks._pool is not None
libc = ctypes.CDLL(None)
"""


def _after_a_conv_attack(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh process after a 128-row paper-net PGD on two
    workers, with one BLAS thread; ``libc`` is the C library there."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(virlab.__file__))]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _CONV_ATTACK_CHILD + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's malloc")
def test_a_conv_attack_on_two_workers_leaves_one_malloc_arena():
    # The pool's worker would take a glibc malloc arena of its own, which
    # keeps what the worker frees; the pool is built with one arena for the
    # whole process, so malloc_stats reports one. A fresh process, so no
    # earlier thread has made an arena, and one BLAS thread, so no BLAS
    # thread makes one either.
    done = _after_a_conv_attack("libc.malloc_stats()\n")
    arenas = [line for line in done.stderr.splitlines() if line.startswith("Arena ")]
    assert len(arenas) == 1, done.stderr


_MAPPED_BYTES = """
class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]
libc.mallinfo2.restype = MallInfo2
np.ones(16 << 20, dtype=np.uint8)  # mapped, then freed at once
before = libc.mallinfo2().hblkhd
block = np.ones(8 << 20, dtype=np.uint8)
print(libc.mallinfo2().hblkhd - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or tuple(map(int, platform.libc_ver()[1].split(".")[:2])) < (2, 33),
                    reason="needs glibc's mallinfo2")
def test_after_a_conv_attack_a_4_mb_block_is_mapped_on_its_own():
    # glibc's own threshold would rise to the 16 MB block's size once it is
    # freed, and the 8 MB block would come from the heap; fixed at 4 MB, it
    # is mapped on its own, so the mapped bytes grow by at least its size.
    done = _after_a_conv_attack(_MAPPED_BYTES)
    assert int(done.stdout) >= 8 << 20, done.stdout
