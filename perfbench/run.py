"""virlab benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it imports virlab
from the checkout's ``src`` and exits with code 2 if that is missing. It
prints a readable report, then, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` makes a warm-up, an
untraced and a traced repetition, runs the fixed layer cases and reports the
per-layer metrics (see README.md).
"""

import os
import sys

# Pinned before numpy is first imported, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("desk-train", "image-train", "image-eval")
MIN_REPS = 2
# Nominal calibrate() time. Only ratios between runs matter: it fixes the
# scale on which machine-speed-corrected figures are reported.
CALIB_REF_S = 0.07
# Stop starting repetitions after this long, whatever --seconds says, so a
# run ends well inside its time limit.
MAX_MEASURE_S = 120.0

IMPORT_CODE = ("import time; t = time.perf_counter(); import virlab.training, "
               "virlab.config; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import virlab (numpy included) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=SRC))
    return float(out.stdout)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work, small numpy ops and
    large matmuls; virlab is not involved, so no change to it moves this."""
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((64, 64))
    big_a = rng.standard_normal((128, 1024))
    big_b = rng.standard_normal((1024, 128))
    t0 = perf_counter()
    acc = 0.0
    for i in range(2000):
        h = np.maximum(small @ small, 0.0) + 1.0
        acc += float(h.sum()) + sum(j * 0.5 for j in range(10))
    for _ in range(20):
        acc += float((big_a @ big_b).sum())
    return perf_counter() - t0


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(load_start) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(v, 2) for v in load_start],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """Repetitions of one workload, with their correctness bookkeeping."""

    def __init__(self, workload, work_dir: str):
        self.wl = workload
        self.work_dir = work_dir
        self.reps: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def rep(self, before=None, after=None) -> dict | None:
        """One checked repetition; None if it raised or failed a check."""
        self.attempted += 1
        out_dir = os.path.join(self.work_dir, f"rep{self.attempted}")
        os.makedirs(out_dir)
        try:
            if before:
                before()
            try:
                r = self.wl.rep(out_dir)
            finally:
                if after:
                    after()
            problems = self.wl.check(r)
        except Exception:  # noqa: BLE001 - a failed repetition is counted
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.reps and r["digests"] != self.reps[0]["digests"]:
            problems.append(f"digests {r['digests']} differ from the first "
                            f"repetition's {self.reps[0]['digests']}")
        if problems:
            print(f"repetition {self.attempted} failed: {problems}", file=sys.stderr)
            self.failed += 1
            return None
        self.reps.append(r)
        return r


def measure(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics with tracing off, and the measured repetitions.

    Before every repetition the run times a set-up and calibrate(), so all
    three sample the same stretches of machine time. Throughput is the work
    of all measured repetitions over their total time. On a shared machine
    the speed of the whole machine drifts by tens of percent over minutes,
    so samples_per_s and setup_s are reported scaled to the calibration's
    reference speed: raw x (calibration / CALIB_REF_S), and the inverse for
    set-up time. The report prints the raw figures too.
    """
    setup_s, calib = [], []

    def set_up():
        calib.append(calibrate())
        imported = import_seconds()
        t0 = perf_counter()
        run.wl.setup()
        setup_s.append(imported + perf_counter() - t0)

    # The first repetition in a process runs slower (allocator and cache
    # warm-up); it is checked but not measured.
    run.rep(before=set_up)
    measured = len(run.reps)
    start = perf_counter()
    while run.attempted < MIN_REPS + 1 or (
            perf_counter() - start < seconds
            and perf_counter() - start < MAX_MEASURE_S):
        run.rep(before=set_up)
    reps = run.reps[measured:]
    if not reps:
        raise RuntimeError("every repetition failed")
    scale = statistics.median(calib) / CALIB_REF_S
    throughput = sum(r["samples"] for r in reps) / sum(r["seconds"] for r in reps)
    print(f"  calibration = {statistics.median(calib):.6g} s (reference "
          f"{CALIB_REF_S} s): speed scale {scale:.4f}; unscaled samples_per_s = "
          f"{throughput:.6g} 1/s, setup_s = {statistics.median(setup_s):.6g} s")
    rates = [r["samples"] / r["seconds"] * scale for r in reps]
    accs = [r["robust_acc"] for r in reps]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(setup_s) / scale,
                    [v / scale for v in setup_s], "s"),
        "samples_per_s": (throughput * scale, rates, "1/s"),
        "robust_acc": (statistics.median(accs), accs, "ratio"),
        "peak_rss_mb": (rss, [rss], "MB"),
    }, reps


def traced(run: Run, seed: int, spans_path: str) -> dict:
    """Per-layer metrics: a warm-up, one untraced and one traced repetition,
    then the fixed layer cases. Tracing must not change any output, so the
    traced repetition's digests must equal the untraced one's."""
    import cases
    import tracing
    from spans import Recorder

    rec = Recorder()
    tracer = tracing.Tracer(rec)
    rec.run_id = "setup"
    tracer.install()
    try:
        run.wl.setup()
    finally:
        tracer.uninstall()
    run.rep()
    plain = run.rep()
    rec.run_id = "rep"
    root: list[int] = []

    def start():
        tracer.install()
        root.append(rec.begin("workload.rep"))

    def stop():
        rec.end(root[0])
        tracer.uninstall()

    traced_rep = run.rep(before=start, after=stop)
    rec.write(spans_path)
    if run.failed:
        raise RuntimeError("a repetition failed; no per-layer metrics")

    metrics = tracing.layer_metrics(rec, "rep", "setup")
    overhead = traced_rep["seconds"] - plain["seconds"]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / plain["seconds"]
    # One pair of repetitions rarely resolves the overhead on a shared
    # machine; spans x the cost of one wrapped call estimates it steadily.
    spans = sum(1 for s in rec.spans if s.run_id == "rep")
    metrics["trace.spans"] = spans
    metrics["trace.est_overhead_s"] = spans * tracing.span_cost_s()
    metrics["untraced_s"] = rec.self_times()[root[0]]
    metrics["weights_csv_bytes"] = traced_rep.get("weights_csv_bytes", 0)
    metrics.update(cases.op_cases(seed))
    metrics.update(cases.layer_cases(run.work_dir, seed))
    print("spans of the traced repetition (calls, s, self_s):")
    for name, row in sorted(rec.summary("rep").items(), key=lambda kv: -kv[1]["s"]):
        print(f"  {name:38s} {row['calls']:8d} {row['s']:10.4f} {row['self_s']:10.4f}")
    return {k: (v, [v], unit_of(k)) for k, v in metrics.items()}


def unit_of(name: str) -> str:
    if "bytes" in name:
        return "bytes"
    if name.endswith((".desk", ".paper")):  # every case is ms per call
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def report(run: Run, metrics: dict, reps: list[dict]) -> None:
    print(f"{'metric':44s} {'value':>12s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'n':>3s}  unit")
    for name, (value, samples, unit) in metrics.items():
        q1, med, q3 = quartiles(samples)
        print(f"{name:44s} {value:12.6g} {med:12.6g} {q1:12.6g} {q3:12.6g}"
              f" {len(samples):3d}  {unit}")
    # The measured figures under the names the documentation uses per workload.
    if reps and "families" in reps[0]:
        for fam in reps[0]["families"]:
            n = sum(r["families"][fam]["n"] for r in reps)
            t = sum(r["families"][fam]["seconds"] for r in reps)
            print(f"  eval_samples_per_s.{fam} = {n / t:.6g} 1/s (unscaled)")
    elif reps:
        print(f"  train_samples_per_s = {metrics['samples_per_s'][0]:.6g} 1/s (scaled)")
    print(f"  error_rate = {run.failed}/{run.attempted} = "
          f"{run.failed / max(run.attempted, 1):.4g}")
    if run.reps:
        print(f"  repetition seconds = {[round(r['seconds'], 4) for r in run.reps]}")
        print(f"  digests = {json.dumps(run.reps[0]['digests'])}")


def main(argv=None) -> int:
    load_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "virlab", "__init__.py")):
        print(f"error: no virlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        run = Run(workloads.WORKLOADS[args.workload](work_dir, args.seed), work_dir)
        run.wl.prepare()
        print(f"virlab benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"stamp: {json.dumps(stamp(load_start))}")
        if args.trace:
            spans_dir = os.path.join(WORK_ROOT, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            metrics, reps = traced(run, args.seed, os.path.join(
                spans_dir, f"{args.workload}-seed{args.seed}.jsonl")), []
        else:
            metrics, reps = measure(run, args.seconds)
        report(run, metrics, reps)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
