"""End-to-end acceptance checks, one test per criterion.

Each test appends a one-line verdict to conftest.ACCEPTANCE_LINES (echoed in
the terminal summary) and enforces its stated runtime budget. Reference
values were computed with an independent high-precision oracle (mpmath at 50
digits) rather than transcribed.
"""

import csv
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, make_mlp
from oracles import linear_risk
from virlab.attacks import AttackFamily, AttackSpec, LossMode, run_attack
from virlab.config import resolve_config
from virlab.gmm import GmmSpec, optimal_linear, risk_report, theorem1_risks
from virlab.objectives import at_loss, trades_loss, vir_at_loss, vir_trades_loss
from virlab.reweight import (discrepancy_score, gairat_weight, mail_weight,
                             probability_margin, vir_weight,
                             vulnerability_score)
from virlab.tensor import PROB_FLOOR
from virlab.training import evaluate, train

REL = 1e-9


def check(failures: list, cond: bool, msg: str) -> None:
    if not cond:
        failures.append(msg)


def conclude(num: int, name: str, failures: list,
             elapsed: float | None = None, budget: float | None = None) -> None:
    if budget is not None and elapsed is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget")
    line = f"criterion {num} [{name}]: {'PASS' if not failures else 'FAIL'}"
    if elapsed is not None:
        line += f" ({elapsed:.1f}s)"
    ACCEPTANCE_LINES.append(line)
    assert not failures, f"criterion {num} [{name}]: " + "; ".join(failures)


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * abs(b)


# -- criterion 1: weight-function value table -------------------------------------


def test_criterion_01_weight_value_table():
    t0 = time.perf_counter()
    f = []
    # vulnerability score, VIR-AT (alpha=7, gamma=10) and VIR-TRADES (8, 3)
    check(f, rel_close(vulnerability_score(0.5, 7.0, 10.0),
                       0.04716562899359827), "s_v(0.5; 7, 10)")
    check(f, rel_close(vulnerability_score(1.0, 7.0, 10.0),
                       3.1779950833739395e-04), "s_v(1; 7, 10)")
    check(f, rel_close(vulnerability_score(0.5, 8.0, 3.0),
                       1.7850412811874385), "s_v(0.5; 8, 3)")
    # discrepancy score, including its asymmetry
    check(f, rel_close(discrepancy_score([0.75, 0.25], [0.25, 0.75]),
                       0.5493061443340549), "s_d flip example")
    check(f, rel_close(discrepancy_score([0.9, 0.1], [0.5, 0.5]),
                       0.3680642071684971), "s_d forward")
    check(f, rel_close(discrepancy_score([0.5, 0.5], [0.9, 0.1]),
                       0.5108256237659907), "s_d reverse")
    # combined VIR weight
    check(f, vir_weight(123.0, 0.0, 0.007) == 0.007, "beta floor attained")
    check(f, rel_close(vir_weight(7.0, 0.5, 0.007), 3.507), "w(7, 0.5) + 0.007")
    w = vir_weight(vulnerability_score(0.5, 8.0, 3.0), np.log(2.0), 1.6)
    check(f, rel_close(w, 2.8372963312381856), "VIR-TRADES composition")
    # GAIRAT
    check(f, rel_close(gairat_weight(0, 10, -1.0), 0.9996646498695335),
          "gairat k=0")
    check(f, rel_close(gairat_weight(5, 10, -1.0), 0.11920292202211756),
          "gairat k=5")
    check(f, rel_close(gairat_weight(10, 10, -1.0), 6.144174602214718e-06),
          "gairat k=10")
    # MAIL margin and weight
    check(f, probability_margin([[0.6, 0.3, 0.1]], [0]) == pytest.approx(0.3, rel=REL),
          "pm direct subtraction")
    check(f, probability_margin([[0.25, 0.25, 0.25, 0.25]], [2]) == 0.0,
          "pm uniform")
    check(f, probability_margin([[0.1, 0.9]], [0]) == pytest.approx(-0.8, rel=REL),
          "pm negative")
    check(f, mail_weight(0.37, 10.0, 0.37) == 0.5, "mail centered at beta")
    check(f, rel_close(mail_weight(1.0, 10.0, 0.0), 4.5397868702434395e-05),
          "mail pm=+1")
    check(f, rel_close(mail_weight(-1.0, 10.0, 0.0), 0.9999546021312976),
          "mail pm=-1")
    conclude(1, "weight value table", f, time.perf_counter() - t0, budget=1.0)


# -- criterion 2: gradient oracle --------------------------------------------------


def finite_diff_param_check(model, make_loss, h=1e-5) -> float:
    """Max relative gradient error over every parameter entry."""
    model.zero_grad()
    make_loss().backward()
    worst = 0.0
    for p in model.params.values():
        analytic = p.grad.copy()
        fd = np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + h
            hi = make_loss().item()
            p.data[idx] = orig - h
            lo = make_loss().item()
            p.data[idx] = orig
            fd[idx] = (hi - lo) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        worst = max(worst, float((np.abs(analytic - fd) / denom).max()))
    return worst


def test_criterion_02_gradient_oracle():
    t0 = time.perf_counter()
    f = []
    rng = np.random.default_rng(20)
    worst = 0.0
    for trial in range(100):
        model = make_mlp((2, 16, 3), seed=trial)
        n = 3
        x = rng.standard_normal((n, 2))
        x_adv = x + rng.uniform(-0.3, 0.3, size=x.shape)
        y = rng.integers(0, 3, size=n)
        w = rng.uniform(0.2, 3.0, size=n)
        tau = float(rng.uniform(0.5, 8.0))
        losses = {
            "ce": lambda: at_loss(model, x, y),
            "trades": lambda: trades_loss(model, x, x_adv, y, tau),
            "vir_trades": lambda: vir_trades_loss(model, x, x_adv, y, tau, w),
        }
        for name, make_loss in losses.items():
            err = finite_diff_param_check(model, make_loss)
            worst = max(worst, err)
            if err >= 1e-4:
                f.append(f"trial {trial} {name}: max rel grad error {err:.2e}")
                break
        if f:
            break
    check(f, worst < 1e-4, f"worst relative error {worst:.2e} not < 1e-4")
    conclude(2, "gradient oracle", f, time.perf_counter() - t0, budget=60.0)


# -- criterion 3: Theorem 1 closed forms vs Monte Carlo ---------------------------


def test_criterion_03_theorem1():
    t0 = time.perf_counter()
    f = []
    rm, rp = theorem1_risks(GmmSpec(d=4, eta=1.0, sigma=2.0, k_var=2.0))
    # the published 5-decimal figures, then the oracle at full precision
    check(f, abs(rm - 0.10790) <= 1e-4, f"R- {rm:.6f} vs printed 0.10790")
    check(f, abs(rp - 0.35152) <= 1e-4, f"R+ {rp:.6f} vs printed 0.35152")
    check(f, rel_close(rm, 0.10793519173010149), "R- vs high-precision oracle")
    check(f, rel_close(rp, 0.35152444002085825), "R+ vs high-precision oracle")
    rep = risk_report(GmmSpec(d=4, eta=1.0, sigma=2.0, k_var=2.0),
                      n=1_000_000, seed=0)
    check(f, abs(rep.mc_r_minus - rep.r_minus) <= 5 * rep.se_minus,
          "MC R- outside 5 standard errors")
    check(f, abs(rep.mc_r_plus - rep.r_plus) <= 5 * rep.se_plus,
          "MC R+ outside 5 standard errors")
    check(f, rep.mc_agrees, "risk_report.mc_agrees is False")
    for k in (1.5, 2.0, 4.0):
        r = risk_report(GmmSpec(d=4, eta=1.0, sigma=2.0, k_var=k),
                        n=10_000, seed=1)
        check(f, r.r_minus < r.r_plus, f"K={k}: R- < R+ violated")
        check(f, r.p_minus > r.p_plus, f"K={k}: P- > P+ violated")
    conclude(3, "theorem 1", f, time.perf_counter() - t0, budget=30.0)


# -- criterion 4: threshold consistency --------------------------------------------


def test_criterion_04_threshold_consistency():
    t0 = time.perf_counter()
    f = []
    rng = np.random.default_rng(4)
    for i in range(100):
        spec = GmmSpec(d=int(rng.integers(1, 33)),
                       eta=float(rng.uniform(0.1, 5.0)),
                       sigma=float(rng.uniform(0.2, 4.0)),
                       k_var=float(rng.uniform(1.05, 6.0)))
        try:
            # raises ArithmeticError if its two derivations of the
            # threshold disagree beyond 1e-9
            clf = optimal_linear(spec)
        except ArithmeticError as e:
            f.append(f"spec {i}: {e}")
            break
        got = linear_risk(clf, spec)
        want = theorem1_risks(spec)
        if not (rel_close(got[0], want[0]) and rel_close(got[1], want[1])):
            f.append(f"spec {i}: classifier risks diverge from closed forms")
            break
    conclude(4, "threshold consistency", f, time.perf_counter() - t0, budget=1.0)


# -- criterion 5: unit-weight reduction --------------------------------------------


def oracle_ce(z, y):
    """Per-row cross entropy as log-sum-exp minus the true logit."""
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1)) - z[np.arange(len(y)), y]


def oracle_kl(z_p, z_q):
    """Per-row KL(softmax(z_p) || softmax(z_q)): 0 * log 0 = 0, and both
    probabilities clamped at PROB_FLOOR inside the logarithm."""
    p = np.exp(z_p - z_p.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    q = np.exp(z_q - z_q.max(axis=1, keepdims=True))
    q /= q.sum(axis=1, keepdims=True)
    logs = np.log(np.maximum(p, PROB_FLOOR)) - np.log(np.maximum(q, PROB_FLOOR))
    return np.where(p > 0.0, p * logs, 0.0).sum(axis=1)


def test_criterion_05_reduction_regression():
    t0 = time.perf_counter()
    f = []
    rng = np.random.default_rng(5)
    worst_at = worst_trades = 0.0
    for trial in range(50):
        d = int(rng.integers(2, 5))
        c = int(rng.integers(2, 5))
        model = make_mlp((d, int(rng.integers(3, 17)), c), seed=trial)
        n = int(rng.integers(1, 9))
        x = rng.standard_normal((n, d))
        x_adv = x + rng.uniform(-0.5, 0.5, size=x.shape)
        y = rng.integers(0, c, size=n)
        ones = np.ones(n)
        tau = float(rng.uniform(0.5, 9.0))
        z_nat = model.forward(x).data
        z_adv = model.forward(x_adv).data
        worst_at = max(worst_at, abs(vir_at_loss(model, x, x_adv, y, ones).item()
                                     - oracle_ce(z_adv, y).mean()))
        want = (oracle_ce(z_nat, y) + tau * oracle_kl(z_nat, z_adv)).mean()
        worst_trades = max(worst_trades,
                           abs(vir_trades_loss(model, x, x_adv, y, tau, ones).item()
                               - want))
    check(f, worst_at <= 1e-12, f"VIR-AT vs AT oracle gap {worst_at:.2e}")
    check(f, worst_trades <= 1e-12, f"VIR-TRADES vs TRADES oracle gap {worst_trades:.2e}")
    conclude(5, "unit-weight reduction", f, time.perf_counter() - t0, budget=10.0)


# -- criteria 6 and 9 share five full desk-profile runs ---------------------------


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    t0 = time.perf_counter()
    out0 = str(tmp_path_factory.mktemp("desk") / "seed0")
    logs = []
    for seed in range(5):
        config = resolve_config(overrides=[("seed", seed),
                                           ("dataset.seed", seed)])
        _, log = train(config, out_dir=out0 if seed == 0 else None)
        logs.append(log)
    return {"logs": logs, "out0": out0, "burn_in": 18, "per_class": 200,
            "epochs": 30, "elapsed": time.perf_counter() - t0}


def test_criterion_06_burn_in_invariant(desk_runs):
    f = []
    burn_in = desk_runs["burn_in"]
    n = desk_runs["per_class"]
    log = desk_runs["logs"][0]
    for row in log.rows:
        if row.epoch <= burn_in:
            check(f, row.weight_sums == [float(n)] * 3,
                  f"epoch {row.epoch}: weight sums {row.weight_sums} != counts")
    # recompute the sums independently from the weight log, bit for bit
    with open(f"{desk_runs['out0']}/weights.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    sums: dict[int, dict[int, float]] = {}
    distinct: dict[int, set] = {}
    for r in records:
        epoch = int(r["epoch"])
        sums.setdefault(epoch, {0: 0.0, 1: 0.0, 2: 0.0})
        sums[epoch][int(r["class"])] += float(r["weight"])
        distinct.setdefault(epoch, set()).add(r["weight"])
    for epoch in range(1, burn_in + 1):
        check(f, all(sums[epoch][c] == float(n) for c in range(3)),
              f"weights.csv epoch {epoch} sums are not bit-exact counts")
        check(f, distinct[epoch] == {"1.0"},
              f"weights.csv epoch {epoch} has non-unit burn-in weights")
    post = [e for e in distinct if e > burn_in]
    check(f, len(post) > 0, "no post-burn-in epochs logged")
    check(f, any(len(distinct[e]) > 1 for e in post),
          "weights stayed uniform in every post-burn-in epoch")
    conclude(6, "burn-in invariant", f)


# -- criterion 7: attack contracts --------------------------------------------------


def random_attack_case(rng, family):
    d = int(rng.integers(1, 5))
    c = int(rng.integers(2, 5))
    layers = (d, c) if rng.random() < 0.5 else (d, int(rng.integers(3, 9)), c)
    model = make_mlp(layers, seed=int(rng.integers(0, 2**31)))
    n = int(rng.integers(1, 4))
    eps = float(rng.choice([0.0, 1e-6, 0.25, 1.0]))
    bounds = None
    if rng.random() < 0.5:
        bounds = (float(rng.uniform(-2.0, -0.5)), float(rng.uniform(0.5, 2.0)))
        x = rng.uniform(bounds[0], bounds[1], size=(n, d))
    else:
        x = rng.standard_normal((n, d))
    y = rng.integers(0, c, size=n)
    common = dict(epsilon=eps, bounds=bounds, seed=int(rng.integers(0, 2**31)))
    if family is AttackFamily.FGSM:
        spec = AttackSpec(family, **common)
    elif family is AttackFamily.SPSA:
        spec = AttackSpec(family, iterations=int(rng.integers(1, 3)),
                          spsa_samples=4, step_size=float(rng.uniform(0.01, 0.3)),
                          **common)
    else:
        mode = LossMode.CW_MARGIN if family is AttackFamily.CW_PGD else LossMode.CE
        spec = AttackSpec(family, step_size=float(rng.uniform(0.05, 0.6)),
                          iterations=int(rng.integers(1, 4)), loss_mode=mode,
                          **common)
    return model, x, y, spec


def test_criterion_07_attack_contracts():
    t0 = time.perf_counter()
    f = []
    rng = np.random.default_rng(777)
    for family in (AttackFamily.FGSM, AttackFamily.PGD, AttackFamily.CW_PGD,
                   AttackFamily.SPSA):
        for case in range(1000):
            model, x, y, spec = random_attack_case(rng, family)
            adv = run_attack(model, x, y, spec)
            where = f"{family.value} case {case}"
            if np.abs(adv - x).max() > spec.epsilon + 1e-12:
                f.append(f"{where}: left the epsilon ball")
            if spec.bounds is not None and (
                adv.min() < spec.bounds[0] or adv.max() > spec.bounds[1]
            ):
                f.append(f"{where}: violated bounds")
            if not np.array_equal(adv, run_attack(model, x, y, spec)):
                f.append(f"{where}: not bit-deterministic under fixed seed")
            if f:
                break
        if f:
            break
    conclude(7, "attack contracts", f, time.perf_counter() - t0, budget=120.0)


# -- criterion 8: adversarial training beats clean training under attack -----------


def efficacy_overrides(seed):
    return [
        ("epochs", 20),
        ("eval_every", 20),
        ("optimizer.milestones", [15]),
        ("objective.family", "AT"),
        ("objective.weight_scheme.family", "UNIFORM"),
        ("dataset.num_classes", 2),
        ("dataset.dim", 10),
        ("dataset.variances", [1.0, 1.0]),
        ("dataset.separation", 6.0),
        ("dataset.per_class_n", 100),
        ("dataset.eval_per_class_n", 200),
        ("dataset.seed", seed),
        ("dataset.eval_seed", seed + 100),
        ("model.hidden", [64]),
        ("seed", seed),
        # eval: PGD-20 at eps = 0.25 * separation
        ("attack_eval", [{"family": "PGD", "epsilon": 1.5, "step_size": 0.2,
                          "iterations": 20, "loss_mode": "CE", "seed": 1234}]),
    ]


def test_criterion_08_mechanism_efficacy():
    t0 = time.perf_counter()
    f = []
    gaps = []
    for seed in (0, 1, 2):
        base = efficacy_overrides(seed)
        # the clean twin runs the identical pipeline with a zero-radius attack
        clean_cfg = resolve_config(overrides=base + [
            ("attack_train.epsilon", 0.0), ("attack_train.iterations", 1)])
        at_cfg = resolve_config(overrides=base + [
            ("attack_train.epsilon", 1.5), ("attack_train.step_size", 0.3),
            ("attack_train.iterations", 10)])
        robust = {}
        for name, config in (("clean", clean_cfg), ("at", at_cfg)):
            model, _ = train(config)
            _, eval_set = config.dataset.load()
            report = evaluate(model, eval_set, list(config.attack_eval))
            robust[name] = report.robust_accuracy["pgd"]
            if name == "clean":
                check(f, report.clean_accuracy >= 0.95,
                      f"seed {seed}: clean-trained accuracy "
                      f"{report.clean_accuracy:.3f} below the 95% premise")
        gaps.append(robust["at"] - robust["clean"])
    mean_gap = float(np.mean(gaps))
    check(f, mean_gap >= 0.20,
          f"mean robust-accuracy gap {mean_gap * 100:.1f}pp < 20pp "
          f"(per-seed: {[f'{g * 100:.1f}' for g in gaps]})")
    conclude(8, "mechanism efficacy", f, time.perf_counter() - t0, budget=600.0)


# -- criterion 9: the high-variance class draws the largest weights ----------------


def test_criterion_09_figure3_analog(desk_runs):
    t0 = time.perf_counter()
    f = []
    wins = total = 0
    for log in desk_runs["logs"]:
        for row in log.rows:
            if row.epoch > desk_runs["burn_in"]:
                total += 1
                wins += int(int(np.argmax(row.weight_sums)) == 2)
    check(f, total == 5 * (desk_runs["epochs"] - desk_runs["burn_in"]),
          f"expected 60 post-burn-in observations, saw {total}")
    check(f, wins / total >= 0.90,
          f"high-variance class won only {wins}/{total} epochs")
    elapsed = desk_runs["elapsed"] + (time.perf_counter() - t0)
    conclude(9, "figure-3 analog", f, elapsed, budget=600.0)


# -- criterion 10: ablation harness parity ------------------------------------------


def ablation_config(ablation):
    return resolve_config(overrides=[
        ("epochs", 3),
        ("eval_every", 3),
        ("optimizer.milestones", []),
        ("dataset.per_class_n", 30),
        ("dataset.eval_per_class_n", 30),
        ("attack_train.iterations", 3),
        ("model.hidden", [16]),
        ("attack_eval", [{"family": "FGSM", "epsilon": 0.75, "seed": 1234}]),
        ("objective.weight_scheme.burn_in_epoch", 1),
        ("objective.weight_scheme.ablation", ablation),
    ])


def test_criterion_10_ablation_parity(tmp_path):
    f = []
    logs = {}
    for ablation in ("FULL", "SV_ONLY", "SD_ONLY"):
        out = tmp_path / ablation.lower()
        train(ablation_config(ablation), out_dir=str(out))
        with open(out / "weights.csv", newline="") as fh:
            logs[ablation] = list(csv.DictReader(fh))
    counts = {k: len(v) for k, v in logs.items()}
    check(f, len(set(counts.values())) == 1, f"row counts differ: {counts}")

    # the logged columns must stay mutually consistent on every row
    beta = 0.007
    for name, expect in (("FULL", lambda sv, sd: sv * sd + beta),
                         ("SV_ONLY", lambda sv, sd: sv),
                         ("SD_ONLY", lambda sv, sd: sd)):
        for r in logs[name]:
            if int(r["epoch"]) == 1:
                continue  # burn-in rows carry weight 1.0 and empty scores
            got = float(r["weight"])
            want = expect(float(r["s_v"]), float(r["s_d"]))
            if abs(got - want) > 1e-12:
                f.append(f"{name} epoch {r['epoch']} sample "
                         f"{r['sample_index']}: weight {got!r} != {want!r}")
                break

    def weight_column(name):
        return [r["weight"] for r in logs[name] if int(r["epoch"]) > 1]

    for a, b in (("FULL", "SV_ONLY"), ("FULL", "SD_ONLY"),
                 ("SV_ONLY", "SD_ONLY")):
        check(f, weight_column(a) != weight_column(b),
              f"{a} and {b} weight logs are indistinguishable")
    conclude(10, "ablation parity", f)


# -- criterion 11: byte-identical artifacts -----------------------------------------


def test_criterion_11_determinism(tmp_path):
    f = []
    config_overrides = [
        ("epochs", 2),
        ("eval_every", 2),
        ("optimizer.milestones", []),
        ("dataset.per_class_n", 25),
        ("dataset.eval_per_class_n", 25),
        ("attack_train.iterations", 3),
        ("model.hidden", [12]),
        ("objective.weight_scheme.burn_in_epoch", 0),
    ]
    for name in ("first", "second"):
        train(resolve_config(overrides=config_overrides),
              out_dir=str(tmp_path / name))
    for artifact in ("metrics.csv", "weights.csv", "checkpoint.ckpt"):
        a = (tmp_path / "first" / artifact).read_bytes()
        b = (tmp_path / "second" / artifact).read_bytes()
        check(f, a == b, f"{artifact} differs between identical runs")
    conclude(11, "determinism", f)
