"""Command-line surface.

Subcommands: train, eval, attack, theory, sweep, report. Run configuration
resolves in three layers, last writer wins:

    profile defaults  <  --config FILE (JSON)  <  --set dotted.path=value

train and sweep also take --seed, --epochs and --batch-size, each sugar
for the --set path of its own name and so of the highest precedence.
eval and attack take none of them: they score a checkpoint on the split
DataSource.load returns. Exit codes: 0 success, 2 bad configuration,
3 non-finite numbers (a run's or a checkpoint's), 4 I/O or file-format
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .attacks import run_attack
from .codec import read_csv, write_csv
from .config import PROFILES, resolve_config
from .data import Dataset, save_csv
from .errors import ConfigError, DataFormatError, NonFiniteError
from .gmm import GmmSpec, corollary_check, risk_report
from .models import load_checkpoint, predict_labels
from .reweight import read_weight_records
from .training import (check_fits, condition_names, evaluate, sweep, train,
                       write_confusions)


def _split_assignment(flag: str, raw: str) -> list[str]:
    if "=" not in raw:
        raise ConfigError(f"{flag} expects path=value, got {raw!r}")
    return raw.split("=", 1)


def _parse_value(text: str):
    """A --set or --grid value: JSON if it parses, else the raw string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_set(raw: str) -> tuple[str, object]:
    path, text = _split_assignment("--set", raw)
    return path, _parse_value(text)


def _collect_overrides(args) -> list[tuple[str, object]]:
    overrides = [_parse_set(s) for s in (args.set or [])]
    for name in ("seed", "epochs", "batch_size"):
        value = getattr(args, name, None)
        if value is not None:
            overrides.append((name, value))
    return overrides


def _resolved(args):
    return resolve_config(args.profile, args.config, _collect_overrides(args))


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk",
                   help="named base config (default: desk)")
    p.add_argument("--config", metavar="FILE", help="JSON config file")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="override one config field, e.g. "
                        "--set objective.weight_scheme.alpha=8 (repeatable)")


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="shorthand for --set seed=N")
    p.add_argument("--epochs", type=int, help="shorthand for --set epochs=N")
    p.add_argument("--batch-size", type=int, dest="batch_size",
                   help="shorthand for --set batch_size=N")


def _cmd_train(args) -> int:
    config = _resolved(args)
    model, log = train(config, out_dir=args.out)
    last = log.rows[-1]
    robust = {k: v for k, v in last.robust_accuracy.items() if v is not None}
    print(f"trained {config.epochs} epochs; "
          f"clean {last.clean_accuracy:.4f}; "
          + "; ".join(f"{k} {v:.4f}" for k, v in robust.items()))
    print(f"artifacts in {args.out}")
    return 0


def _load_scored(args):
    """The checkpoint's model and epoch, the resolved config, and the split
    the config evaluates, checked to fit the model."""
    model, epoch, _ = load_checkpoint(args.checkpoint)
    config = _resolved(args)
    _, dataset = config.dataset.load()
    check_fits(model, dataset)
    return model, epoch, config, dataset


def _cmd_eval(args) -> int:
    model, epoch, config, dataset = _load_scored(args)
    report = evaluate(model, dataset, list(config.attack_eval))
    print(f"checkpoint epoch {epoch}: clean {report.clean_accuracy:.4f}")
    for name, acc in report.robust_accuracy.items():
        print(f"  robust[{name}] {acc:.4f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_confusions(report, args.out)
        names = list(report.robust_accuracy)
        write_csv(os.path.join(args.out, "eval.csv"), [
            ["clean_acc"] + [f"robust_acc_{n}" for n in names],
            [report.clean_accuracy] + [report.robust_accuracy[n] for n in names]])
        print(f"artifacts in {args.out}")
    return 0


def _cmd_attack(args) -> int:
    model, _, config, dataset = _load_scored(args)
    specs = list(config.attack_eval)
    if not 0 <= args.index < len(specs):
        raise ConfigError(
            f"--index {args.index} out of range; config has {len(specs)} "
            "eval attacks"
        )
    x_adv = run_attack(model, dataset.features, dataset.labels, specs[args.index])
    flipped = predict_labels(model, x_adv) != dataset.labels
    save_csv(Dataset(x_adv, dataset.labels), args.out)
    print(f"{condition_names(specs)[args.index]}: wrote {len(dataset)} adversarial "
          f"examples to {args.out}; model now wrong on {flipped.mean():.4f}")
    return 0


def _cmd_theory(args) -> int:
    rows = []
    for k_var in args.k_var:
        spec = GmmSpec(d=args.d, eta=args.eta, sigma=args.sigma, k_var=k_var)
        rep = risk_report(spec, n=args.n, seed=args.seed)
        cor = corollary_check(spec, n=min(args.n, 100_000), seed=args.seed)
        rows.append({
            "d": args.d, "eta": args.eta, "sigma": args.sigma, "k_var": k_var,
            "risk_minus": rep.r_minus, "risk_plus": rep.r_plus,
            "mc_risk_minus": rep.mc_r_minus, "mc_risk_plus": rep.mc_r_plus,
            "se_minus": rep.se_minus, "se_plus": rep.se_plus,
            "mc_agrees": rep.mc_agrees,
            "p_minus": rep.p_minus, "p_plus": rep.p_plus,
            "corollary_holds": cor.passed,
        })
        print(f"k_var={k_var}: R-={rep.r_minus:.5f} R+={rep.r_plus:.5f} "
              f"mc_agrees={rep.mc_agrees} corollary={cor.passed}")
    if args.out:
        write_csv(args.out, [list(rows[0])] + [list(r.values()) for r in rows])
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    config = _resolved(args)
    grid: dict[str, list] = {}
    for raw in args.grid or []:
        path, text = _split_assignment("--grid", raw)
        if path in grid:
            raise ConfigError(f"--grid {path} given twice")
        grid[path] = [_parse_value(v) for v in text.split(",") if v.strip()]
    rows = sweep(config, grid, out_dir=args.out)
    ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"swept {len(rows)} points ({ok} ok); table in "
          f"{os.path.join(args.out, 'sweep.csv')}")
    return 0


def _metrics_row(row):
    for v in row[1:]:
        if v:
            float(v)  # every cell after row_kind is a number or empty
    return row


def _metrics_parser(header):
    if header[0] != "row_kind" or not {"epoch", "clean_acc"} <= set(header):
        raise ValueError(f"unexpected metrics CSV header {header}")
    return _metrics_row


def _confusion_parser(_):
    return lambda row: [float(v) for v in row]


def _cmd_report(args) -> int:
    run = args.run
    metrics_path = os.path.join(run, "metrics.csv")
    weights_path = os.path.join(run, "weights.csv")
    wrote = []

    if os.path.exists(metrics_path):
        header, rows = read_csv(metrics_path, _metrics_parser)
        keep = (["epoch", "clean_acc"]
                + [h for h in header if h.startswith("robust_acc_")]
                + [h for h in header if h.startswith("acc_class_")])
        idx = [header.index(h) for h in keep]
        out_path = os.path.join(run, "fig_accuracy.csv")
        write_csv(out_path, [keep] + [[row[i] for i in idx]
                                      for row in rows if row[0] == "epoch"])
        wrote.append(out_path)

    if os.path.exists(weights_path):
        sums: dict[int, dict[int, list]] = {}
        for r in read_weight_records(weights_path):
            cell = sums.setdefault(r.epoch, {}).setdefault(r.class_label, [0.0, 0])
            cell[0] += r.weight
            cell[1] += 1
        classes = sorted({c for per in sums.values() for c in per})
        out_path = os.path.join(run, "fig_class_weights.csv")
        means = [[epoch] + [per[c][0] / per[c][1] if c in per else None
                            for c in classes] for epoch, per in sorted(sums.items())]
        write_csv(out_path, [["epoch"] + [f"mean_weight_class_{c}" for c in classes]]
                  + means)
        wrote.append(out_path)

    for name in sorted(os.listdir(run)):
        if name.startswith("confusion_") and name.endswith(".csv"):
            matrix = np.array(read_csv(os.path.join(run, name), _confusion_parser,
                                       header=False)[1])
            row_sums = matrix.sum(axis=1, keepdims=True)
            normed = np.divide(matrix, np.maximum(row_sums, 1.0))
            out_path = os.path.join(run, "fig_" + name)
            write_csv(out_path, normed.tolist())
            wrote.append(out_path)

    if not wrote:
        raise DataFormatError(f"no metrics.csv or weights.csv under {run}")
    for path in wrote:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virlab",
        description="Adversarial training with vulnerability-aware instance "
                    "reweighting, at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the configured training recipe")
    _add_config_flags(p)
    _add_training_flags(p)
    p.add_argument("--out", "-o", default="run_out", help="artifact directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint under the eval attacks")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", "-o", help="directory for eval.csv + confusions")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("attack", help="emit adversarial examples for a checkpoint")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", type=int, default=0,
                   help="which attack_eval entry to run (default 0)")
    p.add_argument("--out", "-o", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("theory", help="class-risk closed forms vs Monte Carlo")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--k-var", type=float, nargs="+", default=[2.0],
                   dest="k_var", help="one or more std ratios to sweep")
    p.add_argument("--n", type=int, default=1_000_000,
                   help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", "-o", help="CSV path for the sweep table")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("sweep", help="train each point of a grid of config values")
    _add_config_flags(p)
    _add_training_flags(p)
    p.add_argument("--grid", action="append", metavar="PATH=V1,V2,...",
                   help="one grid axis: a --set path and comma-separated "
                        "values, each parsed as a --set value, e.g. "
                        "--grid seed=0,1,2 (repeatable; the grid is the "
                        "product of its axes)")
    p.add_argument("--out", "-o", default="sweep_out", help="artifact directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="regenerate figure CSVs from a run directory")
    p.add_argument("--run", required=True, help="directory holding metrics.csv etc.")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except UnicodeEncodeError as e:  # a path or text the locale cannot encode
        print(f"error: cannot encode {e.object!r} as {e.encoding}: {e.reason}",
              file=sys.stderr)
        return 4
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
