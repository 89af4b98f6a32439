"""Run configuration: dataclasses, their JSON form, and named profiles.

A run is one JSON document, decoded by the strict codec in ``codec``:
unknown keys anywhere in the tree and ill-typed values are rejected, so
typos fail fast instead of silently training with a default. Profiles
("desk", "paper") are full TrainConfigs; a config file and CLI flags
override them field by field (flag > config file > profile).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .attacks import AttackSpec
from .codec import check_keys, from_obj, to_obj
from .data import Dataset, from_gmm, load_csv, load_idx, synth_multiclass
from .errors import ConfigError
from .gmm import GmmSpec
from .models import Arch, ConvStem
from .objectives import ObjectiveSpec
from .reweight import WeightFamily


@dataclass(frozen=True)
class OptimConfig:
    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    milestones: tuple[int, ...] = (75, 90)
    decay_factor: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "milestones",
                           tuple(int(m) for m in self.milestones))
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.decay_factor <= 1:
            raise ConfigError(f"decay_factor must exceed 1, got {self.decay_factor}")
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ConfigError(f"milestones must increase strictly: {self.milestones}")


@dataclass(frozen=True)
class ModelConfig:
    """Dense widths plus an optional single conv stem (needs image geometry)."""

    hidden: tuple[int, ...] = (64, 64)
    conv: ConvStem | None = None

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be positive, got {self.hidden}")

    def arch(self, input_dim: int, num_classes: int) -> Arch:
        if self.conv is not None:
            if self.conv.height * self.conv.width != input_dim:
                raise ConfigError(
                    f"conv stem expects {self.conv.height}x{self.conv.width}"
                    f"={self.conv.height * self.conv.width} inputs, data has {input_dim}"
                )
            return Arch((self.conv.out_dim, *self.hidden, num_classes), self.conv)
        return Arch((input_dim, *self.hidden, num_classes))


_DATA_KEYS: dict[str, tuple[dict, dict]] = {
    # kind -> (required, optional), each key -> its type
    "synth": ({"num_classes": int, "dim": int, "variances": tuple[float, ...],
               "separation": float, "per_class_n": int},
              {"seed": int, "eval_per_class_n": int, "eval_seed": int}),
    "gmm": ({"d": int, "eta": float, "sigma": float, "k_var": float, "n": int},
            {"seed": int, "eval_n": int, "eval_seed": int}),
    "idx": ({"images": str, "labels": str},
            {"eval_images": str, "eval_labels": str}),
    "csv": ({"path": str}, {"eval_path": str}),
}


@dataclass(frozen=True)
class DataSource:
    """Where training (and optionally held-out) data comes from.

    kind is one of synth/gmm/idx/csv; params holds that kind's fields,
    checked against _DATA_KEYS (names and types) but stored as given. On
    the wire the two are one flat object, {"kind": ..., **params}.
    Synthetic eval splits draw from an independent stream (eval_seed,
    default seed+1).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _DATA_KEYS:
            raise ConfigError(
                f"dataset kind must be one of {sorted(_DATA_KEYS)}, got {self.kind!r}"
            )
        where = f"dataset[{self.kind}]"
        required, optional = _DATA_KEYS[self.kind]
        check_keys(self.params, where, required, optional)
        declared = {**required, **optional}
        for key, value in self.params.items():
            from_obj(declared[key], value, f"{where}.{key}")
        if self.kind == "idx":
            have = [k for k in ("eval_images", "eval_labels") if k in self.params]
            if len(have) == 1:
                raise ConfigError("idx eval split needs both eval_images and eval_labels")

    def load(self) -> tuple[Dataset, Dataset | None]:
        p = self.params
        if self.kind == "synth":
            seed = p.get("seed", 0)
            train = synth_multiclass(p["num_classes"], p["per_class_n"],
                                     p["variances"], p["separation"],
                                     p["dim"], seed)
            n_eval = p.get("eval_per_class_n", 0)
            if n_eval <= 0:
                return train, None
            eval_set = synth_multiclass(p["num_classes"], n_eval,
                                        p["variances"], p["separation"],
                                        p["dim"], p.get("eval_seed", seed + 1))
            return train, eval_set
        if self.kind == "gmm":
            spec = GmmSpec(d=p["d"], eta=p["eta"], sigma=p["sigma"],
                           k_var=p["k_var"])
            seed = p.get("seed", 0)
            train = from_gmm(spec, p["n"], seed)
            n_eval = p.get("eval_n", 0)
            if n_eval <= 0:
                return train, None
            return train, from_gmm(spec, n_eval, p.get("eval_seed", seed + 1))
        if self.kind == "idx":
            train = load_idx(p["images"], p["labels"])
            if "eval_images" in p:
                return train, load_idx(p["eval_images"], p["eval_labels"])
            return train, None
        train = load_csv(p["path"])
        if p.get("eval_path"):
            return train, load_csv(p["eval_path"])
        return train, None

    def to_obj(self) -> dict:
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_obj(cls, obj, where: str) -> "DataSource":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError(f"{where} must be an object with a 'kind' key")
        return cls(obj["kind"], {k: v for k, v in obj.items() if k != "kind"})


# -- the run config ------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    objective: ObjectiveSpec
    attack_train: AttackSpec
    attack_eval: tuple[AttackSpec, ...]
    dataset: DataSource
    optimizer: OptimConfig = OptimConfig()
    model: ModelConfig = ModelConfig()
    epochs: int = 115
    batch_size: int = 128
    seed: int = 0
    eval_every: int = 5
    log_weights_every: int = 1

    def __post_init__(self):
        object.__setattr__(self, "attack_eval", tuple(self.attack_eval))
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_every < 1 or self.log_weights_every < 1:
            raise ConfigError("logging cadences must be >= 1")
        if self.optimizer.milestones and self.optimizer.milestones[-1] >= self.epochs:
            raise ConfigError(
                f"milestones {self.optimizer.milestones} must all be < epochs "
                f"{self.epochs}"
            )
        if (self.objective.weight_scheme.family is WeightFamily.GAIRAT
                and self.attack_train.step_size <= 0):
            raise ConfigError(
                "objective.weight_scheme.family GAIRAT needs "
                f"attack_train.step_size > 0, got {self.attack_train.step_size}")

    def arch(self, train_set: Dataset) -> Arch:
        return self.model.arch(train_set.dim, train_set.num_classes)


def config_from_obj(obj: dict) -> TrainConfig:
    return from_obj(TrainConfig, obj, "config")


def config_to_obj(c: TrainConfig) -> dict:
    return to_obj(c)


def load_config_file(path) -> dict:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a single JSON object")
    return obj


def deep_merge(base: dict, override: dict) -> dict:
    """Dicts merge recursively; lists and scalars replace wholesale."""
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def set_dotted(obj: dict, path: str, value) -> None:
    """Set config[a][b][c] = value for path 'a.b.c'; integer parts index lists."""
    parts = path.split(".")
    cur = obj
    for i, part in enumerate(parts[:-1]):
        if isinstance(cur, list):
            try:
                key = int(part)
            except ValueError:
                raise ConfigError(
                    f"--set {path}: bad list index {part!r}"
                ) from None
        else:
            key = part
        try:
            nxt = cur[key]
        except (KeyError, IndexError, TypeError):
            nxt = None
        if not isinstance(nxt, (dict, list)):
            if isinstance(cur, list):
                raise ConfigError(f"--set {path}: bad list index {part!r}")
            cur[key] = {}
            nxt = cur[key]
        cur = nxt
    last = parts[-1]
    if isinstance(cur, list):
        try:
            cur[int(last)] = value
        except (ValueError, IndexError) as e:
            raise ConfigError(f"--set {path}: {e}") from e
    else:
        cur[last] = value


# -- named profiles ------------------------------------------------------------


def desk_profile() -> dict:
    """Small 3-class mixture that trains in seconds on a laptop.

    The high-variance third class is the designated vulnerable class, and
    the separation/epsilon pair is deliberately tight enough that every
    class keeps a real error rate: that is what makes the vulnerability
    signal in the weight logs stand clear of sampling noise.
    """
    return {
        "seed": 0,
        "epochs": 30,
        "batch_size": 64,
        "eval_every": 5,
        "log_weights_every": 1,
        "optimizer": {"base_lr": 0.01, "momentum": 0.9, "weight_decay": 0.0005,
                      "milestones": [20, 25], "decay_factor": 10.0},
        "objective": {"family": "VIR_AT", "trade_off": 5.0, "ablation": "FULL",
                      "weight_scheme": {"family": "VIR", "alpha": 7.0,
                                        "gamma": 10.0, "beta": 0.007,
                                        "lambda_g": -1.0, "k_pgd": 10,
                                        "burn_in_epoch": 18}},
        "attack_train": {"family": "PGD", "epsilon": 0.75, "step_size": 0.1875,
                         "iterations": 10, "loss_mode": "CE", "bounds": None,
                         "seed": 0, "start_noise_scale": 0.001},
        "attack_eval": [
            {"family": "PGD", "epsilon": 0.75, "step_size": 0.1875,
             "iterations": 20, "loss_mode": "CE", "seed": 1234},
            {"family": "FGSM", "epsilon": 0.75, "seed": 1234},
        ],
        "model": {"hidden": [64, 64], "conv": None},
        "dataset": {"kind": "synth", "num_classes": 3, "dim": 8,
                    "variances": [1.0, 1.0, 4.0], "separation": 4.0,
                    "per_class_n": 200, "seed": 0,
                    "eval_per_class_n": 200},
    }


def paper_profile() -> dict:
    """The full-scale 115-epoch image recipe, for IDX-format grayscale data.

    Expects 28x28 inputs; point dataset.images/labels at real files before
    running. Epsilon and step sizes are in [0,1] pixel units (8/255, 2/255).
    """
    return {
        "seed": 0,
        "epochs": 115,
        "batch_size": 128,
        "eval_every": 5,
        "log_weights_every": 5,
        "optimizer": {"base_lr": 0.01, "momentum": 0.9, "weight_decay": 0.0035,
                      "milestones": [75, 90], "decay_factor": 10.0},
        "objective": {"family": "VIR_AT", "trade_off": 5.0, "ablation": "FULL",
                      "weight_scheme": {"family": "VIR", "alpha": 7.0,
                                        "gamma": 10.0, "beta": 0.007,
                                        "lambda_g": -1.0, "k_pgd": 10,
                                        "burn_in_epoch": 75}},
        "attack_train": {"family": "PGD", "epsilon": 8 / 255,
                         "step_size": 2 / 255, "iterations": 10,
                         "loss_mode": "CE", "bounds": [0.0, 1.0], "seed": 0,
                         "start_noise_scale": 0.001},
        "attack_eval": [
            {"family": "PGD", "epsilon": 8 / 255, "step_size": 1 / 255,
             "iterations": 100, "loss_mode": "CE", "bounds": [0.0, 1.0],
             "seed": 1234},
            {"family": "CW_PGD", "epsilon": 8 / 255, "step_size": 2 / 255,
             "iterations": 20, "loss_mode": "CW_MARGIN", "bounds": [0.0, 1.0],
             "seed": 1234},
            {"family": "FGSM", "epsilon": 8 / 255, "bounds": [0.0, 1.0],
             "seed": 1234},
            {"family": "SPSA", "epsilon": 8 / 255, "iterations": 100,
             "loss_mode": "CE", "bounds": [0.0, 1.0], "seed": 1234,
             "spsa_samples": 256, "spsa_perturb": 0.001, "spsa_lr": 0.01},
        ],
        "model": {"hidden": [128, 64],
                  "conv": {"height": 28, "width": 28, "filters": 8,
                           "kernel_size": 5}},
        "dataset": {"kind": "idx", "images": "train-images-idx3-ubyte",
                    "labels": "train-labels-idx1-ubyte"},
    }


PROFILES = {"desk": desk_profile, "paper": paper_profile}


def resolve_config(profile: str | None = None, config_path=None,
                   overrides: list[tuple[str, object]] | None = None) -> TrainConfig:
    """profile defaults <- config file <- dotted overrides, then validate."""
    obj = PROFILES.get(profile or "desk")
    if (profile or "desk") not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; have {sorted(PROFILES)}")
    obj = obj()
    if config_path is not None:
        obj = deep_merge(obj, load_config_file(config_path))
    for path, value in overrides or []:
        set_dotted(obj, path, value)
    return config_from_obj(obj)
