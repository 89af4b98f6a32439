"""Run configuration: dataclasses, their JSON form, and named profiles.

A run is one JSON document, decoded by the strict codec in ``codec``:
unknown keys anywhere in the tree and ill-typed values are rejected, so
typos fail fast instead of silently training with a default. Profiles
("desk", "paper") are full TrainConfigs; a config file and CLI flags
override them field by field (flag > config file > profile), but a layer
that switches the family of an attack, a weight scheme or an objective, or
a dataset's kind, keeps only the base's keys the new one reads.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field, fields

from .attacks import AttackSpec
from .codec import decode_keys, from_obj, reads, to_obj
from .data import Dataset, from_gmm, load_csv, load_idx, synth_multiclass
from .errors import ConfigError
from .gmm import GmmSpec
from .models import DTYPES, Arch, ConvStem
from .objectives import ObjectiveSpec
from .reweight import WeightFamily, WeightScheme


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
    """Dense widths plus an optional single conv stem (needs image geometry),
    and the dtype the network computes in."""

    hidden: tuple[int, ...] = (64, 64)
    conv: ConvStem | None = None
    dtype: str = "float64"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be positive, got {self.hidden}")
        if self.dtype not in DTYPES:
            raise ConfigError(
                f"model.dtype must be one of {list(DTYPES)}, got {self.dtype!r}")

    def arch(self, input_dim: int, num_classes: int) -> Arch:
        if self.conv is not None:
            if self.conv.height * self.conv.width != input_dim:
                raise ConfigError(
                    f"conv stem expects {self.conv.height}x{self.conv.width}"
                    f"={self.conv.height * self.conv.width} inputs, data has {input_dim}"
                )
            return Arch((self.conv.out_dim, *self.hidden, num_classes), self.conv,
                        self.dtype)
        return Arch((input_dim, *self.hidden, num_classes), dtype=self.dtype)


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
    checked against _DATA_KEYS (names and types) and stored as given, but
    that seed and a synthetic eval size (eval_per_class_n, eval_n) default
    to 0, so a recorded config states them. On the wire the two are one
    flat object, {"kind": ..., **params}. Synthetic eval splits draw from
    an independent stream (eval_seed, default seed+1).
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
        for key, value in decode_keys(self.params, where, {**required, **optional},
                                      required).items():
            if key in ("seed", "eval_seed", "eval_per_class_n", "eval_n") and value < 0:
                raise ConfigError(f"{where}.{key} must be >= 0, got {value}")
        if self.kind == "idx" and len({"eval_images", "eval_labels"} & set(self.params)) == 1:
            raise ConfigError("idx eval split needs both eval_images and eval_labels")
        object.__setattr__(self, "params", {**{k: 0 for k in optional if k in (
            "seed", "eval_per_class_n", "eval_n")}, **self.params})

    def load(self) -> tuple[Dataset, Dataset]:
        """(train, evaluated). evaluated is the held-out split when the
        config names one (synth eval_per_class_n > 0, gmm eval_n > 0, idx
        eval_images/eval_labels, csv a non-empty eval_path), else the
        training split object itself. This is the one place that fallback
        is decided; train, eval and attack all score the split it returns.
        """
        p = self.params
        if self.kind == "synth":
            train = synth_multiclass(p["num_classes"], p["per_class_n"],
                                     p["variances"], p["separation"],
                                     p["dim"], p["seed"])
            if not p["eval_per_class_n"]:
                return train, train
            return train, synth_multiclass(p["num_classes"], p["eval_per_class_n"],
                                           p["variances"], p["separation"],
                                           p["dim"], p.get("eval_seed", p["seed"] + 1))
        if self.kind == "gmm":
            spec = GmmSpec(d=p["d"], eta=p["eta"], sigma=p["sigma"],
                           k_var=p["k_var"])
            train = from_gmm(spec, p["n"], p["seed"])
            if not p["eval_n"]:
                return train, train
            return train, from_gmm(spec, p["eval_n"], p.get("eval_seed", p["seed"] + 1))
        if self.kind == "idx":
            train = load_idx(p["images"], p["labels"])
            if "eval_images" in p:
                return train, load_idx(p["eval_images"], p["eval_labels"])
            return train, train
        train = load_csv(p["path"])
        if p.get("eval_path"):
            return train, load_csv(p["eval_path"])
        return train, train

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
        for name in ("epochs", "batch_size", "eval_every", "log_weights_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.optimizer.milestones and self.optimizer.milestones[-1] >= self.epochs:
            raise ConfigError(
                f"milestones {self.optimizer.milestones} must all be < epochs "
                f"{self.epochs}"
            )
        if (self.objective.weight_scheme.family is WeightFamily.GAIRAT
                and not reads(AttackSpec, self.attack_train.family, "step_size")):
            raise ConfigError(
                "objective.weight_scheme.family GAIRAT probes at attack_train.step_size"
                f", and {self.attack_train.family.value} reads no step_size")
        if self.attack_train.seed != 0:
            raise ConfigError(
                f"attack_train.seed must be 0, got {self.attack_train.seed}: the "
                "training attack is keyed from seed, epoch and batch")

    def arch(self, train_set: Dataset) -> Arch:
        return self.model.arch(train_set.dim, train_set.num_classes)


def config_from_obj(obj: dict) -> TrainConfig:
    return from_obj(TrainConfig, obj, "config")


def config_to_obj(c: TrainConfig) -> dict:
    return to_obj(c)


def load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a single JSON object")
    return obj


# family or dataset kind (distinct names) -> the keys a config object naming
# it reads, less loss_mode, which each attack family picks for itself.
_READS = {kind: {"kind", *required, *optional}
          for kind, (required, optional) in _DATA_KEYS.items()} | {
    f.value: {n.name for n in fields(cls) if reads(cls, f, n.name)} - {"loss_mode"}
    for cls in (AttackSpec, WeightScheme, ObjectiveSpec)
    for f in typing.get_type_hints(cls)["family"]}


def _switched(base: dict, layer: dict) -> dict:
    """What layer merges over: base, or if layer changes its ``family`` or
    ``kind`` to another in ``_READS``, only base's keys the new one reads."""
    for key in ("family", "kind"):
        old, new = base.get(key), layer.get(key)
        if old != new and all(isinstance(v, str) and v in _READS for v in (old, new)):
            return {k: v for k, v in base.items() if k in _READS[new]}
    return base


def deep_merge(base: dict, override: dict) -> dict:
    """Dicts merge recursively; lists and scalars replace wholesale. A dict
    that switches the ``family`` of an attack, a weight scheme or an
    objective, or a dataset's ``kind``, merges over ``_switched(base)``."""
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = deep_merge(_switched(out[k], v), v)
        else:
            out[k] = v
    return out


def set_dotted(obj: dict, path: str, value) -> None:
    """Set config[a][b][c] = value for path 'a.b.c'; integer parts index lists.
    Setting a family or a dataset kind to another drops the keys the new
    one does not read, as ``deep_merge`` does."""
    *parents, last = path.split(".")
    cur = obj
    for part in parents:
        if isinstance(cur, dict):
            if not isinstance(cur.get(part), (dict, list)):
                cur[part] = {}
            cur = cur[part]
            continue
        try:
            cur = cur[int(part)]
        except (ValueError, IndexError):
            cur = None
        if not isinstance(cur, (dict, list)):
            raise ConfigError(f"{path}: bad list index {part!r}")
    if isinstance(cur, list):
        try:
            cur[int(last)] = value
        except (ValueError, IndexError) as e:
            raise ConfigError(f"{path}: {e}") from e
        return
    for key in set(cur) - set(_switched(cur, {last: value})):
        del cur[key]
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
        "objective": {"family": "AT", "weight_scheme": {
            "family": "VIR", "ablation": "FULL", "alpha": 7.0, "gamma": 10.0,
            "beta": 0.007, "burn_in_epoch": 18}},
        "attack_train": {"family": "PGD", "epsilon": 0.75, "step_size": 0.1875,
                         "iterations": 10, "loss_mode": "CE", "bounds": None,
                         "seed": 0, "start_noise_scale": 0.001},
        "attack_eval": [
            {"family": "PGD", "epsilon": 0.75, "step_size": 0.1875,
             "iterations": 20, "loss_mode": "CE", "seed": 1234},
            {"family": "FGSM", "epsilon": 0.75, "seed": 1234},
        ],
        "model": {"hidden": [64, 64], "conv": None, "dtype": "float64"},
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
        "objective": {"family": "AT", "weight_scheme": {
            "family": "VIR", "ablation": "FULL", "alpha": 7.0, "gamma": 10.0,
            "beta": 0.007, "burn_in_epoch": 75}},
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
            {"family": "SPSA", "epsilon": 8 / 255, "step_size": 0.01,
             "iterations": 100, "loss_mode": "CE", "bounds": [0.0, 1.0],
             "seed": 1234, "spsa_samples": 256, "spsa_perturb": 0.001},
        ],
        "model": {"hidden": [128, 64],
                  "conv": {"height": 28, "width": 28, "filters": 8,
                           "kernel_size": 5},
                  "dtype": "float32"},
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
