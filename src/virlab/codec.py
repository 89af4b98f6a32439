"""One strict JSON codec for the package's frozen dataclasses.

``to_obj`` turns a value into plain JSON data: dataclasses become objects
keyed by field name, enums their values, tuples lists. ``from_obj`` reverses
it, reading each field's name, required-ness and default from
``dataclasses.fields`` and its type from the annotations, so the dataclass
is the only place a field is declared. Decoding is strict: unknown or
missing keys, ill-typed scalars (a bool is not an int; an int is accepted
for a float and kept as written), wrong tuple lengths and bad enum values
raise ConfigError naming the dotted path of the offending value.

A class whose wire shape differs from its fields defines its own
``to_obj()`` method and ``from_obj(obj, where)`` classmethod; the codec
defers to them.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from enum import Enum
from functools import cache

from .errors import ConfigError


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace: equal values give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def to_obj(value):
    """Plain JSON data for a dataclass, enum, tuple or scalar."""
    hook = getattr(type(value), "to_obj", None)
    if hook is not None:
        return hook(value)
    if dataclasses.is_dataclass(value):
        return {f.name: to_obj(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [to_obj(v) for v in value]
    return value


def check_keys(obj, where: str, required, optional=()) -> None:
    """obj must be a JSON object holding every required key and no others."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    missing = set(required) - set(obj)
    unknown = set(obj) - set(required) - set(optional)
    if missing:
        raise ConfigError(f"{where} missing keys: {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")


@cache
def _fields(cls) -> tuple[dict, dict]:
    """(required, optional) field name -> resolved type, for a dataclass."""
    hints = typing.get_type_hints(cls)
    required, optional = {}, {}
    for f in dataclasses.fields(cls):
        has_default = (f.default is not dataclasses.MISSING
                       or f.default_factory is not dataclasses.MISSING)
        (optional if has_default else required)[f.name] = hints[f.name]
    return required, optional


def _scalar(tp, value, where: str):
    if tp is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif tp is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, tp)
    if not ok:
        raise ConfigError(f"{where} must be {tp.__name__}, got {value!r}")
    return value


def from_obj(tp, obj, where: str):
    """Decode JSON data obj as type tp; where is obj's dotted path."""
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in typing.get_args(tp) if a is not type(None)]
        return None if obj is None else from_obj(inner, obj, where)
    if origin is tuple:
        args = typing.get_args(tp)
        if not isinstance(obj, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {obj!r}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(obj)
        elif len(obj) != len(args):
            raise ConfigError(f"{where} must have {len(args)} entries, got {obj!r}")
        return tuple(from_obj(a, v, f"{where}[{i}]")
                     for i, (a, v) in enumerate(zip(args, obj)))
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(obj)
        except ValueError:
            raise ConfigError(
                f"{where} must be one of {[m.value for m in tp]}, got {obj!r}"
            ) from None
    hook = getattr(tp, "from_obj", None)
    if hook is not None:
        return hook(obj, where)
    if dataclasses.is_dataclass(tp):
        required, optional = _fields(tp)
        check_keys(obj, where, required, optional)
        declared = {**required, **optional}
        kwargs = {k: from_obj(declared[k], v, f"{where}.{k}")
                  for k, v in obj.items()}
        try:
            return tp(**kwargs)
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}") from e
    return _scalar(tp, obj, where)
