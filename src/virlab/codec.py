"""One strict JSON codec for the package's frozen dataclasses, and the one
artifact writer.

``to_obj`` turns a value into plain JSON data: dataclasses become objects
keyed by field name, enums their values, tuples lists, numpy scalars their
Python values. ``from_obj`` reverses
it, reading each field's name, required-ness and default from
``dataclasses.fields`` and its type from the annotations, so the dataclass
is the only place a field is declared. Decoding is strict: unknown or
missing keys, ill-typed scalars (a bool is not an int; an int is accepted
for a float and kept as written), wrong tuple lengths and bad enum values
raise ConfigError naming the dotted path of the offending value.

A class whose wire shape differs from its fields defines its own
``to_obj()`` method and ``from_obj(obj, where)`` classmethod; the codec
defers to them.

Every file the package writes goes through ``atomic_open``, so a failed
write leaves no partial file and any earlier one intact. ``write_csv`` has
one cell rule: None is an empty cell, a numpy scalar its Python value,
anything else ``str()`` (for a Python float, ``repr()``).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import types
import typing
from contextlib import contextmanager
from enum import Enum
from functools import cache

import numpy as np

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
    if isinstance(value, np.generic):
        return value.item()
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


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside path for writing ("w" or "wb"); on a
    clean exit it replaces path, on an exception it is deleted. Created
    like a plain open(), so path gets the same permission bits."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), newline=None if "b" in mode else "")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, rows) -> None:
    """Write rows (iterables of cells) to path as CSV, atomically."""
    with atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [v.item() if isinstance(v, np.generic) else v for v in row]
            for row in rows)
