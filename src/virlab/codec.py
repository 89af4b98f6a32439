"""One strict JSON codec for the package's frozen dataclasses, the one
artifact writer and the one CSV reader.

``to_obj`` turns a value into plain JSON data: dataclasses become objects
keyed by field name, enums their values, tuples lists, numpy scalars their
Python values. ``from_obj`` reverses it, reading each field's name,
required-ness and default from ``dataclasses.fields`` and its type from
the annotations, so the dataclass is the only place a field is declared.
Decoding is strict: unknown or missing keys, ill-typed scalars (a bool is
not an int; an int is accepted for a float and kept as written; NaN and
+-inf are not), wrong tuple lengths and bad enum values raise ConfigError
naming the dotted path of the offending value.

A dataclass keyed by ``family`` lists in a class attribute ``_READ_BY``
the families that read each field (every family reads the fields not
listed): ``to_obj`` records only the fields the family reads, and
``settle``, at construction, rejects an unread field off its default.

A class whose wire shape differs from its fields defines its own
``to_obj()`` method and ``from_obj(obj, where)`` classmethod; the codec
defers to them.

Every file the package writes goes through ``atomic_open``, so a failed
write leaves no partial file and any earlier one intact. ``write_csv`` has
one cell rule: None is an empty cell, a numpy scalar its Python value,
anything else ``str()`` (for a Python float, ``repr()``).

Every CSV the package reads goes through ``read_csv``: blank lines are
skipped; an empty file, a ragged row, a rejected cell or a csv.Error is a
DataFormatError at ``path:line``, and non-UTF-8 text one naming the path.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import types
import typing
from contextlib import contextmanager
from enum import Enum, EnumMeta
from functools import cache

import numpy as np

from .errors import ConfigError, DataFormatError


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace: equal values give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def to_obj(value):
    """Plain JSON data for a dataclass, enum, tuple or scalar."""
    hook = getattr(type(value), "to_obj", None)
    if hook is not None:
        return hook(value)
    if dataclasses.is_dataclass(value):
        return {f.name: to_obj(getattr(value, f.name)) for f in dataclasses.fields(value)
                if reads(value, getattr(value, "family", None), f.name)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [to_obj(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def reads(cls, family, name: str) -> bool:
    """Whether family reads field name of dataclass cls (or an instance)."""
    return family in getattr(cls, "_READ_BY", {}).get(name, (family,))


def settle(value) -> None:
    """The construction rule of a family-keyed dataclass: an enum field
    given by its value becomes the member, and a field the family does not
    read (``_READ_BY``) must keep its default."""
    declared, _ = _fields(type(value))
    for f in dataclasses.fields(value):  # family, the first, settles first
        tp, v = declared[f.name], getattr(value, f.name)
        for enum in (tp, *typing.get_args(tp)) if isinstance(v, str) else ():
            if isinstance(enum, EnumMeta):
                object.__setattr__(value, f.name, v := enum(v))
        if not reads(value, value.family, f.name) and v != f.default:
            raise ConfigError(f"{value.family.value} does not read {f.name}, "
                              f"got {to_obj(v)}")


def decode_keys(obj, where: str, declared: dict, required) -> dict:
    """obj, a JSON object holding every required key and no key undeclared
    (declared maps each name to its type), decoded key by key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    missing = set(required) - set(obj)
    unknown = set(obj) - set(declared)
    if missing:
        raise ConfigError(f"{where} missing keys: {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")
    return {k: from_obj(declared[k], v, f"{where}.{k}") for k, v in obj.items()}


@cache
def _fields(cls) -> tuple[dict, set]:
    """(field name -> resolved type, the fields with no default) of a dataclass."""
    hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
    return ({f.name: hints[f.name] for f in fields},
            {f.name for f in fields if f.default is dataclasses.MISSING
             and f.default_factory is dataclasses.MISSING})


def _scalar(tp, value, where: str):
    if tp is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value!r}")
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
        kwargs = decode_keys(obj, where, *_fields(tp))
        try:
            return tp(**kwargs)
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}") from e
    return _scalar(tp, obj, where)


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside path for writing ("w" or "wb", text as
    UTF-8 whatever the locale); on a clean exit it replaces path, on an
    exception it is deleted. Created like a plain open(), so path gets the
    same permission bits."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    text = {} if "b" in mode else {"newline": "", "encoding": "utf-8"}
    fh = open(tmp, mode.replace("w", "x"), **text)
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


def read_csv(path, parser, header: bool = True):
    """(header, rows) of the CSV at path. parser(header), with None for no
    header, checks it and returns the function each data row goes through;
    a ValueError from either is a DataFormatError at its line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = filter(None, reader)
            first = next(rows, None)
            if first is None:
                raise ValueError("empty file")
            head, parse = (first, parser(first)) if header else (None, parser(None))
            out = [] if header else [parse(first)]
            for row in rows:
                if len(row) != len(first):
                    raise ValueError(f"{len(row)} fields, expected {len(first)}")
                out.append(parse(row))
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: not UTF-8 text") from None
        except (ValueError, csv.Error) as e:
            raise DataFormatError(f"{path}:{max(reader.line_num, 1)}: {e}") from None
    return head, out
