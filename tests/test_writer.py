"""The one artifact writer (codec.atomic_open, codec.write_csv) and the one
CSV reader (codec.read_csv).

An interrupted write leaves the earlier file as it was and no temporary
file behind; every CSV reader rejects the same bad files the same way. The
package writes and parses files through nothing else: the guards at the
end parse every module under src/virlab (reading only) and find each
open() for writing and each csv reader.
"""

import ast
import os
import stat

import numpy as np
import pytest

from virlab.cli import main
from virlab.codec import atomic_open, write_csv
from virlab.data import load_csv
from virlab.errors import DataFormatError
from virlab.reweight import WEIGHT_CSV_HEADER, read_weight_records

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "virlab")


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, [["a", 1]])
    before = path.read_bytes()

    def rows():
        # enough rows that the csv writer has flushed some to disk
        for i in range(20_000):
            yield ["b", i]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_csv(path, rows())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["table.csv"]


def test_successful_write_replaces_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "blob.bin"
    for payload in (b"first", b"second"):
        with atomic_open(path, "wb") as fh:
            fh.write(payload)
    assert path.read_bytes() == b"second"
    assert os.listdir(tmp_path) == ["blob.bin"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_mode_matches_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        write_csv(tmp_path / "text.csv", [])
        with atomic_open(tmp_path / "blob.bin", "wb"):
            pass
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("plain", "text.csv", "blob.bin")}
    assert modes["text.csv"] == modes["blob.bin"] == modes["plain"] == 0o666 & ~umask


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, [[None, np.float32(0.1), np.int64(3), np.bool_(True), 0.1,
                      7, "a,b", True]])
    assert path.read_text() == ',0.10000000149011612,3,True,0.1,7,"a,b",True\n'


# -- the one reader: every format, the same bad files --------------------------

# Each format: where it sits, its header (None: a confusion CSV has none),
# one good row, and the reader a test can call directly (None: only
# `virlab report` reads it).
FORMATS = {
    "data": ("data.csv", "label,x0,x1", "1,0.5,2.0", load_csv),
    "weights": ("weights.csv", ",".join(WEIGHT_CSV_HEADER), "1,0,2,0.5,,,1.0",
                read_weight_records),
    "metrics": ("metrics.csv", "row_kind,epoch,lr,train_loss,clean_acc,acc_class_0",
                "epoch,1,0.1,0.5,0.9,0.9", None),
    "confusion": ("confusion_clean.csv", None, "3,0", None),
}


def _bad_files(header, good):
    """case -> (bytes, line of the fault or None where no row is known)."""
    head = b"" if header is None else header.encode() + b"\n"
    bad_line = 2 if header is None else 3
    cells = good.split(",")
    body = head + good.encode() + b"\n"
    return {
        "empty": (b"", 1),
        "ragged": (body + ",".join(cells[:-1]).encode() + b"\n", bad_line),
        "non_numeric": (body + ",".join(cells[:-1] + ["x"]).encode() + b"\n",
                        bad_line),
        "not_utf8": (body + good.encode()[:-1] + b"\xff\n", None),
    }


def _cli(kind, path):
    """Exit code of the command that reads path: train for a data CSV,
    report for a run directory's files."""
    if kind == "data":
        return main(["train", "--epochs", "1", "--set", "optimizer.milestones=[]",
                     "--set", f'dataset={{"kind":"csv","path":"{path}"}}',
                     "--set", "attack_eval=[]",
                     "--out", str(path.parent / "run")])
    return main(["report", "--run", str(path.parent)])


@pytest.mark.parametrize("kind", FORMATS)
@pytest.mark.parametrize("case", ["empty", "ragged", "non_numeric", "not_utf8"])
def test_every_reader_rejects_the_same_bad_files(tmp_path, capsys, kind, case):
    name, header, good, reader = FORMATS[kind]
    text, line = _bad_files(header, good)[case]
    path = tmp_path / name
    path.write_bytes(text)
    where = f"{path}:{line}:" if line else f"{path}: "
    if reader is not None:
        with pytest.raises(DataFormatError) as info:
            reader(path)
        assert str(info.value).startswith(where)
    assert _cli(kind, path) == 4
    assert capsys.readouterr().err.startswith(f"error: {where}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", FORMATS)
def test_every_reader_skips_blank_lines(tmp_path, capsys, kind):
    name, header, good, reader = FORMATS[kind]
    path = tmp_path / name
    path.write_text("" if header is None else f"\n{header}\n\n")
    with open(path, "a") as fh:
        fh.write(f"{good}\n\n{good}\n\n")
    if reader is not None:
        assert len(reader(path)) == 2
    if kind != "data":
        assert main(["report", "--run", str(tmp_path)]) == 0
        assert "error" not in capsys.readouterr().err


# -- guards: the package writes and parses files one way ------------------------


def _sites(matches):
    """(module, enclosing function, line) of each node under src/virlab for
    which matches(node) holds."""
    sites = []

    def visit(node, function, where):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                sites.append((where, function, child.lineno))
            inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                      ast.AsyncFunctionDef))
                     else function)
            visit(child, inner, where)

    for root, _, names in os.walk(SRC):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                visit(ast.parse(fh.read()), None, os.path.relpath(path, SRC))
    return sites


def _writes_for_a_file(node) -> bool:
    """open() with a mode that is not a literal read-only mode."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+"))


def _csv_reader(node) -> bool:
    """csv.reader / csv.DictReader, or either imported from csv."""
    readers = {"reader", "DictReader"}
    if isinstance(node, ast.ImportFrom):
        return node.module == "csv" and any(a.name in readers for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in readers
            and isinstance(node.value, ast.Name) and node.value.id == "csv")


def test_no_module_opens_a_file_for_writing_outside_atomic_open():
    sites = _sites(_writes_for_a_file)
    stray = [f"{m}:{line}" for m, function, line in sites if function != "atomic_open"]
    assert not stray, f"files opened for writing outside atomic_open: {stray}"
    assert len(sites) > len(stray), "the guard no longer sees atomic_open's own open()"


def test_no_module_parses_csv_outside_read_csv():
    sites = _sites(_csv_reader)
    stray = [f"{m}:{line}" for m, function, line in sites
             if (m, function) != ("codec.py", "read_csv")]
    assert not stray, f"CSV parsed outside codec.read_csv: {stray}"
    assert len(sites) > len(stray), "the guard no longer sees read_csv's own csv.reader"
