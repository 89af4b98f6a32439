"""The one artifact writer: codec.atomic_open and codec.write_csv.

An interrupted write leaves the earlier file as it was and no temporary
file behind, and the package writes files through nothing else: the
guard at the end parses every module under src/virlab (reading only) and
finds each open() for writing.
"""

import ast
import os
import stat

import numpy as np
import pytest

from virlab.codec import atomic_open, write_csv

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


def _writes_for_a_file(call: ast.Call) -> bool:
    """open() with a mode that is not a literal read-only mode."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+"))


def test_no_module_opens_a_file_for_writing_outside_atomic_open():
    allowed, stray = [], []

    def visit(node, function, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _writes_for_a_file(child):
                site = f"{where}:{child.lineno}"
                (allowed if function == "atomic_open" else stray).append(site)
            inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                      ast.AsyncFunctionDef))
                     else function)
            visit(child, inner, where)

    for root, _, names in os.walk(SRC):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                visit(ast.parse(fh.read()), None, os.path.relpath(path, SRC))
    assert not stray, f"files opened for writing outside atomic_open: {stray}"
    assert allowed, "the guard no longer sees atomic_open's own open()"
