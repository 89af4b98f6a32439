"""The span recorder on synthetic span trees with a scripted clock."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Recorder, Span  # noqa: E402


def scripted(times):
    it = iter(times)
    return lambda: next(it)


def build_tree():
    """root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [6, 7]."""
    rec = Recorder(clock=scripted([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    root = rec.begin("root")
    a = rec.begin("a")
    a1 = rec.begin("leaf")
    rec.end(a1)
    rec.end(a)
    b = rec.begin("b")
    b1 = rec.begin("leaf")
    rec.end(b1)
    rec.end(b)
    rec.end(root)
    return rec


def test_self_time_is_duration_minus_child_coverage():
    rec = build_tree()
    assert [s.name for s in rec.spans] == ["root", "a", "leaf", "b", "leaf"]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0, 3]
    assert rec.self_times() == [3, 2, 1, 3, 1]


def test_summary_aggregates_by_name():
    summary = build_tree().summary()
    assert summary["leaf"] == {"calls": 2, "s": 2, "self_s": 2}
    assert summary["root"] == {"calls": 1, "s": 10, "self_s": 3}


def test_overlapping_and_overhanging_children_count_once():
    rec = Recorder()
    rec.spans = [Span("p", 0.0, 5.0, None, "r"),
                 Span("c", 1.0, 4.0, 0, "r"),
                 Span("c", 3.0, 6.0, 0, "r")]
    assert rec.self_times()[0] == pytest.approx(1.0)


def test_run_ids_and_counters_stay_apart(tmp_path):
    rec = Recorder(clock=scripted([0, 1, 2, 5]))
    rec.run_id = "setup"
    rec.end(rec.begin("x"))
    rec.add("rows", 3)
    rec.run_id = "rep"
    rec.end(rec.begin("x"))
    rec.add("rows", 4)
    rec.add("rows", 1)
    assert rec.summary("setup")["x"]["s"] == 1
    assert rec.summary("rep")["x"]["s"] == 3
    assert rec.counts == {"setup": {"rows": 3}, "rep": {"rows": 5}}

    path = tmp_path / "spans.jsonl"
    rec.write(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"name": "x", "start": 0, "end": 1, "parent": None,
                        "run_id": "setup"}
    assert lines[2:] == [{"run_id": "setup", "counts": {"rows": 3}},
                         {"run_id": "rep", "counts": {"rows": 5}}]


def test_ancestors_innermost_first():
    rec = build_tree()
    assert list(rec.ancestors(4)) == ["b", "root"]
    assert list(rec.ancestors(0)) == []


def test_misuse_is_rejected(tmp_path):
    rec = Recorder()
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)
    with pytest.raises(RuntimeError):
        rec.write(str(tmp_path / "open.jsonl"))
