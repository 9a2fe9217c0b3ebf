"""Span arithmetic on hand-built span trees.

Run with: python3 -m pytest perfbench/tests
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import attributed_sum, batch_metrics  # noqa: E402
from spans import Span, Tracer, roots, self_times, unattributed, union_length  # noqa: E402


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(3, 8), (1, 5), (9, 10)]) == pytest.approx(8.0)
    assert union_length([(0, 4), (1, 2)]) == pytest.approx(4.0)


def test_nested_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.child", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 7.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert unattributed(spans, 0.0, 12.0) == pytest.approx(2.0)


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "x", 1.0, 5.0),
        Span(2, 0, "y", 3.0, 8.0),
        Span(3, 0, "late", 9.0, 12.0),  # runs past its parent's end
    ]
    # children cover [1, 8] and [9, 10] inside the root
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_missing_parent_makes_a_root():
    spans = [
        Span(0, None, "first", 0.0, 2.0),
        Span(5, 99, "orphan", 3.0, 6.0),
        Span(6, 5, "orphan.child", 4.0, 5.0),
    ]
    assert [s.id for s in roots(spans)] == [0, 5]
    selfs = self_times(spans)
    assert selfs[5] == pytest.approx(2.0)
    assert selfs[6] == pytest.approx(1.0)
    assert unattributed(spans, 0.0, 7.0) == pytest.approx(2.0)


def test_layer_self_times_add_up_to_wall():
    fw = {"status": "inside", "iterations": 3, "active": 2}
    spans = [
        Span(0, None, "seesaw", 0.0, 10.0),
        Span(1, 0, "behavior", 0.5, 1.0),
        Span(2, 0, "fw", 1.0, 6.0, fw),
        Span(3, 2, "pm_lmo", 1.5, 2.5, {"candidates": 64}),
        Span(4, 3, "pm_lmo", 2.0, 2.2, {"candidates": 64}),  # nested route: one call
        Span(5, 2, "vertex", 3.0, 3.5),
        Span(6, None, "certify", 10.5, 11.0),
    ]
    m = batch_metrics(spans, 0.0, 12.0)
    assert m["polytope.pm_lmo_calls"] == 1
    assert m["polytope.lmo_candidates"] == 64
    assert m["polytope.pm_lmo_s"] == pytest.approx(1.0)
    assert m["polytope.fw_self_s"] == pytest.approx(3.5)
    assert m["pmbell.seesaw_self_s"] == pytest.approx(4.5)
    assert m["pmbell.seesaw_outside_ratio"] == 0.0
    assert m["trace.unattributed_s"] == pytest.approx(1.5)
    assert m["trace.wall_s"] == pytest.approx(12.0)
    assert attributed_sum(m) == pytest.approx(12.0)


def test_tracer_links_parents_and_restores_originals():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    pkg.inner = inner  # re-exported, as a package __init__ does
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod})
    try:
        tracer = Tracer()
        targets = [(mod, "inner", "in", None), (mod, "outer", "out", None)]
        with tracer.installed(targets):
            assert mod.outer(1) == 4
            assert pkg.inner is not inner
        assert mod.inner is inner and pkg.inner is inner and mod.outer is outer
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["out"].parent is None
        assert by_name["in"].parent == by_name["out"].id
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.mod"]
