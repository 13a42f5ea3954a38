"""Self time, entry counts and coverage over nested spans."""

import pytest

from qmcbench.spans import (SpanRecorder, counted, layer_totals,
                            outermost_calls, self_times, uncovered_share,
                            union_length)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["gen", 0.0, 10.0, -1],
        ["sweep", 1.0, 6.0, 0],
        ["kernel", 2.0, 3.0, 1],
        ["kernel", 4.0, 4.5, 1],
        ["measure", 7.0, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.5, 1.0, 0.5, 2.0])
    # self times add up to the root span's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_children_overlapping_or_overhanging_count_once():
    spans = [
        ["outer", 0.0, 4.0, -1],
        ["a", -1.0, 2.0, 0],   # starts before its parent: clipped
        ["b", 1.0, 3.0, 0],    # overlaps a
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)
    assert union_length([(5.0, 6.0)], (0.0, 4.0)) == 0.0


def test_layer_totals_count_entries_not_recursion():
    spans = [
        ["det", 0.0, 4.0, -1],
        ["det", 1.0, 2.0, 0],   # a det method calling another det method
        ["spo", 2.0, 3.0, 0],
        ["det", 5.0, 6.0, -1],
        ["det", 20.0, 21.0, -1],  # outside the window
    ]
    totals = layer_totals(spans, (0.0, 10.0))
    assert totals["det"]["calls"] == 2.0
    assert totals["det"]["busy_s"] == pytest.approx(4.0)
    assert totals["spo"] == {"busy_s": pytest.approx(1.0), "calls": 1.0}


def test_kernels_inside_a_pipeline_kernel_are_one_dispatch():
    spans = [
        ["batched.driver.sweep", 0.0, 10.0, -1],
        ["backend.sweep_run", 1.0, 9.0, 0],
        ["backend.aa_row", 2.0, 3.0, 1],
        ["backend.functor_vgl", 3.0, 4.0, 1],
        ["batched.jastrow.j2", 4.0, 6.0, 1],
        ["backend.accept_mask", 5.0, 5.5, 4],  # under a kernel, two levels
        ["backend.exp_rows", 9.5, 9.8, 0],     # a dispatch of its own
        ["backend.aa_row", 12.0, 13.0, -1],    # outside the window
    ]
    assert outermost_calls(spans, "backend.", (0.0, 10.0)) == 2
    # the per-kernel entry counts still see the nested calls
    totals = layer_totals(spans, (0.0, 10.0))
    assert totals["backend.aa_row"]["calls"] == 1.0
    assert totals["backend.accept_mask"]["calls"] == 1.0


def test_uncovered_share_uses_top_level_spans():
    spans = [["a", 0.0, 2.0, -1], ["b", 1.0, 1.5, 0], ["c", 3.0, 4.0, -1]]
    assert uncovered_share(spans, (0.0, 4.0)) == pytest.approx(0.25)


def test_recorder_nests_and_survives_exceptions():
    rec = SpanRecorder()
    rec.enabled = True
    inner = rec.wrap("inner", lambda x: x + 1)

    def boom():
        raise KeyError("x")

    outer = rec.wrap("outer", lambda: inner(1))
    failing = rec.wrap("failing", boom)
    assert outer() == 2
    with pytest.raises(KeyError):
        failing()
    names = [(s[0], s[3]) for s in rec.spans]
    assert names == [("outer", -1), ("inner", 0), ("failing", -1)]
    assert all(s[2] >= s[1] for s in rec.spans)
    rec.enabled = False
    outer()
    assert len(rec.spans) == 3


def test_counts_are_summed_inside_the_window_only():
    rec = SpanRecorder()
    rec.count("bytes", 5.0)  # recording off: dropped
    rec.enabled = True
    rec.count("bytes", 7.0)
    rec.count("other", 1.0)
    assert [c[0] for c in rec.export()["counts"]] == ["bytes", "other"]
    counts = [["bytes", 1.0, 10.0], ["bytes", 2.0, 20.0], ["bytes", 9.0, 40.0],
              ["other", 1.5, 99.0]]
    assert counted(counts, "bytes", (0.5, 5.0)) == 30.0
