"""Tests of the benchmark's own arithmetic and generator."""

from __future__ import annotations

import math
import os
import random

import pytest

from perfbench import plans
from perfbench.stats import latency_summary, sa_quality, tail_percentile
from perfbench.tracing import (
    Span,
    covered_length,
    layer_table,
    self_times,
    spans_from_records,
)


# -- tail percentile ---------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (19, None),     # the median leaves only 9 beyond it
    (20, 50.0),
    (39, 50.0),     # p75 is sample 30: 9 beyond
    (40, 75.0),
    (99, 75.0),
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_leaves_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_qualifying():
    for n in range(20, 3000, 7):
        p = tail_percentile(n)
        assert n - math.ceil(p * n / 100 - 1e-9) >= 10
        for q in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
            if q > p:
                assert n - math.ceil(q * n / 100 - 1e-9) < 10


def test_latency_summary_names_the_tail():
    values = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(values)
    got = latency_summary(values)
    assert got == {"n": 100, "p50": 50.0, "tail_p": 90.0, "tail": 90.0}
    assert sum(v > got["tail"] for v in values) == 10
    few = latency_summary(values[:19])
    assert (few["tail_p"], few["tail"]) == (100.0, max(values[:19]))


def test_sa_quality_ignores_arrival_order():
    pairs = [(2.0, 1.0), (3.0, 2.5), (10.0, 1.0), (1.0, 1.0)]
    ratio, gain = sa_quality(pairs)
    assert sa_quality(list(reversed(pairs))) == (ratio, gain)
    assert ratio == pytest.approx((0.5 * (2.5 / 3) * 0.1) ** 0.25)
    assert gain == pytest.approx(sum(math.log(a / b) for a, b in pairs))


# -- self time ---------------------------------------------------------


def _span(name, start, end, parent=-1, sid=0, pid=1):
    return Span(name, start, end, parent, "op0", pid, sid)


def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 4), (3, 6)], 0, 10) == 5
    assert covered_length([(1, 2), (5, 7)], 0, 10) == 3
    assert covered_length([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered_length([(2, 3), (1, 9), (4, 5)], 0, 10) == 8
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0, 10, sid=1),
        _span("a", 1, 4, parent=1, sid=2),
        _span("leaf", 2, 3, parent=2, sid=3),
        _span("b", 5, 7, parent=1, sid=4),
    ]
    assert self_times(spans) == [5, 2, 1, 2]
    table = layer_table(spans)
    assert table["root"] == {"self_s": 5, "total_s": 10, "calls": 1}
    assert table["leaf"]["self_s"] == 1


def test_self_time_of_overlapping_children():
    spans = [
        _span("root", 0, 10, sid=1),
        _span("c", 1, 5, parent=1, sid=2),
        _span("c", 3, 8, parent=1, sid=3),  # overlaps its sibling
        _span("c", 9, 12, parent=1, sid=4),  # runs past its parent
    ]
    # Children cover [1, 8] and [9, 10] of the root: 8 of its 10 s.
    assert self_times(spans)[0] == 2
    assert layer_table(spans)["c"] == {"self_s": 12, "total_s": 12,
                                       "calls": 3}


def test_self_time_keeps_processes_apart():
    spans = [
        _span("root", 0, 10, sid=1, pid=1),
        _span("child", 2, 6, parent=1, sid=2, pid=2),  # another pid's sid 1
        _span("root", 0, 10, sid=1, pid=2),
    ]
    assert self_times(spans) == [10, 4, 6]


def _record(name, ts, dur, sid, parent=-1, pid=None, **attrs):
    return {"name": name, "ts": ts, "dur": dur, "pid": pid or os.getpid(),
            "sid": sid, "parent": parent, "attrs": attrs}


def test_records_take_the_op_and_candidate_they_ran_in():
    worker = os.getpid() + 1
    spans = spans_from_records([
        _record("workloads.build", 0, 1, sid=0),
        _record("op", 2, 8, sid=1, op="cold"),
        _record("campaign.run", 2, 7, sid=2, parent=1),
        _record("candidate", 3, 2, sid=0, pid=worker, index=4),
        _record("sa.run", 4, 1, sid=1, parent=0, pid=worker),
        _record("candidate", 11, 1, sid=2, pid=worker, index=5),
    ])
    assert [s.op for s in spans] == [
        "setup", "cold", "cold", "cold/c4", "cold/c4", "setup/c5"]
    assert spans[4] == Span("sa.run", 4, 5, 0, "cold/c4", worker, 1)


# -- generator ---------------------------------------------------------


@pytest.mark.parametrize("make", [
    plans.dse_plan, plans.anneal_plan, plans.campaign_plan,
])
def test_plan_repeats_for_a_seed_and_differs_across_seeds(make):
    assert make(7, 4) == make(7, 4)
    assert make(7, 4) != make(8, 4)


def test_plan_size_follows_seconds():
    assert len(plans.dse_plan(1, 1).candidates) == plans.GEOMETRIES
    assert len(plans.dse_plan(1, 20).candidates) == 2 * plans.GEOMETRIES
    assert len(plans.campaign_plan(1, 20).candidates) == 2 * plans.GEOMETRIES
    ops = plans.anneal_plan(1, 20).ops
    assert len(ops) % len(plans.ANNEAL_MODELS) == 0
    assert [op[:2] for op in ops[:3]] == list(plans.ANNEAL_MODELS)
    assert len({op[2] for op in ops}) == len(ops)  # a seed per op


def test_candidates_cover_every_geometry_each_round():
    geometries = plans.table1_geometries()
    assert len(geometries) == plans.GEOMETRIES
    assert sum(len(g) for g in geometries) == 7920
    drawn = plans.draw_candidates(random.Random(3), 64)
    for round_ in (drawn[:32], drawn[32:]):
        assert len({(a.cores_x, a.cores_y, a.xcut, a.ycut)
                    for a in round_}) == 32
