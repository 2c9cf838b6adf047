"""The table-driven, memoized graph partition against its reference.

``partition_graph`` prices segments from a per-sample table and
memoizes per graph; ``estimate_group_cost`` is the readable reference.
These tests hold the two bit-identical: every segment estimate, and
the partition of a plain DP over the reference, across the model
registry, three batches and every distinct partition key of the
72-TOPS Table-I grid.
"""

import math
from dataclasses import replace

import pytest

from repro.arch import ArchConfig, g_arch
from repro.arch.energy import DEFAULT_ENERGY
from repro.core.encoding import LayerGroup
from repro.core.graphpart import (
    _partition_table,
    _segment_estimate,
    estimate_group_cost,
    partition_graph,
)
from repro.dse.candidates import DseGrid, enumerate_candidates
from repro.perf import PERF
from repro.units import GB, MB
from repro.workloads.models import MODEL_REGISTRY, build

BATCHES = (1, 8, 64)


def table1_partition_archs() -> list[ArchConfig]:
    """One Table-I candidate per distinct partition key (there are 6)."""
    archs = {}
    for arch in enumerate_candidates(DseGrid.paper_grid(72)):
        key = (arch.dram_bw, min(10, arch.n_cores), arch.peak_macs_per_s)
        archs.setdefault(key, arch)
    return [archs[k] for k in sorted(archs)]


def few_core_arch() -> ArchConfig:
    """Four cores: the group-size limit is the core count, not 10."""
    return ArchConfig(
        cores_x=2, cores_y=2, xcut=1, ycut=1, dram_bw=32 * GB,
        noc_bw=32 * GB, d2d_bw=32 * GB, glb_bytes=1 * MB,
        macs_per_core=1024,
    )


def reference_partition(estimates, order, limit):
    """Plain DP over precomputed reference estimates."""
    n = len(order)
    dp = [math.inf] * (n + 1)
    dp[0] = 0.0
    choice = [(0, 1)] * (n + 1)
    for end in range(1, n + 1):
        for start in range(max(0, end - limit), end):
            est = estimates[(start, end)]
            cost = dp[start] + est.cost
            if cost < dp[end]:
                dp[end] = cost
                choice[end] = (start, est.batch_unit)
    groups = []
    end = n
    while end > 0:
        start, unit = choice[end]
        groups.append(LayerGroup(tuple(order[start:end]), batch_unit=unit))
        end = start
    return groups[::-1]


def test_table1_grid_has_six_partition_keys():
    archs = table1_partition_archs()
    assert len(archs) == 6
    assert {min(10, a.n_cores) for a in archs} == {9, 10}


@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
def test_matches_reference_dp_and_segment_estimates(model):
    """Every segment estimate and every partition equals the reference.

    Archs sharing a DRAM bandwidth differ only in the group-size limit,
    so one sweep of reference estimates (up to the larger limit) serves
    the DP of each.
    """
    graph = build(model)
    order = graph.topological_order()
    table = _partition_table(graph)
    families: dict[tuple, list[ArchConfig]] = {}
    for arch in (*table1_partition_archs(), g_arch(), few_core_arch()):
        key = (arch.peak_macs_per_s, arch.dram_bw)
        families.setdefault(key, []).append(arch)
    for batch in BATCHES:
        for (peak, dram_bw), archs in families.items():
            widest = max(min(10, a.n_cores) for a in archs)
            estimates = {}
            for end in range(1, len(order) + 1):
                for start in range(max(0, end - widest), end):
                    ref = estimate_group_cost(
                        graph, order[start:end], archs[0], batch
                    )
                    got = _segment_estimate(
                        table, start, end, batch, peak, dram_bw,
                        DEFAULT_ENERGY.e_mac, DEFAULT_ENERGY.e_dram,
                    )
                    assert got == ref, (model, batch, start, end)
                    estimates[(start, end)] = ref
            for arch in archs:
                limit = min(10, arch.n_cores)
                assert partition_graph(graph, arch, batch) == \
                    reference_partition(estimates, order, limit), \
                    (model, batch, arch)


class TestMemo:
    def test_hit_returns_fresh_list(self):
        graph = build("MBV2")
        first = partition_graph(graph, g_arch(), 8)
        second = partition_graph(graph, g_arch(), 8)
        assert first == second
        assert first is not second
        second.pop()
        assert partition_graph(graph, g_arch(), 8) == first

    def test_counters_and_key_fields(self):
        graph = build("MBV2")
        arch = g_arch()
        partition_graph(graph, arch, 4)
        PERF.reset()
        # Fields the estimator does not read still hit the memo.
        partition_graph(graph, replace(arch, noc_bw=arch.noc_bw * 2), 4)
        assert PERF.get("graphpart.memo.hits") == 1
        assert PERF.get("graphpart.memo.misses") == 0
        partition_graph(graph, replace(arch, dram_bw=arch.dram_bw * 2), 4)
        partition_graph(graph, arch, 4, max_group_layers=5)
        partition_graph(graph, arch, 2)
        partition_graph(graph, arch, 4, energy=replace(
            DEFAULT_ENERGY, e_dram=DEFAULT_ENERGY.e_dram * 2))
        partition_graph(graph, arch, 4, energy=replace(
            DEFAULT_ENERGY, e_mac=DEFAULT_ENERGY.e_mac * 2))
        assert PERF.get("graphpart.memo.misses") == 5
        assert PERF.cache_stats()["graphpart.memo"]["hits"] == 1

    def test_custom_energy_model_matches_reference(self):
        graph = build("TF")
        arch = g_arch()
        costly_dram = replace(DEFAULT_ENERGY, e_dram=DEFAULT_ENERGY.e_dram * 50)
        order = graph.topological_order()
        got = partition_graph(graph, arch, 8, energy=costly_dram)
        ref = reference_partition(
            {
                (s, e): estimate_group_cost(
                    graph, order[s:e], arch, 8, costly_dram)
                for e in range(1, len(order) + 1)
                for s in range(max(0, e - 10), e)
            },
            order, 10,
        )
        assert got == ref

    def test_grown_graph_is_relowered(self):
        from repro.workloads.layer import Layer, LayerType

        graph = build("MBV2")
        before = partition_graph(graph, g_arch(), 1)
        last = graph.topological_order()[-1]
        out_k = graph.layer(last).out_k
        graph.add_layer(
            Layer("extra_fc", LayerType.FC, out_h=1, out_w=1, out_k=10,
                  in_c=out_k),
            inputs=[last],
        )
        after = partition_graph(graph, g_arch(), 1)
        assert [n for g in after for n in g.layers] == \
            graph.topological_order()
        assert after != before
