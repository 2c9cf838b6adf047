"""DP-based graph partitioning into layer groups (Sec V-B).

Gemini "employ[s] the same DP-based graph partition algorithm as
Tangram [15]": layers in topological order are segmented into contiguous
groups, and the dynamic program minimizes the summed estimated cost,
also choosing the batch unit (samples per pipeline stage) per group.

The segment-cost estimator is deliberately cheap (no NoC detail): it
balances the DRAM traffic a fusion saves (inter-group feature maps stay
on-chip) against pipeline fill/drain loss and per-layer core-count
granularity — the same trade-off the paper describes for pipeline depth
(Sec VII-A2).  :func:`estimate_group_cost` is the readable reference
for any set of layer names.

:func:`partition_graph` prices segments from a table instead.  A graph
is lowered once into per-layer, per-sample rows: MACs, weight bytes,
ofmap bytes, the topological position of the layer's last successor,
and for each input slice its producer's position (``-1`` for the DNN
input) plus its ifmap-byte share.  Segment ``order[start:end]`` then
needs no name sets: a slice is external exactly when its producer's
position is below ``start``, and an ofmap leaves exactly when the last
successor sits at or past ``end`` (a layer without successors is given
position ``n``).  The per-sample sums are accumulated in the reference's
order, so a segment costs O(len).

Every candidate batch unit is a power of two and every MAC and byte
count is linear in the batch, so scaling a per-sample term by the unit
only shifts its exponent: each rounded product and partial sum of the
reference equals the unit times the per-sample one, and the unit-``u``
sums are exactly ``u x`` the per-sample sums.  The DP therefore reaches
bit-identical estimates and partitions.

Partitions are memoized per graph (a ``WeakKeyDictionary``, like
:func:`repro.compiled.compile_graph`) on ``(batch, min(max_group_layers,
n_cores), peak_macs_per_s, dram_bw, e_mac, e_dram)`` — the only inputs
the estimator reads — and counted as ``graphpart.memo.hits/.misses``.
A DSE over the 72-TOPS Table-I grid has six such keys per workload.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from weakref import WeakKeyDictionary

from repro.arch.energy import DEFAULT_ENERGY, EnergyModel
from repro.arch.params import ArchConfig
from repro.core.encoding import LayerGroup
from repro.perf import PERF, LruDict
from repro.workloads.graph import DNNGraph


@dataclass(frozen=True)
class GroupEstimate:
    """Closed-form cost estimate of one candidate group.

    ``cost`` must be *additive* across groups for the DP to compose, so
    instead of the (non-decomposable) global ``E x D`` product we use the
    linearization ``E + P_ref x D`` where ``P_ref`` is the accelerator's
    full-load MAC power: saving a joule and saving a full-load-second are
    weighed equally.
    """

    delay: float
    energy: float
    batch_unit: int
    ref_power: float

    @property
    def cost(self) -> float:
        return self.energy + self.ref_power * self.delay


def _candidate_units(batch: int) -> list[int]:
    units = [u for u in (1, 2, 4, 8, 16, 32, 64) if u <= batch]
    return units or [1]


@functools.lru_cache(maxsize=64)
def _units_and_rounds(batch: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, math.ceil(batch / u)) for u in _candidate_units(batch))


def estimate_group_cost(
    graph: DNNGraph,
    names: list[str],
    arch: ArchConfig,
    batch: int,
    energy: EnergyModel = DEFAULT_ENERGY,
) -> GroupEstimate:
    """Best-batch-unit analytic estimate for a contiguous group."""
    inside = set(names)
    total_weights = sum(graph.layer(n).weight_bytes() for n in names)
    ref_power = arch.peak_macs_per_s * energy.e_mac
    best: GroupEstimate | None = None
    for unit in _candidate_units(batch):
        rounds = math.ceil(batch / unit)
        macs = sum(graph.layer(n).macs(unit) for n in names)
        # Bytes entering/leaving the group per round via DRAM.
        io_bytes = 0
        for n in names:
            layer = graph.layer(n)
            for s in graph.input_slices(n):
                if s.producer is None or s.producer not in inside:
                    io_bytes += layer.ifmap_bytes(unit) * (
                        s.channels / max(1, layer.in_c)
                    )
            if any(succ not in inside for succ in graph.successors(n)) or \
                    not graph.successors(n):
                io_bytes += layer.ofmap_bytes(unit)
        weights_per_round = total_weights / rounds
        dram_bytes = io_bytes + weights_per_round
        compute = macs / (arch.peak_macs_per_s * 0.6)
        dram_t = dram_bytes / arch.dram_bw
        stage = max(compute, dram_t)
        delay = stage * (rounds + len(names) - 1)
        joules = (
            macs * rounds * energy.e_mac
            + (io_bytes * rounds + total_weights) * energy.e_dram
        )
        est = GroupEstimate(
            delay=delay, energy=joules, batch_unit=unit, ref_power=ref_power
        )
        if best is None or est.cost < best.cost:
            best = est
    return best


#: Distinct partition keys kept per graph.
_MEMO_ENTRIES = 256


class _PartitionTable:
    """Per-sample segment-pricing rows of one graph (module docstring)."""

    def __init__(self, graph: DNNGraph):
        order = graph.topological_order()
        pos = {name: i for i, name in enumerate(order)}
        n = len(order)
        self.order = order
        self.macs: list[int] = []
        self.weights: list[int] = []
        self.ofmap: list[int] = []
        self.last_succ: list[int] = []
        self.inputs: list[tuple[tuple[int, float], ...]] = []
        for name in order:
            layer = graph.layer(name)
            self.macs.append(layer.macs(1))
            self.weights.append(layer.weight_bytes())
            self.ofmap.append(layer.ofmap_bytes(1))
            succs = graph.successors(name)
            self.last_succ.append(max(pos[s] for s in succs) if succs else n)
            ifmap = layer.ifmap_bytes(1)
            in_c = max(1, layer.in_c)
            self.inputs.append(tuple(
                (-1 if s.producer is None else pos[s.producer],
                 ifmap * (s.channels / in_c))
                for s in graph.input_slices(name)
            ))
        #: Memoized partitions, keyed as in the module docstring.
        self.partitions: LruDict = LruDict(_MEMO_ENTRIES)

    def segment(self, start: int, end: int) -> tuple[int, int, float]:
        """Per-sample ``(macs, weight bytes, DRAM io bytes)`` of a segment."""
        macs = weights = 0
        io = 0
        for i in range(start, end):
            macs += self.macs[i]
            weights += self.weights[i]
            for producer, share in self.inputs[i]:
                if producer < start:
                    io += share
            if self.last_succ[i] >= end:
                io += self.ofmap[i]
        return macs, weights, io


_TABLES: "WeakKeyDictionary[DNNGraph, _PartitionTable]" = WeakKeyDictionary()


def _partition_table(graph: DNNGraph) -> _PartitionTable:
    table = _TABLES.get(graph)
    # Graphs only grow (``add_layer``); a grown graph is lowered again.
    if table is None or len(table.order) != len(graph):
        table = _PartitionTable(graph)
        _TABLES[graph] = table
    return table


def partition_graph(
    graph: DNNGraph,
    arch: ArchConfig,
    batch: int,
    max_group_layers: int = 10,
    energy: EnergyModel = DEFAULT_ENERGY,
) -> list[LayerGroup]:
    """Segment the topological order into layer groups by DP.

    Memoized per graph; every call returns a fresh list.
    """
    table = _partition_table(graph)
    limit = min(max_group_layers, arch.n_cores)
    key = (batch, limit, arch.peak_macs_per_s, arch.dram_bw,
           energy.e_mac, energy.e_dram)
    groups = table.partitions.get_lru(key)
    if groups is None:
        PERF.add("graphpart.memo.misses")
        groups = _partition(table, *key)
        table.partitions.put(key, groups)
    else:
        PERF.add("graphpart.memo.hits")
    return list(groups)


def _segment_estimate(
    table: _PartitionTable,
    start: int,
    end: int,
    batch: int,
    peak_macs_per_s: float,
    dram_bw: float,
    e_mac: float,
    e_dram: float,
) -> GroupEstimate:
    """:func:`estimate_group_cost` of ``order[start:end]`` from the table.

    Each unit's arithmetic is the reference's, step for step, on sums
    scaled exactly from the per-sample ones (module docstring).
    """
    macs1, weights, io1 = table.segment(start, end)
    ref_power = peak_macs_per_s * e_mac
    depth = end - start - 1
    best = None
    for unit, rounds in _units_and_rounds(batch):
        macs = unit * macs1
        io_bytes = unit * io1
        compute = macs / (peak_macs_per_s * 0.6)
        dram_t = (io_bytes + weights / rounds) / dram_bw
        delay = max(compute, dram_t) * (rounds + depth)
        joules = macs * rounds * e_mac + (io_bytes * rounds + weights) * e_dram
        cost = joules + ref_power * delay
        if best is None or cost < best[0]:
            best = (cost, delay, joules, unit)
    _, delay, joules, unit = best
    return GroupEstimate(
        delay=delay, energy=joules, batch_unit=unit, ref_power=ref_power
    )


def _partition(
    table: _PartitionTable, batch: int, limit: int, *arch_terms: float
) -> tuple[LayerGroup, ...]:
    """The DP over table-priced segments."""
    order = table.order
    n = len(order)
    # dp[i]: best cost of partitioning order[:i]; choice[i]: group start.
    dp = [math.inf] * (n + 1)
    dp[0] = 0.0
    choice: list[tuple[int, int]] = [(0, 1)] * (n + 1)
    for end in range(1, n + 1):
        for start in range(max(0, end - limit), end):
            est = _segment_estimate(table, start, end, batch, *arch_terms)
            cost = dp[start] + est.cost
            if cost < dp[end]:
                dp[end] = cost
                choice[end] = (start, est.batch_unit)
    groups: list[LayerGroup] = []
    end = n
    while end > 0:
        start, unit = choice[end]
        groups.append(LayerGroup(tuple(order[start:end]), batch_unit=unit))
        end = start
    groups.reverse()
    return tuple(groups)
