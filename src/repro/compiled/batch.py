"""Population-batched evaluation: N candidate mappings per numpy call.

This is the compiled evaluator's one fold + finalize.  N candidate
mappings of one layer group are stacked into a single ``(blocks, N,
lanes)`` buffer — volumes, the three DRAM aggregates and the
weight-tree hop counter side by side in one lane axis — and the
canonical block fold plus the delay/energy finalize run as whole-array
ops across every slot at once.  Every compiled evaluation goes through
here: a one-slot state prices the serial SA walk (and
:meth:`CompiledEval.evaluate_group`), a K-column scratch buffer prices
best-of-K proposals, and N walkers price a population step.

Bit-identity with the object reference path is a hard invariant, so
the batching only ever *widens* the serial arithmetic, never
reassociates it:

* the group fold adds one block row at a time across all slots
  (``acc += buf[j]``), replaying the per-slot left fold from zero that
  the object path's analyzer runs as ``np.add.reduce`` over the
  stacked blocks;
* missing DRAM parts fold ``+0.0`` instead of being skipped — exact
  for the non-negative aggregates carried here;
* scatter kernels batch many ``np.bincount`` calls into one by giving
  every request its own ``n_links``-wide segment
  (:func:`repro.compiled.graph.stacked_offsets` promotes the offsets
  to int64 *before* the ``N x links`` product): bincount accumulates
  sequentially in input order and segments are disjoint, so each
  segment is bit-equal to the request's own bincount;
* row-wise ``max`` reductions are order-insensitive for non-NaN
  floats, so the link-drain / DRAM-drain maxima vectorize freely —
  but *sums* over index subsets (NoC/D2D energy, DRAM byte totals)
  stay per-slot on contiguous row views, because numpy's pairwise
  summation is shape-dependent.

``tests/test_compiled_batch.py`` and ``tests/test_compiled_identity.py``
pin all of this: every slot of any N, every best-of-K column and every
one-slot delta step is float-exact against ``Evaluator(cache=False)``,
across the model registry and including annealed (mid-search) states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.encoding import INTERLEAVED, LayerGroupMapping
from repro.evalmodel.breakdown import EnergyBreakdown, GroupEval
from repro.evalmodel.traffic_analysis import LayerTrafficBlock, _dram_targets
from repro.compiled.evalcore import CompiledEval
from repro.compiled.graph import as_index_table, stacked_offsets


# ----------------------------------------------------------------------
# Batched scatter kernels
# ----------------------------------------------------------------------


class _CoreScatterQueue:
    """Deferred core-to-core scatters: many route bincounts as one.

    Each request is the ``(rows into the padded core route table,
    per-row volumes)`` of one in-group input slice; :meth:`flush`
    gathers, masks, repeats and bincounts them all with one set of
    numpy calls.  Request *r* owns segment ``[r*n_links, (r+1)*n_links)``
    of the flat accumulator, and within a segment entries arrive in
    exactly the order the serial kernel would feed its own bincount.
    """

    def __init__(self, table: np.ndarray, lens: np.ndarray, n_links: int):
        self.table = as_index_table(table)
        self.lens = lens
        self.n_links = n_links
        self._rows: list[np.ndarray] = []
        self._vols: list[np.ndarray] = []

    def add(self, rows: np.ndarray, volumes: np.ndarray) -> int:
        self._rows.append(rows)
        self._vols.append(volumes)
        return len(self._rows) - 1

    def flush(self) -> np.ndarray | None:
        n_req = len(self._rows)
        if not n_req:
            return None
        counts = np.fromiter(
            (len(r) for r in self._rows), dtype=np.int64, count=n_req
        )
        rows_all = (
            np.concatenate(self._rows) if n_req > 1 else self._rows[0]
        )
        vols_all = (
            np.concatenate(self._vols) if n_req > 1 else self._vols[0]
        )
        offsets = stacked_offsets(n_req, self.n_links)
        padded = self.table[rows_all]
        valid = padded >= 0
        idx = (padded + np.repeat(offsets, counts)[:, None])[valid]
        weights = np.repeat(vols_all, self.lens[rows_all])
        out = np.bincount(
            idx, weights=weights, minlength=n_req * self.n_links
        )
        return out.reshape(n_req, self.n_links)


class _FlatScatterQueue:
    """Deferred DRAM scatters over pre-gathered route plans.

    Requests arrive as the ``(valid link indices, per-part volumes,
    per-part repeat counts)`` triples cached in
    :attr:`CompiledLayer.dram_plans`; only the offset add, the repeat
    and the bincount remain, and they batch across requests exactly
    like :class:`_CoreScatterQueue`.
    """

    def __init__(self, n_links: int):
        self.n_links = n_links
        self._idx: list[np.ndarray] = []
        self._vols: list[np.ndarray] = []
        self._reps: list[np.ndarray] = []

    def add(self, valid_idx, volumes, rep_lens) -> int:
        self._idx.append(valid_idx)
        self._vols.append(volumes)
        self._reps.append(rep_lens)
        return len(self._idx) - 1

    def flush(self) -> np.ndarray | None:
        n_req = len(self._idx)
        if not n_req:
            return None
        counts = np.fromiter(
            (len(ix) for ix in self._idx), dtype=np.int64, count=n_req
        )
        idx_all = as_index_table(
            np.concatenate(self._idx) if n_req > 1 else self._idx[0]
        )
        offsets = stacked_offsets(n_req, self.n_links)
        idx_all = idx_all + np.repeat(offsets, counts)
        weights = np.repeat(
            np.concatenate(self._vols) if n_req > 1 else self._vols[0],
            np.concatenate(self._reps) if n_req > 1 else self._reps[0],
        )
        out = np.bincount(
            idx_all, weights=weights, minlength=n_req * self.n_links
        )
        return out.reshape(n_req, self.n_links)


class _TreeScatterQueue:
    """Deferred multicast-tree scatters, grouped into shared segments.

    Unlike the request-per-segment queues above, callers allocate a
    segment explicitly and may enqueue many tree scatters into it: the
    serial weight loop applies ``vol[tree_links] += v`` directly onto
    the accumulator, and bincount accumulates entries of one segment
    sequentially in input order, so a segment's final row equals that
    exact left fold from zero.
    """

    def __init__(self, n_links: int):
        self.n_links = n_links
        self.n_segs = 0
        self._segs: list[int] = []
        self._links: list[np.ndarray] = []
        self._vols: list[float] = []

    def new_segment(self) -> int:
        self.n_segs += 1
        return self.n_segs - 1

    def add(self, seg: int, links: np.ndarray, volume: float) -> None:
        self._segs.append(seg)
        self._links.append(links)
        self._vols.append(volume)

    def flush(self) -> np.ndarray | None:
        if not self.n_segs:
            return None
        n = len(self._links)
        if not n:
            return np.zeros((self.n_segs, self.n_links))
        counts = np.fromiter(
            (len(a) for a in self._links), dtype=np.int64, count=n
        )
        offsets = stacked_offsets(self.n_segs, self.n_links)
        seg_of = np.fromiter(self._segs, dtype=np.int64, count=n)
        idx = np.concatenate(self._links) + np.repeat(
            offsets[seg_of], counts
        )
        weights = np.repeat(
            np.fromiter(self._vols, dtype=np.float64, count=n), counts
        )
        out = np.bincount(
            idx, weights=weights, minlength=self.n_segs * self.n_links
        )
        return out.reshape(self.n_segs, self.n_links)


# ----------------------------------------------------------------------
# Deferred block construction
# ----------------------------------------------------------------------


class _PendingInput:
    """An input block whose slice scatters are queued, not yet run."""

    __slots__ = ("parts", "block")

    def __init__(self, parts: list):
        self.parts = parts
        self.block: LayerTrafficBlock | None = None


class _PendingSelf:
    """A self block whose link scatters are queued, not yet run."""

    __slots__ = (
        "seg", "ofmap_reqs", "dram_read", "dram_write", "dram_once",
        "hop", "block",
    )

    def __init__(self, seg, ofmap_reqs, dram_read, dram_write,
                 dram_once, hop):
        self.seg = seg
        self.ofmap_reqs = ofmap_reqs
        self.dram_read = dram_read
        self.dram_write = dram_write
        self.dram_once = dram_once
        self.hop = hop
        self.block: LayerTrafficBlock | None = None


class _DeferredBlocks:
    """Builds traffic blocks with batched scatter kernels.

    An input block is the fold of its input slices' contributions, each
    cached in ``slice_flows`` as the exact sequence of vector adds the
    object path's analyzer performs (``_layer_inputs``); a self block
    holds a layer's weight multicasts and ofmap writes (the analyzer's
    ``_layer_weights`` + ``_layer_outputs``) and is cached in
    ``self_blocks``.  Staging queues every cache-missed bincount;
    :meth:`flush` runs the batched kernels, writes the materialized
    per-slice ops and self blocks back into the caches (so every walker
    of a population shares them), and folds each pending input block
    in canonical slice order.
    """

    def __init__(self, ceval: CompiledEval):
        self.ceval = ceval
        topo = ceval.ev.topo
        table, lens = topo.core_route_table()
        self.n_cores = topo.arch.n_cores
        self.n_dram = len(topo.dram_nodes())
        self.core_q = _CoreScatterQueue(table, lens, topo.n_links)
        self.flat_q = _FlatScatterQueue(topo.n_links)
        self.tree_q = _TreeScatterQueue(topo.n_links)
        self._pending: list[_PendingInput] = []
        #: Flush-local dedup: candidates of different walkers routinely
        #: miss the same slice key; stage it once, share the segment.
        self._local: dict[tuple, tuple] = {}
        self._self_pending: list[tuple] = []
        self._self_local: dict[tuple, _PendingSelf] = {}

    # -- staging -------------------------------------------------------

    def stage_input_block(
        self, ctx, i: int, bu: int, schemes, recs, deps
    ) -> _PendingInput:
        ceval = self.ceval
        flows = ceval.slice_flows
        layer = recs[i]
        s = schemes[i]
        parts: list[tuple] = []
        for desc, dep in zip(ctx.inputs[i], deps):
            op_idx, plid, group_pos, _ = desc
            if group_pos is not None:
                p = schemes[group_pos]
                key = (ctx.lids[i], op_idx, s.part, s.core_group,
                       p.part, p.core_group, bu)
                ops = flows.get_lru(key)
                if ops is None:
                    ent = self._local.get(key)
                    if ent is None:
                        ent = self._stage_ingroup(
                            layer, op_idx, recs[group_pos], s.part,
                            p.part, bu,
                        )
                        self._local[key] = ent
                    parts.append(("miss", key))
                else:
                    parts.append(("ready", ops))
            else:
                fd = s.fd.ifmap if plid < 0 else dep
                key = (ctx.lids[i], op_idx, s.part, s.core_group, fd, bu)
                ops = flows.get_lru(key)
                if ops is None:
                    ent = self._local.get(key)
                    if ent is None:
                        ent = self._stage_dram(layer, op_idx, fd)
                        self._local[key] = ent
                    parts.append(("miss", key))
                else:
                    parts.append(("ready", ops))
        pb = _PendingInput(parts)
        self._pending.append(pb)
        return pb

    def _stage_ingroup(self, cons, op_idx, prod, c_part, p_part, bu):
        # Producer-part -> consumer-part transfers of one in-group
        # slice; the route bincount joins the batched core queue.
        rec = cons.rec
        geom = self.ceval.pair_geometry(
            rec, op_idx, prod.rec, c_part, p_part, bu
        )
        if geom is None:
            return ("ops", ())
        di0, sj0, bytes0 = geom
        # Same-core data stays inside the core's GLB.
        src, dst = prod.cores[sj0], cons.cores[di0]
        mask = src != dst
        if not mask.any():
            return ("ops", ())
        di = di0[mask]
        volumes = bytes0[mask] * rec.if_fetches[di]
        rows = src[mask] * self.n_cores + dst[mask]
        return ("core", self.core_q.add(rows, volumes))

    def stage_self_block(self, lid: int, scheme, bu: int, layer):
        """Self block of one scheme: cached, empty, or staged.

        Weightless layers with implicitly managed ofmaps (MATMUL,
        VECTOR, mid-group POOL/ELTWISE) share one all-zero block; other
        blocks are keyed by what they depend on — the partition, the
        core assignment and the weight/ofmap FD selectors.  On a cache
        miss the weight-slice and ofmap scatters are queued and only the
        scalar DRAM tallies run inline — returning a
        :class:`_PendingSelf` resolved at :meth:`flush`.
        """
        ceval = self.ceval
        rec = layer.rec
        if rec.weight_slices is None and scheme.fd.ofmap < 0:
            return ceval.empty_block()
        key = (lid, scheme.part, scheme.core_group,
               scheme.fd.weight, scheme.fd.ofmap, bu)
        block = ceval.self_blocks.get_lru(key)
        if block is not None:
            return block
        ps = self._self_local.get(key)
        if ps is None:
            ps = self._stage_self(scheme, layer)
            self._self_local[key] = ps
            self._self_pending.append((key, ps))
        return ps

    def _stage_self(self, scheme, layer) -> _PendingSelf:
        # Stationary-operand bytes go out once per K-slice along a
        # multicast tree — loaded once per inference (prologue) when
        # the slice fits in half the GLB, refetched every round
        # otherwise.  The per-slice tree scatters share one bincount
        # segment (sequential accumulation == the analyzer's per-tree
        # ``add_on_links`` folds from zero); the ofmap targets keep
        # per-request segments because the analyzer adds each target's
        # *pre-summed* bincount.
        ceval = self.ceval
        topo = ceval.ev.topo
        rec = layer.rec
        n_dram = self.n_dram
        dram_read = np.zeros(n_dram)
        dram_write = np.zeros(n_dram)
        dram_once = np.zeros(n_dram)
        hop = 0.0
        tree_q = self.tree_q
        seg = tree_q.new_segment()
        if rec.weight_slices is not None:
            targets = _dram_targets(topo, scheme.fd.weight)
            cores_list = layer.cores_list
            glb_half = ceval.ev.arch.glb_bytes / 2
            trees = ceval._trees
            tree_links = ceval._tree_links
            for volume, kk, pk in rec.weight_slices:
                dsts = tuple(cores_list[kk::pk])
                resident = volume <= glb_half
                for dram, share in targets:
                    got = trees.get((dram, dsts))
                    if got is None:
                        got = tree_links(dram, dsts)
                    v = volume * share
                    if resident:
                        dram_once[dram[1]] += v
                        hop += v * got[1]
                    else:
                        tree_q.add(seg, got[0], v)
                        dram_read[dram[1]] += v
        ofmap_reqs = []
        fd = scheme.fd.ofmap
        if fd >= 0:
            plan = layer.dram_plans.get((fd, True, None))
            if plan is None:
                cores = layer.cores
                to_d, to_l, _, _ = topo.dram_route_tables()
                plan = []
                for dram, share in _dram_targets(topo, fd):
                    d = dram[1]
                    rows = cores * n_dram + d
                    padded = to_d[rows].ravel()
                    plan.append((d, share, padded[padded >= 0], to_l[rows]))
                layer.dram_plans[(fd, True, None)] = plan
            volumes = rec.out_volumes
            for d, share, valid_idx, rep_lens in plan:
                v = volumes * share
                ofmap_reqs.append(
                    self.flat_q.add(valid_idx, v, rep_lens)
                )
                # Sequential per-part tally, as in dram_scatter_batch.
                t = dram_write[d]
                for x in v.tolist():
                    t += x
                dram_write[d] = t
        return _PendingSelf(
            seg, ofmap_reqs, dram_read, dram_write, dram_once, hop
        )

    def _stage_dram(self, layer, op_idx: int, fd: int):
        # DRAM reads of one input slice, per FD target.  The route
        # gather for the layer's cores is planned once per (selector,
        # input) on the layer record; the per-target bincounts join the
        # flat queue.
        ceval = self.ceval
        pre = ceval._dram_in(layer.rec, op_idx)
        if pre is None:
            return ("ops", ())
        idx, volumes = pre
        topo = ceval.ev.topo
        plan = layer.dram_plans.get((fd, False, op_idx))
        if plan is None:
            cores_sel = layer.cores[idx]
            n_dram = len(topo.dram_nodes())
            _, _, from_d, from_l = topo.dram_route_tables()
            plan = []
            for dram, share in _dram_targets(topo, fd):
                d = dram[1]
                rows = cores_sel * n_dram + d
                padded = from_d[rows].ravel()
                plan.append((d, share, padded[padded >= 0], from_l[rows]))
            layer.dram_plans[(fd, False, op_idx)] = plan
        items = []
        for d, share, valid_idx, rep_lens in plan:
            v = volumes * share
            items.append(
                (self.flat_q.add(valid_idx, v, rep_lens), d, v.tolist())
            )
        return ("dram", items)

    # -- resolution ----------------------------------------------------

    def flush(self) -> None:
        core_out = self.core_q.flush()
        flat_out = self.flat_q.flush()
        tree_out = self.tree_q.flush()
        ceval = self.ceval
        for key, ps in self._self_pending:
            vol = tree_out[ps.seg].copy()
            for r in ps.ofmap_reqs:
                vol += flat_out[r]
            ps.block = LayerTrafficBlock(
                volumes=vol,
                dram_read=ps.dram_read if ps.dram_read.any() else None,
                dram_write=ps.dram_write if ps.dram_write.any() else None,
                dram_weight_once=(
                    ps.dram_once if ps.dram_once.any() else None
                ),
                weight_tree_hop_bytes=ps.hop,
                flows=None,
            )
            ceval.self_blocks.put(key, ps.block)
        resolved: dict[tuple, tuple] = {}
        for key, ent in self._local.items():
            kind = ent[0]
            if kind == "core":
                ops = ((core_out[ent[1]].copy(), None, None),)
            elif kind == "dram":
                ops = tuple(
                    (flat_out[r].copy(), d, vl) for r, d, vl in ent[1]
                )
            else:
                ops = ent[1]
            ceval.slice_flows.put(key, ops)
            resolved[key] = ops
        for pb in self._pending:
            vol, dram_read = ceval._zeros()
            for part in pb.parts:
                ops = part[1] if part[0] == "ready" else resolved[part[1]]
                for arr, d, v_list in ops:
                    vol += arr
                    if d is not None:
                        # Sequential scalar fold, matching the
                        # per-part tally loop of the analyzer.
                        t = dram_read[d]
                        for x in v_list:
                            t += x
                        dram_read[d] = t
            pb.block = LayerTrafficBlock(
                volumes=vol,
                dram_read=dram_read if dram_read.any() else None,
                dram_write=None,
                dram_weight_once=None,
                weight_tree_hop_bytes=0.0,
                flows=None,
            )


# ----------------------------------------------------------------------
# Candidate staging
# ----------------------------------------------------------------------


@dataclass
class _Staged:
    """One candidate's rebuilt state, pre-fold."""

    slot: int
    lms: LayerGroupMapping
    schemes: list
    recs: list
    self_blocks: list
    input_blocks: list
    ext_places: list
    #: ``(block row index, block-or-pending)`` overrides vs. the slot's
    #: current rows.
    rows: list = field(default_factory=list)
    saved: list = field(default_factory=list)


def _stage_candidate(
    ceval, ctx, bu, cur_schemes, cur_recs, cur_self, cur_input,
    cur_places, slot, lms, stored_at, pend: _DeferredBlocks,
) -> _Staged:
    """Staleness + rebuild of one candidate (scatters deferred to
    ``pend``).

    A block is rebuilt iff its own scheme or one of its dependencies
    changed: a self block when its layer's scheme did, an input block
    when its layer, one of its in-group producers or one of its
    cross-group placements did.  Schemes are compared by identity —
    operators share unchanged schemes — so untouched layers cost a
    pointer compare, not a hash.
    """
    schemes = [lms.scheme(name) for name in lms.group.layers]
    recs = list(cur_recs)
    self_blocks = list(cur_self)
    input_blocks = list(cur_input)
    new_places = cur_places
    rows: list[tuple] = []
    changed = set()
    for i, lid in enumerate(ctx.lids):
        if schemes[i] is not cur_schemes[i]:
            changed.add(i)
            recs[i] = ceval.layer_rec(lid, schemes[i], bu)
            sb = pend.stage_self_block(lid, schemes[i], bu, recs[i])
            self_blocks[i] = sb
            rows.append((2 * i + 1, sb))
    for i in range(len(ctx.lids)):
        stale = i in changed
        if not stale:
            for p in ctx.producer_pos[i]:
                if p in changed:
                    stale = True
                    break
        names = ctx.ext_names[i]
        if names:
            places = tuple(
                stored_at.get(nm, INTERLEAVED) for nm in names
            )
            if places != cur_places[i]:
                stale = True
                if new_places is cur_places:
                    new_places = list(cur_places)
                new_places[i] = places
        if stale:
            pb = pend.stage_input_block(
                ctx, i, bu, schemes, recs,
                ceval.deps_for(ctx, i, schemes, stored_at),
            )
            input_blocks[i] = pb
            rows.append((2 * i, pb))
    return _Staged(
        slot=slot, lms=lms, schemes=schemes, recs=recs,
        self_blocks=self_blocks, input_blocks=input_blocks,
        ext_places=new_places, rows=rows,
    )


def _built(blk) -> LayerTrafficBlock:
    """A block, or the block a flushed placeholder materialized."""
    if isinstance(blk, (_PendingInput, _PendingSelf)):
        return blk.block
    return blk


def _resolve_staged(staged: list[_Staged]) -> None:
    """Swap pending placeholders for their materialized blocks."""
    for st in staged:
        for k, (j, blk) in enumerate(st.rows):
            blk = _built(blk)
            st.rows[k] = (j, blk)
            blocks = st.input_blocks if j % 2 == 0 else st.self_blocks
            blocks[j // 2] = blk


# ----------------------------------------------------------------------
# The batched fold + finalize core
# ----------------------------------------------------------------------


class _BatchCore:
    """Lane layout + fold + finalize of one (group, batch) pair.

    A block row is ``[volumes | dram_read | dram_write |
    dram_weight_once | hop_bytes]``; folding rows column-by-column
    replays each slot's canonical left fold from zero, and the wide
    finalize only vectorizes the order-insensitive pieces (elementwise
    divides, row maxima) while the order-sensitive subset sums run
    per slot on contiguous row views.
    """

    def __init__(self, ceval: CompiledEval, group, batch: int):
        self.ceval = ceval
        self.group = group
        self.batch = batch
        self.ctx = ceval.group_ctx(group)
        self.bu = group.batch_unit
        self.n_layers = len(self.ctx.lids)
        self.nb = 2 * self.n_layers
        topo = ceval.ev.topo
        self.n_links = topo.n_links
        self.n_dram = len(topo.dram_nodes())
        n_links, n_dram = self.n_links, self.n_dram
        self.lanes = n_links + 3 * n_dram + 1
        self.sl_vol = slice(0, n_links)
        self.sl_dr = slice(n_links, n_links + n_dram)
        self.sl_dw = slice(n_links + n_dram, n_links + 2 * n_dram)
        self.sl_do = slice(n_links + 2 * n_dram, n_links + 3 * n_dram)
        self.i_hop = n_links + 3 * n_dram
        self.rounds = math.ceil(batch / group.batch_unit)
        self.depth = len(group)

    def write_row(self, row: np.ndarray, block: LayerTrafficBlock) -> None:
        row[self.sl_vol] = block.volumes
        dr = block.dram_read
        row[self.sl_dr] = 0.0 if dr is None else dr
        dw = block.dram_write
        row[self.sl_dw] = 0.0 if dw is None else dw
        do = block.dram_weight_once
        row[self.sl_do] = 0.0 if do is None else do
        row[self.i_hop] = block.weight_tree_hop_bytes

    def fold(self, buf: np.ndarray) -> np.ndarray:
        """Left fold of the ``(nb, S, lanes)`` buffer over blocks."""
        acc = np.zeros((buf.shape[1], buf.shape[2]))
        for j in range(self.nb):
            np.add(acc, buf[j], out=acc)
        return acc

    def finalize(self, acc: np.ndarray, items) -> list[GroupEval]:
        """Delay/energy reduction of the folded slots.

        ``items`` is ``(slot, recs)`` pairs; one GroupEval per item.
        Per slot, the arithmetic inlines ``stage_times_from_compute`` +
        ``group_delay`` + ``group_energy_from_intra`` operation for
        operation (no reassociation), dropping only the intermediate
        TrafficMap / GroupTraffic / StageTimes objects, and vectorizes
        only the order-insensitive pieces across slots.
        """
        ceval = self.ceval
        e = ceval.ev.energy
        pbw = ceval._per_dram_bw
        noc_idx, d2d_idx = ceval._noc_idx, ceval._d2d_idx
        n_d2d = ceval._n_d2d
        vol2 = acc[:, self.sl_vol]
        net = (vol2 / ceval._bandwidths).max(axis=1)
        do2 = acc[:, self.sl_do]
        rb2 = acc[:, self.sl_dr] + acc[:, self.sl_dw]
        if self.n_dram:
            rb_max = rb2.max(axis=1)
            do_max = do2.max(axis=1)
        rounds, depth = self.rounds, self.depth
        out = []
        for slot, recs in items:
            compute = 0.0
            intra_j = 0.0
            fits = True
            for cl in recs:
                rec = cl.rec
                if rec.compute > compute:
                    compute = rec.compute
                intra_j += rec.energy
                fits = fits and rec.fits
            network = float(net[slot])
            dram = float(rb_max[slot]) / pbw if self.n_dram else 0.0
            prologue = float(do_max[slot]) / pbw if self.n_dram else 0.0
            stage = max(compute, network, dram)
            delay = stage * (rounds + depth - 1) + prologue
            vol_row = vol2[slot]
            noc_j = float(vol_row[noc_idx].sum()) * e.e_noc_hop
            d2d_j = e.d2d_energy(
                float(vol_row[d2d_idx].sum()), n_d2d, stage
            )
            rb_row = rb2[slot]
            dram_j = float(rb_row.sum()) * e.e_dram
            once_bytes = float(do2[slot].sum())
            hop = float(acc[slot, self.i_hop])
            energy = EnergyBreakdown(
                intra=intra_j * rounds,
                noc=noc_j * rounds + hop * e.e_noc_hop,
                d2d=d2d_j * rounds,
                dram=dram_j * rounds + once_bytes * e.e_dram,
            )
            out.append(GroupEval(
                delay=delay,
                energy=energy,
                stage_time=stage,
                rounds=rounds,
                compute_time=compute,
                network_time=network,
                dram_time=dram,
                traffic=None,
                dram_round_bytes=tuple(rb_row),
                fits=fits,
            ))
        return out


# ----------------------------------------------------------------------
# Population state
# ----------------------------------------------------------------------


@dataclass
class BatchProposal:
    """Staged candidates of one pricing pass, scored.

    ``in_place`` says whether the candidates' rows were written over
    their walkers' own buffer rows (:meth:`PopulationGroupState.propose`)
    or into a scratch buffer (:meth:`PopulationGroupState.score`).
    """

    staged: list[_Staged]
    evals: list[GroupEval]
    in_place: bool = True


class PopulationGroupState:
    """N walkers' current states of one layer group, fold-ready.

    Holds each walker's blocks (built through the shared
    :class:`CompiledEval` caches, so walkers deduplicate work against
    each other) plus the persistent ``(nb, N, lanes)`` row buffer the
    batched fold consumes.  :meth:`propose` delta-evaluates one
    candidate per walker in a single batched pass; accepted candidates
    keep their rows, rejected ones are rolled back.  :meth:`score`
    prices K candidates against one walker's rows (best-of-K).  A
    one-slot state is the serial SA walk's delta evaluator.
    """

    def __init__(self, ceval: CompiledEval, lmss: list[LayerGroupMapping],
                 batch: int, stored_ats: list[dict]):
        if not lmss:
            raise ValueError("population needs at least one mapping")
        self.core = _BatchCore(ceval, lmss[0].group, batch)
        self.ceval = ceval
        core, ctx, bu = self.core, self.core.ctx, self.core.bu
        n = len(lmss)
        self.n_slots = n
        self.lms = list(lmss)
        self.schemes: list[list] = []
        self.recs: list[list] = []
        self.self_blocks: list[list] = []
        self.input_blocks: list[list] = []
        self.ext_places: list[list] = []
        pend = _DeferredBlocks(ceval)
        for lms, stored_at in zip(lmss, stored_ats):
            schemes = [lms.scheme(name) for name in lms.group.layers]
            recs = [
                ceval.layer_rec(lid, schemes[i], bu)
                for i, lid in enumerate(ctx.lids)
            ]
            self.self_blocks.append([
                pend.stage_self_block(lid, schemes[i], bu, recs[i])
                for i, lid in enumerate(ctx.lids)
            ])
            self.input_blocks.append([
                pend.stage_input_block(
                    ctx, i, bu, schemes, recs,
                    ceval.deps_for(ctx, i, schemes, stored_at),
                )
                for i in range(core.n_layers)
            ])
            self.ext_places.append([
                tuple(stored_at.get(nm, INTERLEAVED) for nm in names)
                for names in ctx.ext_names
            ])
            self.schemes.append(schemes)
            self.recs.append(recs)
        pend.flush()
        self.buf = np.zeros((core.nb, n, core.lanes))
        for w in range(n):
            inputs = [_built(b) for b in self.input_blocks[w]]
            selfs = [_built(b) for b in self.self_blocks[w]]
            self.input_blocks[w] = inputs
            self.self_blocks[w] = selfs
            for i in range(core.n_layers):
                core.write_row(self.buf[2 * i, w], inputs[i])
                core.write_row(self.buf[2 * i + 1, w], selfs[i])
        self.proposed = 0
        self.committed = 0

    # ------------------------------------------------------------------

    def evaluate_current(self) -> list[GroupEval]:
        """Batched full evaluation of every walker's current state."""
        acc = self.core.fold(self.buf)
        return self.core.finalize(
            acc, [(w, self.recs[w]) for w in range(self.n_slots)]
        )

    def _stage(self, cands) -> list[_Staged]:
        """Stage ``(walker, lms, stored_at)`` candidates against their
        walkers' current states; one batched flush builds the blocks."""
        ceval, ctx, bu = self.ceval, self.core.ctx, self.core.bu
        pend = _DeferredBlocks(ceval)
        staged = [
            _stage_candidate(
                ceval, ctx, bu, self.schemes[w], self.recs[w],
                self.self_blocks[w], self.input_blocks[w],
                self.ext_places[w], w, lms, stored_at, pend,
            )
            for w, lms, stored_at in cands
        ]
        pend.flush()
        _resolve_staged(staged)
        self.proposed += len(staged)
        return staged

    def propose(self, cands: list[tuple[int, LayerGroupMapping]],
                stored_ats: list[dict]) -> BatchProposal:
        """Delta-evaluate one candidate per (distinct) walker.

        ``cands`` is ``(walker, candidate lms)`` pairs — each walker at
        most once, since candidate rows are written in place over the
        walker's own buffer rows.  Follow with :meth:`resolve`.
        """
        core, buf = self.core, self.buf
        staged = self._stage(
            [(w, lms, stored_ats[w]) for w, lms in cands]
        )
        for st in staged:
            for j, blk in st.rows:
                row = buf[j, st.slot]
                st.saved.append((j, row.copy()))
                core.write_row(row, blk)
        acc = core.fold(buf)
        evals = core.finalize(acc, [(st.slot, st.recs) for st in staged])
        return BatchProposal(staged, evals)

    def score(self, w: int, lmss: list[LayerGroupMapping],
              stored_at: dict) -> BatchProposal:
        """Delta-evaluate K candidates against walker ``w``'s state.

        Each candidate folds in its own column of a scratch copy of the
        walker's rows, so the walker stays untouched until
        :meth:`resolve` adopts at most one of them.
        """
        core = self.core
        staged = self._stage([(w, lms, stored_at) for lms in lmss])
        sbuf = np.repeat(self.buf[:, w:w + 1], len(staged), axis=1)
        for k, st in enumerate(staged):
            for j, blk in st.rows:
                core.write_row(sbuf[j, k], blk)
        acc = core.fold(sbuf)
        evals = core.finalize(
            acc, [(k, st.recs) for k, st in enumerate(staged)]
        )
        return BatchProposal(staged, evals, in_place=False)

    def resolve(self, bp: BatchProposal, accepted: list[bool]) -> None:
        """Adopt accepted candidates and roll rejected in-place rows
        back; a :meth:`score` pass may accept at most one candidate,
        whose rows are then copied in."""
        buf = self.buf
        for st, ok in zip(bp.staged, accepted):
            w = st.slot
            if ok:
                self.committed += 1
                self.lms[w] = st.lms
                self.schemes[w] = st.schemes
                self.recs[w] = st.recs
                self.self_blocks[w] = st.self_blocks
                self.input_blocks[w] = st.input_blocks
                self.ext_places[w] = st.ext_places
                if not bp.in_place:
                    for j, blk in st.rows:
                        self.core.write_row(buf[j, w], blk)
            elif bp.in_place:
                for j, old_row in st.saved:
                    buf[j, w] = old_row


def evaluate_population(
    ceval: CompiledEval,
    lmss: list[LayerGroupMapping],
    batch: int,
    stored_at=None,
) -> list[GroupEval]:
    """Stateless batched evaluation of N mappings of one group.

    ``stored_at`` is either one dict shared by every slot or a
    per-slot sequence of dicts.  Element-wise bit-identical to the
    object reference path — the identity surface the batch tests pin.
    """
    if stored_at is None or isinstance(stored_at, dict):
        stored_at = [stored_at or {}] * len(lmss)
    state = PopulationGroupState(ceval, lmss, batch, list(stored_at))
    return state.evaluate_current()
