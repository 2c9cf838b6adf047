"""Layer spans for the traced run, on the program's own span tracer.

The program already records coarse spans (``sa.run``, ``candidate``,
``compile_graph``, ``evaluator.warm``, ``store.put``, ``campaign.run``,
...) into :data:`repro.obs.trace.TRACER` when it is enabled, and pool
workers ship theirs back inside ``PERF.snapshot()``.  For the layers
that open no span of their own, :func:`install_layer_spans` wraps the
public function (or method) in ``repro.obs.trace.trace(name)``, from
outside ``src/``.  :func:`spans_from_records` turns the tracer's records
into :class:`Span` rows with an op id, and a layer's *self time* is its
span's duration minus the part of that interval covered by its child
spans (:func:`layer_table`).

Three hooks are not tracing and stay on in untraced runs
(:func:`install_hooks`):

* every SA run's start and best cost, which the quality figures need
  and which :meth:`DesignSpaceExplorer.evaluate_candidate` does not
  return, copied once per SA run;
* a pool worker times the host-speed kernel (:mod:`perfbench.hostspeed`)
  before each candidate, so a pooled run's speed is sampled on the
  cores, and under the load, its candidates ran with;
* pool workers start when the pool is built rather than at its first
  task, so their start-up belongs to the set-up (or phase) that built
  the pool.

Workers ship the first two over
:func:`repro.perf.counters.register_snapshot_extra`.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from typing import NamedTuple

#: Name of the benchmark's section on the PERF snapshot channel.
EXTRA_KEY = "perfbench"

#: Name of the span the benchmark opens around each op (attr ``op``).
OP_SPAN = "op"

#: The program's span around ``DesignSpaceExplorer.evaluate_candidate``
#: (attr ``index``), which tags worker spans with their candidate.
CANDIDATE_SPAN = "candidate"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # sid of the enclosing span in the same pid, -1 for a root
    op: str
    pid: int
    sid: int


class SARun(NamedTuple):
    """Telemetry of one :meth:`SAController.run` (``SAStats`` fields)."""

    start_cost: float
    best_cost: float
    iterations: int
    proposed: int
    accepted: int
    improved: int
    best_iteration: int


class Outcomes:
    """SA runs and host-speed samples of the benchmark process and its
    forked pool workers.

    A worker ships what it recorded with each PERF snapshot and clears
    it on the ``PERF.reset()`` that precedes its next task; the process
    that created the list keeps everything.
    """

    def __init__(self):
        self.owner = os.getpid()
        self.runs: list[SARun] = []
        self.kernel_s: list[float] = []  # samples taken in pool workers

    def collect(self):
        if os.getpid() == self.owner or not (self.runs or self.kernel_s):
            return None
        return {"sa": self.runs, "kernel_s": self.kernel_s}

    def merge(self, payload) -> None:
        self.runs.extend(SARun(*r) for r in payload["sa"])
        self.kernel_s.extend(payload["kernel_s"])

    def reset(self) -> None:
        if os.getpid() != self.owner:
            self.runs = []
            self.kernel_s = []


class Patches:
    """Attribute replacements that :meth:`undo` restores in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def install_hooks(patches: Patches) -> Outcomes:
    """Record SA outcomes, sample host speed in pool workers and start
    them eagerly (both passes)."""
    from perfbench import hostspeed
    from repro.core.sa import SAController
    from repro.dse.explorer import DesignSpaceExplorer
    from repro.dse.pool import PersistentEvalPool
    from repro.perf.counters import register_snapshot_extra

    outcomes = Outcomes()
    register_snapshot_extra(EXTRA_KEY, outcomes.collect, outcomes.merge,
                            outcomes.reset)
    run = SAController.run

    @functools.wraps(run)
    def recorded_run(self):
        best = run(self)
        s = self.stats
        outcomes.runs.append(SARun(
            s.initial_cost, s.final_cost, s.iterations, s.proposed,
            s.accepted, s.improved, s.best_iteration,
        ))
        return best

    evaluate = DesignSpaceExplorer.evaluate_candidate

    @functools.wraps(evaluate)
    def sampled(self, arch, index=0, warm=None):
        if os.getpid() != outcomes.owner:
            outcomes.kernel_s.append(hostspeed.sample())
        return evaluate(self, arch, index=index, warm=warm)

    init = PersistentEvalPool.__init__

    @functools.wraps(init)
    def started(self, explorer, workers):
        # Under fork the executor launches every worker at its first
        # submit; one trivial task per worker makes that happen here.
        init(self, explorer, workers)
        for fut in [self._pool.submit(os.getpid) for _ in range(workers)]:
            fut.result()

    patches.replace(SAController, "run", recorded_run)
    patches.replace(DesignSpaceExplorer, "evaluate_candidate", sampled)
    patches.replace(PersistentEvalPool, "__init__", started)
    return outcomes


def _layer_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` of the layer entry points that
    open no span of their own.

    Module-level functions are patched where their callers look them
    up: the engine imports ``partition_graph``/``initial_lms`` at module
    level.  Route tables are not wrapped: their getters sit on the SA
    hot path, so their build time is read from the
    ``fabric.route_tables.*`` PERF timers instead.
    """
    import repro.campaign.runner as runner_mod
    import repro.core.engine as engine_mod
    import repro.workloads.models as models_mod
    from repro.campaign.store import ResultStore
    from repro.core.sa import SAController
    from repro.cost.mc import MCEvaluator
    from repro.dse.pool import PersistentEvalPool
    from repro.evalmodel.evaluator import Evaluator

    return [
        (models_mod, "build", "workloads.build"),
        (engine_mod, "partition_graph", "graphpart.partition"),
        (engine_mod, "initial_lms", "initial.lms"),
        (engine_mod.MappingEngine, "map", "engine.map"),
        (Evaluator, "evaluate_mapping", "evalmodel.final_eval"),
        (SAController, "__init__", "sa.setup"),
        (MCEvaluator, "evaluate", "cost.mc_eval"),
        (PersistentEvalPool, "__init__", "dse.pool.spawn"),
        (runner_mod, "wait", "dse.pool.wait"),
        (runner_mod.CampaignRunner, "__init__", "campaign.init"),
        (ResultStore, "get", "campaign.store.get"),
    ]


def _traced(name: str, fn):
    from repro.obs.trace import trace

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with trace(name):
            return fn(*args, **kwargs)

    return traced


def install_layer_spans(patches: Patches) -> None:
    """Wrap every layer entry point of :func:`_layer_targets`."""
    for owner, attr, name in _layer_targets():
        patches.replace(owner, attr, _traced(name, owner.__dict__[attr]))


# ----------------------------------------------------------------------
# Span records and self time
# ----------------------------------------------------------------------


def spans_from_records(records: list[dict]) -> list[Span]:
    """:class:`Span` rows of the tracer's records, each with its op id.

    The op id is the label of the benchmark's op span whose interval
    holds the span's start (``setup`` outside every op), followed by
    ``/c<index>`` under a candidate span, so worker spans name their
    candidate too.  Starts are wall-clock times, which processes share.
    """
    ops = [(r["ts"], r["ts"] + r["dur"], r["attrs"]["op"])
           for r in records if r["name"] == OP_SPAN and r["pid"] == os.getpid()]
    by_sid = {(r["pid"], r["sid"]): r for r in records}

    def op_of(r) -> str:
        label = next((op for a, b, op in ops if a <= r["ts"] <= b), "setup")
        while r is not None:
            if r["name"] == CANDIDATE_SPAN:
                return f"{label}/c{r['attrs']['index']}"
            r = by_sid.get((r["pid"], r["parent"]))
        return label

    return [
        Span(r["name"], r["ts"], r["ts"] + r["dur"], r["parent"], op_of(r),
             r["pid"], r["sid"])
        for r in records
    ]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[tuple[int, int], list] = defaultdict(list)
    for s in spans:
        children[(s.pid, s.parent)].append((s.start, s.end))
    return [
        (s.end - s.start)
        - covered_length(children.get((s.pid, s.sid), ()), s.start, s.end)
        for s in spans
    ]


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """``name -> {"self_s", "total_s", "calls"}`` summed over spans."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"self_s": 0.0, "total_s": 0.0,
                                        "calls": 0})
        row["self_s"] += own
        row["total_s"] += s.end - s.start
        row["calls"] += 1
    return table
