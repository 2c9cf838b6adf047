"""The three benchmark workloads.

All are closed loops with one caller: the next op is issued only after
the previous one returned.  Each driver builds its program state in
:meth:`setup` (timed as ``setup_s``), runs the plan's ops in
:meth:`timed`, and verifies the outputs afterwards in :meth:`check`.
"""

from __future__ import annotations

import shutil
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace

from perfbench import hostspeed, plans
from perfbench.checks import (
    candidate_fingerprint,
    check_candidate,
    check_mapping,
    digest,
)
from perfbench.tracing import OP_SPAN


@dataclass
class Verdict:
    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)


class Probe:
    """Runs ops of one measured pass: a host-speed sample before each op
    (untimed), op spans, per-op PERF counters."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.busy_s = 0.0  # summed op seconds
        self.kernel_s: list[float] = []  # host-speed samples, one per op
        self.kernel_cpu_s = 0.0
        self.records: list[dict] = []  # TRACER spans of this pass
        self.counters: dict[str, float] = defaultdict(float)
        self.timers: dict[str, float] = defaultdict(float)

    def drain(self) -> None:
        """Move the tracer's spans here (``PERF.reset()`` drops them)."""
        from repro.obs.trace import TRACER

        self.records.extend(TRACER.spans)
        TRACER.spans = []

    def op(self, label: str, fn):
        """``(output, seconds)`` of one op; a raised exception is the output.

        Named caches die with their evaluator, so a traced pass reads
        the PERF counters op by op (reset before, snapshot after), the
        way pool workers report each candidate.
        """
        from repro.obs.trace import trace
        from repro.perf import PERF

        c0 = time.process_time()
        self.kernel_s.append(hostspeed.sample())
        self.kernel_cpu_s += time.process_time() - c0
        if self.traced:
            self.drain()
            PERF.reset()
        t0 = time.perf_counter()
        try:
            with trace(OP_SPAN, op=label):
                out = fn()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            traceback.print_exc(file=sys.stderr)
            out = exc
        seconds = time.perf_counter() - t0
        self.busy_s += seconds
        if self.traced:
            snap = PERF.snapshot()
            for name, value in snap["counters"].items():
                self.counters[name] += value
            for name, timer in snap["timers"].items():
                self.timers[name] += timer["seconds"]
        return out, seconds


def _build_graphs(models) -> dict:
    """Fresh graphs, compiled: the set-up every workload shares."""
    import repro.compiled
    import repro.workloads.models

    graphs = {}
    for name, _batch in models:
        if name not in graphs:
            graphs[name] = repro.workloads.models.build(name)
            repro.compiled.compile_graph(graphs[name])
    return graphs


def _dse_workloads(graphs, models):
    from repro.dse.explorer import Workload

    return [Workload(graphs[name], batch) for name, batch in models]


class _SerialDriver:
    """One op per plan entry; each output is ``(result or exception, s)``."""

    def items(self) -> tuple:
        raise NotImplementedError

    def call(self, state, index: int, item):
        """Run one op on the program."""
        raise NotImplementedError

    def verify(self, state, item, result) -> str | None:
        """The problem with one op's result, or ``None``."""
        raise NotImplementedError

    def fingerprint(self, item, result) -> tuple:
        raise NotImplementedError

    def close(self, state) -> None:
        pass

    def timed(self, state, probe: Probe) -> list:
        return [
            probe.op(f"op{i}", lambda: self.call(state, i, item))
            for i, item in enumerate(self.items())
        ]

    def untimed(self, state, probe: Probe):
        return None

    def timed_ops(self) -> int:
        return len(self.items())

    def check(self, state, outputs, untimed, verify=True) -> Verdict:
        failed, problems, prints = 0, [], []
        for i, ((out, _), item) in enumerate(zip(outputs, self.items())):
            if isinstance(out, Exception):
                problem = f"raised {out!r}"
            else:
                problem = self.verify(state, item, out) if verify else None
            if problem is not None:
                failed += 1
                problems.append(f"op{i}: {problem}")
            else:
                prints.append(self.fingerprint(item, out))
        return Verdict(len(outputs), failed, digest(prints), problems)

    @staticmethod
    def latencies(outputs) -> list[float]:
        return [s for out, s in outputs if not isinstance(out, Exception)]


class DseSweep(_SerialDriver):
    """Serial ``evaluate_candidate`` over seeded Table-I candidates."""

    name = "dse-sweep"

    def __init__(self, seed: int, seconds: int, workdir):
        self.plan = plans.dse_plan(seed, seconds)

    def items(self) -> tuple:
        return self.plan.candidates

    def setup(self, k: int):
        from repro.core.sa import SASettings
        from repro.dse.explorer import DesignSpaceExplorer

        graphs = _build_graphs(plans.DSE_MODELS)
        return DesignSpaceExplorer(
            _dse_workloads(graphs, plans.DSE_MODELS),
            sa_settings=SASettings(iterations=plans.DSE_SA_ITERATIONS,
                                   seed=self.plan.sa_seed),
            seed_stride=1,
        )

    def close(self, explorer) -> None:
        explorer.close()

    def call(self, explorer, index: int, arch):
        return explorer.evaluate_candidate(arch, index=index)

    def verify(self, explorer, arch, result) -> str | None:
        return check_candidate(result, explorer.workloads)

    def fingerprint(self, arch, result) -> tuple:
        return candidate_fingerprint(result)


class MapAnneal(_SerialDriver):
    """``MappingEngine.map`` on G-Arch from pinned initial mappings."""

    name = "map-anneal"

    def __init__(self, seed: int, seconds: int, workdir):
        self.plan = plans.anneal_plan(seed, seconds)

    def items(self) -> tuple:
        return self.plan.ops

    def setup(self, k: int):
        from repro.arch.presets import g_arch
        from repro.core.engine import MappingEngine, MappingEngineSettings
        from repro.core.sa import SASettings

        graphs = _build_graphs(plans.ANNEAL_MODELS)
        engine = MappingEngine(g_arch(), settings=MappingEngineSettings(
            sa=SASettings(iterations=plans.ANNEAL_SA_ITERATIONS)
        ))
        pinned = {
            (name, batch): engine.initial_mapping(graphs[name], batch)
            for name, batch in plans.ANNEAL_MODELS
        }
        return graphs, engine, pinned

    def call(self, state, index: int, op):
        graphs, engine, pinned = state
        name, batch, sa_seed = op
        engine.settings.sa = replace(engine.settings.sa, seed=sa_seed)
        return engine.map(graphs[name], batch, initial=pinned[(name, batch)])

    def verify(self, state, op, result) -> str | None:
        graphs, engine, _ = state
        name, batch, _ = op
        return check_mapping(graphs[name], engine.arch, batch, result.lmss,
                             result.delay, result.energy)

    def fingerprint(self, op, result) -> tuple:
        return (*op[:2], result.delay.hex(), result.energy.hex())


@dataclass
class _CampaignState:
    graphs: dict
    home: object
    runner: object


class CampaignWarm:
    """Cold campaign, warm-started follow-up, fully served rerun.

    Timed ops are the candidate outcomes of the cold and warm phases;
    the rerun is verified but kept out of the end-to-end figures (its
    fully served time is too small to measure steadily).
    """

    name = "campaign-warm"

    def __init__(self, seed: int, seconds: int, workdir):
        self.plan = plans.campaign_plan(seed, seconds)
        self.workdir = workdir

    def _spec(self, graphs, name: str, iterations: int):
        from repro.campaign import CampaignSpec
        from repro.core.sa import SASettings

        return CampaignSpec(
            name=name,
            candidates=list(self.plan.candidates),
            workloads=_dse_workloads(graphs, plans.DSE_MODELS),
            sa=SASettings(iterations=iterations, seed=self.plan.sa_seed),
            seed_stride=1,
        )

    def _phase(self, state, name: str, iterations: int):
        from repro.campaign import CampaignRunner

        runner = CampaignRunner(self._spec(state.graphs, name, iterations),
                                state.home)
        try:
            return runner.run(workers=plans.CAMPAIGN_WORKERS)
        finally:
            runner.close()

    def setup(self, k: int) -> _CampaignState:
        from repro.campaign import CampaignRunner

        graphs = _build_graphs(plans.DSE_MODELS)
        home = self.workdir / f"home{k}"
        if home.exists():
            shutil.rmtree(home)
        runner = CampaignRunner(
            self._spec(graphs, "cold", plans.CAMPAIGN_COLD_ITERATIONS), home
        )
        runner.explorer.pool(plans.CAMPAIGN_WORKERS)
        return _CampaignState(graphs, home, runner)

    def close(self, state: _CampaignState) -> None:
        state.runner.close()
        shutil.rmtree(state.home, ignore_errors=True)

    def timed(self, state: _CampaignState, probe: Probe) -> list:
        def cold():
            try:
                return state.runner.run(workers=plans.CAMPAIGN_WORKERS)
            finally:
                state.runner.close()

        cold_report, cold_s = probe.op("cold", cold)
        warm_report, warm_s = probe.op(
            "warm",
            lambda: self._phase(state, "warm", plans.CAMPAIGN_WARM_ITERATIONS),
        )
        return [(cold_report, cold_s), (warm_report, warm_s)]

    def untimed(self, state: _CampaignState, probe: Probe):
        report, _ = probe.op(
            "resume",
            lambda: self._phase(state, "cold", plans.CAMPAIGN_COLD_ITERATIONS),
        )
        return report

    def timed_ops(self) -> int:
        return 2 * len(self.plan.candidates)

    def check(self, state: _CampaignState, outputs, resume,
              verify=True) -> Verdict:
        n = len(self.plan.candidates)
        workloads = _dse_workloads(state.graphs, plans.DSE_MODELS)
        failed, problems, prints = 0, [], []
        for phase, (report, _) in zip(("cold", "warm"), outputs):
            results = (
                [report] * n if isinstance(report, Exception)
                else report.results
            )
            for i, result in enumerate(results):
                if isinstance(result, Exception):
                    problem = f"raised {result!r}"
                elif result is None:
                    problem = "no result (candidate failed)"
                elif verify:
                    problem = check_candidate(result, workloads)
                else:
                    problem = None
                if problem is not None:
                    failed += 1
                    problems.append(f"{phase}/c{i}: {problem}")
                else:
                    prints.append((phase, candidate_fingerprint(result)))
        # The rerun must serve every candidate, equal to the cold phase.
        cold = outputs[0][0]
        served_all = (
            not isinstance(resume, Exception)
            and resume.evaluated == 0 and resume.store_hits == n
        )
        for i in range(n):
            ok = served_all and not isinstance(cold, Exception)
            if ok:
                a, b = cold.results[i], resume.results[i]
                ok = a is not None and b is not None and (
                    candidate_fingerprint(a) == candidate_fingerprint(b)
                    and a.mappings == b.mappings
                )
            if not ok:
                failed += 1
                problems.append(
                    f"resume/c{i}: not served from the store equal to cold"
                )
        return Verdict(3 * n, failed, digest(prints), problems)

    @staticmethod
    def latencies(outputs) -> list[float]:
        """Worker-side evaluation time of each cold-phase candidate.

        Warm candidates skip the partition and take about half as long;
        with both phases pooled the median would fall between the two
        modes and jump from run to run.
        """
        cold, _ = outputs[0]
        if isinstance(cold, Exception):
            return []
        return [r.wall_time_s for r in cold.results if r is not None]


DRIVERS = {d.name: d for d in (DseSweep, MapAnneal, CampaignWarm)}
