"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own interpreter,
and prints their metrics as ``<workload>/<metric>``.

``--trace 0`` measures the end-to-end metrics with the program's span
tracer off and no layer wrappers installed; ``setup_s`` is the median
set-up time of several fresh interpreters (``--setup-only``).
``--trace 1`` runs the same ops twice — untraced, then with the tracer
on and every layer wrapped in spans — and reports the per-layer metrics
of the traced pass; the spans are written to ``perfbench/out/``.

All times are host times.  The delay, energy and EDP the program
computes are simulated statistics of the modelled chiplet accelerator;
no hardware reference for them exists in the repository, so they are
unvalidated and the benchmark uses them only as determinism and
correctness checks (``result_digest``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: Set-up probes time from here: after the standard library, before the
#: program and numpy are imported.
START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent

#: ``setup_s`` is the median of this many set-ups, each in a fresh
#: interpreter timed from its start to the state the first op runs on,
#: so it includes imports and first-call costs.
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60

#: Host-speed samples taken before and after the timed ops (the probe
#: takes one before each op).
EDGE_SAMPLES = 10


@dataclass
class Pass:
    """One measured pass: a set-up, then the timed ops on it."""

    state: object
    setup_s: float
    outputs: list
    untimed: object
    busy_s: float  # summed op seconds
    cpu_s: float
    speed: float  # hostspeed.scale() of this pass
    peak_rss_mb: float
    sa_runs: list
    probe: object


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(driver, outcomes, traced: bool) -> Pass:
    from perfbench import hostspeed
    from perfbench.drivers import Probe

    gc.collect()
    t0 = time.perf_counter()
    state = driver.setup(0)
    setup_s = time.perf_counter() - t0
    probe = Probe(traced)
    outcomes.runs = []
    outcomes.kernel_s = []
    gc.collect()
    kernel_s = [hostspeed.sample() for _ in range(EDGE_SAMPLES)]
    cpu0 = cpu_seconds()
    outputs = driver.timed(state, probe)
    cpu = cpu_seconds() - cpu0 - probe.kernel_cpu_s
    rss = peak_rss_mb()
    sa_runs = list(outcomes.runs)
    kernel_s += probe.kernel_s + outcomes.kernel_s
    kernel_s += [hostspeed.sample() for _ in range(EDGE_SAMPLES)]
    speed = hostspeed.scale(kernel_s)
    busy = probe.busy_s
    untimed = driver.untimed(state, probe)
    if traced:
        probe.drain()
    return Pass(state, setup_s, outputs, untimed, busy, cpu, speed, rss,
                sa_runs, probe)


def probe_setup(args) -> dict:
    """One set-up in this interpreter, timed from the program's start and
    scaled to the reference host speed (kernel sampled right after)."""
    from perfbench import hostspeed
    from perfbench.drivers import DRIVERS
    from perfbench.tracing import Patches, install_hooks

    workdir = ROOT / "perfbench" / ".work" / (
        f"{args.workload}-s{args.seed}-setup")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    hooks = Patches()
    try:
        install_hooks(hooks)
        driver = DRIVERS[args.workload](args.seed, args.seconds, workdir)
        state = driver.setup(0)
        setup_s = time.perf_counter() - START
        speed = hostspeed.scale(
            [hostspeed.sample() for _ in range(EDGE_SAMPLES)])
        driver.close(state)
    finally:
        hooks.undo()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup_s": setup_s * speed, "raw_s": setup_s}


def run_child(argv: list[str], timeout: float | None = None):
    """``(exit code, stdout)`` of this script run with ``argv`` in a fresh
    interpreter.

    The child leads its own process group; once it has exited (or timed
    out) the group is killed, so nothing it started outlives it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def stop_children() -> None:
    """End and reap every process this interpreter started.

    Pool workers are normally joined by ``close()``; any left after an
    error are terminated here.  The shared-memory resource tracker the
    pool's arenas start would otherwise outlive the interpreter by a
    moment: closing its pipe stops it, and it is waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def setup_times(args) -> list[dict]:
    """Set-up times of :data:`SETUP_PROBES` fresh interpreters, in turn."""
    times = []
    for _ in range(SETUP_PROBES):
        code, out = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            timeout=SETUP_PROBE_TIMEOUT_S,
        )
        if code != 0:
            raise SystemExit(f"perfbench: set-up probe exited with {code}")
        times.append(json.loads(out.splitlines()[-1]))
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(driver, p: Pass, verdict,
               setups: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics; host times are scaled to the reference host
    speed (:mod:`perfbench.hostspeed`), the raw figures go to the notes."""
    from perfbench.stats import latency_summary, sa_quality

    ops = driver.timed_ops()
    lat = latency_summary(driver.latencies(p.outputs))
    quality, log_gain = sa_quality(
        [(r.start_cost, r.best_cost) for r in p.sa_runs]
    )
    ok = verdict.attempted - verdict.failed
    metrics = {
        "setup_s": metric(statistics.median(s["setup_s"] for s in setups),
                          "s"),
        "ops_per_s": metric(ops / (p.busy_s * p.speed), "1/s"),
        "op_s_p50": metric(lat["p50"] * p.speed, "s"),
        "op_s_tail": metric(lat["tail"] * p.speed, "s"),
        "cpu_s_per_op": metric(p.cpu_s * p.speed / ops, "s"),
        "quality_ratio": metric(quality, "ratio"),
        "ok_frac": metric(ok / verdict.attempted, "ratio"),
        "peak_rss_mb": metric(p.peak_rss_mb, "MiB"),
    }
    notes = [
        f"timed ops: {ops} in {p.busy_s:.3f} s (closed loop, one caller); "
        f"host speed scale {p.speed:.4f}",
        f"raw host times: ops_per_s {ops / p.busy_s:.6g} 1/s, op_s_p50 "
        f"{lat['p50']:.6g} s, op_s_tail {lat['tail']:.6g} s, cpu_s_per_op "
        f"{p.cpu_s / ops:.6g} s, setup_s "
        f"{statistics.median(s['raw_s'] for s in setups):.6g} s",
        f"op_s_tail is p{lat['tail_p']:g} of {lat['n']} op latencies",
        f"gain_per_cpu_s: {log_gain / (p.cpu_s * p.speed):.6g} 1/s "
        f"(sum of ln(start/best) over {len(p.sa_runs)} SA runs per CPU s)",
        f"set-ups (fresh interpreters, scaled): "
        + ", ".join(f"{s['setup_s']:.4f}" for s in setups)
        + f" s; this run's set-up (imports excluded): {p.setup_s:.4f} s",
    ]
    return metrics, notes


def per_layer(a: Pass, b: Pass, spans) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass ``b`` (``a`` is untraced).

    Names without a layer prefix are the program's own spans:
    ``compile_graph``, ``evaluator.warm`` (route warming), ``candidate``,
    ``store.put`` and ``sa.run``.  Layer times are raw host seconds;
    multiplied by ``host.speed_scale`` they are at the reference speed.
    """
    from perfbench.stats import ratio, sa_quality
    from perfbench.tracing import OP_SPAN, layer_table

    table = layer_table(spans)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    counters = b.probe.counters

    def hit_ratio(prefix):
        hits = sum(v for k, v in counters.items()
                   if k.startswith(prefix) and k.endswith(".hits"))
        misses = sum(v for k, v in counters.items()
                     if k.startswith(prefix) and k.endswith(".misses"))
        return ratio(hits, hits + misses)

    sa = b.sa_runs
    iterations = sum(r.iterations for r in sa)
    proposed = sum(r.proposed for r in sa)
    sa_total_s = table.get("sa.run", {}).get("total_s", 0.0)
    op_total = table.get(OP_SPAN, {}).get("total_s", 0.0)
    warm = counters.get("sa.iters_to_best.warm.runs", 0)
    cold = counters.get("sa.iters_to_best.cold.runs", 0)
    served = counters.get("campaign.store_hits", 0)
    outcomes = served + counters.get("campaign.evaluated", 0) + counters.get(
        "campaign.failed", 0)
    # Quality per CPU second comes from the untraced pass: spans cost CPU.
    _, log_gain = sa_quality([(x.start_cost, x.best_cost) for x in a.sa_runs])
    s, n, r = "s", "count", "ratio"
    m = {
        "gain_per_cpu_s": metric(log_gain / (a.cpu_s * a.speed), "1/s"),
        "graphpart.partition_s": metric(self_s("graphpart.partition"), s),
        "graphpart.calls": metric(calls("graphpart.partition"), n),
        "graphpart.s_per_call": metric(
            ratio(self_s("graphpart.partition"), calls("graphpart.partition")),
            s),
        "initial.lms_s": metric(self_s("initial.lms"), s),
        "evalmodel.warm_s": metric(self_s("evaluator.warm"), s),
        "evalmodel.warm_calls": metric(calls("evaluator.warm"), n),
        "fabric.route_tables_s": metric(sum(
            v for k, v in b.probe.timers.items()
            if k.startswith("fabric.route_tables.")), s),
        "fabric.route_hit_ratio": metric(hit_ratio("fabric.route."), r),
        "evalmodel.final_eval_s": metric(self_s("evalmodel.final_eval"), s),
        "engine.map_self_s": metric(self_s("engine.map"), s),
        "sa.setup_s": metric(self_s("sa.setup"), s),
        "cost.mc_eval_s": metric(self_s("cost.mc_eval"), s),
        "dse.candidate_self_s": metric(self_s("candidate"), s),
        "sa.run_s": metric(self_s("sa.run"), s),
        "sa.iterations": metric(iterations, n),
        "sa.iters_per_s": metric(ratio(iterations, sa_total_s), "1/s"),
        "sa.delta_eval_s": metric(b.probe.timers.get("sa.delta_eval", 0.0), s),
        "sa.accept_ratio": metric(
            ratio(sum(x.accepted for x in sa), proposed), r),
        "sa.improve_ratio": metric(
            ratio(sum(x.improved for x in sa), proposed), r),
        "sa.iters_to_best_frac": metric(ratio(
            sum(ratio(x.best_iteration, x.iterations) for x in sa), len(sa)),
            r),
        "compiled.compile_graph_s": metric(self_s("compile_graph"), s),
        "workloads.build_s": metric(self_s("workloads.build"), s),
        "compiled.lru_hit_ratio": metric(hit_ratio("lru.compiled."), r),
        "intracore.hit_ratio": metric(hit_ratio("intracore."), r),
        "noc.mcast_hit_ratio": metric(hit_ratio("lru.noc.mcast."), r),
        "dse.pool.spawn_s": metric(self_s("dse.pool.spawn"), s),
        "dse.pool.wait_s": metric(self_s("dse.pool.wait"), s),
        "dse.pool.dispatched": metric(counters.get("dse.pool.dispatched", 0), n),
        "dse.pool.respawned": metric(counters.get("dse.pool.respawned", 0), n),
        "campaign.init_s": metric(self_s("campaign.init"), s),
        "campaign.store.put_s": metric(self_s("store.put"), s),
        "campaign.store.puts": metric(calls("store.put"), n),
        "campaign.store.get_s": metric(self_s("campaign.store.get"), s),
        "campaign.store.gets": metric(calls("campaign.store.get"), n),
        "campaign.served_ratio": metric(ratio(served, outcomes), r),
        "campaign.warm_ratio": metric(ratio(warm, warm + cold), r),
        "campaign.retries": metric(counters.get("campaign.retries", 0), n),
        "trace.overhead_frac": metric(
            (b.busy_s * b.speed) / (a.busy_s * a.speed) - 1.0, r),
        "host.speed_scale": metric(b.speed, r),
        "trace.unattributed_frac": metric(
            ratio(self_s(OP_SPAN), op_total), r),
    }
    notes = ["layer self time (s), traced pass:"] + [
        f"  {name:28s} {row['self_s']:10.4f}  calls {row['calls']}"
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    ]
    return m, notes


def write_spans(spans, path: Path, header: dict) -> None:
    from perfbench.tracing import Span

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**header, "fields": Span._fields, "spans": spans}, fh)


def run(args) -> dict:
    from perfbench.drivers import DRIVERS
    from perfbench.tracing import (
        Patches,
        install_hooks,
        install_layer_spans,
        spans_from_records,
    )
    from repro.obs.trace import TRACER

    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    hooks = Patches()
    outcomes = install_hooks(hooks)
    driver = DRIVERS[args.workload](args.seed, args.seconds, workdir)
    states = []
    try:
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        if not args.trace:
            p = measure(driver, outcomes, traced=False)
            states.append(p.state)
            verdict = driver.check(p.state, p.outputs, p.untimed)
            driver.close(states.pop())
            metrics, notes = end_to_end(driver, p, verdict, setup_times(args))
        else:
            a = measure(driver, outcomes, traced=False)
            untraced = driver.check(a.state, a.outputs, a.untimed,
                                    verify=False)
            driver.close(a.state)
            a.state = None  # release its caches before the traced pass
            layers = Patches()
            install_layer_spans(layers)
            TRACER.clear()
            TRACER.enable()
            try:
                b = measure(driver, outcomes, traced=True)
            finally:
                TRACER.disable()
                layers.undo()
            states.append(b.state)
            verdict = driver.check(b.state, b.outputs, b.untimed)
            if untraced.digest != verdict.digest:
                verdict.failed = max(verdict.failed, 1)
                verdict.problems.append(
                    f"traced result_digest {verdict.digest} != untraced "
                    f"{untraced.digest}"
                )
            spans = spans_from_records(b.probe.records)
            metrics, notes = per_layer(a, b, spans)
            out = ROOT / "perfbench" / "out" / (
                f"spans-{args.workload}-s{args.seed}.json")
            write_spans(spans, out, {"workload": args.workload,
                                     "seed": args.seed})
            notes.append(f"spans: {len(spans)} written to "
                         f"{out.relative_to(ROOT)}")
            if TRACER.dropped:
                verdict.failed = max(verdict.failed, 1)
                verdict.problems.append(
                    f"tracer dropped {TRACER.dropped} spans")
        print(f"result_digest {verdict.digest}  (simulated delay/energy: "
              "unvalidated, no hardware reference)")
        for line in notes:
            print(line)
        for problem in verdict.problems:
            print(f"CHECK FAILED {problem}")
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
        return {
            "correct": verdict.failed == 0,
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "metrics": metrics,
        }
    finally:
        for state in states:
            driver.close(state)
        hooks.undo()
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args, names) -> dict:
    """Every workload in a fresh interpreter, so that peak memory and
    warm caches do not carry over from one workload to the next."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, out = run_child(
            ["--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        lines = out.splitlines()
        print("\n".join(lines[:-1]))
        if code != 0 or not lines:
            raise SystemExit(f"perfbench: {name} exited with {code}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            (f"{name}/{key}", m) for key, m in result["metrics"].items()
        )
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.drivers import DRIVERS

    try:
        if args.setup_only and args.workload in DRIVERS:
            result = probe_setup(args)
        elif args.workload == "all":
            result = run_all(args, list(DRIVERS))
        elif args.workload in DRIVERS:
            result = run(args)
        else:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"known: all, {', '.join(DRIVERS)}")
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
