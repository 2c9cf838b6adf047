"""Live, store-only campaign monitoring: ``repro campaign watch``.

Everything here reads derived artifacts — the campaign manifest, the
result store and the run ledger.  No models are loaded, no grids are
re-enumerated, no evaluators are built, so watching a huge (or crashed,
or still-running) campaign is instant and side-effect free, exactly
like ``campaign status``.

One :func:`watch_snapshot` call folds the three sources into a single
dict: progress counts, per-shard health (which worker pids are
evaluating, how fast, when last seen), throughput (candidates/s and SA
iterations/s), the cache hit-ratio table from the last perf event, and
an ETA for the pending tail.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.campaign.runner import campaign_status
from repro.obs.ledger import LEDGER_NAME, read_ledger

#: Ledger event names (shared with :class:`repro.campaign.runner.CampaignRunner`).
EVENT_RUN_STARTED = "run_started"
EVENT_RUN_RESUMED = "run_resumed"
EVENT_EVALUATED = "candidate_evaluated"
EVENT_FAILED = "candidate_failed"
EVENT_RETRIED = "candidate_retried"
EVENT_TIMEOUT = "candidate_timeout"
EVENT_QUARANTINED = "candidate_quarantined"
EVENT_WORKER_DIED = "worker_died"
EVENT_POOL_RESPAWNED = "pool_respawned"
EVENT_INTERRUPTED = "run_interrupted"
EVENT_FINISHED = "run_finished"
EVENT_PERF = "perf"

_RUN_EVENTS = (EVENT_RUN_STARTED, EVENT_RUN_RESUMED)

_SHARD_DEFAULTS = {
    "evaluated": 0, "failed": 0, "busy_s": 0.0, "last_ts": 0.0,
    "attempts": 0, "retries": 0, "timeouts": 0, "quarantined": 0,
}


def ledger_path(home: str | Path, name: str) -> Path:
    return Path(home) / name / LEDGER_NAME


def ledger_cache_stats(counters: dict) -> dict[str, dict]:
    """Hit/miss/ratio per ``<prefix>.hits/.misses`` pair in a counter
    dict (a ledger perf event, not the live registry — watch must not
    fold in whatever caches happen to live in *this* process)."""
    out: dict[str, dict] = {}
    for name in counters:
        for suffix in (".hits", ".misses"):
            if name.endswith(suffix):
                prefix = name[: -len(suffix)]
                break
        else:
            continue
        if prefix in out:
            continue
        hits = counters.get(f"{prefix}.hits", 0)
        misses = counters.get(f"{prefix}.misses", 0)
        total = hits + misses
        out[prefix] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }
    return out


def watch_snapshot(home: str | Path, name: str,
                   now: float | None = None) -> dict:
    """Progress + shard health + throughput of one campaign, store-only."""
    status = campaign_status(home, name)
    events, skipped = read_ledger(ledger_path(home, name))
    now = time.time() if now is None else now

    # Events of the *latest* run segment: shard pids and rates from a
    # run that crashed yesterday must not dilute today's throughput.
    last_run_idx = 0
    run_count = 0
    for i, ev in enumerate(events):
        if ev["event"] in _RUN_EVENTS:
            run_count += 1
            last_run_idx = i
    segment = events[last_run_idx:]
    run_event = next(
        (ev for ev in segment if ev["event"] in _RUN_EVENTS), None
    )

    shards: dict[int, dict] = {}
    faults = {"retries": 0, "timeouts": 0, "quarantined": 0,
              "worker_deaths": 0, "pool_respawns": 0}

    def shard_of(ev: dict) -> dict:
        return shards.setdefault(
            int(ev.get("shard", ev["pid"])), dict(_SHARD_DEFAULTS)
        )

    for ev in segment:
        if ev["event"] == EVENT_EVALUATED:
            shard = shard_of(ev)
            shard["evaluated"] += 1
            shard["attempts"] += int(ev.get("attempts", 1))
            shard["busy_s"] += float(ev.get("duration_s", 0.0))
            shard["last_ts"] = max(shard["last_ts"], ev["ts"])
        elif ev["event"] == EVENT_FAILED:
            shard = shard_of(ev)
            shard["failed"] += 1
            shard["last_ts"] = max(shard["last_ts"], ev["ts"])
        elif ev["event"] == EVENT_RETRIED:
            shard_of(ev)["retries"] += 1
            faults["retries"] += 1
        elif ev["event"] == EVENT_TIMEOUT:
            shard_of(ev)["timeouts"] += 1
            faults["timeouts"] += 1
        elif ev["event"] == EVENT_QUARANTINED:
            shard = shard_of(ev)
            shard["quarantined"] += 1
            shard["last_ts"] = max(shard["last_ts"], ev["ts"])
            faults["quarantined"] += 1
        elif ev["event"] == EVENT_WORKER_DIED:
            faults["worker_deaths"] += 1
        elif ev["event"] == EVENT_POOL_RESPAWNED:
            faults["pool_respawns"] += 1

    # Aggregate throughput: shards run in parallel, so the campaign
    # rate is the sum of the per-shard rates (count / busy time).
    cand_rate = 0.0
    for shard in shards.values():
        if shard["busy_s"] > 0:
            shard["rate"] = shard["evaluated"] / shard["busy_s"]
            cand_rate += shard["rate"]
        else:
            shard["rate"] = 0.0
    busy_s = sum(s["busy_s"] for s in shards.values())

    perf_event = next(
        (ev for ev in reversed(events) if ev["event"] == EVENT_PERF), None
    )
    counters = (perf_event or {}).get("counters", {})
    sa_iters = counters.get("sa.iterations", 0)
    iters_rate = sa_iters / busy_s if busy_s > 0 else 0.0

    pending = status["pending"]
    eta_s = pending / cand_rate if cand_rate > 0 and pending else None
    finished = any(
        ev["event"] in (EVENT_FINISHED, EVENT_INTERRUPTED) for ev in segment
    )

    return {
        "status": status,
        "runs": run_count,
        "resumed": bool(run_event and run_event["event"] == EVENT_RUN_RESUMED),
        "run_event": run_event,
        "run_active": bool(segment) and not finished,
        "shards": shards,
        "faults": faults,
        "cands_per_sec": cand_rate,
        "sa_iters_per_sec": iters_rate,
        "busy_s": busy_s,
        "eta_s": eta_s,
        "caches": ledger_cache_stats(counters),
        "ledger_events": len(events),
        "ledger_skipped": skipped,
        "now": now,
    }


def render_watch(snap: dict) -> str:
    """One text frame of a watch snapshot."""
    from repro.reporting import cache_table, format_table

    status = snap["status"]
    total = status["total"] or 1
    done = status["done"]
    bar_w = 30
    filled = int(round(bar_w * done / total))
    bar = "#" * filled + "-" * (bar_w - filled)
    state = "running" if snap["run_active"] else "idle"
    lines = [
        f"campaign {status['name']!r} [{bar}] {done}/{status['total']} done, "
        f"{status['pending']} pending, {status['failed']} failed"
        + (f", {status['quarantined']} quarantined"
           if status.get("quarantined") else "")
        + f" ({state}, run {snap['runs']}"
        + (" resumed" if snap["resumed"] else "") + ")",
    ]
    faults = snap.get("faults") or {}
    if any(faults.values()):
        lines.append(
            "faults: "
            f"{faults['retries']} retried, {faults['timeouts']} timed out, "
            f"{faults['quarantined']} quarantined, "
            f"{faults['worker_deaths']} worker death(s), "
            f"{faults['pool_respawns']} pool respawn(s)"
        )
    thr = (f"throughput: {snap['cands_per_sec']:.2f} cand/s, "
           f"{snap['sa_iters_per_sec']:.0f} SA it/s")
    if snap["eta_s"] is not None:
        thr += f" — ETA {snap['eta_s']:.0f}s"
    lines.append(thr)
    if snap["shards"]:
        rows = []
        for pid, s in sorted(snap["shards"].items()):
            mean = s["busy_s"] / s["evaluated"] if s["evaluated"] else 0.0
            age = max(0.0, snap["now"] - s["last_ts"])
            rows.append([
                pid, s["evaluated"], s["failed"],
                s.get("attempts", s["evaluated"]), s.get("retries", 0),
                s.get("timeouts", 0), s.get("quarantined", 0),
                f"{s['busy_s']:.1f}s", f"{mean:.2f}s", f"{age:.0f}s ago",
            ])
        lines.append("")
        lines.append(format_table(
            ["shard", "evaluated", "failed", "attempts", "retries",
             "timeouts", "poison", "busy", "s/cand", "last seen"],
            rows,
        ))
    if snap["caches"]:
        lines.append("")
        lines.append(cache_table(snap["caches"]))
    best = status.get("best", {})
    if best:
        rows = [[axis, rec["arch"], rec["value"]]
                for axis, rec in best.items()]
        lines.append("")
        lines.append(format_table(["objective", "best arch", "value"], rows))
    lines.append("")
    lines.append(f"ledger: {snap['ledger_events']} event(s)"
                 + (f", {snap['ledger_skipped']} skipped"
                    if snap["ledger_skipped"] else ""))
    return "\n".join(lines)


def campaign_watch(
    home: str | Path,
    name: str,
    once: bool = False,
    interval: float = 2.0,
    stream=None,
    as_json: bool = False,
) -> int:
    """Render the campaign until interrupted (or once); returns 0.

    ``as_json`` emits each frame as one machine-readable JSON line
    (the raw :func:`watch_snapshot` dict) instead of the text report,
    so dashboards and scripts can poll a campaign without screen-
    scraping tables.
    """
    import json
    import sys

    stream = sys.stdout if stream is None else stream
    try:
        while True:
            snap = watch_snapshot(home, name)
            if as_json:
                frame = json.dumps(snap, sort_keys=True)
            else:
                frame = render_watch(snap)
                if not once and getattr(stream, "isatty", lambda: False)():
                    stream.write("\x1b[2J\x1b[H")
            stream.write(frame + "\n")
            stream.flush()
            if once:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
