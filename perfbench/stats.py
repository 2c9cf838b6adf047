"""Order statistics and aggregate figures the benchmark reports."""

from __future__ import annotations

import math

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` (to 0.1) among ``n`` samples.

    Integer arithmetic: ``ceil(p * n / 100)`` in floats puts p99.9 of
    10,000 samples one rank too high.
    """
    return max(1, -(-round(p * 10) * n // 1000))


def nearest_rank(values: list[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` by the nearest-rank rule."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(n: int, min_beyond: int = TAIL_MIN_BEYOND) -> float | None:
    """The highest ladder percentile with ``min_beyond`` samples above its rank.

    With ``n`` samples the nearest-rank ``p``-th percentile is sample
    ``ceil(p * n / 100)`` in sorted order, so ``n - rank`` samples lie
    beyond it.  ``None`` when even the median leaves fewer than
    ``min_beyond`` samples beyond it.
    """
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= min_beyond:
            return p
    return None


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail of op latencies, naming the tail percentile.

    Runs have at least 20 ops, so a shorter list means ops failed; its
    tail falls back to the maximum (p100), and no samples read as 0.
    """
    if not latencies:
        return {"n": 0, "p50": 0.0, "tail_p": 100.0, "tail": 0.0}
    p = tail_percentile(len(latencies))
    if p is None:
        p = 100.0
    return {
        "n": len(latencies),
        "p50": nearest_rank(latencies, 50.0),
        "tail_p": p,
        "tail": nearest_rank(latencies, p),
    }


def sa_quality(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """``(quality_ratio, total_log_gain)`` of ``(start, best)`` SA costs.

    ``quality_ratio`` is the geometric mean of ``best / start``; the
    log gain is the sum of ``ln(start / best)``.  Pairs are summed in
    sorted order so the figures do not depend on the order in which
    pool workers returned them.
    """
    logs = sorted(math.log(best / start) for start, best in pairs)
    if not logs:
        raise ValueError("no SA runs recorded")
    return math.exp(math.fsum(logs) / len(logs)), -math.fsum(logs)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return num / den if den else 0.0
