"""Seeded workload generator.

Every workload's inputs — candidate architectures, model rotation and SA
seeds — come from ``random.Random(seed)`` here; the program receives
only what a plan holds.  The same seed gives the same plan.

A run does a fixed amount of work: the op count is ``--seconds`` times
the workload's nominal rate (ops per second measured on the 2-CPU
reference host at the commit that introduced the benchmark), so every
commit is measured on the same inputs and a run lasts about
``--seconds`` there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Fewest ops in a run: 20 latencies leave 10 beyond the median.
MIN_OPS = 20

#: Core/cut geometries of the 72-TOPS Table-I grid.  DSE runs draw whole
#: rounds of them (:func:`draw_candidates`), so every run has the same
#: geometry mix.
GEOMETRIES = 32

#: Ops per second on the reference host; sizes each run.
NOMINAL_RATE = {
    "dse-sweep": 2.3,
    "map-anneal": 3.5,
    "campaign-warm": 5.5,  # candidate outcomes of the cold + warm phases
}

#: DSE inputs: TF and ResNet-50 at batch 8, 40 SA iterations (ROADMAP item 1).
DSE_MODELS = (("TF", 8), ("RN-50", 8))
DSE_SA_ITERATIONS = 40

#: map-anneal rotates these (model, batch) pairs on G-Arch.
ANNEAL_MODELS = (("RN-50", 64), ("TF", 8), ("MBV2", 4))
ANNEAL_SA_ITERATIONS = 600

#: campaign-warm: the cold and resumed campaigns use the DSE budget; the
#: warm campaign a different one, so its candidate keys are new.
CAMPAIGN_COLD_ITERATIONS = DSE_SA_ITERATIONS
CAMPAIGN_WARM_ITERATIONS = 60
CAMPAIGN_WORKERS = 2

_SEED_SPACE = 2**31


@dataclass(frozen=True)
class DsePlan:
    candidates: tuple  # ArchConfig, one per op
    sa_seed: int  # candidate i anneals with sa_seed + i


@dataclass(frozen=True)
class AnnealPlan:
    ops: tuple  # (model, batch, sa_seed) per op


@dataclass(frozen=True)
class CampaignPlan:
    candidates: tuple  # ArchConfig; each is evaluated cold, warm, resumed
    sa_seed: int


def op_count(workload: str, seconds: int, multiple: int = 1) -> int:
    n = max(MIN_OPS, round(seconds * NOMINAL_RATE[workload]))
    return multiple * math.ceil(n / multiple)


def table1_geometries() -> list[list]:
    """The 72-TOPS Table-I grid, grouped by core array and chiplet cuts."""
    from repro.dse.candidates import DseGrid, enumerate_candidates

    groups: dict[tuple, list] = {}
    for arch in enumerate_candidates(DseGrid.paper_grid(72)):
        key = (arch.cores_x, arch.cores_y, arch.xcut, arch.ycut)
        groups.setdefault(key, []).append(arch)
    return [groups[k] for k in sorted(groups)]


def draw_candidates(rng: random.Random, n: int) -> tuple:
    """``n`` Table-I candidates, stratified by geometry.

    Geometries are visited in shuffled rounds, one random candidate of
    each, so every run covers the whole core-count range; a plain
    uniform draw would leave the small meshes, whose candidates take
    half as long, to chance.  Plans draw whole rounds.
    """
    geometries = table1_geometries()
    out = []
    order: list[int] = []
    while len(out) < n:
        if not order:
            order = list(range(len(geometries)))
            rng.shuffle(order)
        out.append(rng.choice(geometries[order.pop()]))
    return tuple(out)


def dse_plan(seed: int, seconds: int) -> DsePlan:
    rng = random.Random(seed)
    n = op_count("dse-sweep", seconds, multiple=GEOMETRIES)
    return DsePlan(draw_candidates(rng, n), rng.randrange(_SEED_SPACE))


def anneal_plan(seed: int, seconds: int) -> AnnealPlan:
    rng = random.Random(seed)
    n = op_count("map-anneal", seconds, multiple=len(ANNEAL_MODELS))
    return AnnealPlan(tuple(
        (*ANNEAL_MODELS[i % len(ANNEAL_MODELS)], rng.randrange(_SEED_SPACE))
        for i in range(n)
    ))


def campaign_plan(seed: int, seconds: int) -> CampaignPlan:
    rng = random.Random(seed)
    # Each candidate yields two timed outcomes (cold and warm phase);
    # the cold phase alone must give MIN_OPS latencies.
    n = max(MIN_OPS, op_count("campaign-warm", seconds) // 2)
    n = GEOMETRIES * math.ceil(n / GEOMETRIES)
    return CampaignPlan(draw_candidates(rng, n), rng.randrange(_SEED_SPACE))
