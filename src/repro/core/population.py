"""Population SA: N annealing walkers advanced in lockstep batches.

``SASettings.population = N`` runs N independent Metropolis walkers
over the same layer groups.  Each step draws **one** layer group for
the whole population (so every walker's candidate lands in the same
:class:`~repro.compiled.batch.PopulationGroupState` and the entire
step prices as one batched fold + finalize), then one operator move
per walker, a per-walker accept test, and a single batched resolve.

Walker w draws from its own ``random.Random`` stream, so the
population is N *distinct* trajectories — deterministic for a fixed
seed, but deliberately not the serial N=1 trajectory (that one is
preserved exactly by the ``population=1`` path, batched or not).

``SASettings.tempering = K`` layers parallel tempering on top: walkers
are pinned to K temperature rungs (rung r anneals at ``T(i) *
(t_start/t_end)**(r/K)``, so rung 0 is the base schedule and higher
rungs run hotter), and every :data:`SWAP_PERIOD` steps adjacent rungs
exchange members under the standard replica-exchange test on their
current total costs.  The swap schedule — alternating rung parity,
member j of rung r paired with member j of rung r+1 — and the swap
rng are deterministic functions of the seed.

Best-so-far tracking stays *per group across the population* (any
walker beating ``best_costs[gi]`` updates the controller's best), so
``SAController.run`` returns the same shape of answer regardless of
population size.
"""

from __future__ import annotations

import math
import random
import time

from repro.core.operators import OPERATORS, op5_change_flow
from repro.errors import SearchError

#: Steps between replica-exchange attempts when ``tempering > 1``.
SWAP_PERIOD = 16


class PopulationWalk:
    """The mutable state of one population run over a controller."""

    def __init__(self, ctrl):
        s = ctrl.settings
        self.ctrl = ctrl
        self.n = s.population
        self.k = max(1, min(s.tempering, self.n))
        # Group draws and swap tests come from a dedicated stream so
        # walker streams stay pure functions of (seed, walker index).
        self.rng = random.Random((s.seed << 1) ^ 0x9E3779B9)
        self.walker_rngs = [
            random.Random(s.seed * 1_000_003 + w + 1) for w in range(self.n)
        ]
        # Every walker starts at the controller's initial state.
        self.lms = [list(ctrl.current) for _ in range(self.n)]
        self.costs = [list(ctrl.current_costs) for _ in range(self.n)]
        self.stored = [dict(ctrl._stored_at) for _ in range(self.n)]
        total0 = sum(ctrl.current_costs)
        self.totals = [total0] * self.n
        # Temperature multipliers per rung; rung 0 is the base schedule.
        ratio = s.t_start / s.t_end if s.t_end > 0 else 1.0
        self.mult = [ratio ** (r / self.k) for r in range(self.k)]
        self.rung_of = [w % self.k for w in range(self.n)]
        self.rungs = [
            [w for w in range(self.n) if w % self.k == r]
            for r in range(self.k)
        ]
        self.swaps_attempted = 0
        self.swaps_accepted = 0
        self._swap_round = 0
        self.base_t = s.t_start
        enabled = s.operators
        self.pool = (
            OPERATORS if enabled is None
            else tuple(o for o in OPERATORS if o[0] in enabled)
        )
        if not self.pool:
            raise SearchError("no SA operators enabled")
        compiled_for = getattr(ctrl.evaluator, "compiled_for", None)
        self.ceval = (
            compiled_for(ctrl.graph) if compiled_for is not None else None
        )
        #: Lazily-built batched group states (compiled path only), one
        #: per layer group, created the first time the group is drawn.
        self.states = [None] * len(ctrl.current)
        self.candidates_scored = 0

    # ------------------------------------------------------------------

    def _state(self, gi: int):
        st = self.states[gi]
        if st is None:
            from repro.compiled.batch import PopulationGroupState

            st = PopulationGroupState(
                self.ceval,
                [self.lms[w][gi] for w in range(self.n)],
                self.ctrl.batch,
                self.stored,
            )
            self.states[gi] = st
        return st

    def _draw(self, w: int, lms):
        """One operator draw for walker ``w`` (mirrors
        ``SAController._apply_operator`` on the walker's own rng)."""
        ctrl = self.ctrl
        rng = self.walker_rngs[w]
        name, op = self.pool[rng.randrange(len(self.pool))]
        ctrl.stats.operator_uses[name] = \
            ctrl.stats.operator_uses.get(name, 0) + 1
        if ctrl._diag is not None:
            ctrl._diag.draw(name)
        if op is op5_change_flow:
            return name, op(ctrl.graph, lms, rng,
                            n_dram=ctrl.evaluator.arch.n_dram)
        return name, op(ctrl.graph, lms, rng)

    def _update_stored(self, w: int, lms) -> None:
        stored = self.stored[w]
        for name in lms.group.layers:
            of = lms.scheme(name).fd.ofmap
            if of >= 0:
                stored[name] = of
            else:
                stored.pop(name, None)

    # ------------------------------------------------------------------

    def step(self, iteration: int) -> int:
        """One lockstep population iteration; returns accepted count."""
        ctrl = self.ctrl
        gi = self.rng.choices(
            ctrl._group_indices, cum_weights=ctrl._group_cum_weights
        )[0]
        cands = []
        for w in range(self.n):
            name, cand = self._draw(w, self.lms[w][gi])
            if cand is not None:
                cands.append((w, name, cand))
        accepted_total = 0
        if cands:
            ctrl.stats.proposed += len(cands)
            self.candidates_scored += len(cands)
            t0 = time.perf_counter()
            if self.ceval is not None:
                st = self._state(gi)
                bp = st.propose(
                    [(w, cand) for w, _, cand in cands], self.stored
                )
                evals = bp.evals
            else:
                bp = st = None
                evals = [
                    ctrl.evaluator.evaluate_group(
                        ctrl.graph, cand, ctrl.batch, self.stored[w]
                    )
                    for w, _, cand in cands
                ]
            ctrl._delta_eval_s += time.perf_counter() - t0
            ctrl._delta_evals += len(cands)
            base_t = ctrl._temperature(iteration)
            diag = ctrl._diag
            flags = []
            for (w, name, cand), ev in zip(cands, evals):
                new_cost = ctrl._objective(ev)
                old_cost = self.costs[w][gi]
                accept = new_cost <= old_cost
                if not accept and old_cost > 0:
                    rel = (new_cost - old_cost) / old_cost
                    t = base_t * self.mult[self.rung_of[w]]
                    accept = (
                        self.walker_rngs[w].random()
                        < math.exp(-rel / max(t, 1e-9))
                    )
                flags.append(accept)
                improved = False
                if accept:
                    accepted_total += 1
                    ctrl.stats.accepted += 1
                    self.lms[w][gi] = cand
                    self.totals[w] += new_cost - old_cost
                    self.costs[w][gi] = new_cost
                    self._update_stored(w, cand)
                    if new_cost < ctrl.best_costs[gi]:
                        ctrl.best[gi] = cand
                        ctrl.best_costs[gi] = new_cost
                        ctrl.stats.improved += 1
                        ctrl.stats.best_iteration = iteration + 1
                        improved = True
                if diag is not None:
                    diag.proposal(
                        name, ctrl._rel_delta(old_cost, new_cost),
                        accept, improved,
                    )
            if bp is not None:
                st.resolve(bp, flags)
        if self.k > 1 and (iteration + 1) % SWAP_PERIOD == 0:
            self._swap()
        return accepted_total

    def _swap(self) -> None:
        """One replica-exchange sweep over adjacent rung pairs."""
        # Alternate even/odd rung pairings so every adjacent pair of
        # rungs is visited on alternating sweeps.
        parity = self._swap_round % 2
        for r in range(parity, self.k - 1, 2):
            cold, hot = self.rungs[r], self.rungs[r + 1]
            for j in range(min(len(cold), len(hot))):
                wc, wh = cold[j], hot[j]
                self.swaps_attempted += 1
                c_cold, c_hot = self.totals[wc], self.totals[wh]
                if c_hot <= c_cold:
                    ok = True
                elif c_cold > 0:
                    # Exchanging states between inverse temperatures
                    # 1/Ta (cold) and 1/Tb (hot) with relative cost gap.
                    rel = (c_hot - c_cold) / c_cold
                    ta = max(self.base_t * self.mult[r], 1e-9)
                    tb = max(self.base_t * self.mult[r + 1], 1e-9)
                    ok = self.rng.random() < math.exp(
                        -rel * (1.0 / ta - 1.0 / tb)
                    )
                else:
                    ok = False
                if ok:
                    self.swaps_accepted += 1
                    cold[j], hot[j] = wh, wc
                    self.rung_of[wh] = r
                    self.rung_of[wc] = r + 1
        self._swap_round += 1


def run_population(ctrl):
    """The population/tempering run loop of :meth:`SAController.run`."""
    from repro.obs.trace import trace
    from repro.perf import PERF

    s = ctrl.settings
    walk = PopulationWalk(ctrl)
    ctrl._population_walk = walk
    diag = ctrl._diag
    with trace("sa.population.run", iterations=s.iterations,
               seed=s.seed, population=walk.n, tempering=walk.k,
               groups=len(ctrl.best)):
        t0 = time.perf_counter()
        for i in range(s.iterations):
            ctrl.stats.iterations += 1
            walk.base_t = ctrl._temperature(i)
            walk.step(i)
            if diag is not None and diag.want(i):
                diag.sample(i, sum(ctrl.best_costs), min(walk.totals),
                            ctrl._temperature(i))
        ctrl.stats.wall_time_s += time.perf_counter() - t0
    ctrl.stats.final_cost = sum(ctrl.best_costs)
    if s.iterations:
        PERF.add("sa.iterations", s.iterations)
        PERF.add("sa.population.steps", s.iterations)
    if walk.candidates_scored:
        PERF.add("sa.population.candidates", walk.candidates_scored)
        PERF.add_time("sa.delta_eval", ctrl._delta_eval_s,
                      ctrl._delta_evals)
    if walk.swaps_attempted:
        PERF.add("sa.population.swap_attempts", walk.swaps_attempted)
        PERF.add("sa.population.swaps", walk.swaps_accepted)
    if diag is not None:
        from repro.obs.diag import DIAG

        ctrl.stats.diag = diag.to_dict(ctrl.stats)
        DIAG.record(ctrl.stats.diag["operators"])
    return list(ctrl.best)
