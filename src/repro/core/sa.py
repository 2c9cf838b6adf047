"""Simulated-annealing LP SPM exploration engine (Sec V-B1).

In each iteration the controller picks a layer group (probability
proportional to the log-size of its optimization space, Sec IV-B), draws
one of the five operators, and evaluates the modified scheme with the
Evaluator under the ``E^beta * D^gamma`` objective.  Improvements are
always accepted; regressions are accepted with probability
``exp(-rel_delta / T)`` under a geometrically cooling temperature.

Because D2D links have lower bandwidth and higher energy, moves that add
D2D traffic raise the cost and are increasingly rejected as T falls —
the mechanism by which Gemini "automatically optimizes D2D
communication" (Sec V-B1, demonstrated in Sec VII-C).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from repro.core.encoding import LayerGroupMapping
from repro.core.operators import OPERATORS, op5_change_flow
from repro.core.space import gemini_space_size, log10_size
from repro.errors import SearchError
from repro.evalmodel.evaluator import Evaluator
from repro.workloads.graph import DNNGraph


@dataclass
class SASettings:
    """Hyper-parameters of the annealing schedule."""

    iterations: int = 400
    t_start: float = 0.30
    t_end: float = 0.005
    beta: float = 1.0   # energy exponent
    gamma: float = 1.0  # delay exponent
    seed: int = 0
    #: Operator names to draw from (None = all five).  Used by the
    #: operator-ablation study; the paper's search always uses all five.
    operators: tuple[str, ...] | None = None
    #: Proposals scored per iteration (>= 1).  ``1`` (default) is the
    #: paper's plain Metropolis walk.  ``K > 1`` draws K operator moves
    #: against the current state, prices them in one pass of the
    #: batched compiled core (each against the group's current rows),
    #: and runs the accept test on the cheapest — a best-of-K walk that
    #: trades evaluations per iteration for greedier descent.
    #: Deterministic for a fixed seed, but a *different* search
    #: trajectory than ``K=1``; opt-in.
    proposal_batch: int = 1
    #: Walkers annealed in lockstep (>= 1; see
    #: :mod:`repro.core.population`).  ``1`` (default) is the
    #: single-trajectory walk above; ``N > 1`` runs N
    #: independently-seeded walkers whose proposals are priced
    #: together through the population-batched compiled core
    #: (:mod:`repro.compiled.batch`) — a different (deterministic)
    #: search trajectory, keyed distinctly in campaign digests.
    population: int = 1
    #: Parallel-tempering rungs over the population (>= 1; ``1`` = all
    #: walkers share the base schedule).  Only meaningful with
    #: ``population > 1``; clamped to the population size.
    tempering: int = 1
    #: Record search diagnostics (convergence curve, per-operator
    #: effectiveness, temperature checkpoints) into ``SAStats.diag``.
    #: Pure observation: the trajectory is unchanged, so campaign
    #: content digests deliberately exclude this flag.
    diag: bool = False

    def __post_init__(self):
        # Values below 1 would run the serial walk under a different
        # settings digest, so stored results would never serve them.
        for name in ("proposal_batch", "population", "tempering"):
            value = getattr(self, name)
            if value < 1:
                raise SearchError(f"{name} must be >= 1, got {value}")


@dataclass
class SAStats:
    """Telemetry of one annealing run."""

    iterations: int = 0
    proposed: int = 0
    accepted: int = 0
    improved: int = 0
    #: 1-based iteration at which the best solution was last improved;
    #: 0 means the initial mapping was never beaten.  Campaigns compare
    #: this between warm- and cold-started runs.
    best_iteration: int = 0
    operator_uses: dict[str, int] = field(default_factory=dict)
    initial_cost: float = 0.0
    final_cost: float = 0.0
    wall_time_s: float = 0.0
    #: Search diagnostics (:meth:`repro.obs.diag.SARunDiag.to_dict`);
    #: ``None`` unless the run was started with ``SASettings.diag``.
    diag: dict | None = None

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    @property
    def iters_per_sec(self) -> float:
        """SA-loop throughput of the run (annealing loop only)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.iterations / self.wall_time_s

    @property
    def improvement(self) -> float:
        """Relative cost reduction achieved by the search."""
        if self.initial_cost <= 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


class SAController:
    """Anneals the LMS of every layer group of one DNN."""

    def __init__(
        self,
        graph: DNNGraph,
        evaluator: Evaluator,
        lmss: list[LayerGroupMapping],
        batch: int,
        settings: SASettings | None = None,
    ):
        if not lmss:
            raise SearchError("no layer groups to anneal")
        self.graph = graph
        self.evaluator = evaluator
        self.batch = batch
        self.settings = settings or SASettings()
        self.rng = random.Random(self.settings.seed)
        self.current = list(lmss)
        self.best = list(lmss)
        # The SA loop revisits the same routes and layer shapes over and
        # over — warm the evaluator's route cache and the graph's
        # compiled tables before the first step (idempotent).
        evaluator.warm(graph)
        self._group_weights = self._space_weights()
        # Cumulative weights + a reusable index list keep the
        # per-iteration group draw from re-accumulating the weights.
        cum = []
        total = 0.0
        for w in self._group_weights:
            total += w
            cum.append(total)
        self._group_cum_weights = cum
        self._group_indices = list(range(len(self.current)))
        self._stored_at = self._stored_at_map(self.current)
        self.current_costs = [self._cost(lms) for lms in self.current]
        self.best_costs = list(self.current_costs)
        self.stats = SAStats(initial_cost=sum(self.current_costs))
        # Delta evaluation over the compiled tables: a one-slot batched
        # state per group, sharing the evaluator's block caches.
        # ``None`` on the object reference path (cache off / maxmin).
        compiled_for = getattr(evaluator, "compiled_for", None)
        compiled = compiled_for(graph) if compiled_for is not None else None
        self._states = None
        if compiled is not None and self.settings.population == 1:
            from repro.compiled.batch import PopulationGroupState

            self._states = [
                PopulationGroupState(compiled, [lms], batch,
                                     [self._stored_at])
                for lms in self.current
            ]
        #: The PopulationWalk of the last population run (telemetry).
        self._population_walk = None
        self._delta_eval_s = 0.0
        self._delta_evals = 0
        # Opt-in diagnostics recorder; ``None`` keeps the hot path at
        # one attribute check per iteration.
        self._diag = None
        if self.settings.diag:
            from repro.obs.diag import SARunDiag

            self._diag = SARunDiag(
                self.settings.iterations, self.settings.seed
            )

    # ------------------------------------------------------------------

    def _space_weights(self) -> list[float]:
        arch = self.evaluator.arch
        weights = []
        for lms in self.current:
            size = gemini_space_size(arch.n_cores, len(lms.group))
            weights.append(max(1.0, log10_size(size)))
        return weights

    def _stored_at_map(self, lmss) -> dict[str, int]:
        stored: dict[str, int] = {}
        for lms in lmss:
            for name in lms.group.layers:
                of = lms.scheme(name).fd.ofmap
                if of >= 0:
                    stored[name] = of
        return stored

    def _update_stored_at(self, lms: LayerGroupMapping) -> None:
        """Refresh ``_stored_at`` for one group's layers only.

        Groups partition the graph's layers, so replacing the mutated
        group's entries is exactly equivalent to rebuilding the map over
        every group (the entry is dropped when OF became implicit).
        """
        for name in lms.group.layers:
            of = lms.scheme(name).fd.ofmap
            if of >= 0:
                self._stored_at[name] = of
            else:
                self._stored_at.pop(name, None)

    def _objective(self, ev) -> float:
        """The ``E^beta * D^gamma`` objective of one group evaluation."""
        s = self.settings
        return (ev.energy.total ** s.beta) * (ev.delay ** s.gamma)

    def _cost(self, lms: LayerGroupMapping) -> float:
        ev = self.evaluator.evaluate_group(
            self.graph, lms, self.batch, self._stored_at
        )
        return self._objective(ev)

    def _temperature(self, i: int) -> float:
        s = self.settings
        if s.iterations <= 1:
            return s.t_end
        ratio = (s.t_end / s.t_start) ** (i / (s.iterations - 1))
        return s.t_start * ratio

    def _pick_group(self) -> int:
        return self.rng.choices(
            self._group_indices, cum_weights=self._group_cum_weights
        )[0]

    def _apply_operator(self, lms: LayerGroupMapping):
        """Draw one operator and apply it: ``(name, candidate | None)``."""
        enabled = self.settings.operators
        pool = (
            OPERATORS if enabled is None
            else tuple(o for o in OPERATORS if o[0] in enabled)
        )
        if not pool:
            raise SearchError("no SA operators enabled")
        name, op = pool[self.rng.randrange(len(pool))]
        self.stats.operator_uses[name] = self.stats.operator_uses.get(name, 0) + 1
        if self._diag is not None:
            self._diag.draw(name)
        if op is op5_change_flow:
            return name, op(self.graph, lms, self.rng,
                            n_dram=self.evaluator.arch.n_dram)
        return name, op(self.graph, lms, self.rng)

    # ------------------------------------------------------------------

    def _price(self, gi: int, candidates: list[LayerGroupMapping]):
        """Costs of candidate moves of group ``gi``.

        Returns ``(costs, proposal)``; the batched proposal (``None`` on
        the object path) must be resolved into the group's state once
        the accept test has run.  Delta and full evaluation are
        bit-identical, so both paths produce the same trajectory.
        """
        if self._states is None:
            return [self._cost(c) for c in candidates], None
        state = self._states[gi]
        t0 = time.perf_counter()
        if len(candidates) == 1:
            bp = state.propose([(0, candidates[0])], [self._stored_at])
        else:
            bp = state.score(0, candidates, self._stored_at)
        self._delta_eval_s += time.perf_counter() - t0
        self._delta_evals += len(candidates)
        return [self._objective(ev) for ev in bp.evals], bp

    def _accept(self, gi: int, iteration: int, candidate, new_cost) -> bool:
        """Metropolis accept test + state bookkeeping for one move."""
        old_cost = self.current_costs[gi]
        accept = new_cost <= old_cost
        if not accept and old_cost > 0:
            rel = (new_cost - old_cost) / old_cost
            t = self._temperature(iteration)
            accept = self.rng.random() < math.exp(-rel / max(t, 1e-9))
        if not accept:
            return False
        self.stats.accepted += 1
        self.current[gi] = candidate
        self.current_costs[gi] = new_cost
        self._update_stored_at(candidate)
        if new_cost < self.best_costs[gi]:
            self.best[gi] = candidate
            self.best_costs[gi] = new_cost
            self.stats.improved += 1
            self.stats.best_iteration = iteration + 1
        return True

    def _rel_delta(self, old_cost: float, new_cost: float) -> float:
        """Relative cost delta of a move (comparable across groups)."""
        if old_cost > 0:
            return (new_cost - old_cost) / old_cost
        return new_cost - old_cost

    def step(self, iteration: int) -> bool:
        """One SA iteration; returns True when a move was accepted.

        Draws ``proposal_batch`` moves against one group's current
        state; the cheapest takes the accept test (ties -> first).
        """
        gi = self._pick_group()
        candidates = []
        for _ in range(self.settings.proposal_batch):
            name, c = self._apply_operator(self.current[gi])
            if c is not None:
                candidates.append((name, c))
        if not candidates:
            return False
        self.stats.proposed += len(candidates)
        old_cost = self.current_costs[gi]
        improved_before = self.stats.improved
        costs, bp = self._price(gi, [c for _, c in candidates])
        bi = min(range(len(costs)), key=costs.__getitem__)
        accepted = self._accept(gi, iteration, candidates[bi][1], costs[bi])
        if bp is not None:
            self._states[gi].resolve(
                bp, [accepted and j == bi for j in range(len(costs))]
            )
        if self._diag is not None:
            improved = self.stats.improved > improved_before
            for j, (name, _) in enumerate(candidates):
                self._diag.proposal(
                    name, self._rel_delta(old_cost, costs[j]),
                    accepted and j == bi, improved and j == bi,
                )
        return accepted

    def run(self) -> list[LayerGroupMapping]:
        if self.settings.population > 1:
            from repro.core.population import run_population

            return run_population(self)
        from repro.obs.trace import trace

        ran = 0
        diag = self._diag
        with trace("sa.run", iterations=self.settings.iterations,
                   seed=self.settings.seed, groups=len(self.best)):
            t0 = time.perf_counter()
            for i in range(self.settings.iterations):
                self.stats.iterations += 1
                ran += 1
                self.step(i)
                if diag is not None and diag.want(i):
                    diag.sample(i, sum(self.best_costs),
                                sum(self.current_costs),
                                self._temperature(i))
            self.stats.wall_time_s += time.perf_counter() - t0
        self.stats.final_cost = sum(self.best_costs)
        if ran:
            from repro.perf import PERF

            PERF.add("sa.iterations", ran)
        if self._delta_evals:
            from repro.perf import PERF

            PERF.add_time("sa.delta_eval", self._delta_eval_s,
                          self._delta_evals)
        if self._states is not None:
            proposed = sum(s.proposed for s in self._states)
            committed = sum(s.committed for s in self._states)
            if proposed:
                from repro.perf import PERF

                PERF.add("sa.session.proposed", proposed)
                PERF.add("sa.session.committed", committed)
        if diag is not None:
            from repro.obs.diag import DIAG

            self.stats.diag = diag.to_dict(self.stats)
            DIAG.record(self.stats.diag["operators"])
        return list(self.best)
